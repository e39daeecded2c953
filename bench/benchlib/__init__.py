"""Harness library of the repo benchmark (see ``bench/README.md``).

Everything here measures ``repro`` from outside, by timing calls into
its public functions; nothing under ``src/`` knows the benchmark exists.
"""
