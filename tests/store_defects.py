"""File-level defect classes every on-disk store must treat as a miss.

Each entry of :data:`FILE_DEFECTS` maps a defect name to
``corrupt(blob, magic) -> bytes``: given the bytes a store wrote and
that store's deflate magic (``None`` for the trial cache, which never
deflates), it returns what a broken disk, a crashed writer or a hostile
peer might leave at the same path. ``tests/test_castore.py`` runs them
against the shared layer; each store's test file runs them through its
public loader. :func:`hammer` is the writers' stress harness the
concurrent-write regressions share.
"""

import functools
import sys
import threading
import zlib

from repro.common.castore import MAX_ENTRY_BYTES


@functools.lru_cache(maxsize=None)
def zip_bomb() -> bytes:
    """A ~130 KiB zlib stream inflating to twice the entry ceiling."""
    packer = zlib.compressobj(6)
    chunk = b" " * (1 << 20)
    parts = [
        packer.compress(chunk)
        for _ in range(2 * MAX_ENTRY_BYTES // len(chunk))
    ]
    parts.append(packer.flush())
    return b"".join(parts)


def _tag(magic):
    return magic or b""


FILE_DEFECTS = {
    "empty": lambda blob, magic: b"",
    "truncated": lambda blob, magic: blob[: len(blob) // 2],
    "not_utf8": lambda blob, magic: b"\xff\xfe" + blob,
    "garbage_after_magic": (
        lambda blob, magic: _tag(magic) + b"\x00not a zlib stream"
    ),
    "trailing_bytes_after_stream": (
        lambda blob, magic: _tag(magic) + zlib.compress(b"{}") + b"x"
    ),
    "wrong_json_type": lambda blob, magic: b"[1, 2, 3]",
    "deflated_wrong_json_type": (
        lambda blob, magic: _tag(magic) + zlib.compress(b'"entry"')
    ),
    "deep_nesting": lambda blob, magic: b"[" * 200_000,
    "deep_nesting_in_object": lambda blob, magic: b'{"a":' * 100_000,
    "deflated_deep_nesting": (
        lambda blob, magic: _tag(magic) + zlib.compress(b"[" * 200_000)
    ),
    "zip_bomb": lambda blob, magic: _tag(magic) + zip_bomb(),
}


def hammer(work, writers, rounds):
    """Run ``work()`` ``rounds`` times on each of ``writers`` threads,
    started together under a shortened switch interval; the exceptions
    they raised (a lost temp-file race shows up here)."""
    errors = []
    start = threading.Barrier(writers)

    def writer():
        start.wait(timeout=30)
        try:
            for _ in range(rounds):
                work()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors
