"""Entry framing and file policy shared by the on-disk stores.

The per-trial result cache, the overlay snapshot store and the sweep
history store each keep one JSON mapping per content address. What an
address covers, what the mapping carries and how its identity is
validated is theirs; everything about the *file* is decided here, once:
canonical-JSON framing with an optional per-store magic + zlib, the
``sha256`` seal (checked over the bytes read, never by re-encoding), a
read for which every defect is a miss, the atomic write, and
least-recently-used eviction. ``docs/performance.md``
("On-disk stores") states the rules.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.common.errors import ConfigurationError

__all__ = [
    "DEFLATE_MIN_BYTES",
    "MAX_ENTRY_BYTES",
    "bounded_inflate",
    "canonical_json",
    "entry_paths",
    "gc",
    "read_entry",
    "seal_entry",
    "touch",
    "write_entry",
]

# Entries smaller than this are stored as plain JSON: compressing a
# couple of kilobytes saves nothing worth the opacity.
DEFLATE_MIN_BYTES = 4096

#: Ceiling on what a deflated entry may inflate to. The largest entry
#: the code writes is an N=100k ``.npz`` snapshot of about 10 MB; a file
#: claiming more than this is corruption or a zip bomb, and a miss.
MAX_ENTRY_BYTES = 64 * 1024 * 1024


def canonical_json(payload: object) -> str:
    """Serialise ``payload`` deterministically (sorted keys, fixed style)."""
    return json.dumps(
        payload, sort_keys=True, indent=2, separators=(",", ": ")
    )


def bounded_inflate(data: bytes, limit: int) -> bytes:
    """Inflate one complete zlib stream of at most ``limit`` bytes.

    Raises ``ValueError`` for a malformed or truncated stream, trailing
    bytes after it, or output past ``limit`` — inflation stops at
    ``limit + 1`` bytes, so a zip bomb costs that much and no more.
    """
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(data, limit + 1)
    except zlib.error as exc:
        raise ValueError(f"undecodable zlib stream: {exc}") from None
    if len(out) > limit or not inflater.eof or inflater.unused_data:
        raise ValueError(
            "zlib stream is truncated, has trailing bytes, or expands "
            f"past the {limit}-byte limit"
        )
    return out


def seal_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """Set ``entry["sha256"]`` to the hash of its other keys, in place."""
    body = {key: value for key, value in entry.items() if key != "sha256"}
    text = canonical_json(body)
    entry["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return entry


# In canonical JSON a line opening with exactly two spaces and a quote
# is a top-level key: nested keys sit deeper, and no string holds a raw
# newline. So the seal is one line, found without parsing.
_SEAL_LINE = b'\n  "sha256": "'
_SEAL_HEX = 64


def _sealed_text(entry: Mapping[str, Any]) -> str:
    """``canonical_json(seal_entry(body))`` for the non-seal keys of
    ``entry``, encoding the body once: the seal line is spliced into
    the body's text at its sorted place."""
    body = {key: value for key, value in entry.items() if key != "sha256"}
    text = canonical_json(body)
    seal = hashlib.sha256(text.encode("utf-8")).hexdigest()
    following = [key for key in body if key > "sha256"]
    if following:  # the seal line goes in front of the next key's
        at = text.index(f"\n  {json.dumps(min(following))}: ") + 1
        return f'{text[:at]}  "sha256": "{seal}",\n{text[at:]}'
    if body:
        return f'{text[:-2]},\n  "sha256": "{seal}"\n}}'
    return f'{{\n  "sha256": "{seal}"\n}}'


def _seal_holds(text: bytes) -> bool:
    """Whether ``text`` is what a sealed write produced: the SHA-256 of
    ``text`` without its seal line (and one trailing newline) — exactly
    the canonical body the writer hashed — equals the seal."""
    start = text.find(_SEAL_LINE)
    if start < 0:
        return False
    end = start + len(_SEAL_LINE) + _SEAL_HEX
    seal = text[end - _SEAL_HEX : end]
    view = memoryview(text)
    hasher = hashlib.sha256()
    closing = text[end : end + 3]
    if closing == b'",\n':  # a key follows the seal
        hasher.update(view[: start + 1])
        rest = view[end + 3 :]
    elif closing == b'"\n}' and text[start - 1 : start] == b",":
        hasher.update(view[: start - 1])  # the seal is the last key
        rest = view[end + 1 :]
    elif closing == b'"\n}' and start == 1 and text[:1] == b"{":
        hasher.update(b"{")  # the seal is the only key
        rest = view[end + 2 :]
    else:
        return False
    if rest[-1:] == b"\n":
        rest = rest[:-1]
    hasher.update(rest)
    return hasher.hexdigest().encode("ascii") == seal


def read_entry(
    path: Union[str, Path],
    magic: Optional[bytes] = None,
    sealed: bool = True,
) -> Optional[Dict[str, Any]]:
    """Load one entry file; ``None`` (a miss) whatever is wrong with it.

    A file starting with ``magic`` is inflated first. ``sealed``
    additionally requires the text to carry a matching ``sha256`` line,
    which catches a truncated or bit-rotted write that still parses —
    and any re-indented, reordered or padded copy, whose text is no
    longer the one the writer hashed.
    """
    try:
        blob = Path(path).read_bytes()
        if magic is not None and blob.startswith(magic):
            blob = bounded_inflate(blob[len(magic) :], MAX_ENTRY_BYTES)
        if sealed and not _seal_holds(blob):
            return None
        entry = json.loads(blob.decode("utf-8"))
    except (OSError, ValueError, RecursionError):
        return None
    return entry if isinstance(entry, dict) else None


def write_entry(
    path: Union[str, Path],
    entry: Mapping[str, Any],
    magic: Optional[bytes] = None,
    newline: bool = True,
    sealed: bool = False,
) -> Path:
    """Atomically persist one entry (parents created); returns ``path``.

    The file is the entry's canonical JSON — ``sealed``, that of
    :func:`seal_entry` applied to it — newline-terminated if
    ``newline``; given a ``magic``, a body of :data:`DEFLATE_MIN_BYTES`
    or more is stored as ``magic`` + zlib-deflate when that is smaller.
    """
    text = _sealed_text(entry) if sealed else canonical_json(dict(entry))
    blob = (text + "\n" if newline else text).encode("utf-8")
    if magic is not None and len(blob) >= DEFLATE_MIN_BYTES:
        packed = magic + zlib.compress(blob, 6)
        if len(packed) < len(blob):
            blob = packed
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Writer-unique temp name: concurrent writers of one address (two
    # sweeps sharing a store, two server handler threads absorbing
    # sibling results) must never share a temp file; the last rename
    # wins, and both rename identical bytes anyway.
    tmp = path.with_name(
        f"{path.name}.tmp{os.getpid():x}-{threading.get_ident():x}"
    )
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return path


def touch(path: Union[str, Path]) -> None:
    """Best-effort mtime bump: a read hit marks its entry recently used,
    so :func:`gc` evicts oldest-*accessed* files, not oldest-written."""
    try:
        os.utime(path)
    except OSError:
        pass


def entry_paths(store_dir: Union[str, Path], pattern: str) -> List[Path]:
    """The files of ``store_dir`` matching ``pattern``, sorted by name."""
    return sorted(Path(store_dir).glob(pattern))


def gc(
    store_dir: Union[str, Path],
    pattern: str,
    max_bytes: int,
    keep: Iterable[Union[str, Path]] = (),
) -> int:
    """Evict least-recently-used entries until the store fits the cap.

    Files of ``store_dir`` matching ``pattern`` are ranked by ``(mtime,
    filename)``: reads bump mtime, so this is least-recently-*accessed*,
    and the filename breaks ties deterministically on coarse-mtime
    filesystems where a burst of writes lands on one timestamp. The
    top-ranked entry always survives, even when it alone exceeds the
    cap — evicting what was just written would turn the store into a
    no-op — and paths in ``keep`` are pinned outright (a fresh write's
    timestamp can tie with its siblings). Returns the number of files
    removed; a concurrently vanished or unstatable file is skipped.
    """
    if max_bytes < 0:
        raise ConfigurationError(f"max_bytes must be >= 0, got {max_bytes}")
    ranked = []
    total = 0
    for path in entry_paths(store_dir, pattern):
        try:
            stat = path.stat()
        except OSError:
            continue
        ranked.append((stat.st_mtime, path.name, stat.st_size, path))
        total += stat.st_size
    ranked.sort()  # names are unique, so size and path never decide
    pinned = {Path(p) for p in keep}
    removed = 0
    for _mtime, _name, size, path in ranked[:-1]:  # newest always survives
        if total <= max_bytes:
            break
        if path in pinned:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed += 1
    return removed
