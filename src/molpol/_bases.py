"""Dense bases kept on disk, so that no process repeats a solve another made.

rovib._solve looks a block up here before it solves it and writes what it
solved after. An entry is one file in $XDG_CACHE_HOME/molpol, or
~/.cache/molpol when that variable is unset or not an absolute path, named
after the crc32 and adler32 of its key. It holds four arrays one after
another in numpy's .npy format (numpy.lib.format; written without pickle,
read with allow_pickle=False): the entry's key, the span's (start, stop),
the K energies and the (m, K) vectors. Each array goes straight between the
file and its own memory, with no archive layer and no copy.

The key (key) is the exact bytes of the solver's identity and of every input
rovib passes: _lapack.SOLVER (numpy's version, its LAPACK module, the dsyevd
symbol and OpenBLAS's build string), the crc32 of rovib.py, _lapack.py and
this file as the package holds them, and the arrays and numbers the basis
depends on, each with its dtype and shape. An entry that cannot be read, or
whose stored key is not the one asked for (two keys that share a name), is a
miss. What a hit returns is only read bytes: rovib certifies it before use.

A write goes to a temporary name in the directory and is moved into place
with os.replace, so a reader sees a whole entry or none, and then the oldest
files go until the directory holds at most MAX_BYTES. A write that fails is
dropped. Without _lapack's SOLVER, thread pin or DSYEVD, or without an
absolute cache directory, nothing is read or written. Deleting the directory
clears the store.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import zlib

import numpy as np

from . import _lapack

MAX_BYTES = 256 * 2**20   # the directory's cap; the oldest files go first
_SOURCES = ("rovib.py", "_lapack.py", "_bases.py")
# what an entry that cannot be read raises: no such file or a directory
# (OSError), a record that is not a whole .npy array (ValueError), and a
# header that claims more elements than memory holds (MemoryError)
_UNREADABLE = (OSError, ValueError, MemoryError)
# numpy parses each .npy header with ast.literal_eval, which CPython 3.11
# does not make safe in two threads at once (SystemError: AST constructor
# recursion depth mismatch): one thread reads an entry at a time
_READING = threading.Lock()


@functools.cache
def _sources() -> str | None:
    """The crc32 of each file in _SOURCES, read once per process; None when one cannot be read."""
    here = os.path.dirname(os.path.abspath(__file__))
    crcs = []
    for name in _SOURCES:
        try:
            with open(os.path.join(here, name), "rb") as source:
                crcs.append(f"{name} {zlib.crc32(source.read()):08x}")
        except OSError:
            return None
    return "\n".join(crcs)


def key(*inputs) -> bytes | None:
    """The entry key of a basis solved from `inputs` (arrays and numbers); None
    when the solver has no identity (_lapack holds no SOLVER, thread pin or
    DSYEVD, each read when the key is made, or a source cannot be read) or
    an input has no fixed bytes (an int past int64 is an object array)."""
    sources = _sources()
    if None in (_lapack.SOLVER, _lapack.BLAS_THREADS, _lapack.DSYEVD, sources):
        return None
    parts = [f"{_lapack.SOLVER}\n{sources}".encode()]
    for value in inputs:
        a = np.asarray(value)
        if a.dtype.hasobject:
            return None
        parts += [f"\n{a.dtype.str} {a.shape}\n".encode(), a.tobytes()]
    return b"".join(parts)


def _read_array(file) -> np.ndarray:
    """The next array of an entry, read straight into its own memory."""
    return np.lib.format.read_array(file, allow_pickle=False)


def _path(entry_key: bytes | None) -> str | None:
    """The file of a key, or None for no key or without an absolute cache directory."""
    if entry_key is None:
        return None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    name = f"{zlib.crc32(entry_key):08x}{zlib.adler32(entry_key):08x}.basis"
    return os.path.join(base, "molpol", name)


def read(entry_key: bytes | None):
    """(start, stop, energies, vectors) of the entry stored under the key, as
    read; None for no key, no entry, an unreadable one or another key's."""
    path = _path(entry_key)
    if path is None:
        return None
    try:
        with _READING, open(path, "rb") as file:
            if _read_array(file).tobytes() != entry_key:
                return None
            span = _read_array(file)
            if span.dtype != np.int64 or span.shape != (2,):
                return None
            return int(span[0]), int(span[1]), _read_array(file), _read_array(file)
    except _UNREADABLE:
        return None


def write(entry_key: bytes | None, start: int, stop: int, energies: np.ndarray, vectors: np.ndarray) -> None:
    """Store a basis under the key, then hold the directory to MAX_BYTES; a
    write that fails leaves no file and raises nothing."""
    path = _path(entry_key)
    if path is None:
        return
    folder = os.path.dirname(path)
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        os.makedirs(folder, exist_ok=True)
        try:
            with open(tmp, "wb") as out:
                for array in (np.frombuffer(entry_key, np.uint8), np.array([start, stop], np.int64), energies, vectors):
                    np.lib.format.write_array(out, array, allow_pickle=False)
            try:
                os.replace(tmp, path)
            except IsADirectoryError:   # an empty directory under the entry's name
                os.rmdir(path)
                os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        _prune(folder)
    except OSError:
        pass


def _prune(folder: str) -> None:
    """Remove the oldest entries and temporary files until those left hold at most MAX_BYTES."""
    files = []
    with os.scandir(folder) as listing:
        for item in listing:
            if item.name.endswith((".basis", ".tmp")) and item.is_file(follow_symlinks=False):
                stat = item.stat(follow_symlinks=False)
                files.append((stat.st_mtime_ns, item.name, stat.st_size))
    total = sum(size for *_, size in files)
    for _, name, size in sorted(files):
        if total <= MAX_BYTES:
            break
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(folder, name))
        total -= size
