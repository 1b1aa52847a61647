"""numpy's own LAPACK and OpenBLAS, reached through ctypes.

Every eigensolve and every product of a contraction runs on one BLAS thread
(one_blas_thread, which coupling's dipole products use too). numpy's OpenBLAS
rounds these products differently under one and two threads, so results used
to change with OPENBLAS_NUM_THREADS; under the pin they do not, on one machine
and BLAS build. A second thread buys little at these sizes: a lone 457-point
eigh takes 25-36 ms under one thread or two. The outermost entry, from any
thread, sets one thread and the last exit restores the count. Without the
set/get thread-count calls (BLAS_THREADS) nothing is pinned, and rovib solves
nothing ahead.

A dense solve calls LAPACK's dsyevd itself (eigh_in_place), with JOBZ = 'V'
and UPLO = 'L' as eigh passes them, on the span Hamiltonian's own C-ordered
buffer. rovib._eigensolve builds that matrix exactly symmetric (row[|i - j|]
plus a diagonal), so the lower triangle LAPACK reads of the buffer taken
column-major holds exactly the values of the column-major copy eigh makes;
with the same workspace, from the same lwork = -1 query, the energies and
vectors are eigh's bits. The eigenvectors overwrite the matrix as its rows
(vectors = H.T), so neither eigh's input copy nor its m x m output is made:
1.7 MB each at m = 457, beside dsyevd's own 1 + 6m + 2m^2 doubles of
workspace (3.3 MB). The symbol (DSYEVD) is found under a name whose suffix
fixes LAPACK's integer width:

    scipy_dsyevd_64_   64-bit   (numpy's scipy-openblas64 wheels)
    dsyevd_64_         64-bit
    scipy_dsyevd_      32-bit

Under any other build a dense solve is np.linalg.eigh: the same routine, the
same bits, and its two copies. info != 0 raises np.linalg.LinAlgError, as
eigh does. A contraction's K x K matrix comes from a GEMM and is not bitwise
symmetric, so it goes through eigh.

Both lookups run once, at import, through one handle on numpy's LAPACK
extension module: it searches the libraries that module was linked against,
the OpenBLAS numpy loaded and not another one in the process. BLAS_THREADS
and DSYEVD are each None when no name of theirs is found.

SOLVER names what fixes a pinned dense solve's bits: numpy's version, that
module's file, the DSYEVD symbol and OpenBLAS's build string (its
*_get_config call, which names the core it runs on). It is None when DSYEVD
or that call is missing. molpol._bases shares solves between processes only
under SOLVER, the pin and DSYEVD together.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

# (set, get) thread-count calls of the OpenBLAS builds numpy ships, in that order
_THREAD_CALL_NAMES = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# names of LAPACK's dsyevd in the builds numpy ships, each with the integer
# width its suffix fixes; any other name's width is unknown, so it is not used
_DSYEVD_NAMES = (
    ("scipy_dsyevd_64_", ctypes.c_int64),
    ("dsyevd_64_", ctypes.c_int64),
    ("scipy_dsyevd_", ctypes.c_int32),
)
# OpenBLAS's build string in the builds numpy ships
_CONFIG_NAMES = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _lookup():
    """(BLAS_THREADS, DSYEVD, SOLVER): (set, get) of numpy's OpenBLAS thread
    count, (dsyevd, its integer type) and the solver's identity, each None
    when not found."""
    try:
        path = np.linalg._umath_linalg.__file__
        lib = ctypes.CDLL(path)
    except (AttributeError, OSError):
        return None, None, None
    threads = dsyevd = solver = None
    for set_name, get_name in _THREAD_CALL_NAMES:
        set_threads, get_threads = getattr(lib, set_name, None), getattr(lib, get_name, None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            threads = set_threads, get_threads
            break
    for name, integer in _DSYEVD_NAMES:
        call = getattr(lib, name, None)
        if call is not None:
            # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO and
            # the lengths of the two character arguments
            ptr, n = ctypes.c_void_p, ctypes.POINTER(integer)
            call.argtypes = [ctypes.c_char_p] * 2 + [n, ptr, n, ptr, ptr, n, ptr, n, n] + [ctypes.c_size_t] * 2
            call.restype = None
            dsyevd = call, integer
            break
    for name in _CONFIG_NAMES:
        config = getattr(lib, name, None)
        if config is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
            build = config()
            if build and dsyevd is not None:
                solver = "\n".join([np.__version__, path, dsyevd[0].__name__, build.decode(errors="replace")])
            break
    return threads, dsyevd, solver


BLAS_THREADS, DSYEVD, SOLVER = _lookup()


def eigh_in_place(ham: np.ndarray):
    """(energies, vectors) of the exactly symmetric, C-contiguous ham, ascending,
    with eigh's bits; ham is overwritten and vectors = ham.T. Without DSYEVD
    this is np.linalg.eigh."""
    m = len(ham)
    if ham.dtype != np.float64 or ham.shape != (m, m) or not (ham.flags.c_contiguous and ham.flags.writeable):
        raise ValueError("an in-place eigensolve needs a square, writable, C-contiguous float64 matrix")
    if DSYEVD is None:
        return np.linalg.eigh(ham)
    dsyevd, integer = DSYEVD
    n, info = integer(m), integer(0)
    energies = np.empty(m)

    def call(work, lwork, iwork, liwork):
        dsyevd(
            b"V", b"L", n, ham.ctypes.data, n, energies.ctypes.data,
            work.ctypes.data, integer(lwork), iwork.ctypes.data, integer(liwork), info, 1, 1,
        )
        return info.value

    work, iwork = np.empty(1), np.empty(1, dtype=integer)
    if call(work, -1, iwork, -1) == 0:   # the workspace query, as eigh makes it
        work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=integer)
        call(work, len(work), iwork, len(iwork))
    if info.value != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return energies, ham.T


class _OneBlasThread:
    """Runs numpy's OpenBLAS on one thread while any caller is inside.

    Reentrant and shared by every thread: the outermost entry saves the
    thread count and sets 1, the last exit restores it. Without the
    OpenBLAS calls it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0 and BLAS_THREADS is not None:
                set_threads, get_threads = BLAS_THREADS
                self._restore = set_threads, get_threads()
                set_threads(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                set_threads, count = self._restore
                set_threads(count)
                self._restore = None


one_blas_thread = _OneBlasThread()


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
