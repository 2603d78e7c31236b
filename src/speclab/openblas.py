"""The OpenBLAS that numpy's and scipy's wheels bundle, reached through ctypes.

Each wheel may ship one (`numpy.libs`, `scipy.libs`) built with the
`scipy_openblas_` entry points. `bundled()` finds them once a process, and
two callers read it: `harness._pin_blas` sets their thread counts, and
`eigen` calls LAPACK's dstebz in scipy's copy, by index for the top of a
spectrum (`dstebz_top`, from `eigen.full_spectrum`) and by value for a
count (`dstebz_count`, from `eigen.count_above`). That copy is the library
`scipy.linalg.lapack` links, so the results are
`scipy.linalg.lapack.dstebz`'s bit for bit, without importing
`scipy.linalg` (about 18 MiB and 0.3 s in a fresh interpreter). Both calls
share one lock and, per size, one set of buffers.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy


class Library(NamedTuple):
    """One bundled OpenBLAS: its file's basename, its thread-count entry
    points, and its LP64 `scipy_dstebz_`, bound in scipy's copy alone (None
    in numpy's, which is not the library `scipy.linalg.lapack` links)."""

    name: str
    set_num_threads: Callable[[int], None]
    get_num_threads: Callable[[], int]
    dstebz: Callable | None


@functools.cache
def bundled() -> tuple[Library, ...]:
    """Each OpenBLAS bundled with numpy and scipy; empty when neither wheel
    bundles one with the `scipy_openblas_` entry points."""
    found = []
    for pkg in (np, scipy):
        site = Path(pkg.__file__).resolve().parent.parent
        for path in sorted(glob.glob(str(site / f"{pkg.__name__}.libs" / "*openblas*"))):
            lib = ctypes.CDLL(path)
            suffix = "64_" if "openblas64" in path else ""
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            # PyDLL keeps the GIL through the call, as scipy's f2py wrapper
            # does, and saves its release and reacquisition
            dstebz = (getattr(ctypes.PyDLL(path), "scipy_dstebz_", None)
                      if pkg is scipy and not suffix else None)
            if dstebz is not None:
                dstebz.argtypes = ([ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 16
                                   + [ctypes.c_size_t] * 2)
                dstebz.restype = None
            found.append(Library(Path(path).name, setter, getter, dstebz))
    return tuple(found)


# one caller at a time fills a size's buffers and reads them back
_STEBZ_LOCK = threading.Lock()


class _Stebz(NamedTuple):
    """One size's dstebz buffers, as views, and its two argument tuples.

    `d` receives the diagonal, `w` returns the eigenvalues and `window`
    holds VL, VU and ABSTOL of a call by value; `ints` holds N, IL, IU, M,
    NSPLIT and INFO, then IBLOCK, ISPLIT and IWORK. `top` selects by index
    (RANGE "I", ORDER "E": ascending over the whole matrix, VL = VU =
    ABSTOL = 0) and `count` by value (RANGE "V" on `window`, ORDER "B": no
    sort across split-off blocks).
    """

    d: np.ndarray
    w: np.ndarray
    window: np.ndarray
    ints: np.ndarray
    top: tuple
    count: tuple


@functools.lru_cache(maxsize=4)
def _stebz_args(n: int) -> _Stebz:
    """dstebz's buffers for n sites and its argument tuples, by reference
    into them, as the Fortran ABI takes it.

    The off-diagonal is all ones; WORK holds 4n reals and IWORK 3n
    integers, as dstebz asks; the two trailing lengths are the hidden ones
    of the CHARACTER arguments. Each size's pointers are built once: numpy
    takes about 1.5 us to give an array's address, and a call on 51 sites
    costs about 28 us in all.
    """
    reals = np.zeros(7 * n + 3)  # 0 (VL, VU, ABSTOL of top), D, E, W, WORK, window
    reals[n + 1:2 * n] = 1.0
    ints = np.zeros(6 + 5 * n, dtype=np.int32)
    ints[0] = ints[2] = n
    r, i = reals.ctypes.data, ints.ctypes.data
    p, f8, i4 = ctypes.c_void_p, reals.itemsize, ints.itemsize
    zero, vl, vu, abstol = (p(r + j * f8) for j in (0, 7 * n, 7 * n + 1, 7 * n + 2))
    shared = (p(r + f8), p(r + (n + 1) * f8), p(i + 3 * i4), p(i + 4 * i4),
              p(r + 2 * n * f8), p(i + 6 * i4), p(i + (6 + n) * i4), p(r + 3 * n * f8),
              p(i + (6 + 2 * n) * i4), p(i + 5 * i4), ctypes.c_size_t(1), ctypes.c_size_t(1))
    top = (b"I", b"E", p(i), zero, zero, p(i + i4), p(i + 2 * i4), zero) + shared
    count = (b"V", b"B", p(i), vl, vu, p(i + i4), p(i + 2 * i4), abstol) + shared
    # the buffers stay alive with the cache entry that holds these views
    return _Stebz(reals[1:n + 1], reals[2 * n:3 * n], reals[7 * n:], ints, top, count)


def dstebz_top(dstebz: Callable, d: np.ndarray, m: int) -> tuple[int, np.ndarray, int]:
    """(found, values, info) of one `dstebz` call for the m largest
    eigenvalues of the tridiagonal with diagonal d and unit off-diagonal:
    indices n-m+1..n, ascending, to LAPACK's default absolute tolerance.
    `values` is a copy of the last m found, fewer when found < m."""
    n = d.size
    with _STEBZ_LOCK:
        buf = _stebz_args(n)
        buf.d[:] = d
        buf.ints[1] = n - m + 1
        dstebz(*buf.top)
        found, info = buf.ints.item(3), buf.ints.item(5)
        return found, buf.w[max(found - m, 0):found].copy(), info


def dstebz_count(dstebz: Callable, d: np.ndarray, vl: float, vu: float,
                 abstol: float) -> tuple[int, int]:
    """(found, info) of one `dstebz` call by value on (vl, vu] with
    tolerance abstol, on the tridiagonal with diagonal d and unit
    off-diagonal: found is the number of eigenvalues in (vl, vu]."""
    with _STEBZ_LOCK:
        buf = _stebz_args(d.size)
        buf.d[:] = d
        buf.window[:] = vl, vu, abstol
        dstebz(*buf.count)
        return buf.ints.item(3), buf.ints.item(5)
