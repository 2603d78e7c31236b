"""The OpenBLAS that numpy's and scipy's wheels bundle, reached through ctypes.

Each wheel may ship one (`numpy.libs`, `scipy.libs`) built with the
`scipy_openblas_` entry points. `bundled()` finds them once a process for
`harness._pin_blas`, which sets their thread counts.
"""
from __future__ import annotations

import ctypes
import functools
import glob
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy


class Library(NamedTuple):
    """One bundled OpenBLAS: its file's basename and its thread-count entry
    points."""

    name: str
    set_num_threads: Callable[[int], None]
    get_num_threads: Callable[[], int]


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
            found.append(Library(Path(path).name, setter, getter))
    return tuple(found)
