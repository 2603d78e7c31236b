"""Eigenvalues of H: one exact entry point and an iterative extremal solver.

`solver_path` is the one rule for how the top m of a Hamiltonian's spectrum
are solved: ARPACK's Lanczos under `solver = lanczos` or at d >= 2 above the
dense cap, on a box of more than max(2m + 2, 32) sites; else the exact path
of the dimension, which is cheap on a small box and needs no m < n. It never
raises: a cap exists only where a solve holds more than O(n) memory, and
that is the dense cap on a d >= 2 full spectrum alone, which `ids` takes
there.

`full_spectrum(op, dense_cap, m=None)` is the only exact solve. At d >= 2 it
calls the LAPACK symmetric solver (Householder reduction to tridiagonal
form, then implicit-shift QL/QR) on `to_dense`, which caps a full spectrum.
A d=1 operator is already tridiagonal: its full spectrum comes from the QL
driver in O(n) memory, so at any n (no experiment takes one), and its m
largest eigenvalues, as every extremal experiment asks, from Sturm-sequence
bisection (LAPACK stebz; Barth, Martin & Wilkinson, Numer. Math. 9, 1967)
for those m indices alone, in O(n m log(1/eps)), at any n. The bisection
is one call of scipy's own dstebz wrapper (`_dstebz`), which lives in the
extension `scipy.linalg._flapack` and is loaded without `scipy.linalg`, so
a trial that bisects loads neither that package nor its 18 MiB.
The extremal solver `extremal_topk` is ARPACK's implicitly restarted Lanczos
(scipy's `eigsh`) for the m largest eigenvalues, with every residual
re-verified against the operator.

`count_le(op, x)` counts a d=1 operator's eigenvalues at or below each point
of x, in O(n) per point and without solving, so `ids` takes no spectrum at
d=1. One twisted Sturm sweep from both ends of the chain counts every point;
IEEE infinities pair each zero or tiny pivot with one of the opposite sign
(Demmel, Dhillon & Ren, ETNA 3, 1995), so only the last step is clamped.
`count_above(op, t)` counts a d=1 operator's eigenvalues above one point by
dstebz by value: LAPACK's own Sturm counts, in one call on (t, VU] whose
tolerance leaves it nothing to bisect, through the same wrapper as the
top-m bisection. `harness` certifies an unmoved E1 along a nested ladder
with it.
"""
from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path
from typing import Callable

import numpy as np
import scipy  # scipy.linalg and scipy.sparse.linalg load on first use

from .operators import DENSE_CAP_DEFAULT, LatticeOperator

# LAPACK's pivmin for unit off-diagonals (dstebz: safe minimum * max(1, e^2))
PIVMIN = np.finfo(np.float64).tiny
# steps (a site from each end) per block of count_le, and the cap on a
# block's pivots, which bounds its one pivot buffer at 512 KiB for any
# number of points
STURM_BLOCK_SITES = 64
STURM_BLOCK_VALUES = 1 << 16
LANCZOS_TOL_DEFAULT = 1e-10
LANCZOS_MAX_ITER_DEFAULT = 2000


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, with residuals for iterative results.

    `method` names the path taken: one of `solver_path`'s names, or
    "tridiagonal" for the full spectrum of a d=1 box.
    """

    values: np.ndarray
    method: str
    residuals: np.ndarray | None = None
    converged: bool = True
    iterations: int = 0


def solver_path(dimension: int, n: int, m: int, solver: str, dense_cap: int) -> str:
    """The path of an n-site top-m slice: "lanczos" for solver "lanczos" and
    at d >= 2 above dense_cap, when n > max(2m + 2, 32); else "bisection" at
    d = 1 and "dense" at d >= 2."""
    lanczos = solver == "lanczos" or (dimension >= 2 and n > dense_cap)
    if lanczos and n > max(2 * m + 2, 32):
        return "lanczos"
    return "bisection" if dimension == 1 else "dense"


def load_solver(path: str) -> None:
    """Load what a `solver_path` path calls, as a pool does before it forks
    so that its workers inherit it: scipy's dstebz wrapper for bisection
    (`_dstebz`, without scipy.linalg), scipy.sparse.linalg for Lanczos and
    scipy.linalg for dense. scipy.sparse.linalg imports scipy.linalg itself,
    so a Lanczos trial whose m grows into the exact path finds that loaded
    too."""
    if path == "bisection":
        _dstebz()
    else:
        importlib.import_module({"lanczos": "scipy.sparse.linalg", "dense": "scipy.linalg"}[path])


@functools.cache
def _dstebz() -> Callable:
    """scipy's f2py wrapper of LAPACK's dstebz, `scipy.linalg._flapack.dstebz`.

    The extension is found in scipy's linalg/ directory and registered in
    sys.modules under its own name, without running scipy/linalg/__init__.py
    (about 18 MiB and 0.3 s in a fresh interpreter); a later import of
    scipy.linalg takes it from there, so `scipy.linalg.lapack.dstebz` is
    this same function. Without the extension file, that function.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        finder = FileFinder(str(Path(scipy.__file__).parent / "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            return scipy.linalg.lapack.dstebz
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dstebz


@functools.lru_cache(maxsize=8)
def _unit_hops(n: int) -> np.ndarray:
    """The off-diagonal of an n-site d=1 operator, n - 1 ones; read-only and
    made once per size, since a ladder solves and counts a few sizes
    thousands of times."""
    ones = np.ones(n - 1)
    ones.flags.writeable = False
    return ones


def full_spectrum(
    op: LatticeOperator, dense_cap: int = DENSE_CAP_DEFAULT, m: int | None = None
) -> Spectrum:
    """All eigenvalues, or with m the m largest (ascending), on the exact path.

    A d >= 2 operator is materialized and solved by dense eigh; its top m
    are a slice of that spectrum. Only a d >= 2 full spectrum is capped, by
    `to_dense(dense_cap)`, which raises CapacityError over it. A d=1
    operator is tridiagonal: its full spectrum comes from the QL driver, and
    its top m from Sturm-sequence bisection (scipy's dstebz wrapper) for
    the indices n-m+1..n alone, to LAPACK's default absolute tolerance
    eps*|T|; a LinAlgError is raised when stebz reports failure or finds
    fewer than m.
    """
    n = op.n
    if m is not None and not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if op.spec.dimension >= 2:
        H = op.to_dense(dense_cap if m is None else n)
        vals = scipy.linalg.eigh(H, eigvals_only=True, driver="ev")
        return Spectrum(values=vals if m is None else vals[-m:], method="dense")
    ones = _unit_hops(n)
    if m is None:
        return Spectrum(values=scipy.linalg.eigvalsh_tridiagonal(op.diagonal, ones),
                        method="tridiagonal")
    # dstebz called directly: eigvalsh_tridiagonal's input checks cost as much
    # as the bisection itself on boxes of ~50 sites. Range 2 selects by
    # 1-based index; order "E" sorts ascending over the whole matrix
    found, vals, _, _, info = _dstebz()(op.diagonal, ones, 2, 0.0, 0.0, n - m + 1, n, 0.0, "E")
    if info != 0 or found < m:
        raise np.linalg.LinAlgError(
            f"stebz found {found} of the top {m} eigenvalues (info {info})")
    return Spectrum(values=vals[found - m:found], method="bisection")


def count_le(op: LatticeOperator, x) -> np.ndarray:
    """#{eigenvalues <= x} of a d=1 operator, at every point of the 1-D array x.

    Twisted Sturm count, as LAPACK's dlaneg (Fernando, SIAM J. Matrix Anal.
    Appl. 18, 1997; Dhillon & Parlett, Linear Algebra Appl. 387, 2004). With
    the twist at the middle site k = L of the n = 2L + 1 sites and the unit
    hopping, H - x = N D N^T, where N is unit lower bidiagonal above row k
    and unit upper bidiagonal below it, and D is diagonal with
      - the forward pivots q_i = (V_i - x) - 1/q_{i-1} of the sites i < k;
      - the backward pivots r_i = (V_i - x) - 1/r_{i+1} of the sites i > k,
        with 1/q_{-1} = 1/r_n = 0;
      - the twist gamma_k = ((V_k - x) - 1/q_{k-1}) - 1/r_{k+1}.
    By Sylvester's law of inertia, H - x and D have equally many negative
    eigenvalues, so N(x) is the number of negative entries of D, as in a
    one-ended sweep (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).

    LAPACK (dlaebz) replaces a pivot with |q| < PIVMIN by -PIVMIN, so an x at
    an eigenvalue is counted. IEEE arithmetic carries that rule with no check
    (Demmel, Dhillon & Ren, ETNA 3, 1995): a pivot that is +-0 or below PIVMIN
    is followed by a +-inf or huge one of the opposite sign, so the pair holds
    one set sign bit, as the clamped pair does, and after it the chain is the
    clamped one unless |V - x| at the next site is below about 1e-290. Pivots
    are tallied by sign bit (-0.0 counts); the last step's, which have no
    successor, and gamma are clamped.

    Both ends run at once: L Python steps over 2 x.size pivots a pass, in one
    buffer of STURM_BLOCK_VALUES at most. A NaN point raises ValueError.
    """
    if op.spec.dimension != 1:
        raise ValueError("count_le counts a d = 1 operator")
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("count_le got a NaN point")
    diag, n, p = op.diagonal, op.n, x.size
    # a d = 1 box has n = 2L + 1 sites: the twist is site L, and each step
    # takes site i forward and site n-1-i backward
    k = n // 2
    lanes = np.stack([diag[:k], diag[:k:-1]], axis=1)
    rows = max(1, min(STURM_BLOCK_SITES, STURM_BLOCK_VALUES // max(2 * p, 1)))
    pivots = np.empty((rows, 2 * p))  # V_i - x, then the pivot, in place
    recip = np.zeros(2 * p)  # 1/pivot of each lane's previous step
    negative = np.zeros(2 * p, dtype=np.int64)
    # bound once: the loop below is all ufunc calls, so their lookup counts
    subtract, reciprocal = np.subtract, np.reciprocal
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, k, rows):
            b = min(rows, k - start)
            piv = pivots[:b]
            np.subtract(lanes[start:start + b, :, None], x, out=piv.reshape(b, 2, p))
            for row in piv:
                subtract(row, recip, row)
                reciprocal(row, recip)
            if start + b == k:
                # the last step's pivots have no successor: clamp them
                np.copyto(piv[-1], -PIVMIN, where=np.abs(piv[-1]) < PIVMIN)
                reciprocal(piv[-1], recip)
            # at most STURM_BLOCK_SITES (< 256) rows: a byte holds the tally
            negative += np.add.reduce(np.signbit(piv).view(np.uint8), axis=0, dtype=np.uint8)
        twist = (diag[k] - x) - recip[:p] - recip[p:]
    np.copyto(twist, -PIVMIN, where=np.abs(twist) < PIVMIN)
    return negative[:p] + negative[p:] + (twist < 0.0)


def count_above(op: LatticeOperator, t: float) -> int:
    """#{eigenvalues > t} of a d=1 operator, by one dstebz call by value.

    RANGE "V" on (t, VU], VU = 2 * norm_bound() above every eigenvalue, with
    ABSTOL = VU - t: dstebz counts the Sturm sequences at both ends of
    (t, VU] clipped to the Gershgorin interval, which gives M, the count,
    then takes one midpoint step, after which every interval is narrower
    than ABSTOL and nothing is bisected: O(n) in all. Its counts follow
    LAPACK's pivmin rule, so an eigenvalue at t is not counted. 0 for t at
    or above norm_bound(); a NaN t or an operator of d >= 2 raises
    ValueError, and a LAPACK failure LinAlgError.
    """
    if op.spec.dimension != 1:
        raise ValueError("count_above counts a d = 1 operator")
    t = float(t)
    if math.isnan(t):
        raise ValueError("count_above got a NaN point")
    bound = op.norm_bound()
    if t >= bound:
        return 0
    vu = 2.0 * bound
    # range 1 selects by value; order "B" leaves split-off blocks unsorted
    found, _, _, _, info = _dstebz()(op.diagonal, _unit_hops(op.n), 1, t, vu, 0, 0, vu - t, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"stebz failed to count above {t} (info {info})")
    return found


def extremal_topk(
    op: LatticeOperator,
    m: int,
    rng: np.random.Generator,
    tol: float = LANCZOS_TOL_DEFAULT,
    max_iter: int = LANCZOS_MAX_ITER_DEFAULT,
) -> Spectrum:
    """The m largest eigenvalues by ARPACK's implicitly restarted Lanczos.

    One `scipy.sparse.linalg.eigsh` call (which="LA", default ncv) on a
    LinearOperator around `op.apply`; ARPACK keeps its Lanczos basis
    orthogonal and restarts it implicitly (Lehoucq, Sorensen & Yang, ARPACK
    Users' Guide, SIAM 1998). It accepts a Ritz pair when its residual is at
    most tol * max(eps**(2/3), |theta|), and |theta| <= 2d + max|V|, an exact
    upper bound on the operator norm. The residual of every returned pair is
    re-verified with one apply; the result is converged when ARPACK finished,
    all m values are present and every residual is at most
    4 * tol * (2d + max|V|). ARPACK needs m < n; `solver_path` sends boxes
    of n <= max(2m + 2, 32) sites to the exact path instead.

    Like any single-vector Lanczos, exact eigenvalue multiplicities are
    resolved only through rounding noise; random potentials have simple
    spectra almost surely, so this matters only for constructed
    exactly-degenerate inputs.

    Parameters
    ----------
    m : number of extremal eigenvalues requested (1 <= m <= n - 1).
    rng : generator supplying the start vector, and any fresh direction
        ARPACK asks for; fixing it fixes the output.
    tol : relative residual target.
    max_iter : ARPACK's cap on restart cycles. On exhaustion the result
        holds only the pairs ARPACK converged, possibly none, and is flagged
        as unconverged.

    `iterations` counts the operator applications ARPACK made.
    """
    n = op.n
    if not 1 <= m < n:
        raise ValueError(f"m must be in [1, {n - 1}], got {m}")
    applies = 0

    def matvec(u: np.ndarray) -> np.ndarray:
        nonlocal applies
        applies += 1
        return op.apply(u)

    A = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    # eigsh draws any fresh direction it needs from `rng`; left unset it would
    # seed a generator from the operating system
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            A, k=m, which="LA", v0=rng.standard_normal(n), tol=tol, maxiter=max_iter,
            rng=rng)
        finished = True
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
        finished = False
    # dseupd returns the Ritz values in ascending order, as Spectrum holds them
    resid = np.array([np.linalg.norm(op.apply(v) - x * v) for x, v in zip(vals, vecs.T)])
    tol_abs = tol * max(op.norm_bound(), np.finfo(float).tiny)
    return Spectrum(
        values=vals,
        method="lanczos",
        residuals=resid,
        converged=bool(finished and vals.size == m and np.all(resid <= 4.0 * tol_abs)),
        iterations=applies,
    )

