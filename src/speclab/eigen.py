"""Eigenvalues of H: one exact entry point and an iterative extremal solver.

`solver_path` is the one rule for how the top of a Hamiltonian's spectrum is
solved: ARPACK's Lanczos under `solver = lanczos` or at d >= 2 above the
dense cap, else the exact path of the dimension. It never raises, since a
top slice is capped only by the site cap. Only full spectra, which only
`ids` takes, have caps of their own, all stated by `check_full_spectrum_cap`.

`full_spectrum(op, dense_cap, m=None)` is the only exact solve. At d >= 2 it
materializes the operator and calls the LAPACK symmetric solver (Householder
reduction to tridiagonal form, then implicit-shift QL/QR). A d=1 operator is
already tridiagonal: its full spectrum comes from the QL driver in O(n^2),
and its m largest eigenvalues, as every extremal experiment asks, from
Sturm-sequence bisection (LAPACK stebz; Barth, Martin & Wilkinson, Numer.
Math. 9, 1967) for those m indices alone, in O(n m log(1/eps)), at any n.
Bisection and QL agree to rounding (sandwich's e1_h moved by at most 6e-15
relative on configs/sandwich.cfg, measured).
The extremal solver `extremal_topk` is ARPACK's implicitly restarted Lanczos
(scipy's `eigsh`) for the m largest eigenvalues, with every residual
re-verified against the operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy  # scipy.linalg and scipy.sparse.linalg load on first use

from .lattice import CapacityError
from .operators import DENSE_CAP_DEFAULT, LatticeOperator

TRIDIAG_CAP_DEFAULT = 200_000
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

    def positive_descending(self) -> np.ndarray:
        """Positive eigenvalues in decreasing order (extremal view)."""
        vals = self.values[self.values > 0.0]
        return vals[::-1]


def solver_path(dimension: int, n: int, solver: str, dense_cap: int) -> str:
    """The path of an n-site top slice: "lanczos" for solver "lanczos" and at
    d >= 2 above dense_cap, else "bisection" at d = 1 and "dense" at d >= 2."""
    if solver == "lanczos" or (dimension >= 2 and n > dense_cap):
        return "lanczos"
    return "bisection" if dimension == 1 else "dense"


def check_full_spectrum_cap(dimension: int, n: int, dense_cap: int) -> None:
    """Raise CapacityError over a full spectrum's cap: TRIDIAG_CAP_DEFAULT
    for QL's O(n^2) at d = 1, dense_cap for dense eigh at d >= 2."""
    path, cap = ("tridiagonal", TRIDIAG_CAP_DEFAULT) if dimension == 1 else ("dense", dense_cap)
    if n > cap:
        raise CapacityError(f"{n} sites exceeds {path} cap {cap}")


def full_spectrum(
    op: LatticeOperator, dense_cap: int = DENSE_CAP_DEFAULT, m: int | None = None
) -> Spectrum:
    """All eigenvalues, or with m the m largest (ascending), on the exact path.

    A full spectrum is first checked against `check_full_spectrum_cap`; a
    top slice is not capped here. A d >= 2 operator is materialized and
    solved by dense eigh; its top m are a slice of that spectrum. A d=1
    operator is tridiagonal: its full spectrum comes from the QL driver, and
    its top m from Sturm-sequence bisection (LAPACK stebz) for the indices
    n-m+1..n alone, to LAPACK's default absolute tolerance eps*|T|; a
    LinAlgError is raised when stebz reports failure or finds fewer than m.
    """
    n = op.n
    if m is None:
        check_full_spectrum_cap(op.spec.dimension, n, dense_cap)
    elif not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if op.spec.dimension >= 2:
        vals = scipy.linalg.eigh(op.to_dense(n), eigvals_only=True, driver="ev")
        return Spectrum(values=vals if m is None else vals[-m:], method="dense")
    off = np.ones(n - 1)
    if m is None:
        return Spectrum(values=scipy.linalg.eigvalsh_tridiagonal(op.diagonal, off),
                        method="tridiagonal")
    # called directly: eigvalsh_tridiagonal's input checks cost as much as
    # the bisection itself on boxes of ~50 sites. Range 2 selects by 1-based
    # index; order "E" sorts ascending over the whole matrix
    found, vals, _, _, info = scipy.linalg.lapack.dstebz(
        op.diagonal, off, 2, 0.0, 0.0, n - m + 1, n, 0.0, "E")
    if info != 0 or found < m:
        raise np.linalg.LinAlgError(
            f"stebz found {found} of the top {m} eigenvalues (info {info})")
    return Spectrum(values=vals[found - m:found], method="bisection")


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
    4 * tol * (2d + max|V|). Boxes of n <= max(2m + 2, 32) sites take
    `full_spectrum`'s exact top m instead: ARPACK needs m < n, and an exact
    solve is cheap there.

    Like any single-vector Lanczos, exact eigenvalue multiplicities are
    resolved only through rounding noise; random potentials have simple
    spectra almost surely, so this matters only for constructed
    exactly-degenerate inputs.

    Parameters
    ----------
    m : number of extremal eigenvalues requested (1 <= m <= n).
    rng : generator supplying the start vector, and any fresh direction
        ARPACK asks for; fixing it fixes the output.
    tol : relative residual target.
    max_iter : ARPACK's cap on restart cycles. On exhaustion the result
        holds only the pairs ARPACK converged, possibly none, and is flagged
        as unconverged.

    `iterations` counts the operator applications ARPACK made.
    """
    n = op.n
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if n <= max(2 * m + 2, 32):
        return full_spectrum(op, m=m)
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

