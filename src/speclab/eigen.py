"""Eigenvalues of H: one exact entry point and an iterative extremal solver.

`solver_path` is the one rule that picks how a Hamiltonian is solved, from
its dimension, its site count, the configured solver and the dense cap:
Lanczos, the d=1 tridiagonal path, or dense eigh. It also enforces each
exact path's cap; the config check and every trial ask it and nothing else.

`full_spectrum(op, dense_cap, m=None)` is the only exact solve. At d >= 2 it
materializes the operator and calls the LAPACK symmetric solver (Householder
reduction to tridiagonal form, then implicit-shift QL/QR); for
one-dimensional boxes the operator is already tridiagonal and the full
spectrum comes straight from the tridiagonal QL driver in O(n^2). When only
the m largest eigenvalues are needed, as in every extremal experiment, a
one-dimensional box is instead solved by Sturm-sequence
bisection (LAPACK stebz; Barth, Martin & Wilkinson, Numer. Math. 9, 1967)
for those m indices alone, in O(n m log(1/eps)); its values agree with the
QL driver's to rounding (sandwich's e1_h moved by at most 6e-15 relative on
configs/sandwich.cfg, measured).
The extremal solver `extremal_topk` is ARPACK's implicitly restarted Lanczos
(scipy's `eigsh`) for the m largest eigenvalues, with every residual
re-verified against the operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .lattice import CapacityError
from .operators import DENSE_CAP_DEFAULT, LatticeOperator

TRIDIAG_CAP_DEFAULT = 200_000
LANCZOS_TOL_DEFAULT = 1e-10
LANCZOS_MAX_ITER_DEFAULT = 2000


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, with residuals for iterative results.

    `method` names the path taken: one of `solver_path`'s names, or
    "bisection" for the top slice of a d=1 box.
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
    """The one rule for the path an n-site Hamiltonian is solved by.

    Returns "lanczos" for solver "lanczos", and for "auto" above dense_cap.
    Otherwise ("dense", or "auto" up to dense_cap) returns the exact path of
    the dimension: "tridiagonal" in dimension 1 (QL for a full spectrum,
    bisection for a top slice) and "dense" otherwise. Raises CapacityError
    when n exceeds that exact path's cap, so a configuration can be
    rejected before any operator is built.
    """
    if solver == "lanczos" or (solver == "auto" and n > dense_cap):
        return "lanczos"
    path, cap = ("tridiagonal", TRIDIAG_CAP_DEFAULT) if dimension == 1 else ("dense", dense_cap)
    if n > cap:
        raise CapacityError(f"{n} sites exceeds {path} cap {cap}")
    return path


def full_spectrum(
    op: LatticeOperator, dense_cap: int = DENSE_CAP_DEFAULT, m: int | None = None
) -> Spectrum:
    """All eigenvalues, or with m the m largest (ascending), on the exact path.

    `solver_path` picks the path and checks its cap. A d >= 2 operator is
    materialized and solved by dense eigh; its top m are a slice of that
    spectrum. A d=1 operator is tridiagonal: its full spectrum comes from
    the QL driver, and its top m from Sturm-sequence bisection (LAPACK
    stebz) for the indices n-m+1..n alone, to LAPACK's default absolute
    tolerance eps*|T|; a LinAlgError is raised when stebz reports failure or
    finds fewer than m.
    """
    n = op.n
    if m is not None and not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    path = solver_path(op.spec.dimension, n, "dense", dense_cap)
    if path == "dense":
        vals = scipy.linalg.eigh(op.to_dense(dense_cap), eigvals_only=True, driver="ev")
        return Spectrum(values=vals if m is None else vals[-m:], method=path)
    off = np.ones(n - 1)
    if m is None:
        return Spectrum(values=scipy.linalg.eigvalsh_tridiagonal(op.diagonal, off),
                        method=path)
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
        return full_spectrum(op, dense_cap=n, m=m)
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

