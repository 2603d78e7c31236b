"""Eigenvalue computation: dense oracle paths and an iterative extremal solver.

The dense path materializes the operator and calls the LAPACK symmetric
solver (Householder reduction to tridiagonal form, then implicit-shift
QL/QR); for one-dimensional boxes the operator is already tridiagonal and
the full spectrum comes straight from the tridiagonal QL driver in O(n^2).
When only the m largest eigenvalues are needed exactly (the sandwich
experiment's E_1), a one-dimensional box is instead solved by Sturm-sequence
bisection (LAPACK stebz; Barth, Martin & Wilkinson, Numer. Math. 9, 1967)
for those m indices alone, in O(n m log(1/eps)); its values agree with the
QL driver's to rounding (sandwich's e1_h moved by at most 6e-15 relative on
configs/sandwich.cfg, measured).
The extremal solver is thick-restart Lanczos with full reorthogonalization
of the Krylov basis by classical Gram-Schmidt applied twice (CGS2), converging
the m largest eigenvalues by residual. The basis is stored one vector per
contiguous row, and the Ritz values of the projected matrix are checked every
RITZ_STRIDE = 4 steps rather than on every step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import DENSE_CAP_DEFAULT, CapacityDenseError, LatticeOperator

TRIDIAG_CAP_DEFAULT = 200_000
LANCZOS_TOL_DEFAULT = 1e-10
LANCZOS_MAX_ITER_DEFAULT = 2000
# Lanczos steps between two Ritz checks: an eigh of the projected matrix
# costs more than a step, and convergence is seen at most 3 steps late
RITZ_STRIDE = 4


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, with residuals for iterative results."""

    values: np.ndarray
    method: str
    residuals: np.ndarray | None = None
    converged: bool = True
    iterations: int = 0

    def positive_descending(self) -> np.ndarray:
        """Positive eigenvalues in decreasing order (extremal view)."""
        vals = self.values[self.values > 0.0]
        return vals[::-1]


def dense_spectrum(op: LatticeOperator, dense_cap: int = DENSE_CAP_DEFAULT) -> Spectrum:
    """All eigenvalues through the dense symmetric solver.

    Diagonal operators are sorted directly (that is their exact spectrum).
    """
    if op.kind == "diagonal":
        return Spectrum(values=np.sort(op.potential.values), method="dense")
    H = op.to_dense(dense_cap)
    vals = scipy.linalg.eigh(H, eigvals_only=True, driver="ev")
    return Spectrum(values=vals, method="dense")


def _tridiagonal(op: LatticeOperator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a d=1 operator."""
    diag = np.array(op.diagonal, dtype=np.float64)
    off = np.ones(op.n - 1) if op.has_hopping else np.zeros(op.n - 1)
    return diag, off


def tridiagonal_spectrum(op: LatticeOperator, cap: int = TRIDIAG_CAP_DEFAULT) -> Spectrum:
    """Full spectrum of a d=1 operator via the tridiagonal QL driver."""
    if op.spec.dimension != 1:
        raise ValueError("tridiagonal path requires dimension 1")
    if op.n > cap:
        raise CapacityDenseError(f"{op.n} sites exceeds tridiagonal cap {cap}")
    vals = scipy.linalg.eigvalsh_tridiagonal(*_tridiagonal(op))
    return Spectrum(values=vals, method="dense")


def full_spectrum_path(
    dimension: int,
    n: int,
    dense_cap: int = DENSE_CAP_DEFAULT,
    tridiag_cap: int = TRIDIAG_CAP_DEFAULT,
) -> str:
    """The exact path `full_spectrum` takes for an n-site operator with hopping.

    Returns "tridiagonal" in dimension 1 and "dense" otherwise; raises
    CapacityDenseError when n exceeds that path's cap, so a configuration
    can be rejected before any operator is built.
    """
    path, cap = ("tridiagonal", tridiag_cap) if dimension == 1 else ("dense", dense_cap)
    if n > cap:
        raise CapacityDenseError(f"{n} sites exceeds {path} cap {cap}")
    return path


def full_spectrum(
    op: LatticeOperator,
    dense_cap: int = DENSE_CAP_DEFAULT,
    tridiag_cap: int = TRIDIAG_CAP_DEFAULT,
) -> Spectrum:
    """All eigenvalues by the cheapest exact path available for the operator."""
    if op.kind == "diagonal":
        return dense_spectrum(op)
    if full_spectrum_path(op.spec.dimension, op.n, dense_cap, tridiag_cap) == "tridiagonal":
        return tridiagonal_spectrum(op, cap=tridiag_cap)
    return dense_spectrum(op, dense_cap=dense_cap)


def top_eigenvalues(
    op: LatticeOperator, m: int, dense_cap: int = DENSE_CAP_DEFAULT
) -> Spectrum:
    """The m largest eigenvalues, ascending, by the exact path of `full_spectrum`.

    A diagonal or d >= 2 operator gives the top of `dense_spectrum`. A d=1
    operator is solved by Sturm-sequence bisection (LAPACK stebz) for the
    indices n-m+1..n alone, to LAPACK's default absolute tolerance eps*|T|;
    a LinAlgError is raised when stebz reports failure or finds fewer than m.
    """
    n = op.n
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if op.kind == "diagonal" or full_spectrum_path(op.spec.dimension, n, dense_cap) == "dense":
        return Spectrum(values=dense_spectrum(op, dense_cap).values[-m:], method="dense")
    # called directly: eigvalsh_tridiagonal's input checks cost as much as
    # the bisection itself on boxes of ~50 sites. Range 2 selects by 1-based
    # index; order "E" sorts ascending over the whole matrix
    found, vals, _, _, info = scipy.linalg.lapack.dstebz(
        *_tridiagonal(op), 2, 0.0, 0.0, n - m + 1, n, 0.0, "E")
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
    basis_cap: int | None = None,
) -> Spectrum:
    """The m largest eigenvalues by thick-restart Lanczos.

    Full reorthogonalization keeps the Krylov basis orthonormal so no ghost
    copies of converged eigenvalues appear: each new vector is projected
    against the whole basis, then projected once more (CGS2; two passes of
    classical Gram-Schmidt reach working-precision orthogonality, Giraud,
    Langou & Rozloznik 2005). Convergence is declared per Ritz value when its
    residual drops below tol * (2d + max|V|), an exact upper bound on the
    operator norm. The projected matrix is diagonalized and the residuals
    estimated only every RITZ_STRIDE = 4 steps once the basis holds m vectors,
    and always at a restart, at max_iter and when the basis spans the space;
    `iterations` may therefore exceed that of a check on every step by at
    most 3. When the basis reaches its cap it is compressed to the leading
    Ritz vectors and the iteration continues. Residuals of the returned pairs
    are re-verified with one apply each.

    Like any single-vector Lanczos, exact eigenvalue multiplicities are
    resolved only through rounding noise across restarts; random potentials
    have simple spectra almost surely, so this matters only for constructed
    exactly-degenerate inputs.

    Parameters
    ----------
    m : number of extremal eigenvalues requested (1 <= m <= n).
    rng : generator supplying the start vector; fixing it fixes the output.
    tol : relative residual target.
    max_iter : cap on operator applications; on exhaustion the best
        available values are returned flagged as unconverged.
    """
    n = op.n
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    norm_est = max(op.norm_bound(), np.finfo(float).tiny)
    tol_abs = tol * norm_est
    if basis_cap is None:
        basis_cap = min(n, max(3 * m + 20, 80))
    if n <= max(2 * m + 2, 32) or basis_cap >= n:
        return _small_dense_topk(op, m)
    keep = min(2 * m + 5, basis_cap - 2)
    matvec = op.apply

    # one basis vector per contiguous row: projections read only Q[:t]
    Q = np.zeros((basis_cap + 1, n))
    T = np.zeros((basis_cap + 1, basis_cap + 1))
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    Q[0] = q
    u = matvec(q)
    T[0, 0] = q @ u
    w = u - T[0, 0] * q
    t = 1
    niter = 1
    while True:
        # w has had one projection against Q[:t]; a second pass restores
        # orthogonality to working precision (CGS2, "twice is enough")
        w -= (Q[:t] @ w) @ Q[:t]
        beta = float(np.linalg.norm(w))
        last = niter >= max_iter or t >= n
        if last or t == basis_cap or (t >= m and (t - m) % RITZ_STRIDE == 0):
            theta, S = np.linalg.eigh(T[:t, :t])
            top = np.arange(max(t - m, 0), t)
            res_est = np.abs(beta * S[t - 1, top])
            done = t >= m and np.all(res_est <= tol_abs)
            if done or last:
                nm = min(m, t)
                sel = np.arange(t - nm, t)
                vals = theta[sel]
                Y = S[:, sel].T @ Q[:t]
                resid = np.empty(nm)
                for i in range(nm):
                    resid[i] = np.linalg.norm(matvec(Y[i]) - vals[i] * Y[i])
                return Spectrum(
                    values=vals,
                    method="lanczos",
                    residuals=resid,
                    converged=bool(done and np.all(resid <= tol_abs * 4.0)),
                    iterations=niter,
                )
        fresh_direction = beta <= 1e-14 * norm_est
        if fresh_direction:
            # invariant subspace hit: continue in a fresh random direction;
            # the true coupling of that direction to the old basis is zero
            w = rng.standard_normal(n)
            for _ in range(2):
                w -= (Q[:t] @ w) @ Q[:t]
            beta = float(np.linalg.norm(w))
        if t == basis_cap:
            idx = np.arange(t - keep, t)
            Q[:keep] = S[:, idx].T @ Q[:t]
            T[:, :] = 0.0
            T[:keep, :keep] = np.diag(theta[idx])
            coupling = (0.0 if fresh_direction else beta) * S[t - 1, idx]
            q = w / beta
            Q[keep] = q
            T[keep, :keep] = coupling
            T[:keep, keep] = coupling
            u = matvec(q)
            T[keep, keep] = q @ u
            t = keep + 1
            w = u - (Q[:t] @ u) @ Q[:t]
        else:
            q = w / beta
            Q[t] = q
            u = matvec(q)
            h = Q[: t + 1] @ u
            T[:t, t] = h[:t]
            T[t, :t] = h[:t]
            T[t, t] = h[t]
            w = u - h @ Q[: t + 1]
            t += 1
        niter += 1


def _small_dense_topk(op: LatticeOperator, m: int) -> Spectrum:
    if op.kind == "diagonal":
        vals = np.sort(op.potential.values)[-m:]
        return Spectrum(values=vals, method="dense", residuals=np.zeros(m))
    H = op.to_dense(dense_cap=op.n)
    w, V = np.linalg.eigh(H)
    resid = np.linalg.norm(H @ V[:, -m:] - V[:, -m:] * w[-m:], axis=0)
    return Spectrum(values=w[-m:], method="dense", residuals=resid)
