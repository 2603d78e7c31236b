"""Finite-box lattice Hamiltonians as matrix-free symmetric operators.

H restricted to the box acts as (Hu)(n) = sum over nearest neighbors m of
u(m) plus V(n)u(n), with hard-wall (Dirichlet) truncation: hops leaving the
box are dropped. Nearest neighbor means one coordinate changes by exactly 1.
The potential is V(n) = omega_n / (1+|n|)**alpha with omega sampled from a
tail law.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import BoxSpec, check_capacity, site_coords, weights_array
from .tails import TailLaw, sample_omega_array

OPERATOR_KINDS = ("full", "diagonal", "free")

DENSE_CAP_DEFAULT = 4096


@dataclass(frozen=True)
class PotentialSample:
    """One realization of the random potential over a box."""

    spec: BoxSpec
    alpha: float
    omegas: np.ndarray
    values: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def sample_potential(
    spec: BoxSpec, law: TailLaw, alpha: float, rng: np.random.Generator
) -> PotentialSample:
    """Draw omega for every site and divide by the decay weights.

    Uses 1 - rng.random() so the uniforms lie in (0, 1].
    """
    check_capacity(spec)
    u = 1.0 - rng.random(spec.site_count)
    omegas = sample_omega_array(law, u)
    values = omegas / weights_array(spec, alpha)
    return PotentialSample(spec=spec, alpha=alpha, omegas=omegas, values=values)


def restrict_potential(potential: PotentialSample, radius: int) -> PotentialSample:
    """Restriction to the concentric sub-box of the given radius.

    Lexicographic order is preserved under restriction, so the sub-box arrays
    are the central block of the (side,)*d grid, read in row-major order; the
    omega at a given lattice site is shared between the two boxes (in d = 1
    the arrays are views of the sampled box's).
    """
    spec = potential.spec
    if radius > spec.radius:
        raise ValueError("restriction radius exceeds the sampled box")
    if radius == spec.radius:
        return potential
    grid = (spec.side,) * spec.dimension
    block = (slice(spec.radius - radius, spec.radius + radius + 1),) * spec.dimension
    return PotentialSample(
        spec=BoxSpec(spec.dimension, radius, spec.norm_kind),
        alpha=potential.alpha,
        omegas=potential.omegas.reshape(grid)[block].ravel(),
        values=potential.values.reshape(grid)[block].ravel(),
    )


@dataclass(frozen=True)
class LatticeOperator:
    """Matrix-free symmetric operator on a box: hopping and/or diagonal."""

    spec: BoxSpec
    kind: str
    potential: PotentialSample | None = None

    @property
    def n(self) -> int:
        return self.spec.site_count

    @property
    def diagonal(self) -> np.ndarray:
        if self.kind == "free":
            return np.zeros(self.n)
        return self.potential.values

    @property
    def has_hopping(self) -> bool:
        return self.kind in ("full", "free")

    def norm_bound(self) -> float:
        """Exact upper bound on the operator norm: 2d (hopping) + max |V|."""
        bound = 2.0 * self.spec.dimension if self.has_hopping else 0.0
        if self.kind != "free":
            bound += self.potential.max_abs
        return bound

    def apply(self, u: np.ndarray) -> np.ndarray:
        """(Hu)(n) = sum of u over in-box neighbors of n, plus V(n)u(n)."""
        if u.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {u.shape}")
        if self.kind == "diagonal":
            return self.potential.values * u
        d, side = self.spec.dimension, self.spec.side
        grid = u.reshape((side,) * d)
        out = self.diagonal.reshape((side,) * d) * grid if self.kind == "full" \
            else np.zeros_like(grid)
        for axis in range(d):
            lo = [slice(None)] * d
            hi = [slice(None)] * d
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            out[tuple(lo)] += grid[tuple(hi)]
            out[tuple(hi)] += grid[tuple(lo)]
        return out.ravel()

    def to_dense(self, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        """Materialized symmetric matrix; guarded by a site cap."""
        n = self.n
        if n > dense_cap:
            raise CapacityDenseError(f"{n} sites exceeds dense cap {dense_cap}")
        H = np.zeros((n, n))
        np.fill_diagonal(H, self.diagonal)
        if self.has_hopping:
            for i, j in self.hop_pairs():
                H[i, j] = 1.0
                H[j, i] = 1.0
        return H

    def hop_pairs(self) -> np.ndarray:
        """All hopping pairs (i, j) with i < j, ordered by (axis, i)."""
        d, side = self.spec.dimension, self.spec.side
        ords = np.arange(self.n, dtype=np.int64)
        coords = site_coords(self.spec, ords)
        pairs = []
        for axis in range(d):
            src = ords[coords[:, axis] < self.spec.radius]
            pairs.append(np.stack([src, src + side ** (d - 1 - axis)], axis=1))
        return np.concatenate(pairs, axis=0)

    def triplets(self) -> list[tuple[int, int, float]]:
        """Sparse (row, col, value) entries, row-major, both triangles."""
        entries: dict[tuple[int, int], float] = {}
        diag = self.diagonal
        for i in range(self.n):
            if diag[i] != 0.0 or self.kind != "free":
                entries[(i, i)] = float(diag[i])
        if self.has_hopping:
            for i, j in self.hop_pairs():
                entries[(int(i), int(j))] = 1.0
                entries[(int(j), int(i))] = 1.0
        return [(i, j, v) for (i, j), v in sorted(entries.items())]


class CapacityDenseError(Exception):
    """Raised when dense materialization is requested above the cap."""


def build_hamiltonian(
    spec: BoxSpec, potential: PotentialSample | None, kind: str
) -> LatticeOperator:
    """Construct the operator, checking spec/potential consistency."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    if kind == "free":
        return LatticeOperator(spec=spec, kind=kind, potential=None)
    if potential is None:
        raise ValueError(f"kind={kind!r} requires a potential")
    if potential.spec != spec:
        raise ValueError("potential sampled on a different box")
    if potential.values.shape != (spec.site_count,):
        raise ValueError("potential shape mismatch")
    return LatticeOperator(spec=spec, kind=kind, potential=potential)


def free_laplacian_eigs(d: int, L: int) -> np.ndarray:
    """Exact spectrum of the free hopping operator on the box, ascending.

    Separable Dirichlet spectrum: sums over axes of 2*cos(j*pi/(side+1)),
    j = 1..side.
    """
    spec = BoxSpec(d, L)
    check_capacity(spec)
    side = spec.side
    base = 2.0 * np.cos(np.arange(1, side + 1) * np.pi / (side + 1))
    vals = base
    for _ in range(d - 1):
        vals = (vals[:, None] + base[None, :]).ravel()
    return np.sort(vals)


def v_spectrum(potential: PotentialSample) -> np.ndarray:
    """Eigenvalues of the multiplication operator: values sorted descending."""
    return np.sort(potential.values)[::-1]
