"""The finite-box Hamiltonian H = Delta + V as a matrix-free symmetric operator.

H restricted to the box acts as (Hu)(n) = sum over nearest neighbors m of
u(m) plus V(n)u(n), with hard-wall (Dirichlet) truncation: hops leaving the
box are dropped. Nearest neighbor means one coordinate changes by exactly 1.
The potential is V(n) = omega_n / (1+|n|)**alpha with omega sampled from a
tail law. `LatticeOperator` is always this one operator; the paper's two
comparisons have closed forms instead: the free hopping spectrum
(`free_laplacian_eigs`) and the spectrum of V alone (`v_spectrum`). V's top
values alone come from `top_values`, which inverts the tail law only at the
sites a `TopPlan`'s per-site thresholds on the uniforms keep.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import BoxSpec, CapacityError, check_capacity, site_coords, weights_array
from .scaling import count_level
from .tails import TailLaw, f_inv, sample_omega_array, tail_prob

DENSE_CAP_DEFAULT = 4096

# margins of a `TopPlan`: relative on V below the level a kept value must
# reach, and on each threshold in u
KEEP_MARGIN = 1e-9
U_MARGIN = 1e-11
# a plan needs d log f / d log x at least this at its level, so that the keep
# margin on V is far wider than the rounding of f and of its inverse; and
# k below MAX_K, so that the rounding of 1/f stays far inside U_MARGIN
MIN_LOG_SLOPE = 0.1
MAX_K = 1000


@dataclass(frozen=True)
class PotentialSample:
    """One realization of the random potential over a box."""

    spec: BoxSpec
    omegas: np.ndarray
    values: np.ndarray

    @functools.cached_property
    def max_abs(self) -> float:
        """max |V|, formed once: a sandwich ladder reads it twice a radius."""
        return float(np.max(np.abs(self.values)))


def sample_potential(
    spec: BoxSpec, law: TailLaw, alpha: float, rng: np.random.Generator
) -> PotentialSample:
    """Draw omega for every site and divide by the decay weights: the
    one-trial case of `sample_potentials`, drawing from `rng` as it is.

    Uses 1 - rng.random() so the uniforms lie in (0, 1].
    """
    (potential,) = sample_potentials(spec, law, alpha, [lambda: rng])
    return potential


def sample_potentials(spec: BoxSpec, law: TailLaw, alpha: float,
                      streams: Sequence[Callable[[], np.random.Generator]]
                      ) -> list[PotentialSample]:
    """One `PotentialSample` per trial of a block; a trial's floats do not
    depend on the block it is drawn in.

    streams[i]() returns trial i's generator at the start of its uniforms,
    as for `top_values`. The tail law is inverted once, on the block's
    uniforms in one 1-D array, and the weights divide the result once; each
    trial's omegas and values are row views of the block's arrays.
    """
    u = np.concatenate([_uniforms(spec, stream()) for stream in streams])
    omegas = sample_omega_array(law, u).reshape(len(streams), spec.site_count)
    values = omegas / weights_array(spec, alpha)
    return [PotentialSample(spec=spec, omegas=o, values=v) for o, v in zip(omegas, values)]


def _uniforms(spec: BoxSpec, rng: np.random.Generator) -> np.ndarray:
    """One uniform in (0, 1] per site, in ordinal order."""
    check_capacity(spec)
    u = rng.random(spec.site_count)
    return np.subtract(1.0, u, out=u)


@dataclass(frozen=True)
class TopPlan:
    """Per-site thresholds on the uniforms u of `sample_potential` that find,
    for one box, law, alpha and gamma, the sites where V's top values can
    lie, without inverting the tail law at every site.

    A site's omega falls as its u rises, and V = omega / w. u > keep[i] puts
    V below `level`, and every V below `level` rescales below the plan's
    x_c; `keep` is computed with margins, so that rounding can only add a
    site to those evaluated, never leave one out. Once m evaluated values
    reach `check`, they and the values above them are V's top m.
    """

    level: float
    check: float
    keep: np.ndarray


@functools.lru_cache(maxsize=8)
def top_plan(spec: BoxSpec, law: TailLaw, alpha: float, gamma: float, count: float,
             x_max: float = math.inf) -> TopPlan | None:
    """The `TopPlan` of the sites whose V can rescale to at least x_c, a
    level at most x_max where the box expects at least `count` rescaled
    points (`scaling.count_level`).

    `check` is f^{-1}(x_c * gamma), `level` sits KEEP_MARGIN below it, and
    keep[i] is the tail probability at level * w[i]. None when there is no
    such x_c, or the margins cannot be trusted: the level at or below the
    point floor, f too flat there (log-slope below MIN_LOG_SLOPE), or k of
    at least MAX_K. Remembered for the last few arguments, so the trials of
    a radius share one plan.
    """
    x_c = count_level(spec, law, alpha, gamma, count, x_max)
    if x_c is None:
        return None
    check = f_inv(law, x_c * gamma)
    level = (1.0 - KEEP_MARGIN) * check
    if not level > law.point_floor or law.k >= MAX_K:
        return None
    slope = (law.p - law.k / math.log(level) if law.family == "power_log"
             else law.delta * level ** law.delta)
    if slope < MIN_LOG_SLOPE:
        return None
    # where w overflows, keep is 0 and the site is not evaluated: its V is 0,
    # which no point or count reads
    with np.errstate(over="ignore"):
        keep = tail_prob(law, level * weights_array(spec, alpha)) * (1.0 + U_MARGIN)
    keep.flags.writeable = False  # one plan serves every trial of the radius
    return TopPlan(level=level, check=check, keep=keep)


def top_values(spec: BoxSpec, law: TailLaw, alpha: float,
               streams: Sequence[Callable[[], np.random.Generator]],
               plan: TopPlan | None, m: int) -> list[np.ndarray]:
    """V's values in descending order for each trial of a block, every value
    that can rescale to at least the plan's x_c among them.

    streams[i]() returns trial i's generator at the start of the uniforms
    `sample_potential` draws, and each value is the float `sample_potential`
    gives. The tail law is inverted once for the block, at the sites the
    plan keeps in each trial. Without a plan, or for a trial with fewer than
    m evaluated values at `plan.check`, the trial's uniforms are drawn again
    and every site is evaluated and returned.
    """
    w = weights_array(spec, alpha)
    out: list = [None] * len(streams)
    if plan is not None:
        kept_u, kept_at = [], []
        for stream in streams:
            u = _uniforms(spec, stream())
            at = (u <= plan.keep).nonzero()[0]
            kept_u.append(u[at])
            kept_at.append(at)
        at = np.concatenate(kept_at)
        values = sample_omega_array(law, np.concatenate(kept_u)) / w[at]
        sizes = [a.size for a in kept_at]
        ends = np.cumsum(sizes)
        # each trial's values ascending, trial after trial
        ranked = values[np.lexsort((values, np.repeat(np.arange(len(sizes)), sizes)))]
        reached = np.concatenate(([0], np.cumsum(ranked >= plan.check)))
        for i in np.flatnonzero(reached[ends] - reached[ends - sizes] >= m):
            out[i] = ranked[ends[i] - sizes[i]:ends[i]][::-1]
    for i, stream in enumerate(streams):
        if out[i] is None:
            out[i] = np.sort(sample_omega_array(law, _uniforms(spec, stream())) / w)[::-1]
    return out


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
        omegas=potential.omegas.reshape(grid)[block].ravel(),
        values=potential.values.reshape(grid)[block].ravel(),
    )


def check_dense_cap(n: int, dense_cap: int) -> None:
    """Raise CapacityError before an n x n matrix of more than dense_cap sites
    is built: the one cap on a solve, since every other path holds O(n)."""
    if n > dense_cap:
        raise CapacityError(f"{n} sites exceeds dense cap {dense_cap}")


@dataclass(frozen=True)
class LatticeOperator:
    """Matrix-free H = hopping + V on a box."""

    spec: BoxSpec
    potential: PotentialSample

    @property
    def n(self) -> int:
        return self.spec.site_count

    @property
    def diagonal(self) -> np.ndarray:
        return self.potential.values

    def norm_bound(self) -> float:
        """Exact upper bound on the operator norm: 2d (hopping) + max |V|."""
        return 2.0 * self.spec.dimension + self.potential.max_abs

    def apply(self, u: np.ndarray) -> np.ndarray:
        """(Hu)(n) = sum of u over in-box neighbors of n, plus V(n)u(n)."""
        if u.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {u.shape}")
        d, side = self.spec.dimension, self.spec.side
        grid = u.reshape((side,) * d)
        out = self.diagonal.reshape((side,) * d) * grid
        for axis in range(d):
            lo = [slice(None)] * d
            hi = [slice(None)] * d
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            out[tuple(lo)] += grid[tuple(hi)]
            out[tuple(hi)] += grid[tuple(lo)]
        return out.ravel()

    def to_dense(self, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        """Materialized symmetric matrix; guarded by `check_dense_cap`."""
        n = self.n
        check_dense_cap(n, dense_cap)
        H = np.zeros((n, n))
        np.fill_diagonal(H, self.diagonal)
        i, j = self.hop_pairs().T
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
        entries = {(i, i): float(v) for i, v in enumerate(self.diagonal)}
        for i, j in self.hop_pairs():
            entries[(int(i), int(j))] = 1.0
            entries[(int(j), int(i))] = 1.0
        return [(i, j, v) for (i, j), v in sorted(entries.items())]


def build_hamiltonian(
    spec: BoxSpec, potential: PotentialSample, kind: str = "full"
) -> LatticeOperator:
    """H = hopping + V on the box, checking spec/potential consistency.

    `kind` names the one operator there is; it stays only for positional
    callers that pass "full", and any other value is rejected.
    """
    if kind != "full":
        raise ValueError(f"kind must be 'full', got {kind!r}")
    if potential.spec != spec:
        raise ValueError("potential sampled on a different box")
    if potential.values.shape != (spec.site_count,):
        raise ValueError("potential shape mismatch")
    return LatticeOperator(spec=spec, potential=potential)


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
