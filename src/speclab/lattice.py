"""Finite cubic lattice boxes, site coordinates, and decay weights.

The box of radius L in dimension d is the set of integer vectors whose
coordinates all lie in [-L, L]; it has (2L+1)**d sites. Sites are indexed
lexicographically by coordinates so that every ordinal-based computation is
reproducible regardless of iteration strategy. Each site n carries a weight
(1 + |n|)**alpha, where |n| is either the euclidean or the sup norm.

A site's weight and sup shell depend only on its orbit under coordinate sign
flips and permutations, so every exact box-wide sum (the tail sums and
calibration in `scaling`, the exact max-CDF ladder in `stats`) runs over
`orbit_table`, one row per orbit with its site count, in O(L**d / d!) rows.
`weights_array`, the per-site weights a trial reads, is an outer sum or max
of 1-D arrays.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

NORM_KINDS = ("euclidean", "sup")

# Hard stop against accidentally enumerating astronomically large boxes.
DEFAULT_SITE_CAP = 100_000_000


class CapacityError(Exception):
    """Raised when a box exceeds DEFAULT_SITE_CAP sites, or a dense matrix
    would exceed its site cap."""


@dataclass(frozen=True)
class BoxSpec:
    """Cube of radius `radius` in Z^dimension with a norm convention."""

    dimension: int
    radius: int
    norm_kind: str = "euclidean"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def site_count(self) -> int:
        return self.side ** self.dimension


def check_capacity(spec: BoxSpec) -> None:
    if spec.site_count > DEFAULT_SITE_CAP:
        raise CapacityError(
            f"box with {spec.site_count} sites exceeds cap {DEFAULT_SITE_CAP}"
        )


def site_coords(spec: BoxSpec, ordinals: np.ndarray) -> np.ndarray:
    """(len(ordinals), d) int coordinates of sites given by ordinal.

    The ordinal is lexicographic: its base-`side` digits, first coordinate
    most significant, are the coordinates shifted by the radius.
    """
    strides = spec.side ** np.arange(spec.dimension - 1, -1, -1, dtype=np.int64)
    return (ordinals[:, None] // strides[None, :]) % spec.side - spec.radius


def site_array(spec: BoxSpec) -> np.ndarray:
    """All sites as an (N, d) int array in lexicographic ordinal order."""
    check_capacity(spec)
    return site_coords(spec, np.arange(spec.site_count, dtype=np.int64))


@functools.lru_cache(maxsize=4)
def orbit_table(spec: BoxSpec) -> tuple[np.ndarray, np.ndarray]:
    """The box's site orbits under coordinate sign flips and permutations.

    Returns (coords, counts): row i of the (m, d) int array `coords` is an
    orbit's sorted |n_j|, 0 <= a_1 <= ... <= a_d, in lexicographic order,
    and counts[i] its number of sites, 2**#nonzero * d! / prod(run lengths)!
    as exact floats. An orbit's sites share their weight and sup shell a_d,
    so a box-wide sum is a counts-weighted sum over m = C(L + d, d) rows.
    Remembered for the last few boxes and read-only.
    """
    check_capacity(spec)
    L, d = spec.radius, spec.dimension
    # int32 holds any radius under the site cap
    coords = np.arange(L + 1, dtype=np.int32)[:, None]
    counts = np.ones(L + 1)  # orderings of the columns so far, exact
    run = np.ones(L + 1, dtype=np.int32)  # length of each row's last run
    for j in range(1, d):
        # each row extends by every value from its last one up to L
        last = coords[:, -1]
        reps = L + 1 - last
        shift = (np.cumsum(reps) - reps - last).astype(np.int32)
        new = np.arange(reps.sum(), dtype=np.int32) - np.repeat(shift, reps)
        run = np.where(new == np.repeat(last, reps), np.repeat(run, reps) + 1, 1)
        # j + 1 columns: the multinomial grows by (j + 1) / run, exactly
        counts = np.repeat(counts, reps) * (j + 1) / run
        coords = np.column_stack([np.repeat(coords, reps, axis=0), new])
    counts = np.ldexp(counts, np.count_nonzero(coords, axis=1))
    coords.flags.writeable = counts.flags.writeable = False
    return coords, counts


def _decay(parts: list[np.ndarray], norm_kind: str, alpha: float) -> np.ndarray:
    """(1 + |n|)**alpha from the |n_i|, one int or float array per coordinate,
    broadcast together; the sums of integer squares are exact floats."""
    if norm_kind == "sup":
        norm = np.asarray(functools.reduce(np.maximum, parts), dtype=np.float64)
    else:
        norm = sum(np.square(part, dtype=np.float64) for part in parts)
        np.sqrt(norm, out=norm)
    norm += 1.0
    norm **= alpha
    return norm


def orbit_weights(spec: BoxSpec, alpha: float) -> np.ndarray:
    """(1 + |n|)**alpha of each row of `orbit_table(spec)`: the floats
    `weights_array` holds at each of the orbit's sites."""
    return _decay(list(orbit_table(spec)[0].T), spec.norm_kind, alpha)


@functools.lru_cache(maxsize=4)
def weights_array(spec: BoxSpec, alpha: float) -> np.ndarray:
    """(1 + |n|)**alpha for every site, in ordinal order; read-only.

    Built from the 1-D |n_i| broadcast over the box's (side,)*d grid, whose
    C order is the ordinal order. Remembered for the last few (box, alpha):
    every trial of a radius reads the same array.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    check_capacity(spec)
    d, n = spec.dimension, np.abs(np.arange(-spec.radius, spec.radius + 1, dtype=np.float64))
    # coordinate i varies along axis i
    w = _decay([n.reshape((-1,) + (1,) * (d - 1 - i)) for i in range(d)],
               spec.norm_kind, alpha).ravel()
    w.flags.writeable = False
    return w
