import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from speclab import lattice, operators, scaling, stats
from speclab.lattice import (
    BoxSpec,
    CapacityError,
    site_array,
    walk_box,
    weights_array,
)
from speclab.operators import free_laplacian_eigs, sample_potential
from speclab.scaling import calibration_floor, tail_sum_stats
from speclab.stats import exact_max_cdf_ladder
from speclab.tails import power_log, stretched_exp

from lattice_oracle import enumerate_box, ordinal_of, site_of, site_weight


@pytest.mark.parametrize("d,L,count", [(1, 1, 3), (2, 1, 9), (3, 2, 125)])
def test_site_counts(d, L, count):
    spec = BoxSpec(d, L)
    assert spec.site_count == count
    assert len(list(enumerate_box(spec))) == count


def test_d1_sites_explicit():
    sites = [s.site for s in enumerate_box(BoxSpec(1, 1))]
    assert sites == [(-1,), (0,), (1,)]


def test_lexicographic_order_and_bijection():
    spec = BoxSpec(3, 2)
    seen = set()
    prev = None
    for idx in enumerate_box(spec):
        assert ordinal_of(spec, idx.site) == idx.ordinal
        assert site_of(spec, idx.ordinal) == idx.site
        if prev is not None:
            assert idx.site > prev  # tuple comparison is lexicographic
        prev = idx.site
        seen.add(idx.site)
    assert len(seen) == spec.site_count


def test_site_array_matches_enumeration():
    spec = BoxSpec(2, 3)
    arr = site_array(spec)
    for idx in enumerate_box(spec):
        assert tuple(arr[idx.ordinal]) == idx.site


def test_capacity_error():
    with pytest.raises(CapacityError):
        list(enumerate_box(BoxSpec(2, 100), site_cap=100))


# d = 1, L = 5e7: 1e8 + 1 sites, one over DEFAULT_SITE_CAP
OVER_CAP = BoxSpec(1, 50_000_000)
OVER_CAP_CALLS = {
    "site_array": lambda: site_array(OVER_CAP),
    "weights_array": lambda: weights_array(OVER_CAP, 0.5),
    "sample_potential": lambda: sample_potential(
        OVER_CAP, power_log(2.0, 0), 0.5, np.random.default_rng(0)),
    "free_laplacian_eigs": lambda: free_laplacian_eigs(1, OVER_CAP.radius),
    "tail_sum_stats": lambda: tail_sum_stats(OVER_CAP, power_log(2.0, 0), 0.5, 1e4, 1.0),
    "calibration_floor": lambda: calibration_floor(OVER_CAP, power_log(2.0, 0), 0.5, 1.0),
    "exact_max_cdf_ladder": lambda: exact_max_cdf_ladder(
        OVER_CAP, stretched_exp(1.0), 1.0, 8.0, [OVER_CAP.radius]),
}


@pytest.mark.parametrize("name", OVER_CAP_CALLS)
def test_over_cap_box_raises_before_allocating(name):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            OVER_CAP_CALLS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_invalid_spec():
    with pytest.raises(ValueError):
        BoxSpec(0, 5)
    with pytest.raises(ValueError):
        BoxSpec(1, 0)
    with pytest.raises(ValueError):
        BoxSpec(1, 5, "manhattan")


def test_site_weight_values():
    assert site_weight((3, 4), 1.0, "euclidean") == pytest.approx(6.0, abs=1e-15)
    assert site_weight((3, 4), 1.0, "sup") == pytest.approx(5.0, abs=1e-15)
    assert site_weight((0, 0, 0), 2.0, "euclidean") == 1.0
    assert site_weight((0,), 2.0, "sup") == 1.0
    assert site_weight((5,), 0.0, "euclidean") == 1.0


def test_site_weight_symmetries():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = tuple(int(v) for v in rng.integers(-6, 7, size=3))
        for kind in ("euclidean", "sup"):
            w = site_weight(n, 1.3, kind)
            flipped = tuple(-c for c in n)
            assert site_weight(flipped, 1.3, kind) == w
            for perm in itertools.permutations(n):
                assert site_weight(perm, 1.3, kind) == pytest.approx(w, rel=1e-15)


def test_site_weight_monotone_in_coordinates():
    for kind in ("euclidean", "sup"):
        w1 = site_weight((1, 2), 0.8, kind)
        w2 = site_weight((1, 3), 0.8, kind)
        w3 = site_weight((2, 3), 0.8, kind)
        assert w1 <= w2 <= w3


def test_norm_inequality():
    # 1 + |n|_sup <= 1 + |n|_2 <= 1 + sqrt(d) * |n|_sup
    rng = np.random.default_rng(7)
    d = 4
    for _ in range(100):
        n = rng.integers(-9, 10, size=d)
        sup = site_weight(n, 1.0, "sup")
        euc = site_weight(n, 1.0, "euclidean")
        assert sup <= euc + 1e-12
        assert euc <= 1.0 + math.sqrt(d) * (sup - 1.0) + 1e-12


def test_weights_array_matches_scalar():
    for d, kind in [(1, "euclidean"), (2, "euclidean"), (2, "sup"), (3, "sup")]:
        spec = BoxSpec(d, 2, kind)
        w = weights_array(spec, 0.7)
        for idx in enumerate_box(spec):
            assert w[idx.ordinal] == pytest.approx(
                site_weight(idx.site, 0.7, kind), rel=1e-15
            )


def test_weight_chunks_concatenate_to_full_array(monkeypatch):
    # the walk crosses chunk boundaries inside small boxes at WALK_CHUNK = 17;
    # every box-wide reduction must agree with its one-chunk value
    boxes = [BoxSpec(1, 60), BoxSpec(2, 6, "euclidean"), BoxSpec(2, 6, "sup")]
    law, ladder_law = power_log(2.0, 0), stretched_exp(1.0)

    def reductions(spec):
        radii = [spec.radius // 3, spec.radius // 2, spec.radius]
        return (tail_sum_stats(spec, law, 0.5, 10.0, 1.0),
                exact_max_cdf_ladder(spec, ladder_law, 1.0, 5.0, radii))

    one_chunk = [reductions(spec) for spec in boxes]
    monkeypatch.setattr(lattice, "WALK_CHUNK", 17)
    for spec, (sums, ladder) in zip(boxes, one_chunk):
        chunks = list(walk_box(spec, 1.1))
        assert len(chunks) == -(-spec.site_count // 17)
        np.testing.assert_array_equal(np.concatenate([c for c, _ in chunks]), site_array(spec))
        np.testing.assert_array_equal(np.concatenate([w for _, w in chunks]),
                                      weights_array(spec, 1.1))
        sums_17, ladder_17 = reductions(spec)
        assert sums_17 == pytest.approx(sums, rel=1e-13)
        np.testing.assert_allclose(ladder_17, ladder, rtol=1e-13)


@pytest.mark.parametrize("module", [lattice, operators, scaling, stats],
                         ids=lambda m: m.__name__)
def test_no_function_takes_a_site_cap_or_chunk(module):
    # the site cap is DEFAULT_SITE_CAP and the walk's chunk is WALK_CHUNK
    functions = []
    for _, obj in inspect.getmembers(module):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append(obj)
        elif inspect.isclass(obj):
            functions += [f for _, f in inspect.getmembers(obj, inspect.isfunction)]
    knobs = [f"{f.__qualname__}({name})" for f in functions
             for name in inspect.signature(f).parameters if name in ("site_cap", "chunk")]
    assert functions and knobs == []
