import inspect
import itertools
import math
import tracemalloc
from collections import Counter

from hypothesis import given, settings, strategies as st

import numpy as np
import pytest

from speclab import lattice, operators, scaling, stats
from speclab.lattice import (
    NORM_KINDS,
    BoxSpec,
    CapacityError,
    orbit_table,
    site_array,
    weights_array,
)
from speclab.operators import free_laplacian_eigs, sample_potential
from speclab.scaling import calibration_floor, tail_sum_stats
from speclab.stats import exact_max_cdf_ladder
from speclab.tails import f_inv, power_log, stretched_exp, tail_prob

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
    "calibration_floor": lambda: calibration_floor(OVER_CAP, power_log(2.0, 0), 0.5),
    "exact_max_cdf_ladder": lambda: exact_max_cdf_ladder(
        OVER_CAP, stretched_exp(1.0), 1.0, 8.0, [OVER_CAP.radius]),
}


@pytest.mark.parametrize("name", OVER_CAP_CALLS)
def test_over_cap_box_raises_before_allocating(name):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds cap 100000000"):
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


@pytest.mark.parametrize("spec", [BoxSpec(1, 50), BoxSpec(2, 7, "sup"), BoxSpec(3, 3)],
                         ids=["d1", "d2-sup", "d3"])
def test_weights_array_is_remembered_read_only(spec):
    w = weights_array(spec, 0.7)
    assert weights_array(spec, 0.7) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 2.0
    fresh = weights_array.__wrapped__(spec, 0.7)
    assert fresh is not w and fresh.tobytes() == w.tobytes()


@pytest.mark.parametrize("norm_kind", NORM_KINDS)
def test_weights_are_the_oracle_site_weights_bit_for_bit(norm_kind):
    # a site's sum of squares is an exact integer, so the outer sum gives the
    # floats (1 + |n|)**alpha of each site's own norm
    for d, L in ((1, 1000), (2, 20), (3, 6)):
        spec = BoxSpec(d, L, norm_kind)
        for alpha in (0.7, 0.5, 2.0, 1.3):
            w = weights_array.__wrapped__(spec, alpha)
            oracle = [site_weight(idx.site, alpha, norm_kind) for idx in enumerate_box(spec)]
            assert w.tobytes() == np.array(oracle).tobytes(), (d, alpha)


def test_sample_potential_values_do_not_depend_on_the_weights_cache():
    from speclab.harness import derive_stream
    from speclab.tails import sample_omega_array

    law = power_log(2.0, 1)
    for spec, alpha in [(BoxSpec(1, 40), 0.0), (BoxSpec(1, 40), 0.6), (BoxSpec(2, 6), 1.3)]:
        u = 1.0 - derive_stream(3, 1, 0).random(spec.site_count)
        expected = sample_omega_array(law, u) / weights_array.__wrapped__(spec, alpha)
        weights_array.cache_clear()
        for _ in range(2):  # computed, then remembered
            got = sample_potential(spec, law, alpha, derive_stream(3, 1, 0)).values
            assert got.tobytes() == expected.tobytes()


# boxes of up to a few hundred sites, where the oracle goes site by site
BOXES = st.sampled_from([(1, 40), (2, 10), (3, 4)]).flatmap(
    lambda d_max: st.builds(BoxSpec, st.just(d_max[0]), st.integers(1, d_max[1]),
                            st.sampled_from(NORM_KINDS)))
LAWS = st.one_of(st.builds(power_log, st.floats(0.5, 4.0), st.integers(0, 2)),
                 st.builds(stretched_exp, st.floats(0.2, 1.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=BOXES, law=LAWS, alpha=st.floats(0.0, 3.0), x=st.floats(1.0, 4.0),
       gamma_factor=st.floats(1.0, 1e3), ladder_x=st.floats(0.5, 20.0))
def test_orbit_sums_are_the_site_by_site_sums(spec, law, alpha, x, gamma_factor, ladder_x):
    sites = [idx.site for idx in enumerate_box(spec)]
    coords, counts = orbit_table(spec)
    assert counts.sum() == spec.site_count
    assert dict(zip(map(tuple, coords.tolist()), counts.tolist())) == Counter(
        tuple(sorted(abs(c) for c in site)) for site in sites)
    weights = [site_weight(site, alpha, spec.norm_kind) for site in sites]
    # the tail sums: p_n at gamma * x, above f(clamp)
    gamma = law.f_at_clamp * gamma_factor
    threshold = f_inv(law, gamma * x)
    probs = [tail_prob(law, w * threshold) for w in weights]
    total, max_p, sum_sq = tail_sum_stats(spec, law, alpha, gamma, x)
    assert total == pytest.approx(math.fsum(probs), rel=1e-14, abs=0.0)
    assert max_p == max(probs)
    assert sum_sq == pytest.approx(math.fsum(p * p for p in probs), rel=1e-14, abs=0.0)
    # the ladder: at each radius, the product over the sites of sup norm at most it
    radii = list(range(1, spec.radius + 1))
    factors = [1.0 - tail_prob(law, w * ladder_x) for w in weights]
    shells = [max(abs(c) for c in site) for site in sites]
    oracle = [math.prod(f for f, s in zip(factors, shells) if s <= r) for r in radii]
    np.testing.assert_allclose(exact_max_cdf_ladder(spec, law, alpha, ladder_x, radii),
                               oracle, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("module", [lattice, operators, scaling, stats],
                         ids=lambda m: m.__name__)
def test_no_function_takes_a_site_cap_or_chunk(module):
    # the site cap is DEFAULT_SITE_CAP
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
