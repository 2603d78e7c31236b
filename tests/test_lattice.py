import itertools
import math

import numpy as np
import pytest

from speclab.lattice import (
    BoxSpec,
    CapacityError,
    iter_weight_chunks,
    site_array,
    weights_array,
)

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
    with pytest.raises(CapacityError):
        site_array(BoxSpec(3, 50), site_cap=1000)


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


def test_weight_chunks_concatenate_to_full_array():
    spec = BoxSpec(2, 6, "euclidean")
    full = weights_array(spec, 1.1)
    chunks = list(iter_weight_chunks(spec, 1.1, chunk=17))
    np.testing.assert_array_equal(np.concatenate(chunks), full)
