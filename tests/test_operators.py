import numpy as np
import pytest

from speclab.harness import derive_stream
from speclab.lattice import BoxSpec
from speclab.operators import (
    CapacityDenseError,
    build_hamiltonian,
    free_laplacian_eigs,
    restrict_potential,
    sample_potential,
    v_spectrum,
)
from speclab.tails import power_log, stretched_exp

from lattice_oracle import enumerate_box, ordinal_of


def random_potential(d, L, alpha=0.5, law=power_log(2.0, 0), seed=0, trial=0,
                     norm="euclidean"):
    spec = BoxSpec(d, L, norm)
    rng = derive_stream(seed, trial, 0)
    return spec, sample_potential(spec, law, alpha, rng)


# --- construction ----------------------------------------------------------

def test_free_3site_chain_matrix():
    op = build_hamiltonian(BoxSpec(1, 1), None, "free")
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    np.testing.assert_array_equal(op.to_dense(), expected)
    # apply agrees with the explicit matrix
    u = np.array([1.0, 2.0, -1.0])
    np.testing.assert_allclose(op.apply(u), expected @ u, rtol=0, atol=0)


def test_diagonal_apply():
    spec, pot = random_potential(1, 5)
    op = build_hamiltonian(spec, pot, "diagonal")
    u = np.arange(spec.site_count, dtype=float)
    np.testing.assert_array_equal(op.apply(u), pot.values * u)


def test_center_site_has_four_neighbors_d2():
    spec = BoxSpec(2, 1)
    op = build_hamiltonian(spec, None, "free")
    e_center = np.zeros(9)
    e_center[ordinal_of(spec, (0, 0))] = 1.0
    image = op.apply(e_center)
    neighbors = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for site in neighbors:
        assert image[ordinal_of(spec, site)] == 1.0
    assert image.sum() == 4.0


def test_corner_site_single_neighbor_d1():
    spec = BoxSpec(1, 2)
    op = build_hamiltonian(spec, None, "free")
    e_corner = np.zeros(5)
    e_corner[0] = 1.0  # site -2
    image = op.apply(e_corner)
    np.testing.assert_array_equal(image, [0.0, 1.0, 0.0, 0.0, 0.0])


def test_build_validation():
    spec = BoxSpec(1, 3)
    with pytest.raises(ValueError):
        build_hamiltonian(spec, None, "full")
    with pytest.raises(ValueError):
        build_hamiltonian(spec, None, "banded")
    _, pot = random_potential(1, 4)
    with pytest.raises(ValueError):
        build_hamiltonian(spec, pot, "full")  # different box


# --- symmetry and support ---------------------------------------------------

@pytest.mark.parametrize("d,L", [(1, 20), (2, 4), (3, 2)])
def test_symmetry_on_random_pairs(d, L):
    spec, pot = random_potential(d, L)
    op = build_hamiltonian(spec, pot, "full")
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = rng.standard_normal(spec.site_count)
        v = rng.standard_normal(spec.site_count)
        lhs = op.apply(u) @ v
        rhs = u @ op.apply(v)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_dense_materialization_exactly_symmetric():
    spec, pot = random_potential(2, 3)
    H = build_hamiltonian(spec, pot, "full").to_dense()
    np.testing.assert_array_equal(H, H.T)


def test_apply_matches_dense():
    spec, pot = random_potential(2, 3)
    op = build_hamiltonian(spec, pot, "full")
    H = op.to_dense()
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal(spec.site_count)
        np.testing.assert_allclose(op.apply(u), H @ u, rtol=1e-14, atol=1e-14)


def test_rayleigh_quotient_within_norm_bound():
    spec, pot = random_potential(2, 4)
    op = build_hamiltonian(spec, pot, "full")
    bound = op.norm_bound()
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.standard_normal(spec.site_count)
        q = (u @ op.apply(u)) / (u @ u)
        assert -bound - 1e-12 <= q <= bound + 1e-12


def test_eigenvalue_support_interval():
    spec, pot = random_potential(1, 50)
    op = build_hamiltonian(spec, pot, "full")
    eigs = np.linalg.eigvalsh(op.to_dense())
    d = spec.dimension
    vmax = pot.max_abs
    assert eigs[0] >= -2 * d - vmax - 1e-10
    assert eigs[-1] <= 2 * d + vmax + 1e-10


def test_dense_cap_enforced():
    spec, pot = random_potential(1, 100)
    op = build_hamiltonian(spec, pot, "full")
    with pytest.raises(CapacityDenseError):
        op.to_dense(dense_cap=10)


# --- free spectrum ----------------------------------------------------------

def test_free_eigs_d1_l1_closed_form():
    vals = free_laplacian_eigs(1, 1)
    np.testing.assert_allclose(vals, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-14)


def test_free_eigs_d2_l1_tensor_sums():
    base = free_laplacian_eigs(1, 1)
    expected = np.sort((base[:, None] + base[None, :]).ravel())
    np.testing.assert_allclose(free_laplacian_eigs(2, 1), expected, atol=1e-14)


@pytest.mark.parametrize("d,L", [(1, 10), (2, 5), (3, 2)])
def test_free_eigs_match_dense_oracle(d, L):
    op = build_hamiltonian(BoxSpec(d, L), None, "free")
    dense = np.linalg.eigvalsh(op.to_dense())
    formula = free_laplacian_eigs(d, L)
    assert np.max(np.abs(dense - formula)) <= 1e-10
    assert np.all(np.abs(formula) <= 2 * d)


# --- potential and diagonal spectrum ----------------------------------------

def test_potential_invariants():
    spec, pot = random_potential(2, 5, alpha=0.7)
    from speclab.lattice import weights_array

    w = weights_array(spec, 0.7)
    np.testing.assert_allclose(pot.values * w, pot.omegas, rtol=1e-14)
    assert np.all(pot.omegas >= power_log(2.0, 0).clamp_point - 1e-12)


def test_v_spectrum_sorts_descending():
    spec = BoxSpec(1, 1)
    pot = sample_potential(spec, power_log(1.0, 0), 0.0, derive_stream(9, 0, 0))
    pot = pot.__class__(spec=spec, alpha=0.0,
                        omegas=np.array([3.0, 1.0, 2.0]),
                        values=np.array([3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(v_spectrum(pot), [3.0, 2.0, 1.0])
    assert v_spectrum(pot)[0] == np.max(pot.values)


@pytest.mark.parametrize("norm", ["euclidean", "sup"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_restriction_shares_omega_per_site(d, norm):
    spec, pot = random_potential(d, 6, alpha=1.0, norm=norm)
    small = restrict_potential(pot, 3)
    sub = BoxSpec(d, 3, norm)
    assert small.spec == sub
    for idx in enumerate_box(sub):
        big_ord = ordinal_of(spec, idx.site)
        assert small.omegas[idx.ordinal] == pot.omegas[big_ord]
        assert small.values[idx.ordinal] == pot.values[big_ord]


def test_top_of_v_nondecreasing_on_nested_boxes():
    spec, pot = random_potential(1, 200, alpha=0.5)
    tops = [np.max(restrict_potential(pot, L).values) for L in (25, 50, 100, 200)]
    assert all(b >= a for a, b in zip(tops, tops[1:]))


def test_weyl_comparison_small_instances():
    # |E_j(H) - E_j(V)| <= 2d for every rank j, on dense instances
    for d, L in ((1, 30), (2, 4)):
        spec, pot = random_potential(d, L, alpha=0.5, law=stretched_exp(1.0))
        H = build_hamiltonian(spec, pot, "full").to_dense()
        eigs_h = np.sort(np.linalg.eigvalsh(H))[::-1]
        eigs_v = np.sort(pot.values)[::-1]
        assert np.max(np.abs(eigs_h - eigs_v)) <= 2 * d + 1e-9


def test_triplet_dump_reconstructs_dense():
    spec, pot = random_potential(2, 2)
    op = build_hamiltonian(spec, pot, "full")
    H = np.zeros((spec.site_count, spec.site_count))
    for i, j, v in op.triplets():
        H[i, j] = v
    np.testing.assert_array_equal(H, op.to_dense())
