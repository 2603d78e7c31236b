import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.linalg

from speclab.eigen import (
    TRIDIAG_CAP_DEFAULT,
    dense_spectrum,
    extremal_topk,
    full_spectrum,
    top_eigenvalues,
    tridiagonal_spectrum,
)
from speclab.harness import STREAM_SOLVER, derive_stream
from speclab.lattice import BoxSpec
from speclab.operators import (
    CapacityDenseError,
    build_hamiltonian,
    free_laplacian_eigs,
    sample_potential,
)
from speclab.tails import power_log


def make_instance(d, L, alpha=0.5, law=power_log(2.0, 0), seed=0, trial=0):
    spec = BoxSpec(d, L)
    pot = sample_potential(spec, law, alpha, derive_stream(seed, trial, 0))
    return spec, pot


def solver_rng(seed=0, trial=0):
    return derive_stream(seed, trial, STREAM_SOLVER)


# deterministic examples, so the suite gives the same verdict on every run
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# --- dense paths -------------------------------------------------------------

def test_dense_free_chain_closed_form():
    op = build_hamiltonian(BoxSpec(1, 1), None, "free")
    s = dense_spectrum(op)
    np.testing.assert_allclose(s.values, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_dense_diagonal_is_sorted_values():
    spec, pot = make_instance(1, 40)
    s = dense_spectrum(build_hamiltonian(spec, pot, "diagonal"))
    np.testing.assert_array_equal(s.values, np.sort(pot.values))


def test_dense_trace_identity():
    spec, pot = make_instance(2, 4)
    op = build_hamiltonian(spec, pot, "full")
    s = dense_spectrum(op)
    n = spec.site_count
    assert abs(np.sum(s.values) - np.sum(pot.values)) <= 1e-9 * n * op.norm_bound()


def test_tridiagonal_matches_dense():
    spec, pot = make_instance(1, 60)
    op = build_hamiltonian(spec, pot, "full")
    tri = tridiagonal_spectrum(op)
    dense = dense_spectrum(op)
    np.testing.assert_allclose(tri.values, dense.values, atol=1e-10)


def test_full_spectrum_dispatch():
    spec, pot = make_instance(1, 30)
    assert full_spectrum(build_hamiltonian(spec, pot, "full")).values.size == 61
    assert full_spectrum(build_hamiltonian(spec, pot, "diagonal")).values[0] == np.min(
        pot.values
    )


# --- extremal solver ---------------------------------------------------------

def test_topk_diagonal_trivial():
    spec, pot = make_instance(1, 400)
    op = build_hamiltonian(spec, pot, "diagonal")
    s = extremal_topk(op, 3, solver_rng())
    np.testing.assert_allclose(s.values, np.sort(pot.values)[-3:], rtol=1e-12)
    assert s.converged


def test_topk_matches_dense_2d():
    spec, pot = make_instance(2, 15, seed=4)
    op = build_hamiltonian(spec, pot, "full")
    s = extremal_topk(op, 10, solver_rng(4), tol=1e-10)
    dense = dense_spectrum(op).values[-10:]
    assert s.converged
    assert np.max(np.abs(s.values - dense)) <= 1e-8


def test_topk_free_chain_top_value():
    op = build_hamiltonian(BoxSpec(1, 100), None, "free")
    s = extremal_topk(op, 1, solver_rng(8), tol=1e-12)
    assert abs(s.values[-1] - 2.0 * np.cos(np.pi / 202.0)) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_topk_oracle_agreement_random_instances(seed):
    d, L = (1, 300) if seed % 2 else (2, 9)
    spec, pot = make_instance(d, L, seed=seed)
    op = build_hamiltonian(spec, pot, "full")
    m = 6
    s = extremal_topk(op, m, solver_rng(seed), tol=1e-10)
    dense = dense_spectrum(op).values[-m:]
    assert np.max(np.abs(s.values - dense)) <= 1e-8 * op.norm_bound()


def test_residual_contract_reverified():
    spec, pot = make_instance(2, 10, seed=2)
    op = build_hamiltonian(spec, pot, "full")
    s = extremal_topk(op, 5, solver_rng(2), tol=1e-10)
    assert s.residuals is not None and s.residuals.size == 5
    assert np.all(s.residuals <= 4e-10 * op.norm_bound())


def test_determinism_same_stream_same_output():
    spec, pot = make_instance(2, 12, seed=6)
    op = build_hamiltonian(spec, pot, "full")
    s1 = extremal_topk(op, 4, solver_rng(6, 1))
    s2 = extremal_topk(op, 4, solver_rng(6, 1))
    np.testing.assert_array_equal(s1.values, s2.values)
    np.testing.assert_array_equal(s1.residuals, s2.residuals)
    # a different start vector still converges to the same eigenvalues
    s3 = extremal_topk(op, 4, solver_rng(6, 2))
    assert s3.converged
    np.testing.assert_allclose(s3.values, s1.values, atol=1e-8)


def test_unconverged_flagged_partial_results():
    spec, pot = make_instance(2, 15, seed=3)
    op = build_hamiltonian(spec, pot, "full")
    s = extremal_topk(op, 10, solver_rng(3), tol=1e-14, max_iter=12)
    assert not s.converged
    assert s.values.size == 10


def test_topk_restarts_off_the_ritz_stride():
    # (basis_cap - m) % 4 != 0: a restart falls between two scheduled Ritz
    # checks and must compress with the Ritz pairs of the full basis
    spec, pot = make_instance(2, 15, seed=5)
    op = build_hamiltonian(spec, pot, "full")
    m, basis_cap = 8, 43
    assert (basis_cap - m) % 4 != 0
    s = extremal_topk(op, m, solver_rng(5), basis_cap=basis_cap)
    assert s.iterations > basis_cap  # at least one restart
    assert s.converged
    dense = dense_spectrum(op).values[-m:]
    assert np.max(np.abs(s.values - dense)) <= 1e-8 * op.norm_bound()


def test_max_iter_off_the_ritz_stride_returns_m_flagged_values():
    spec, pot = make_instance(2, 15, seed=3)
    op = build_hamiltonian(spec, pot, "full")
    m, max_iter = 8, 13
    assert (max_iter - m) % 4 != 0
    s = extremal_topk(op, m, solver_rng(3), max_iter=max_iter)
    assert s.iterations == max_iter
    assert not s.converged
    assert s.values.size == m and s.residuals.size == m


@pytest.mark.parametrize("d, L", [(1, 40), (2, 4)])
def test_topk_just_above_the_dense_threshold(d, L):
    # n = 81: the smallest box whose default basis (80 vectors) is below n
    spec, pot = make_instance(d, L, seed=1)
    op = build_hamiltonian(spec, pot, "full")
    s = extremal_topk(op, 8, solver_rng(1))
    assert op.n == 81 and s.method == "lanczos"
    assert s.converged
    dense = dense_spectrum(op).values[-8:]
    assert np.max(np.abs(s.values - dense)) <= 1e-8 * op.norm_bound()


@PROPERTY_SETTINGS
@given(
    box=st.sampled_from([(1, L) for L in range(41, 121)] + [(2, L) for L in range(5, 9)]),
    m=st.integers(1, 10),
    p=st.floats(1.0, 4.0),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_topk_matches_dense_and_obeys_weyl_bound(box, m, p, alpha, seed):
    d, L = box
    spec, pot = make_instance(d, L, alpha=alpha, law=power_log(p, 0), seed=seed)
    op = build_hamiltonian(spec, pot, "full")
    s = extremal_topk(op, m, solver_rng(seed))
    assert s.method == "lanczos" and s.converged
    tol = 1e-8 * op.norm_bound()
    assert np.max(np.abs(s.values - dense_spectrum(op).values[-m:])) <= tol
    # Weyl: the hopping part has norm <= 2d, so it moves each E_j by <= 2d
    top_v = np.sort(pot.values)[-m:]
    assert np.max(np.abs(s.values - top_v)) <= 2 * d + tol


# --- exact top-m ---------------------------------------------------------------

@PROPERTY_SETTINGS
@given(
    L=st.integers(1, 200),
    kind=st.sampled_from(["full", "diagonal", "free"]),
    p=st.floats(1.0, 4.0),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
    data=st.data(),
)
def test_top_eigenvalues_match_the_tridiagonal_spectrum(L, kind, p, alpha, seed, data):
    spec, pot = make_instance(1, L, alpha=alpha, law=power_log(p, 0), seed=seed)
    op = build_hamiltonian(spec, None if kind == "free" else pot, kind)
    m = data.draw(st.integers(1, op.n), label="m")
    s = top_eigenvalues(op, m)
    assert s.values.shape == (m,)
    full = tridiagonal_spectrum(op).values[-m:]
    assert np.max(np.abs(s.values - full)) <= 1e-12 * op.norm_bound()


def test_top_eigenvalues_paths():
    spec, pot = make_instance(1, 30)
    assert top_eigenvalues(build_hamiltonian(spec, pot, "full"), 3).method == "bisection"
    diag = top_eigenvalues(build_hamiltonian(spec, pot, "diagonal"), 3)
    np.testing.assert_array_equal(diag.values, np.sort(pot.values)[-3:])
    # d >= 2 is the top of the dense spectrum, value for value
    spec2, pot2 = make_instance(2, 4)
    op2 = build_hamiltonian(spec2, pot2, "full")
    np.testing.assert_array_equal(top_eigenvalues(op2, 5).values,
                                  dense_spectrum(op2).values[-5:])


def test_top_eigenvalues_validation_and_caps():
    spec, pot = make_instance(1, 10)
    op = build_hamiltonian(spec, pot, "full")
    for m in (0, 22):
        with pytest.raises(ValueError):
            top_eigenvalues(op, m)
    spec1, pot1 = make_instance(1, TRIDIAG_CAP_DEFAULT // 2)
    with pytest.raises(CapacityDenseError, match=f"tridiagonal cap {TRIDIAG_CAP_DEFAULT}"):
        top_eigenvalues(build_hamiltonian(spec1, pot1, "full"), 1)
    spec2, pot2 = make_instance(2, 4)
    with pytest.raises(CapacityDenseError, match="dense cap 80"):
        top_eigenvalues(build_hamiltonian(spec2, pot2, "full"), 1, dense_cap=80)


@pytest.mark.parametrize("info, found", [(2, 1), (-3, 1), (0, 0)])
def test_top_eigenvalues_raises_when_stebz_fails(monkeypatch, info, found):
    spec, pot = make_instance(1, 10)
    op = build_hamiltonian(spec, pot, "full")

    def failing_stebz(d, e, *args):
        n = d.size
        return found, np.full(n, 7.0), np.ones(n, np.int32), np.zeros(n, np.int32), info

    monkeypatch.setattr(scipy.linalg.lapack, "dstebz", failing_stebz)
    with pytest.raises(np.linalg.LinAlgError, match=f"info {info}"):
        top_eigenvalues(op, 1)


def test_positive_descending_filter():
    op = build_hamiltonian(BoxSpec(1, 5), None, "free")
    s = dense_spectrum(op)
    pos = s.positive_descending()
    assert np.all(pos > 0)
    assert np.all(np.diff(pos) <= 0)


def test_topk_m_validation():
    spec, pot = make_instance(1, 10)
    op = build_hamiltonian(spec, pot, "full")
    with pytest.raises(ValueError):
        extremal_topk(op, 0, solver_rng())
    with pytest.raises(ValueError):
        extremal_topk(op, 22, solver_rng())


def test_small_instances_use_exact_path():
    spec, pot = make_instance(1, 8)
    op = build_hamiltonian(spec, pot, "full")
    s = extremal_topk(op, 2, solver_rng())
    dense = dense_spectrum(op).values[-2:]
    np.testing.assert_allclose(s.values, dense, atol=1e-12)


def test_lanczos_on_free_operator_with_degenerate_levels():
    # d=2 free spectrum has exact degeneracies; values must still match
    op = build_hamiltonian(BoxSpec(2, 6), None, "free")
    m = 8
    s = extremal_topk(op, m, solver_rng(13), tol=1e-10, max_iter=4000)
    exact = free_laplacian_eigs(2, 6)[-m:]
    assert np.max(np.abs(s.values - exact)) <= 1e-8
