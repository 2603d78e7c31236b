import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.linalg

from speclab.eigen import (
    TRIDIAG_CAP_DEFAULT,
    check_full_spectrum_cap,
    extremal_topk,
    full_spectrum,
    solver_path,
)
from speclab.harness import STREAM_SOLVER, derive_stream
from speclab.lattice import BoxSpec, CapacityError
from speclab.operators import (
    DENSE_CAP_DEFAULT,
    build_hamiltonian,
    free_laplacian_eigs,
    sample_potential,
)
from speclab.tails import power_log

from eigen_oracle import dense_eigs, free_operator


def make_instance(d, L, alpha=0.5, law=power_log(2.0, 0), seed=0, trial=0):
    spec = BoxSpec(d, L)
    pot = sample_potential(spec, law, alpha, derive_stream(seed, trial, 0))
    return spec, pot


def solver_rng(seed=0, trial=0):
    return derive_stream(seed, trial, STREAM_SOLVER)


# deterministic examples, so the suite gives the same verdict on every run
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# --- the solver path rule ------------------------------------------------------

CAP = DENSE_CAP_DEFAULT
TRI = TRIDIAG_CAP_DEFAULT


@pytest.mark.parametrize("d, n, solver, dense_cap, expected", [
    # auto: bisection at d=1 for any n, whatever dense_cap says
    (1, CAP, "auto", CAP, "bisection"),
    (1, CAP + 1, "auto", CAP, "bisection"),
    (1, TRI + 1, "auto", TRI + 1, "bisection"),
    # auto at d >= 2: a dense slice up to dense_cap, Lanczos above it
    (2, CAP, "auto", CAP, "dense"),
    (2, CAP + 1, "auto", CAP, "lanczos"),
    # lanczos is taken at any size
    (1, 3, "lanczos", CAP, "lanczos"),
    (2, 3, "lanczos", CAP, "lanczos"),
])
def test_solver_path_table(d, n, solver, dense_cap, expected):
    assert solver_path(d, n, solver, dense_cap) == expected


@pytest.mark.parametrize("d, n, dense_cap, error", [
    # QL's cap at d=1, whatever dense_cap says
    (1, TRI, 0, None),
    (1, TRI + 1, TRI + 1, f"{TRI + 1} sites exceeds tridiagonal cap {TRI}"),
    (2, CAP, CAP, None),
    (2, CAP + 1, CAP, f"{CAP + 1} sites exceeds dense cap {CAP}"),
])
def test_full_spectrum_caps(d, n, dense_cap, error):
    if error is None:
        check_full_spectrum_cap(d, n, dense_cap)
    else:
        with pytest.raises(CapacityError, match=f"^{error}$"):
            check_full_spectrum_cap(d, n, dense_cap)


# --- the exact solve ---------------------------------------------------------

def test_dense_free_chain_closed_form():
    s = full_spectrum(free_operator(BoxSpec(1, 1)))
    np.testing.assert_allclose(s.values, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_dense_trace_identity():
    spec, pot = make_instance(2, 4)
    op = build_hamiltonian(spec, pot)
    s = full_spectrum(op)
    n = spec.site_count
    assert abs(np.sum(s.values) - np.sum(pot.values)) <= 1e-9 * n * op.norm_bound()


def test_tridiagonal_matches_dense():
    spec, pot = make_instance(1, 60)
    op = build_hamiltonian(spec, pot)
    tri = full_spectrum(op)
    assert tri.method == "tridiagonal"
    np.testing.assert_allclose(tri.values, dense_eigs(op), atol=1e-10)


def test_full_spectrum_dispatch():
    # both exact paths give the closed-form spectrum of the free operator
    for d, L, path in ((1, 30, "tridiagonal"), (2, 4, "dense")):
        s = full_spectrum(free_operator(BoxSpec(d, L)))
        assert s.method == path and s.values.size == (2 * L + 1) ** d
        assert np.max(np.abs(s.values - free_laplacian_eigs(d, L))) <= 1e-12


# --- extremal solver ---------------------------------------------------------

def test_topk_matches_dense_2d():
    spec, pot = make_instance(2, 15, seed=4)
    op = build_hamiltonian(spec, pot)
    s = extremal_topk(op, 10, solver_rng(4), tol=1e-10)
    dense = dense_eigs(op)[-10:]
    assert s.converged
    assert np.max(np.abs(s.values - dense)) <= 1e-8


def test_topk_free_chain_top_value():
    s = extremal_topk(free_operator(BoxSpec(1, 100)), 1, solver_rng(8), tol=1e-12)
    assert abs(s.values[-1] - 2.0 * np.cos(np.pi / 202.0)) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_topk_oracle_agreement_random_instances(seed):
    d, L = (1, 300) if seed % 2 else (2, 9)
    spec, pot = make_instance(d, L, seed=seed)
    op = build_hamiltonian(spec, pot)
    m = 6
    s = extremal_topk(op, m, solver_rng(seed), tol=1e-10)
    dense = dense_eigs(op)[-m:]
    assert np.max(np.abs(s.values - dense)) <= 1e-8 * op.norm_bound()


def test_residual_contract_reverified():
    spec, pot = make_instance(2, 10, seed=2)
    op = build_hamiltonian(spec, pot)
    s = extremal_topk(op, 5, solver_rng(2), tol=1e-10)
    assert s.residuals is not None and s.residuals.size == 5
    assert np.all(s.residuals <= 4e-10 * op.norm_bound())


def test_determinism_same_stream_same_output():
    spec, pot = make_instance(2, 12, seed=6)
    op = build_hamiltonian(spec, pot)
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
    op = build_hamiltonian(spec, pot)
    s = extremal_topk(op, 10, solver_rng(3), tol=1e-14, max_iter=12)
    assert not s.converged
    assert s.values.size < 10


def test_topk_restarted_run_matches_dense():
    # at m = 8 the default ncv is 20 vectors, so more applies mean a restart
    spec, pot = make_instance(2, 15, seed=5)
    op = build_hamiltonian(spec, pot)
    m = 8
    s = extremal_topk(op, m, solver_rng(5))
    assert s.iterations > 20
    assert s.converged
    dense = dense_eigs(op)[-m:]
    assert np.max(np.abs(s.values - dense)) <= 1e-8 * op.norm_bound()


def test_capped_run_is_flagged_with_one_residual_per_value():
    spec, pot = make_instance(2, 15, seed=3)
    op = build_hamiltonian(spec, pot)
    m = 8
    s = extremal_topk(op, m, solver_rng(3), tol=1e-15, max_iter=1)
    assert not s.converged
    assert s.values.size <= m and s.residuals.size == s.values.size
    assert np.all(np.diff(s.values) >= 0)


@pytest.mark.parametrize("L, method", [(15, "bisection"), (16, "lanczos")])
def test_topk_at_the_dense_threshold(L, method):
    # at m = 8, boxes up to max(2m + 2, 32) = 32 sites take the exact top m
    spec, pot = make_instance(1, L, seed=1)
    op = build_hamiltonian(spec, pot)
    s = extremal_topk(op, 8, solver_rng(1))
    assert op.n == 2 * L + 1 and s.method == method
    assert s.converged
    dense = dense_eigs(op)[-8:]
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
    op = build_hamiltonian(spec, pot)
    s = extremal_topk(op, m, solver_rng(seed))
    assert s.method == "lanczos" and s.converged
    tol = 1e-8 * op.norm_bound()
    assert np.max(np.abs(s.values - dense_eigs(op)[-m:])) <= tol
    # Weyl: the hopping part has norm <= 2d, so it moves each E_j by <= 2d
    top_v = np.sort(pot.values)[-m:]
    assert np.max(np.abs(s.values - top_v)) <= 2 * d + tol


# --- exact top-m ---------------------------------------------------------------

@PROPERTY_SETTINGS
@given(
    L=st.integers(1, 200),
    free=st.booleans(),
    p=st.floats(1.0, 4.0),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
    data=st.data(),
)
def test_top_eigenvalues_match_the_tridiagonal_spectrum(L, free, p, alpha, seed, data):
    spec, pot = make_instance(1, L, alpha=alpha, law=power_log(p, 0), seed=seed)
    op = free_operator(spec) if free else build_hamiltonian(spec, pot)
    m = data.draw(st.integers(1, op.n), label="m")
    s = full_spectrum(op, m=m)
    assert s.values.shape == (m,)
    full = full_spectrum(op).values[-m:]
    assert np.max(np.abs(s.values - full)) <= 1e-12 * op.norm_bound()


def test_top_eigenvalues_paths():
    # Spectrum.method names the path taken
    spec, pot = make_instance(1, 30)
    op = build_hamiltonian(spec, pot)
    assert full_spectrum(op).method == "tridiagonal"
    assert full_spectrum(op, m=3).method == "bisection"
    # d >= 2 is the top of the dense spectrum, value for value
    spec2, pot2 = make_instance(2, 4)
    op2 = build_hamiltonian(spec2, pot2)
    full2, top2 = full_spectrum(op2), full_spectrum(op2, m=5)
    assert full2.method == top2.method == "dense"
    np.testing.assert_array_equal(top2.values, full2.values[-5:])


def test_top_eigenvalues_validation_and_caps():
    spec, pot = make_instance(1, 10)
    op = build_hamiltonian(spec, pot)
    for m in (0, 22):
        with pytest.raises(ValueError):
            full_spectrum(op, m=m)
    # only a full spectrum is capped: a top slice bisects at any n
    spec1, pot1 = make_instance(1, TRIDIAG_CAP_DEFAULT // 2)
    op1 = build_hamiltonian(spec1, pot1)
    with pytest.raises(CapacityError,
                       match=f"^{op1.n} sites exceeds tridiagonal cap {TRIDIAG_CAP_DEFAULT}$"):
        full_spectrum(op1)
    top = full_spectrum(op1, m=2)
    assert top.method == "bisection" and top.values.shape == (2,)
    # Weyl: the hopping moves E_1 off max V by at most 2
    assert np.max(pot1.values) <= top.values[-1] <= np.max(pot1.values) + 2.0
    # at d >= 2 dense_cap binds the full spectrum, not a slice of it
    spec2, pot2 = make_instance(2, 4)
    op2 = build_hamiltonian(spec2, pot2)
    with pytest.raises(CapacityError, match="^81 sites exceeds dense cap 80$"):
        full_spectrum(op2, dense_cap=80)
    np.testing.assert_array_equal(full_spectrum(op2, dense_cap=80, m=1).values,
                                  full_spectrum(op2).values[-1:])


@pytest.mark.parametrize("info, found", [(2, 1), (-3, 1), (0, 0)])
def test_top_eigenvalues_raises_when_stebz_fails(monkeypatch, info, found):
    spec, pot = make_instance(1, 10)
    op = build_hamiltonian(spec, pot)

    def failing_stebz(d, e, *args):
        n = d.size
        return found, np.full(n, 7.0), np.ones(n, np.int32), np.zeros(n, np.int32), info

    monkeypatch.setattr(scipy.linalg.lapack, "dstebz", failing_stebz)
    with pytest.raises(np.linalg.LinAlgError, match=f"info {info}"):
        full_spectrum(op, m=1)


def test_positive_descending_filter():
    s = full_spectrum(free_operator(BoxSpec(1, 5)))
    pos = s.positive_descending()
    assert np.all(pos > 0)
    assert np.all(np.diff(pos) <= 0)


def test_topk_m_validation():
    spec, pot = make_instance(1, 10)
    op = build_hamiltonian(spec, pot)
    with pytest.raises(ValueError):
        extremal_topk(op, 0, solver_rng())
    with pytest.raises(ValueError):
        extremal_topk(op, 22, solver_rng())


def test_small_instances_use_exact_path():
    spec, pot = make_instance(1, 8)
    op = build_hamiltonian(spec, pot)
    s = extremal_topk(op, 2, solver_rng())
    dense = dense_eigs(op)[-2:]
    np.testing.assert_allclose(s.values, dense, atol=1e-12)


def test_lanczos_on_free_operator_with_degenerate_levels():
    # d=2 free spectrum has exact degeneracies; values must still match
    op = free_operator(BoxSpec(2, 6))
    m = 8
    s = extremal_topk(op, m, solver_rng(13), tol=1e-10, max_iter=4000)
    exact = free_laplacian_eigs(2, 6)[-m:]
    assert np.max(np.abs(s.values - exact)) <= 1e-8


@pytest.mark.xfail(strict=True, reason=(
    "ARPACK reports converged=True with a top-8 set that misses copies of "
    "exactly multiple free eigenvalues (2.83 off at d=5 and d=6): residuals "
    "certify the pairs, not the set. ROADMAP item 2's inertia count is to "
    "certify it; the change that adds the count makes this test pass"))
@pytest.mark.parametrize("d", [5, 6])
def test_converged_topk_holds_every_copy_of_a_multiple_eigenvalue(d):
    s = extremal_topk(free_operator(BoxSpec(d, 1)), 8, np.random.default_rng(0))
    assert s.converged
    np.testing.assert_allclose(np.sort(s.values), free_laplacian_eigs(d, 1)[-8:], atol=1e-8)
