import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.linalg

from speclab import eigen
from speclab.eigen import (
    STURM_BLOCK_SITES,
    STURM_BLOCK_VALUES,
    count_above,
    count_le,
    extremal_topk,
    full_spectrum,
    solver_path,
)
from speclab.harness import STREAM_SOLVER, derive_stream
from speclab.lattice import BoxSpec, CapacityError
from speclab.operators import (
    DENSE_CAP_DEFAULT,
    PotentialSample,
    build_hamiltonian,
    check_dense_cap,
    free_laplacian_eigs,
    sample_potential,
)
from speclab.tails import power_log

from eigen_oracle import count_le_clamped, count_le_one_ended, dense_eigs, free_operator


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
TOP_M = 8  # the default top_m


@pytest.mark.parametrize("d, n, solver, dense_cap, expected", [
    # auto: bisection at d=1 for any n, whatever dense_cap says
    (1, CAP, "auto", CAP, "bisection"),
    (1, CAP + 1, "auto", CAP, "bisection"),
    (1, 200_001, "auto", 200_001, "bisection"),
    # auto at d >= 2: a dense slice up to dense_cap, Lanczos above it
    (2, CAP, "auto", CAP, "dense"),
    (2, CAP + 1, "auto", CAP, "lanczos"),
    # Lanczos, under lanczos or auto's d >= 2 path, is taken above
    # max(2m + 2, 32) = 32 sites, and the exact path at or below
    (1, 3, "lanczos", CAP, "bisection"),
    (2, 3, "lanczos", CAP, "dense"),
    (1, 31, "lanczos", CAP, "bisection"),
    (1, 33, "lanczos", CAP, "lanczos"),
    (2, 25, "lanczos", CAP, "dense"),
    (2, 25, "auto", 10, "dense"),
    (2, 49, "auto", 10, "lanczos"),
])
def test_solver_path_table(d, n, solver, dense_cap, expected):
    assert solver_path(d, n, TOP_M, solver, dense_cap) == expected


@pytest.mark.parametrize("m, n, expected", [
    # from m = 16 the edge is 2m + 2 sites, so it moves with m
    (15, 32, "bisection"), (15, 33, "lanczos"),
    (16, 34, "bisection"), (16, 35, "lanczos"),
    (100, 202, "bisection"), (100, 203, "lanczos"),
])
def test_solver_path_edge_moves_with_m(m, n, expected):
    assert solver_path(1, n, m, "lanczos", CAP) == expected


@pytest.mark.parametrize("d, n, dense_cap, error", [
    # the dense cap, the one cap on a full spectrum (d >= 2), binds where
    # auto's top slice leaves the dense path for Lanczos
    (2, CAP, CAP, None),
    (2, CAP + 1, CAP, f"{CAP + 1} sites exceeds dense cap {CAP}"),
])
def test_full_spectrum_caps(d, n, dense_cap, error):
    assert solver_path(d, n, TOP_M, "auto", dense_cap) == ("dense" if error is None else "lanczos")
    if error is None:
        check_dense_cap(n, dense_cap)
    else:
        with pytest.raises(CapacityError, match=f"^{error}$"):
            check_dense_cap(n, dense_cap)


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


@pytest.mark.parametrize("L, path", [(15, "bisection"), (16, "lanczos")])
def test_topk_at_the_dense_threshold(L, path):
    # at m = 8, boxes up to max(2m + 2, 32) = 32 sites take the exact top m;
    # ARPACK itself agrees with dense on both sides of that edge
    spec, pot = make_instance(1, L, seed=1)
    op = build_hamiltonian(spec, pot)
    assert op.n == 2 * L + 1 and solver_path(1, op.n, 8, "lanczos", CAP) == path
    s = extremal_topk(op, 8, solver_rng(1))
    assert s.method == "lanczos" and s.converged
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


# --- eigenvalue counts -----------------------------------------------------------

@PROPERTY_SETTINGS
@given(
    L=st.integers(1, 200),
    p=st.floats(1.0, 4.0),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
    points=st.integers(1, 3000),
)
def test_count_le_matches_the_tridiagonal_spectrum(L, p, alpha, seed, points):
    # up to 3000 points: blocks of fewer sites than STURM_BLOCK_SITES too
    spec, pot = make_instance(1, L, alpha=alpha, law=power_log(p, 0), seed=seed)
    op = build_hamiltonian(spec, pot)
    vals = scipy.linalg.eigvalsh_tridiagonal(op.diagonal, np.ones(op.n - 1))
    rng = np.random.default_rng(seed)
    near = rng.choice(vals, points) + rng.choice([-1e-7, 1e-7], points) * op.norm_bound()
    x = np.concatenate([rng.uniform(-3.0, 3.0, points), near,
                        rng.uniform(vals[0] - 1.0, vals[-1] + 1.0, points)])
    np.testing.assert_array_equal(count_le(op, x), np.searchsorted(vals, x, side="right"))


@PROPERTY_SETTINGS
@given(
    # n = 3 and 5, and L steps around one and two blocks of STURM_BLOCK_SITES
    L=st.one_of(st.sampled_from([1, 2, STURM_BLOCK_SITES - 1, STURM_BLOCK_SITES,
                                 STURM_BLOCK_SITES + 1, 2 * STURM_BLOCK_SITES + 1]),
                st.integers(1, 300)),
    p=st.floats(1.0, 4.0),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
    points=st.integers(1, 1500),
)
def test_twisted_count_matches_the_one_ended_sweep_and_the_spectrum(L, p, alpha, seed,
                                                                     points):
    # no point sits on an eigenvalue: there both counts are exact for
    # matrices within rounding of H, and may differ
    spec, pot = make_instance(1, L, alpha=alpha, law=power_log(p, 0), seed=seed)
    op = build_hamiltonian(spec, pot)
    vals = scipy.linalg.eigvalsh_tridiagonal(op.diagonal, np.ones(op.n - 1))
    rng = np.random.default_rng(seed)
    near = rng.choice(vals, points) + rng.choice([-1e-7, 1e-7], points) * op.norm_bound()
    x = np.concatenate([near, rng.uniform(vals[0] - 1.0, vals[-1] + 1.0, points)])
    counts = count_le(op, x)
    np.testing.assert_array_equal(counts, count_le_one_ended(op, x))
    np.testing.assert_array_equal(counts, np.searchsorted(vals, x, side="right"))


@pytest.mark.parametrize("L", [1, 2, 40, 150])
def test_count_le_counts_an_eigenvalue_at_the_point(L):
    # the free chain of odd n = 2L + 1 has the eigenvalue 0, where every
    # other pivot is exactly zero; LAPACK's -pivmin replacement counts it
    op = free_operator(BoxSpec(1, L))
    np.testing.assert_array_equal(count_le(op, np.array([-3.0, 0.0, 3.0])),
                                  [0, L + 1, op.n])


@pytest.mark.parametrize("L", [1, 2, 40, 150])
def test_count_le_counts_an_eigenvalue_where_the_twist_pivot_is_zero(L):
    # V = (1, 2, ..., 2, 1) is the path's signless Laplacian, whose least
    # eigenvalue is 0: at x = 0 every forward and backward pivot is exactly 1
    # and the twist 2 - 1 - 1 exactly 0, which the -pivmin rule counts
    spec = BoxSpec(1, L)
    v = np.full(spec.site_count, 2.0)
    v[[0, -1]] = 1.0
    op = build_hamiltonian(spec, PotentialSample(spec=spec, omegas=v, values=v))
    np.testing.assert_array_equal(count_le(op, np.array([-1e-3, 0.0])), [0, 1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    # L steps around one and two blocks of STURM_BLOCK_SITES; over
    # STURM_BLOCK_VALUES / (2 STURM_BLOCK_SITES) points a block is shorter
    L=st.one_of(st.sampled_from([1, 2, STURM_BLOCK_SITES - 1, STURM_BLOCK_SITES,
                                 STURM_BLOCK_SITES + 1, 2 * STURM_BLOCK_SITES + 1]),
                st.integers(1, 150)),
    kind=st.sampled_from(["integer", "half-integer", "constant", "alternating"]),
    seed=st.integers(0, 2 ** 32 - 1),
    points=st.sampled_from([1, 7, STURM_BLOCK_VALUES // (2 * STURM_BLOCK_SITES) + 1, 3000]),
)
def test_count_le_equals_the_clamped_sweep_on_degenerate_inputs(L, kind, seed, points):
    # exact arithmetic lands pivots on +-0 and below PIVMIN: along the chain
    # IEEE infinities count them as the clamp does, and the last step's
    # pivots, which have no successor, are clamped
    spec = BoxSpec(1, L)
    rng = np.random.default_rng(seed)
    n = spec.site_count
    v = {"integer": lambda: rng.integers(-3, 4, n).astype(np.float64),
         "half-integer": lambda: rng.integers(-6, 7, n) / 2.0,
         "constant": lambda: np.full(n, float(rng.integers(-2, 3))),
         "alternating": lambda: rng.integers(0, 3) * (-1.0) ** np.arange(n)}[kind]()
    op = build_hamiltonian(spec, PotentialSample(spec=spec, omegas=v, values=v))
    # a quarter grid, the diagonal entries, both zeros and subnormals
    x = rng.choice(np.concatenate([np.arange(-24, 25) / 4.0, v,
                                   [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]]), points)
    np.testing.assert_array_equal(count_le(op, x), count_le_clamped(op, x))


def test_count_le_rejects_nan_and_counts_the_infinities():
    spec, pot = make_instance(1, 70)
    op = build_hamiltonian(spec, pot)
    np.testing.assert_array_equal(count_le(op, np.array([-np.inf, np.inf])), [0, op.n])
    with pytest.raises(ValueError, match="NaN"):
        count_le(op, np.array([0.0, np.nan]))


def test_count_le_counts_d1_alone():
    spec, pot = make_instance(2, 3)
    with pytest.raises(ValueError, match="d = 1"):
        count_le(build_hamiltonian(spec, pot), np.array([0.0]))


@PROPERTY_SETTINGS
@given(
    L=st.integers(1, 150),
    kind=st.sampled_from(["constant", "integer", "decaying"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_count_above_matches_the_dense_spectrum(L, kind, seed):
    rng = np.random.default_rng(seed)
    spec = BoxSpec(1, L)
    n = spec.site_count
    v = {"constant": lambda: np.full(n, float(rng.integers(-3, 4))),
         "integer": lambda: rng.integers(-3, 4, n).astype(np.float64),
         "decaying": lambda: rng.pareto(1.0, n) / (1.0 + np.abs(np.arange(n) - L)) ** 0.5,
         }[kind]()
    op = build_hamiltonian(spec, PotentialSample(spec=spec, omegas=v, values=v))
    vals = dense_eigs(op)
    bound = op.norm_bound()
    # points clear of every eigenvalue, where any two exact counts agree:
    # midpoints of gaps and random points, and points at and beyond the
    # norm bound on both sides
    gaps = np.diff(vals) > 1e-6 * bound
    mid = 0.5 * (vals[1:] + vals[:-1])[gaps]
    anywhere = rng.uniform(-bound - 1.0, bound + 1.0, 50)
    anywhere = anywhere[np.min(np.abs(anywhere[:, None] - vals), axis=1) > 1e-6 * bound]
    beyond = [-np.inf, -2.0 * bound, -bound - 1.0, -bound, bound, bound + 1.0, 1e300, np.inf]
    t = np.concatenate([mid, anywhere, beyond])
    want = [int(np.sum(vals > x)) for x in t]
    assert [count_above(op, x) for x in t] == want


def test_count_above_rejects_nan_and_counts_d1_alone():
    op = build_hamiltonian(*make_instance(1, 20))
    with pytest.raises(ValueError, match="NaN"):
        count_above(op, np.nan)
    op2 = build_hamiltonian(*make_instance(2, 3))
    with pytest.raises(ValueError, match="d = 1"):
        count_above(op2, 0.0)


def test_count_above_raises_when_stebz_fails(monkeypatch):
    # scipy's wrapper reports a failure in its INFO return value
    op = build_hamiltonian(*make_instance(1, 10))

    def failing(d, e, *args):
        n = d.size
        return 0, np.zeros(n), np.ones(n, np.int32), np.zeros(n, np.int32), 1

    monkeypatch.setattr(eigen, "_dstebz", lambda: failing)
    with pytest.raises(np.linalg.LinAlgError, match="info 1"):
        count_above(op, 0.0)


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
    # a d = 1 top slice bisects at any n (a QL full spectrum is uncapped
    # too, but takes minutes at this size)
    spec1, pot1 = make_instance(1, 100_000)
    op1 = build_hamiltonian(spec1, pot1)
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
    # scipy's wrapper reports a failure in its M and INFO return values
    op = build_hamiltonian(*make_instance(1, 10))

    def failing(d, e, *args):
        n = d.size
        return found, np.full(n, 7.0), np.ones(n, np.int32), np.zeros(n, np.int32), info

    monkeypatch.setattr(eigen, "_dstebz", lambda: failing)
    with pytest.raises(np.linalg.LinAlgError, match=f"info {info}"):
        full_spectrum(op, m=1)


def test_every_path_returns_its_values_ascending():
    # an extremal trial reads the first of H's top values as the smallest
    op1 = build_hamiltonian(*make_instance(1, 40, seed=4))
    op2 = build_hamiltonian(*make_instance(2, 6, seed=4))
    spectra = [full_spectrum(op1), full_spectrum(op1, m=5), full_spectrum(op2, m=5),
               extremal_topk(op2, 5, solver_rng(4))]
    assert [s.method for s in spectra] == ["tridiagonal", "bisection", "dense", "lanczos"]
    for s in spectra:
        assert np.all(np.diff(s.values) > 0), s.method


def test_topk_m_validation():
    spec, pot = make_instance(1, 10)
    op = build_hamiltonian(spec, pot)
    # ARPACK needs 1 <= m <= n - 1: the rule sends m = n to the exact path
    for m in (0, op.n, op.n + 1):
        with pytest.raises(ValueError, match=r"^m must be in \[1, 20\]"):
            extremal_topk(op, m, solver_rng())


def test_small_instances_use_exact_path():
    # 17 sites at m = 2: even under lanczos the rule takes bisection, and
    # both paths agree with dense there
    spec, pot = make_instance(1, 8)
    op = build_hamiltonian(spec, pot)
    assert solver_path(1, op.n, 2, "lanczos", CAP) == "bisection"
    dense = dense_eigs(op)[-2:]
    for s in (full_spectrum(op, m=2), extremal_topk(op, 2, solver_rng())):
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
