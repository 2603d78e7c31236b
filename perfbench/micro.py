"""Layer microbenchmarks: the north-star hot paths, each timed on its own.

Inputs are generated from the run's seed. Each entry is called repeatedly
until about BUDGET_S has passed (at least once) and reports the median call.
The d=2 L=31 dense spectrum alone takes about 4 s, so it runs once.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from speclab.eigen import extremal_topk, full_spectrum
from speclab.lattice import BoxSpec
from speclab.operators import build_hamiltonian, sample_potential
from speclab.scaling import gamma_power, tail_sum_stats
from speclab.stats import exact_max_cdf_ladder, max_law_test, poisson_gof, poisson_joint_gof
from speclab.tails import power_log, stretched_exp

BUDGET_S = 0.25
MAX_CALLS = 200


def _median_call(fn, warm_up: bool = False) -> float:
    if warm_up:
        # OpenBLAS threads that went to sleep between calls make the first
        # small BLAS calls after idle time up to 15x slower on 2 vCPUs
        fn()
    times = []
    spent = 0.0
    while not times or (spent < BUDGET_S and len(times) < MAX_CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times)


def _operator(seed: int, d: int, L: int):
    spec = BoxSpec(d, L)
    pot = sample_potential(spec, power_log(2.0, 0), 0.0, np.random.default_rng(seed))
    return build_hamiltonian(spec, pot, "full")


def micro_metrics(seed: int) -> dict[str, float]:
    """`micro.*` metric name -> value; the unit is the name's last part."""
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}

    box = BoxSpec(1, 2000)
    for label, law in (("power_log_k0", power_log(2.0, 0)),
                       ("power_log_k1", power_log(2.0, 1)),
                       ("stretched_exp", stretched_exp(0.5))):
        t = _median_call(lambda: sample_potential(box, law, 0.0, rng))
        out[f"micro.sample.{label}.ns_per_site"] = t / box.site_count * 1e9

    for label, d, L in (("d1_L2000", 1, 2000), ("d2_L31", 2, 31)):
        op = _operator(seed, d, L)
        u = rng.standard_normal(op.n)
        out[f"micro.apply.{label}.us"] = _median_call(lambda: op.apply(u)) * 1e6
        iterations = []

        def topk():
            iterations.append(extremal_topk(op, 8, np.random.default_rng(seed)).iterations)
        out[f"micro.extremal_topk.{label}.ms"] = _median_call(topk, True) * 1e3
        out[f"micro.extremal_topk.{label}.iterations"] = iterations[0]

    # d=2 L=31 is the dense path `solver=auto` picks below dense_cap
    for label, d, L in (("n201", 1, 100), ("n10001", 1, 5000), ("d2_L31", 2, 31)):
        op = _operator(seed, d, L)
        out[f"micro.full_spectrum.{label}.ms"] = _median_call(lambda: full_spectrum(op)) * 1e3

    spec = BoxSpec(2, 500)
    law, alpha = power_log(2.0, 0), 0.5
    gamma = gamma_power(2, alpha, 2.0, 0, 500)
    out["micro.tail_sum_stats.d2_L500.ms"] = _median_call(
        lambda: tail_sum_stats(spec, law, alpha, gamma, 1.0)) * 1e3

    ladder = BoxSpec(1, 100, "sup")
    out["micro.exact_max_cdf_ladder.d1_L100.ms"] = _median_call(
        lambda: exact_max_cdf_ladder(ladder, stretched_exp(1.0), 1.0, 8.0, [25, 50, 100])) * 1e3

    trials = 500
    counts = rng.poisson([0.5, 0.5], size=(trials, 2))  # nu[1, 2) = nu[2, inf) = 1/2
    maxima = -1.0 / np.log(rng.random(trials))
    out["micro.poisson_gof.ms"] = _median_call(
        lambda: poisson_gof(counts[:, 0], (1.0, 2.0))) * 1e3
    out["micro.poisson_joint_gof.ms"] = _median_call(
        lambda: poisson_joint_gof(counts, ((1.0, 2.0), (2.0, np.inf)))) * 1e3
    out["micro.max_law_test.ms"] = _median_call(lambda: max_law_test(maxima)) * 1e3
    return out
