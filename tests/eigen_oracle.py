"""Eigenvalue references used only by the tests.

The package solves H = hopping + V on the path `speclab.eigen.solver_path`
picks (`full_spectrum`, `extremal_topk`); these build the whole matrix and
hand it to numpy's symmetric solver, and give the free chain as H with a
zero potential. `count_le_one_ended` is the one-ended Sturm sweep that
`speclab.eigen.count_le` replaced by a twisted one, kept as its reference.
"""
from __future__ import annotations

import numpy as np

from speclab.eigen import PIVMIN, STURM_BLOCK_SITES, STURM_BLOCK_VALUES
from speclab.lattice import BoxSpec
from speclab.operators import LatticeOperator, PotentialSample, build_hamiltonian


def dense_eigs(op: LatticeOperator) -> np.ndarray:
    """Every eigenvalue of the materialized operator, ascending."""
    return np.linalg.eigvalsh(op.to_dense(op.n))


def free_operator(spec: BoxSpec) -> LatticeOperator:
    """The hopping operator alone: H with V = 0 at every site."""
    zeros = np.zeros(spec.site_count)
    return build_hamiltonian(spec, PotentialSample(spec=spec, omegas=zeros, values=zeros))


def count_le_one_ended(op: LatticeOperator, x) -> np.ndarray:
    """#{eigenvalues <= x} of a d=1 operator, at every point of the 1-D array x.

    Sturm count (Barth, Martin & Wilkinson, Numer. Math. 9, 1967): the number
    of negative pivots q_i of H - x = L D L^T, where q_1 = V_1 - x and
    q_i = (V_i - x) - 1/q_{i-1} for the unit hopping. A pivot with
    |q| < PIVMIN is replaced by -PIVMIN, LAPACK's convention (dlaebz), so an
    x equal to an eigenvalue is counted. The sites are looped in Python and
    the points vectorized, a block of sites at a time, in buffers of
    O(x.size) bounded by STURM_BLOCK_VALUES: no n x points array is formed.
    As LAPACK's dlaneg does, a block first runs without the pivot check and
    is run again with it only when one of its pivots came out tiny.
    """
    if op.spec.dimension != 1:
        raise ValueError("count_le counts a d = 1 operator")
    x = np.asarray(x, dtype=np.float64)
    diag, n, p = op.diagonal, op.n, x.size
    rows = max(1, min(STURM_BLOCK_SITES, STURM_BLOCK_VALUES // max(p, 1)))
    shifted = np.empty((rows, p))  # V_i - x for the block's sites
    pivots = np.empty((rows, p))
    recip = np.zeros(p)  # 1/q of the previous pivot; 0 before the first site
    counts = np.zeros(p, dtype=np.int64)
    for start in range(0, n, rows):
        b = min(rows, n - start)
        shift, piv = shifted[:b], pivots[:b]
        np.subtract(diag[start:start + b, None], x, out=shift)
        carried = recip.copy()
        for checked in (False, True):
            np.copyto(recip, carried)
            # unchecked, a zero pivot divides to an infinity: no NaN follows,
            # and the block is run again
            with np.errstate(divide="ignore", over="ignore"):
                for r in range(b):
                    np.subtract(shift[r], recip, out=piv[r])
                    if checked:
                        np.copyto(piv[r], -PIVMIN, where=np.abs(piv[r]) < PIVMIN)
                    np.divide(1.0, piv[r], out=recip)
            if checked or np.abs(piv).min(initial=np.inf) >= PIVMIN:
                break
        counts += np.count_nonzero(piv < 0.0, axis=0)
    return counts
