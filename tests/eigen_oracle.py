"""Dense eigenvalue references used only by the tests.

The package solves H = hopping + V on the path `speclab.eigen.solver_path`
picks (`full_spectrum`, `extremal_topk`); these build the whole matrix and
hand it to numpy's symmetric solver, and give the free chain as H with a
zero potential.
"""
from __future__ import annotations

import numpy as np

from speclab.lattice import BoxSpec
from speclab.operators import LatticeOperator, PotentialSample, build_hamiltonian


def dense_eigs(op: LatticeOperator) -> np.ndarray:
    """Every eigenvalue of the materialized operator, ascending."""
    return np.linalg.eigvalsh(op.to_dense(op.n))


def free_operator(spec: BoxSpec) -> LatticeOperator:
    """The hopping operator alone: H with V = 0 at every site."""
    zeros = np.zeros(spec.site_count)
    return build_hamiltonian(spec, PotentialSample(spec=spec, omegas=zeros, values=zeros))
