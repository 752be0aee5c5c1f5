"""Spatial operators: skew block div/grad pairs and mixed-type 1-D systems.

``build_grad_1d`` discretizes d/dx on (0, 1) with homogeneous Dirichlet
conditions: forward differences from p interior nodes onto p+1 flux edges.
The negative adjoint D = -G^T then maps edges back to nodes and the block

    A = [[0, D], [G, 0]]

is exactly skew-adjoint, hence maximal monotone with margin zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .material import DaeLaw, _as_matrix, hermitian_part_min_eig

# Monotonicity slack: smallest Hermitian-part eigenvalue may sit this far
# below zero before an operator is rejected.
MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class SpatialOperator:
    """Square matrix acting on the state space, validated to be monotone."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, "matrix"))
        margin = hermitian_part_min_eig(self.matrix)
        if margin < -MONOTONE_TOL:
            raise ValueError(f"operator is not monotone: min Hermitian eigenvalue {margin:.3g}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def zeros(cls, dim: int) -> "SpatialOperator":
        return cls(np.zeros((dim, dim)))


def build_grad_1d(p: int, dx: float):
    """Forward-difference gradient G ((p+1) x p) and divergence D = -G^T.

    Interior nodes x_i = i*dx carry the unknowns; the boundary values at
    x = 0 and x = (p+1)*dx are closed to zero.  Edge j sits between nodes
    j and j+1, so G maps samples of a smooth function vanishing at the
    boundary to first-derivative approximations at edge midpoints.
    """
    if p < 1:
        raise ValueError(f"need at least one interior node, got p = {p}")
    if not dx > 0:
        raise ValueError(f"dx must be positive, got {dx}")
    g = (np.eye(p + 1, p) - np.eye(p + 1, p, -1)) / dx
    return g, -g.T


@dataclass(frozen=True)
class MixedTypeSystem:
    """First-order system on (0, 1) whose type varies by subdomain: the
    material law's M0 and M1 and the skew operator A that
    :func:`build_mixed_type_system` assembled, on a state of p node values
    stacked on top of p+1 edge fluxes (2p+1 entries).  :meth:`law` is the
    DAE law (M0, M1).
    """

    M0: np.ndarray
    M1: np.ndarray
    A: SpatialOperator

    def law(self) -> DaeLaw:
        return DaeLaw(self.M0, self.M1)


def build_mixed_type_system(p: int, dx: float, indicator0, indicator1, c: float) -> MixedTypeSystem:
    """Assemble the mixed-type system (M0, M1 = c*I, A) for given indicators.

    ``indicator0`` and ``indicator1`` are 0/1 vectors over the p interior
    nodes and must be disjoint.  ``indicator0`` marks nodes where the time
    derivative acts on both blocks (wave-like regions), ``indicator1`` marks
    nodes with a first-order-in-time node block only (diffusion-like);
    remaining nodes are purely algebraic.  A flux edge carries the
    derivative exactly when both adjacent nodes lie in the indicator0 region
    (boundary edges follow their single neighbor).
    """
    ind0 = np.asarray(indicator0, dtype=float).reshape(-1)
    ind1 = np.asarray(indicator1, dtype=float).reshape(-1)
    if ind0.shape != (p,) or ind1.shape != (p,):
        raise ValueError(f"indicators must have length p = {p}")
    for name, ind in (("indicator0", ind0), ("indicator1", ind1)):
        if not np.all((ind == 0.0) | (ind == 1.0)):
            raise ValueError(f"{name} must be a 0/1 vector")
    if np.any(ind0 * ind1 != 0.0):
        raise ValueError("indicator regions must be disjoint")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")

    g, d = build_grad_1d(p, dx)
    n = 2 * p + 1
    a = np.zeros((n, n))
    a[:p, p:] = d
    a[p:, :p] = g

    edge = np.empty(p + 1)
    edge[0] = ind0[0]
    edge[-1] = ind0[-1]
    edge[1:-1] = ind0[:-1] * ind0[1:]

    m0 = np.diag(np.concatenate([ind0 + ind1, edge]))
    m1 = c * np.eye(n)
    return MixedTypeSystem(M0=m0, M1=m1, A=SpatialOperator(a))


def indicators_from_intervals(p: int, omega0, omega1):
    """0/1 node indicators for open subintervals of (0, 1) on x_i = i/(p+1)."""
    x = np.arange(1, p + 1) / (p + 1)
    lo0, hi0 = omega0
    lo1, hi1 = omega1
    ind0 = ((x > lo0) & (x < hi0)).astype(float)
    ind1 = ((x > lo1) & (x < hi1)).astype(float)
    return ind0, ind1
