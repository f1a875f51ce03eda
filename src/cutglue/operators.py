"""Discrete Laplace-plus-mass operator.

`operator_matrix` is the one assembly path: the whole mesh's operator and
each side operator of a cut are built by it, from their own per-edge
conductances and per-node mass.  Dense numpy throughout.  This module only
assembles: the Green bundle's Cholesky factorization (`green._inverse_spd`)
is the spectrum check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshes import Mesh


@dataclass(frozen=True)
class OperatorSpec:
    """Physical parameters of the quadratic-form operator.

    mass_squared may be any real; positivity of the Dirichlet spectrum is
    checked where the Green bundle factors the operator, not assumed.
    """

    mass_squared: float = 0.0


def operator_matrix(mesh: Mesh, conductances: np.ndarray,
                    mass: np.ndarray) -> np.ndarray:
    """Dense (N, N) matrix A_ij = -c_ij off-diagonal, A_ii = sum_j c_ij + mass_i.

    conductances has one entry per mesh edge, mass one per node.
    """
    n = mesh.n_nodes
    a = np.zeros((n, n))
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    a[i, j] -= conductances
    a[j, i] -= conductances
    np.fill_diagonal(a, mass - a.sum(axis=1))
    return a


def assemble(mesh: Mesh, spec: OperatorSpec) -> np.ndarray:
    """Operator over every node of the mesh; boundary nodes carry no mass term.

    Dirichlet blocks are slices: rows `mesh.interior`, columns
    `mesh.interior` (the interior operator) or `mesh.boundary` (the coupling
    through which boundary data enters).
    """
    mass = np.zeros(mesh.n_nodes)
    interior = mesh.interior
    mass[interior] = spec.mass_squared * mesh.node_volumes[interior]
    return operator_matrix(mesh, mesh.edge_weights, mass)
