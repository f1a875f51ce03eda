"""Discrete Laplace-plus-mass operator.

`operator_matrix` is the one assembly path: the whole mesh's operator and
each side operator of a cut are built by it, from their own per-edge
conductances and per-node mass.  Dense numpy throughout: the spectrum check
is one Cholesky factorization, and a symmetric eigensolve
(`np.linalg.eigvalsh`) only words its error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshes import Mesh


class OperatorError(ValueError):
    pass


@dataclass(frozen=True)
class OperatorSpec:
    """Physical parameters of the quadratic-form operator.

    mass_squared may be any real; positivity of the Dirichlet spectrum is
    checked after assembly, not assumed.
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


def smallest_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of an interior block (dense solve, desk scale)."""
    if not np.allclose(m, m.T, atol=1e-12):
        raise OperatorError("interior matrix lost symmetry")
    return float(np.linalg.eigvalsh(m)[0])


def check_positive_spectrum(interior_matrix: np.ndarray) -> None:
    """Raise unless the symmetric interior block is positive definite: a
    Cholesky test, with the smallest eigenvalue only in the error."""
    if not np.allclose(interior_matrix, interior_matrix.T, atol=1e-12):
        raise OperatorError("interior matrix lost symmetry")
    try:
        np.linalg.cholesky(interior_matrix)
    except np.linalg.LinAlgError:
        lam = smallest_eigenvalue(interior_matrix)
        raise OperatorError(f"non-positive spectrum: smallest eigenvalue {lam:g}") from None
