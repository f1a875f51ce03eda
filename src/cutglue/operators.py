"""Discrete Laplace-plus-mass operator with Dirichlet bookkeeping.

Dense numpy throughout: the spectrum check is one symmetric LAPACK eigensolve
(`np.linalg.eigvalsh`).
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


@dataclass(frozen=True)
class OperatorMatrix:
    """Operator over all nodes and its Dirichlet-eliminated blocks.

    matrix            : (N, N) operator over every node; boundary rows carry
                        no mass term.
    interior_matrix   : symmetric (I, I) block over interior nodes.
    boundary_coupling : (I, B) block; Dirichlet data enters through it.
    interior / boundary : global node indices labelling rows and columns.
    """

    matrix: np.ndarray
    interior_matrix: np.ndarray
    boundary_coupling: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray

    def to_coo_text(self) -> str:
        """Interior block in (row, col, value) coordinate text form."""
        lines = []
        n = self.interior_matrix.shape[0]
        for i in range(n):
            for j in range(n):
                v = self.interior_matrix[i, j]
                if v != 0.0:
                    lines.append(f"{i} {j} {float(v)!r}")
        return "\n".join(lines) + "\n"


def assemble(mesh: Mesh, spec: OperatorSpec) -> OperatorMatrix:
    """Assemble A_ij = -w_ij off-diagonal, A_ii = sum_j w_ij + m^2 vol_i.

    Boundary columns are separated into the coupling block; boundary nodes
    carry no mass term.
    """
    n = mesh.n_nodes
    a = -mesh.adjacency()
    degree = -a.sum(axis=1)
    np.fill_diagonal(a, degree)
    mass = spec.mass_squared * mesh.node_volumes
    mass_mask = np.zeros(n)
    mass_mask[mesh.interior] = 1.0
    a += np.diag(mass * mass_mask)
    interior, boundary = mesh.interior, mesh.boundary
    return OperatorMatrix(
        matrix=a,
        interior_matrix=a[np.ix_(interior, interior)],
        boundary_coupling=a[np.ix_(interior, boundary)],
        interior=interior,
        boundary=boundary,
    )


def smallest_eigenvalue(op: OperatorMatrix) -> float:
    """Smallest eigenvalue of the interior block (dense solve, desk scale)."""
    m = op.interior_matrix
    if not np.allclose(m, m.T, atol=1e-12):
        raise OperatorError("interior matrix lost symmetry")
    return float(np.linalg.eigvalsh(m)[0])


def check_positive_spectrum(op: OperatorMatrix) -> float:
    """Return the smallest eigenvalue, raising if the spectrum is not positive."""
    lam = smallest_eigenvalue(op)
    if lam <= 0:
        raise OperatorError(f"non-positive spectrum: smallest eigenvalue {lam:g}")
    return lam
