import numpy as np
import pytest

from cutglue.meshes import build_grid_mesh, build_interval_mesh
from cutglue.operators import (OperatorError, OperatorSpec, assemble,
                               check_positive_spectrum, smallest_eigenvalue)


def test_tridiagonal_assembly():
    mesh = build_interval_mesh(3, 1.0)
    op = assemble(mesh, OperatorSpec(mass_squared=0.0))
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    np.testing.assert_array_equal(op.interior_matrix, expected)
    coupling = np.zeros((3, 2))
    coupling[0, 0] = -1.0
    coupling[2, 1] = -1.0
    np.testing.assert_array_equal(op.boundary_coupling, coupling)


def test_mass_term_only_on_interior():
    mesh = build_interval_mesh(3, 0.5)
    op = assemble(mesh, OperatorSpec(mass_squared=2.0))
    # diagonal = degree (2 * 1/h = 4) + m^2 * vol (2 * 0.5 = 1)
    np.testing.assert_allclose(np.diag(op.interior_matrix), 5.0)
    # boundary coupling carries no mass contribution
    np.testing.assert_allclose(op.boundary_coupling.sum(), -4.0)


def test_smallest_eigenvalue_path_oracle():
    # eigenvalues of tridiag(-1, 2, -1) at size 3: 2 - sqrt(2), 2, 2 + sqrt(2)
    mesh = build_interval_mesh(3, 1.0)
    op = assemble(mesh, OperatorSpec(0.0))
    assert smallest_eigenvalue(op) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    assert check_positive_spectrum(op) > 0


def test_negative_mass_can_break_positivity():
    mesh = build_grid_mesh(5, 5, 1.0)
    op = assemble(mesh, OperatorSpec(mass_squared=-10.0))
    with pytest.raises(OperatorError, match="non-positive spectrum"):
        check_positive_spectrum(op)
