import numpy as np
import pytest

from cutglue.meshes import build_grid_mesh, build_interval_mesh
from cutglue.operators import (OperatorError, OperatorSpec, assemble,
                               check_positive_spectrum, smallest_eigenvalue)


def interior_block(mesh, spec):
    return assemble(mesh, spec)[np.ix_(mesh.interior, mesh.interior)]


def test_tridiagonal_assembly():
    mesh = build_interval_mesh(3, 1.0)
    a = assemble(mesh, OperatorSpec(mass_squared=0.0))
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    np.testing.assert_array_equal(a[np.ix_(mesh.interior, mesh.interior)], expected)
    coupling = np.zeros((3, 2))
    coupling[0, 0] = -1.0
    coupling[2, 1] = -1.0
    np.testing.assert_array_equal(a[np.ix_(mesh.interior, mesh.boundary)], coupling)


def test_mass_term_only_on_interior():
    mesh = build_interval_mesh(3, 0.5)
    a = assemble(mesh, OperatorSpec(mass_squared=2.0))
    # diagonal = degree (2 * 1/h = 4) + m^2 * vol (2 * 0.5 = 1)
    np.testing.assert_allclose(np.diag(a)[mesh.interior], 5.0)
    # boundary nodes (degree 1/h = 2) and their coupling carry no mass term
    np.testing.assert_allclose(np.diag(a)[mesh.boundary], 2.0)
    np.testing.assert_allclose(a[np.ix_(mesh.interior, mesh.boundary)].sum(), -4.0)


def test_smallest_eigenvalue_path_oracle():
    # eigenvalues of tridiag(-1, 2, -1) at size 3: 2 - sqrt(2), 2, 2 + sqrt(2)
    m = interior_block(build_interval_mesh(3, 1.0), OperatorSpec(0.0))
    assert smallest_eigenvalue(m) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    check_positive_spectrum(m)


@pytest.mark.parametrize("offset", [1e-9, -1e-9], ids=["above", "below"])
def test_cholesky_and_eigenvalue_agree_at_the_threshold(offset):
    """mass^2 just above and just below minus the smallest massless
    eigenvalue: the Cholesky test passes exactly when the eigenvalue is
    positive."""
    mesh = build_interval_mesh(7, 1.0)
    massless = smallest_eigenvalue(interior_block(mesh, OperatorSpec(0.0)))
    m = interior_block(mesh, OperatorSpec(-massless + offset))
    try:
        check_positive_spectrum(m)
        passed = True
    except OperatorError as exc:
        assert "non-positive spectrum" in str(exc)
        passed = False
    assert passed == (smallest_eigenvalue(m) > 0) == (offset > 0)


def test_negative_mass_can_break_positivity():
    m = interior_block(build_grid_mesh(5, 5, 1.0), OperatorSpec(mass_squared=-10.0))
    with pytest.raises(OperatorError, match="non-positive spectrum"):
        check_positive_spectrum(m)
