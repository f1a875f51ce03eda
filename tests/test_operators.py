import numpy as np

from cutglue.meshes import build_interval_mesh
from cutglue.operators import OperatorSpec, assemble


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

