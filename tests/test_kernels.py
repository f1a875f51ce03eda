import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutglue import kernels as kn
from cutglue.euclidean import EuclideanKernelSpec, compose_kernels
from cutglue.gluing import gluing_context, side_kernels
from cutglue.green import green_bundle, side_bundle
from cutglue.meshes import (LEFT, build_grid_mesh, build_interval_mesh,
                            cut_along_interface)
from cutglue.operators import OperatorSpec, assemble

M0 = OperatorSpec(0.0)


def test_identity_below_min_edge_length():
    mesh = build_interval_mesh(3, 1.0)
    kernel = kn.build_mesh_kernel(mesh, 2.5)
    assert kernel.is_identity
    assert np.array_equal(kernel.matrix, np.eye(5))


def test_unit_ball_rows_on_path():
    mesh = build_interval_mesh(3, 1.0)
    kernel = kn.build_mesh_kernel(mesh, 1.0, "uniform")
    # interior node 2: ball {1, 2, 3}, equal volumes
    np.testing.assert_allclose(kernel.matrix[2], [0, 1 / 3, 1 / 3, 1 / 3, 0],
                               atol=1e-14)
    # node 0 at the boundary: truncated ball {0, 1}, renormalized
    np.testing.assert_allclose(kernel.matrix[0], [0.5, 0.5, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(kernel.matrix.sum(axis=1), 1.0, atol=1e-14)


def test_volume_weighting():
    mesh = build_interval_mesh(3, 1.0, metric_profile=lambda x: 1.0 + x[0])
    # edge lengths 1.5, 2.5, 3.5, 4.5; ball of radius 4 at node 2 = {0,1,2,3}
    kernel = kn.build_mesh_kernel(mesh, 0.25, "uniform")
    vols = mesh.node_volumes
    row = vols[:4] / vols[:4].sum()
    np.testing.assert_allclose(kernel.matrix[2, :4], row, atol=1e-14)
    assert kernel.matrix[2, 4] == 0.0


def test_support_clipped_to_ball():
    mesh = build_grid_mesh(7, 7, 1.0)
    kernel = kn.build_mesh_kernel(mesh, 0.5, "bump")
    d = mesh.distance_matrix()
    assert np.all(kernel.matrix[d > 2.0 * (1 + 1e-9)] == 0.0)


def test_lam_below_lambda_one_rejected():
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    with pytest.raises(kn.KernelError, match="lambda_1"):
        kn.build_mesh_kernel(mesh, 0.25, cut=cut)


def test_unknown_shape_rejected():
    mesh = build_interval_mesh(3, 1.0)
    with pytest.raises(kn.KernelError, match="unknown kernel shape"):
        kn.build_mesh_kernel(mesh, 1.0, "banana")


def test_composed_shape_usable_on_mesh():
    spec = EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))
    shape = kn.shape_from_profile(compose_kernels(spec))
    mesh = build_interval_mesh(7, 1.0)
    kernel = kn.build_mesh_kernel(mesh, 1.0, shape)
    np.testing.assert_allclose(kernel.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_restriction_deep_rows_unchanged():
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    kernel = kn.build_mesh_kernel(mesh, 1.0, cut=cut)
    left_nodes = {0, 1, 2, 3, 4}
    restricted = kn.restrict_kernel_to_submesh(kernel, left_nodes)
    for p in (1, 2, 3):  # balls {p-1, p, p+1} stay inside the left half
        np.testing.assert_array_equal(restricted.matrix[p], kernel.matrix[p])
    np.testing.assert_allclose(restricted.matrix.sum(axis=1), 1.0, atol=1e-14)
    # row at the interface straddles: renormalized over {3, 4}
    np.testing.assert_allclose(restricted.matrix[4, 3:5], [0.5, 0.5], atol=1e-14)


def test_restriction_full_set_is_identity_transform():
    mesh = build_interval_mesh(7, 1.0)
    kernel = kn.build_mesh_kernel(mesh, 1.0)
    same = kn.restrict_kernel_to_submesh(kernel, range(mesh.n_nodes))
    np.testing.assert_array_equal(same.matrix, kernel.matrix)


def test_restriction_zero_mass_raises():
    # a row with all its mass outside the surviving columns must refuse
    m = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    kernel = kn.KernelMatrix(matrix=m, lam=1.0)
    with pytest.raises(kn.KernelError, match="zero surviving"):
        kn.restrict_kernel_to_submesh(kernel, {0, 2})


def test_regularized_green_identity_kernel_bitwise():
    mesh = build_interval_mesh(7, 1.0)
    bundle = green_bundle(mesh, M0)
    kernel = kn.build_mesh_kernel(mesh, 2.5)
    g_reg = kn.regularized_green(kernel, kernel, bundle.green, bundle.interior)
    assert np.array_equal(g_reg[np.ix_(bundle.interior, bundle.interior)],
                          bundle.green)


def test_regularized_green_far_pair_unchanged():
    # flat path, both balls away from each other and from the boundary:
    # averaging moves mass along a linear-in-distance Green's function, so
    # the averaged value at a far pair equals the plain value
    mesh = build_interval_mesh(13, 1.0)
    bundle = green_bundle(mesh, M0)
    kernel = kn.build_mesh_kernel(mesh, 1.0)
    g_reg = kn.regularized_green(kernel, kernel, bundle.green, bundle.interior)
    pos = {int(n): k for k, n in enumerate(bundle.interior)}
    p, q = 4, 9
    assert g_reg[p, q] == pytest.approx(bundle.green[pos[p], pos[q]], abs=1e-13)


def test_spectral_route_agrees():
    mesh = build_grid_mesh(5, 5, 1.0)
    spec = OperatorSpec(0.1)
    op = assemble(mesh, spec)
    bundle = green_bundle(mesh, spec, op=op)
    kernel = kn.build_mesh_kernel(mesh, 1.2, "triangle")
    g_reg = kn.regularized_green(kernel, kernel, bundle.green, bundle.interior)
    spectral = kn.spectral_regularized_green(
        mesh, np.linalg.eigh(op.interior_matrix), kernel)
    np.testing.assert_allclose(g_reg, spectral, atol=1e-12)


def test_deformed_side_nodes_nine_path():
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    sb = side_bundle(mesh, M0, cut, LEFT)
    left = kn.deformed_side_nodes(mesh, sb, 1.0)
    assert list(left) == [1, 2, 3]
    narrow = kn.deformed_side_nodes(mesh, sb, 0.5)
    assert list(narrow) == [2]


def test_deformed_gluing_reports():
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    ctx = gluing_context(mesh, M0, cut)
    for lam in (0.5, 1.0):
        for shape in ("uniform", "bump"):
            rep = kn.verify_deformed_gluing(side_kernels(ctx, lam, shape),
                                            ctx.bundle, ctx.sides, ctx.g_sigma)
            assert rep.passed and rep.max_residual <= 1e-10
    grid = build_grid_mesh(5, 5, 1.0)
    gcut = cut_along_interface(grid, lambda n: grid.positions[n][0] == 2.0)
    gctx = gluing_context(grid, OperatorSpec(0.1), gcut)
    for lam in (1.5, 2.5):
        rep = kn.verify_deformed_gluing(side_kernels(gctx, lam), gctx.bundle,
                                        gctx.sides, gctx.g_sigma)
        assert rep.passed and rep.max_residual <= 1e-10


def test_verify_regularization():
    mesh = build_interval_mesh(7, 1.0)
    op = assemble(mesh, M0)
    rep = kn.verify_regularization(green_bundle(mesh, M0, op=op),
                                   np.linalg.eigh(op.interior_matrix),
                                   kn.build_mesh_kernel(mesh, 1.0))
    assert rep.passed and rep.max_residual <= 1e-12


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.3, 3.0),
       shape=st.sampled_from(["uniform", "bump", "triangle"]),
       n=st.integers(3, 9))
def test_kernel_rows_stochastic_property(lam, shape, n):
    mesh = build_interval_mesh(n, 1.0)
    kernel = kn.build_mesh_kernel(mesh, lam, shape)
    assert np.all(kernel.matrix >= 0.0)
    np.testing.assert_allclose(kernel.matrix.sum(axis=1), 1.0, atol=1e-12)
    d = mesh.distance_matrix()
    assert np.all(kernel.matrix[d > kernel.support_radius * (1 + 1e-9)] == 0.0)
