import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutglue import kernels as kn
from cutglue.euclidean import EuclideanKernelSpec, compose_kernels
from cutglue.gluing import gluing_context, side_kernels
from cutglue.green import green_bundle, side_bundle
from cutglue.meshes import (LEFT, RIGHT, _DIST_RTOL, build_grid_mesh,
                            build_interval_mesh, cut_along_interface)
from cutglue.operators import OperatorSpec, assemble
from test_meshes import _bumpy, _scrambled

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


# -- scalar references: per-node loops, the oracles for the array builders ---

def _loop_mesh_kernel(mesh, lam, shape):
    """build_mesh_kernel row by row and pair by pair, shape on one t at a time."""
    shape = kn.resolve_shape(shape)
    radius = 1.0 / lam
    n = mesh.n_nodes
    if radius < float(mesh.edge_lengths.min()) * (1.0 - _DIST_RTOL):
        return np.eye(n)
    d = mesh.distance_matrix()
    m = np.zeros((n, n))
    for p in range(n):
        inside = d[p] <= radius * (1.0 + _DIST_RTOL)
        w = np.zeros(n)
        for q in np.nonzero(inside)[0]:
            t = min(d[p, q] / radius, 1.0)
            w[q] = shape(np.array([t]))[0] * mesh.node_volumes[q]
        total = w.sum()
        if total <= 0.0:
            m[p, p] = 1.0
        else:
            m[p] = w / total
    return m


def _loop_restrict(matrix, keep_nodes):
    keep = np.zeros(matrix.shape[0], dtype=bool)
    keep[np.asarray(list(keep_nodes), dtype=int)] = True
    m = np.array(matrix)
    for p in range(m.shape[0]):
        if not keep[p]:
            m[p] = 0.0
            m[p, p] = 1.0
            continue
        outside = m[p, ~keep].sum()
        if outside == 0.0:
            continue
        mass = m[p, keep].sum()
        if mass <= 0.0:
            raise kn.KernelError(f"zero surviving row mass at node {p}")
        m[p, ~keep] = 0.0
        m[p, keep] /= mass
    return m


def _loop_deformed_side_nodes(mesh, sb, lam):
    outside = np.setdiff1d(np.arange(mesh.n_nodes), sb.nodes)
    radius = 1.0 / lam
    d = mesh.distance_matrix()
    bdry = np.concatenate([sb.outer, sb.sigma])
    out = []
    for p in sb.interior:
        if outside.size and d[p, outside].min() <= radius * (1.0 + _DIST_RTOL):
            continue
        if d[p, bdry].min() < radius * (1.0 - _DIST_RTOL):
            continue
        out.append(int(p))
    return np.asarray(out, dtype=int)


def _middle_cut(mesh):
    x = mesh.positions[:, 0]
    mid = np.sort(np.unique(x))[len(np.unique(x)) // 2]
    return cut_along_interface(mesh, lambda q: mesh.positions[q][0] == mid)


# (mesh, scales): each list reaches from a few-node ball to a wide one
ORACLE_MESHES = {
    "interval-403": (lambda: build_interval_mesh(401, 1.0), (0.05, 0.2, 0.7)),
    "grid-11": (lambda: build_grid_mesh(11, 11, 1.0), (0.3, 0.6, 0.9)),
    "grid-21": (lambda: build_grid_mesh(21, 21, 1.0), (0.25, 0.5, 0.9)),
    "interval-curved": (lambda: build_interval_mesh(101, 0.1, _bumpy), (0.3, 1.0, 4.0)),
    "grid-11-curved": (lambda: build_grid_mesh(11, 11, 0.3, _bumpy), (0.8, 1.5, 2.5)),
    "grid-11-scrambled": (lambda: _scrambled(build_grid_mesh(11, 11, 1.0), 4)[0],
                          (0.3, 0.6, 0.9)),
}


@pytest.mark.parametrize("name", list(ORACLE_MESHES))
def test_kernel_builders_match_loops_bitwise(name):
    make, lams = ORACLE_MESHES[name]
    mesh = make()
    cut = _middle_cut(mesh)
    sides = {side: side_bundle(mesh, M0, cut, side) for side in (LEFT, RIGHT)}
    for lam in lams:
        for shape in kn.SHAPES:
            kernel = kn.build_mesh_kernel(mesh, lam, shape)
            assert not kernel.is_identity
            assert np.array_equal(kernel.matrix, _loop_mesh_kernel(mesh, lam, shape))
            for sb in sides.values():
                got = kn.restrict_kernel_to_submesh(kernel, sb.nodes).matrix
                assert np.array_equal(got, _loop_restrict(kernel.matrix, sb.nodes))
        for sb in sides.values():
            assert np.array_equal(kn.deformed_side_nodes(mesh, sb, lam),
                                  _loop_deformed_side_nodes(mesh, sb, lam))


def test_degenerate_rows_are_identity_rows():
    # edges 1.5, 2.5, 3.5, 4.5: at radius 2 the balls of nodes 3 and 4 hold
    # only the node itself, where a composed shape (zero at t = 0) vanishes
    mesh = build_interval_mesh(3, 1.0, metric_profile=lambda x: 1.0 + x[0])
    composed = kn.shape_from_profile(compose_kernels(
        EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))))
    zero = lambda t: np.zeros_like(t)  # noqa: E731
    for shape, degenerate in ((zero, range(5)), (composed, [3, 4])):
        kernel = kn.build_mesh_kernel(mesh, 0.5, shape)
        assert np.array_equal(kernel.matrix, _loop_mesh_kernel(mesh, 0.5, shape))
        for p in degenerate:
            assert np.array_equal(kernel.matrix[p], np.eye(5)[p])
        assert np.all(kernel.matrix >= 0.0)
        np.testing.assert_allclose(kernel.matrix.sum(axis=1), 1.0, atol=1e-14)
    mixed = kernel
    assert not mixed.is_identity
    # node 0 keeps mass only at node 1: dropping node 1 still refuses
    for impl in (kn.restrict_kernel_to_submesh,
                 lambda k, keep: _loop_restrict(k.matrix, keep)):
        with pytest.raises(kn.KernelError, match="zero surviving row mass at node 0"):
            impl(mixed, {0, 2, 3, 4})
