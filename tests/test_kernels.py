import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutglue import kernels as kn
from cutglue.euclidean import EuclideanKernelSpec, compose_kernels
from cutglue.config import ScenarioConfig
from cutglue.gluing import GluingContext, ScaleData, verify_deformed_gluing
from cutglue.green import green_bundle, side_bundle
from cutglue.meshes import (LEFT, RIGHT, _DIST_RTOL, build_grid_mesh,
                            build_interval_mesh, cut_along_interface)
from cutglue.operators import OperatorSpec, assemble
from cutglue.perturbation import InteractionSpec
from cutglue.suites import suite_kernel_properties
from peaks import traced_peak
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
    kernel = kn.build_mesh_kernel(mesh, 1.0)
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


@pytest.mark.parametrize("matrix, message", [
    ([[1.5, -0.5], [0.0, 1.0]], "negative or NaN kernel entries"),
    ([[np.nan, 0.0], [0.0, 1.0]], "negative or NaN kernel entries"),
    ([[0.5, 0.4], [0.0, 1.0]], "rows must sum to 1"),
], ids=["negative", "nan", "row-sum"])
def test_kernel_matrix_refuses(matrix, message):
    """A NaN entry is refused like a negative one, not let through."""
    with pytest.raises(kn.KernelError, match=message):
        kn.KernelMatrix(np.array(matrix), 1.0)


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
    g_reg = kn.regularized_green(kernel, bundle)
    assert np.array_equal(g_reg[np.ix_(bundle.interior, bundle.interior)],
                          bundle.green)


def test_regularized_green_far_pair_unchanged():
    # flat path, both balls away from each other and from the boundary:
    # averaging moves mass along a linear-in-distance Green's function, so
    # the averaged value at a far pair equals the plain value
    mesh = build_interval_mesh(13, 1.0)
    bundle = green_bundle(mesh, M0)
    kernel = kn.build_mesh_kernel(mesh, 1.0)
    g_reg = kn.regularized_green(kernel, bundle)
    pos = {int(n): k for k, n in enumerate(bundle.interior)}
    p, q = 4, 9
    assert g_reg[p, q] == pytest.approx(bundle.green[pos[p], pos[q]], abs=1e-13)


def test_spectral_route_agrees():
    mesh = build_grid_mesh(5, 5, 1.0)
    spec = OperatorSpec(0.1)
    bundle = green_bundle(mesh, spec)
    kernel = kn.build_mesh_kernel(mesh, 1.2, "triangle")
    g_reg = kn.regularized_green(kernel, bundle)
    interior = np.ix_(mesh.interior, mesh.interior)
    spectral = kn.spectral_regularized_green(
        mesh, np.linalg.eigh(assemble(mesh, spec)[interior]), kernel)
    np.testing.assert_allclose(g_reg, spectral, atol=1e-12)


def test_deformed_side_nodes_nine_path():
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    left = kn.deformed_side_nodes(mesh, cut, LEFT, 1.0)
    assert list(left) == [1, 2, 3]
    narrow = kn.deformed_side_nodes(mesh, cut, LEFT, 0.5)
    assert list(narrow) == [2]


def deformed(ctx, lam, shape="uniform"):
    return verify_deformed_gluing(ScaleData(ctx, InteractionSpec({}), lam, shape))


def test_deformed_gluing_reports():
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    ctx = GluingContext(mesh, M0, cut)
    for lam in (0.5, 1.0):
        for shape in ("uniform", "bump"):
            rep = deformed(ctx, lam, shape)
            assert rep.passed and rep.max_residual <= 1e-10
    grid = build_grid_mesh(5, 5, 1.0)
    gcut = cut_along_interface(grid, lambda n: grid.positions[n][0] == 2.0)
    gctx = GluingContext(grid, OperatorSpec(0.1), gcut)
    for lam in (1.5, 2.5):
        rep = deformed(gctx, lam)
        assert rep.passed and rep.max_residual <= 1e-10


def test_verify_regularization():
    mesh = build_interval_mesh(7, 1.0)
    interior = np.ix_(mesh.interior, mesh.interior)
    kernel = kn.build_mesh_kernel(mesh, 1.0)
    rep = kn.verify_regularization(
        kn.regularized_green(kernel, green_bundle(mesh, M0)),
        kn.spectral_regularized_green(
            mesh, np.linalg.eigh(assemble(mesh, M0)[interior]), kernel))
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
    assert np.all(kernel.matrix[d > 1.0 / kernel.lam * (1 + 1e-9)] == 0.0)


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


def _column_cut(mesh, k):
    """Cut along the k-th smallest x coordinate; k None takes the middle one."""
    xs = np.unique(mesh.positions[:, 0])
    x = xs[len(xs) // 2 if k is None else k]
    return cut_along_interface(mesh, lambda q: mesh.positions[q][0] == x)


# (mesh, scales, cut column): each list reaches from a few-node ball to a
# wide one.  Column 1 of a grid cuts one-sided: no left interior nodes.
ORACLE_MESHES = {
    "interval-403": (lambda: build_interval_mesh(401, 1.0), (0.05, 0.2, 0.7), None),
    "grid-11": (lambda: build_grid_mesh(11, 11, 1.0), (0.3, 0.6, 0.9), None),
    "grid-21": (lambda: build_grid_mesh(21, 21, 1.0), (0.25, 0.5, 0.9), None),
    "interval-curved": (lambda: build_interval_mesh(101, 0.1, _bumpy),
                        (0.3, 1.0, 4.0), None),
    "grid-11-curved": (lambda: build_grid_mesh(11, 11, 0.3, _bumpy),
                       (0.8, 1.5, 2.5), None),
    "grid-11-scrambled": (lambda: _scrambled(build_grid_mesh(11, 11, 1.0), 4)[0],
                          (0.3, 0.6, 0.9), None),
    "grid-11-one-sided": (lambda: build_grid_mesh(11, 11, 1.0), (0.3, 0.6, 0.9), 1),
}


@pytest.mark.parametrize("name", list(ORACLE_MESHES))
def test_kernel_builders_match_loops_bitwise(name):
    """Each builder against its loop; the deep sets, read off the cut, against
    a loop over the side bundle's index arrays.  Restriction to a side passes
    the rows of its deep nodes through bitwise, which lets the glued route
    average with the unrestricted kernel.  At a saturated scale, 1/lam below
    the shortest edge, the one build path gives the identity bitwise."""
    make, lams, column = ORACLE_MESHES[name]
    mesh = make()
    cut = _column_cut(mesh, column)
    sides = {side: side_bundle(mesh, M0, cut, side) for side in (LEFT, RIGHT)}
    saturated = 2.0 / float(mesh.edge_lengths.min())
    for lam in (*lams, saturated):
        deep = {side: kn.deformed_side_nodes(mesh, cut, side, lam) for side in sides}
        for side, sb in sides.items():
            assert np.array_equal(deep[side], _loop_deformed_side_nodes(mesh, sb, lam))
        for shape in kn.SHAPES:
            kernel = kn.build_mesh_kernel(mesh, lam, shape)
            assert kernel.is_identity == (lam == saturated)
            assert np.array_equal(kernel.matrix, _loop_mesh_kernel(mesh, lam, shape))
            for side, sb in sides.items():
                got = kn.restrict_kernel_to_submesh(kernel, sb.nodes).matrix
                assert np.array_equal(got, _loop_restrict(kernel.matrix, sb.nodes))
                assert np.array_equal(got[deep[side]], kernel.matrix[deep[side]])


def test_restriction_working_set():
    """Restriction holds one n x n copy of the kernel and gathers of the
    leaking rows only: on a 403-node interval, at interval-wide's scales and
    to either side, the traced peak of the call, its result included, stays
    at or below 1.25 n x n float64 arrays."""
    mesh = build_interval_mesh(401, 1.0)
    cut = _column_cut(mesh, None)
    n = mesh.n_nodes
    sides = [side_bundle(mesh, M0, cut, side).nodes for side in (LEFT, RIGHT)]
    for lam in (0.05, 0.1, 0.2):
        kernel = kn.build_mesh_kernel(mesh, lam, "bump")
        for keep in sides:
            peak = traced_peak(lambda: kn.restrict_kernel_to_submesh(kernel, keep), n)
            assert peak <= 1.25, peak


# relative offsets of 1/lam from the shortest edge, on both sides of the slack
SLACK_DELTAS = (0.0, *(sign * d for d in (1e-12, 1e-10, 5e-10, 1e-9, 2e-9)
                       for sign in (1, -1)))


@settings(max_examples=12, deadline=None)
@given(grid=st.booleans(), amplitude=st.floats(0.0, 0.8),
       frequency=st.floats(0.1, 3.0), spacing=st.floats(0.2, 2.0))
def test_saturation_check_follows_the_ball_rule(grid, amplitude, frequency, spacing):
    """At lam = 1/(h_min (1 + delta)) on a curved mesh, kernel-properties
    predicts saturation by the kernel's own ball rule: wherever it emits
    saturation-identity, the kernel is the identity, and the suite passes.
    A grid cut's lambda_1 can be 1/h_min: only the scales above it are run."""
    def profile(x):
        return 1.0 + amplitude * np.sin(frequency * np.sum(x)) ** 2

    mesh = (build_grid_mesh(9, 9, spacing, profile) if grid
            else build_interval_mesh(7, spacing, profile))
    ctx = GluingContext(mesh, M0, _column_cut(mesh, None))
    h_min = float(mesh.edge_lengths.min())
    lams = [lam for lam in (1.0 / (h_min * (1.0 + delta)) for delta in SLACK_DELTAS)
            if lam > ctx.lambda_one]
    for shape in kn.SHAPES:
        scales = tuple(ScaleData(ctx, InteractionSpec({}), lam, shape) for lam in lams)
        report = suite_kernel_properties(ScenarioConfig("curved", ctx, scales, ()), 0)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        emitted = [lam for lam in lams
                   if any(c.name == f"saturation-identity-lam-{lam}" for c in report.checks)]
        assert emitted  # delta = -2e-9 is past the slack
        for lam in emitted:
            assert kn.build_mesh_kernel(mesh, lam, shape).is_identity


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
    # at radius 1, below the shortest edge, every row is degenerate
    for shape in (zero, composed):
        assert kn.build_mesh_kernel(mesh, 1.0, shape).is_identity
    mixed = kernel
    assert not mixed.is_identity
    # node 0 keeps mass only at node 1: dropping node 1 still refuses
    for impl in (kn.restrict_kernel_to_submesh,
                 lambda k, keep: _loop_restrict(k.matrix, keep)):
        with pytest.raises(kn.KernelError, match="zero surviving row mass at node 0"):
            impl(mixed, {0, 2, 3, 4})
