import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutglue.meshes import (LEFT, RIGHT, Mesh, MeshError, build_grid_mesh,
                            build_interval_mesh, cut_along_interface, lambda_one)


def adjacency(mesh, values=None):
    """Dense symmetric adjacency filled with `values` (weights by default)."""
    if values is None:
        values = mesh.edge_weights
    a = np.zeros((mesh.n_nodes, mesh.n_nodes))
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    a[i, j] = values
    a[j, i] = values
    return a


def test_interval_mesh_flat_unit():
    mesh = build_interval_mesh(3, 1.0)
    assert mesh.n_nodes == 5
    assert list(mesh.boundary) == [0, 4]
    assert list(mesh.interior) == [1, 2, 3]
    np.testing.assert_allclose(mesh.edge_weights, 1.0)
    np.testing.assert_allclose(mesh.node_volumes, 1.0)
    np.testing.assert_allclose(mesh.edge_lengths, 1.0)


def test_interval_mesh_scaling():
    # dim 1: conductance h^(n-2) = 1/h, volume h^n = h
    mesh = build_interval_mesh(3, 0.5)
    np.testing.assert_allclose(mesh.edge_weights, 2.0)
    np.testing.assert_allclose(mesh.node_volumes, 0.5)
    np.testing.assert_allclose(mesh.edge_lengths, 0.5)


def test_interval_mesh_profile():
    mesh = build_interval_mesh(2, 1.0, metric_profile=lambda x: 1.0 + x[0])
    # node positions 0,1,2,3; midpoints 0.5,1.5,2.5
    np.testing.assert_allclose(mesh.edge_weights, [1.5, 2.5, 3.5])
    np.testing.assert_allclose(mesh.node_volumes, [1.0, 2.0, 3.0, 4.0])


def test_grid_mesh_counts():
    mesh = build_grid_mesh(5, 5, 1.0)
    assert mesh.n_nodes == 25
    assert mesh.boundary.size == 16
    assert mesh.interior.size == 9
    assert mesh.edges.shape[0] == 2 * 5 * 4
    np.testing.assert_allclose(mesh.edge_weights, 1.0)  # dim 2: h^0


def test_mesh_validation_errors():
    mesh = build_interval_mesh(3, 1.0)
    with pytest.raises(MeshError):
        Mesh(positions=mesh.positions, edges=mesh.edges,
             edge_weights=-mesh.edge_weights, edge_lengths=mesh.edge_lengths,
             node_volumes=mesh.node_volumes, boundary=mesh.boundary,
             dim=1, spacing=1.0)
    with pytest.raises(MeshError):
        build_interval_mesh(0, 1.0)
    with pytest.raises(MeshError):
        build_interval_mesh(3, -1.0)
    with pytest.raises(MeshError):
        build_grid_mesh(1, 5, 1.0)


def test_geodesics_on_path():
    mesh = build_interval_mesh(5, 0.5)
    d = mesh.distance_matrix()
    assert d[0, 6] == pytest.approx(3.0)
    assert d[2, 2] == 0.0
    bd = mesh.boundary_distance()
    assert bd[3] == pytest.approx(1.5)


def test_trim_to_deformed():
    mesh = build_interval_mesh(7, 1.0)
    assert list(mesh.trim_to_deformed(1.0)) == [1, 2, 3, 4, 5, 6, 7]
    assert list(mesh.trim_to_deformed(0.5)) == [2, 3, 4, 5, 6]
    assert list(mesh.trim_to_deformed(0.25)) == [4]
    assert mesh.trim_to_deformed(0.2).size == 0
    with pytest.raises(MeshError):
        mesh.trim_to_deformed(0.0)


def test_text_round_trip():
    mesh = build_grid_mesh(4, 3, 0.5, metric_profile=lambda x: 1.0 + 0.1 * x[0])
    back = Mesh.from_text(mesh.to_text())
    np.testing.assert_array_equal(back.positions, mesh.positions)
    np.testing.assert_array_equal(back.edges, mesh.edges)
    np.testing.assert_array_equal(back.edge_weights, mesh.edge_weights)
    np.testing.assert_array_equal(back.node_volumes, mesh.node_volumes)
    np.testing.assert_array_equal(back.boundary, mesh.boundary)
    assert back.dim == mesh.dim and back.spacing == mesh.spacing


def test_node_lines_in_any_order_read_back_equal():
    """Each node sits at its id, not at the position of its line."""
    mesh = build_grid_mesh(4, 3, 0.5, metric_profile=lambda x: 1.0 + 0.1 * x[0])
    header, *rows = mesh.to_text().splitlines()
    nodes = [ln for ln in rows if ln.startswith("node ")]
    edges = [ln for ln in rows if ln.startswith("edge ")]
    order = np.random.default_rng(0).permutation(len(nodes))
    assert list(order) != sorted(order)
    shuffled = Mesh.from_text("\n".join([header, *(nodes[k] for k in order), *edges]))
    in_order = Mesh.from_text(mesh.to_text())
    for name in ("positions", "edges", "edge_weights", "edge_lengths",
                 "node_volumes", "boundary"):
        np.testing.assert_array_equal(getattr(shuffled, name),
                                      getattr(in_order, name), err_msg=name)


def test_cut_five_node_path():
    mesh = build_interval_mesh(3, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 2)
    assert list(cut.interface) == [2]
    assert list(cut.side_interior(LEFT)) == [1]
    assert list(cut.side_interior(RIGHT)) == [3]
    # no boundary node is shared, and no edge lies on the cut line on a path
    assert list(cut.side_outer_boundary(LEFT)) == [0]
    assert list(cut.side_outer_boundary(RIGHT)) == [4]
    assert set(cut.edge_fraction(LEFT).tolist()) == {0.0, 1.0}
    assert lambda_one(mesh, cut) == pytest.approx(0.5)


def test_cut_grid_shared_boundary_and_halved_edges():
    """Every interior column of three grids.  The first and the last interior
    column leave one side without interior nodes, and the boundary column
    next to them touches the interface too."""
    for nx, ny in ((5, 5), (6, 4), (9, 6)):
        mesh = build_grid_mesh(nx, ny, 1.0)
        xs, ys = mesh.positions[:, 0], mesh.positions[:, 1]
        for col in range(1, nx - 1):
            cut = cut_along_interface(mesh, lambda n: xs[n] == col)
            left, right = cut.side_interior(LEFT), cut.side_interior(RIGHT)
            assert cut.interface.size == ny - 2
            assert left.size == (col - 1) * (ny - 2)
            assert right.size == (nx - 2 - col) * (ny - 2)
            parts = np.concatenate([left, right, cut.interface])
            assert sorted(parts.tolist()) == mesh.interior.tolist()
            # boundary nodes next to an interface node are shared: those
            # straight above/below the interface column, and the boundary
            # column beside it
            shared = (set(cut.side_outer_boundary(LEFT).tolist())
                      & set(cut.side_outer_boundary(RIGHT).tolist()))
            beside = (abs(xs - col) == 1) & (ys > 0) & (ys < ny - 1)
            assert shared == {int(n) for n in mesh.boundary
                              if xs[n] == col or beside[n]}
            # edges between cut-line nodes (interface or shared) split evenly;
            # away from the sides these are the vertical edges of the column
            frac_l, frac_r = cut.edge_fraction(LEFT), cut.edge_fraction(RIGHT)
            halved = frac_l == 0.5
            on_line = np.isin(mesh.edges, [*shared, *cut.interface.tolist()])
            assert np.array_equal(halved, on_line.all(axis=1))
            if 1 < col < nx - 2:
                assert halved.sum() == ny - 1
                assert np.all(xs[mesh.edges[halved]] == col)
            assert np.all(frac_l + frac_r == 1.0)


def test_cut_side_outer_boundary_includes_shared():
    mesh = build_grid_mesh(5, 5, 1.0)
    cut = cut_along_interface(mesh, lambda n: mesh.positions[n][0] == 2.0)
    left = set(map(int, cut.side_outer_boundary(LEFT)))
    right = set(map(int, cut.side_outer_boundary(RIGHT)))
    assert left & right == {2, 22}
    assert left | right == set(map(int, mesh.boundary))


def test_cut_not_a_separator():
    mesh = build_grid_mesh(5, 5, 1.0)
    with pytest.raises(MeshError, match="not a separator"):
        cut_along_interface(mesh, lambda n: n == 12)
    with pytest.raises(MeshError, match="not a separator"):
        cut_along_interface(mesh, lambda n: False)


def test_lambda_one_requires_boundary():
    mesh = build_interval_mesh(3, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 2)
    free = Mesh(positions=mesh.positions, edges=mesh.edges,
                edge_weights=mesh.edge_weights, edge_lengths=mesh.edge_lengths,
                node_volumes=mesh.node_volumes,
                boundary=np.array([], dtype=int), dim=1, spacing=1.0)
    with pytest.raises(MeshError, match="no boundary"):
        lambda_one(free, cut)


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(3, 6), ny=st.integers(3, 6),
       amp=st.floats(0.0, 0.9), seed=st.integers(0, 10**6))
def test_geodesic_metric_properties(nx, ny, amp, seed):
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 3.0)
    mesh = build_grid_mesh(nx, ny, 1.0,
                           metric_profile=lambda x: 1.0 + amp * np.sin(x[0] + phase) ** 2)
    d = mesh.distance_matrix()
    np.testing.assert_allclose(d, d.T, atol=1e-12)
    assert np.all(np.diag(d) == 0.0)
    n = mesh.n_nodes
    for _ in range(10):
        i, j, k = rng.integers(0, n, size=3)
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def _scrambled(mesh: Mesh, seed: int) -> tuple[Mesh, np.ndarray]:
    """The mesh read back from text with nodes and edges relabelled at random.

    Returns the new mesh and perm, where old node i is new node perm[i].
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_nodes)
    header, *rows = mesh.to_text().splitlines()
    nodes, edges = {}, []
    for ln in rows:
        kind, a, *rest = ln.split()
        if kind == "node":
            nodes[perm[int(a)]] = " ".join([kind, str(perm[int(a)]), *rest])
        else:
            b, *rest = rest
            edges.append(" ".join([kind, str(perm[int(a)]), str(perm[int(b)]), *rest]))
    lines = [header, *(nodes[k] for k in range(mesh.n_nodes)),
             *(edges[k] for k in rng.permutation(len(edges)))]
    return Mesh.from_text("\n".join(lines)), perm


def _with_isolated_boundary_node(mesh: Mesh) -> Mesh:
    n = mesh.n_nodes
    return Mesh(positions=np.vstack([mesh.positions, [[-5.0]]]), edges=mesh.edges,
                edge_weights=mesh.edge_weights, edge_lengths=mesh.edge_lengths,
                node_volumes=np.append(mesh.node_volumes, 1.0),
                boundary=np.append(mesh.boundary, n), dim=1, spacing=1.0)


def _bumpy(x):
    return 1.0 + 0.5 * np.sin(np.sum(x)) ** 2


GEODESIC_MESHES = {
    "interval-9": lambda: build_interval_mesh(7, 1.0),
    "interval-403": lambda: build_interval_mesh(401, 1.0),
    "interval-803": lambda: build_interval_mesh(801, 1.0),
    "grid-11": lambda: build_grid_mesh(11, 11, 1.0),
    "grid-21": lambda: build_grid_mesh(21, 21, 1.0),
    "interval-403-profile": lambda: build_interval_mesh(401, 0.1, _bumpy),
    "grid-11-profile": lambda: build_grid_mesh(11, 11, 0.3, _bumpy),
    "interval-403-scrambled": lambda: _scrambled(build_interval_mesh(401, 1.0), 0)[0],
    "grid-21-scrambled": lambda: _scrambled(build_grid_mesh(21, 21, 1.0), 1)[0],
    "grid-11-profile-scrambled":
        lambda: _scrambled(build_grid_mesh(11, 11, 0.3, _bumpy), 2)[0],
    "isolated-boundary-node":
        lambda: _with_isolated_boundary_node(build_interval_mesh(7, 1.0)),
}


@pytest.mark.parametrize("name", list(GEODESIC_MESHES))
def test_geodesics_match_dijkstra_bitwise(name):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    mesh = GEODESIC_MESHES[name]()
    expected = csgraph.dijkstra(adjacency(mesh, mesh.edge_lengths), directed=False)
    d = mesh.distance_matrix()
    assert d.flags.c_contiguous
    np.testing.assert_array_equal(d, expected)


def test_isolated_boundary_node_stays_unreachable():
    mesh = _with_isolated_boundary_node(build_interval_mesh(7, 1.0))
    d = mesh.distance_matrix()
    lone = mesh.n_nodes - 1
    assert d[lone, lone] == 0.0
    assert np.all(np.isinf(d[lone, :lone])) and np.all(np.isinf(d[:lone, lone]))
    assert np.all(np.isfinite(d[:lone, :lone]))


def test_geodesics_do_not_depend_on_node_labels():
    mesh = build_grid_mesh(9, 7, 0.5, _bumpy)
    scrambled, perm = _scrambled(mesh, 3)
    np.testing.assert_array_equal(scrambled.distance_matrix()[np.ix_(perm, perm)],
                                  mesh.distance_matrix())


def test_three_component_cut_on_interval():
    # interface {3, 7} leaves {1, 2}, {4, 5, 6} and {8, 9}: the component of
    # the first node is left, the other two are right
    mesh = build_interval_mesh(9, 1.0)
    cut = cut_along_interface(mesh, lambda n: n in (3, 7))
    assert list(cut.side_interior(LEFT)) == [1, 2]
    assert list(cut.side_interior(RIGHT)) == [4, 5, 6, 8, 9]
    assert list(cut.side_outer_boundary(LEFT)) == [0]
    assert list(cut.side_outer_boundary(RIGHT)) == [10]


@pytest.mark.parametrize("scramble", [False, True])
def test_three_component_split_matches_connected_components(scramble):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    mesh = build_grid_mesh(9, 6, 1.0)
    if scramble:
        mesh = _scrambled(mesh, 4)[0]
    xs = mesh.positions[:, 0]
    iface = {int(n) for n in mesh.interior if xs[n] in (3.0, 5.0)}
    cut = cut_along_interface(mesh, lambda n: n in iface)
    left, right = cut.side_interior(LEFT), cut.side_interior(RIGHT)
    interior = [int(n) for n in mesh.interior if n not in iface]
    sub = adjacency(mesh)[np.ix_(interior, interior)]
    ncomp, labels = csgraph.connected_components(sub, directed=False)
    assert ncomp == 3
    assert list(left) == [n for n, l in zip(interior, labels) if l == labels[0]]
    assert list(right) == [n for n, l in zip(interior, labels) if l != labels[0]]
    if not scramble:
        assert set(xs[left].tolist()) == {1.0, 2.0}


def test_isolated_boundary_node_goes_left():
    """A boundary piece that reaches neither side through boundary nodes
    belongs to the left side only."""
    mesh = _with_isolated_boundary_node(build_interval_mesh(7, 1.0))
    lone = mesh.n_nodes - 1
    cut = cut_along_interface(mesh, lambda n: n == 4)
    assert list(cut.side_outer_boundary(LEFT)) == [0, lone]
    assert list(cut.side_outer_boundary(RIGHT)) == [8]


@pytest.mark.parametrize("nx, ny, seed", [(5, 5, 5), (9, 6, 6)])
def test_cut_does_not_depend_on_node_labels(nx, ny, seed):
    """Relabelled nodes and reordered edges give the same two-sided cut, up
    to which side is called left: the side holding the smallest node id."""
    mesh = build_grid_mesh(nx, ny, 1.0)
    scrambled, perm = _scrambled(mesh, seed)
    where = {frozenset(e): k for k, e in enumerate(scrambled.edges.tolist())}
    moved = [where[frozenset(perm[e].tolist())] for e in mesh.edges]

    def sides(cut, ids, edge_order):
        return [(sorted(ids[cut.side_interior(s)].tolist()),
                 sorted(ids[cut.side_outer_boundary(s)].tolist()),
                 cut.edge_fraction(s)[edge_order].tolist()) for s in (LEFT, RIGHT)]

    for col in range(2, nx - 2):
        cut = cut_along_interface(mesh, lambda n: mesh.positions[n][0] == col)
        new = cut_along_interface(scrambled, lambda n: scrambled.positions[n][0] == col)
        expected = sides(cut, perm, np.arange(len(mesh.edges)))
        got = sides(new, np.arange(scrambled.n_nodes), moved)
        assert got in (expected, expected[::-1])


def test_disconnected_interior_rejected():
    mesh = build_interval_mesh(7, 1.0)
    keep = ~np.all(np.isin(mesh.edges, [3, 4]), axis=1)
    with pytest.raises(MeshError, match="interior graph is not connected"):
        Mesh(positions=mesh.positions, edges=mesh.edges[keep],
             edge_weights=mesh.edge_weights[keep],
             edge_lengths=mesh.edge_lengths[keep],
             node_volumes=mesh.node_volumes, boundary=mesh.boundary,
             dim=1, spacing=1.0)
