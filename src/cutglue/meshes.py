"""Discrete manifolds: weighted graphs with boundary labels and metric data.

A mesh plays the role of a compact Riemannian manifold with boundary.  Edge
weights are finite-volume conductances, node volumes discretize the metric
volume element, and shortest weighted paths stand in for geodesics.  Graph
searches (geodesics, connectivity) are plain numpy: breadth-first search and
Bellman's label-correcting relaxation, with no sparse-graph library.

Interval and grid meshes are box lattices from one constructor, the only
place a metric profile p enters: at spacing h in dimension n it gives
conductances h^(n-2) p(edge midpoint), lengths h p(midpoint) and volumes
h^n p(node).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LEFT = "left"
RIGHT = "right"
CUT = "cut"

#: relative slack used when comparing geodesic distances against 1/Lambda,
#: so that balls and trims behave predictably when a node sits exactly on
#: the cut radius.  `in_ball` and `clear_of` alone apply it: every ball, deep
#: set, trim and saturation test reads them.
_DIST_RTOL = 1e-9


def in_ball(d, lam: float):
    """Whether geodesic distance d lies in the ball of radius 1/lam, widened
    by the slack: every pair a kernel averages over."""
    return d <= (1.0 / lam) * (1.0 + _DIST_RTOL)


def clear_of(d, lam: float):
    """Whether distance d from a boundary reaches 1/lam, narrowed by the
    slack: a node that far from it survives the deformation."""
    return d >= (1.0 / lam) * (1.0 - _DIST_RTOL)


class MeshError(ValueError):
    pass


def _header_nodes(header: str) -> int:
    """N of a mesh-file header line `mesh nodes=N key=value ...`."""
    kind, *tokens = header.split() or [""]
    pairs = [token.split("=") for token in tokens]
    if kind != "mesh" or any(len(pair) != 2 for pair in pairs):
        raise MeshError(f"bad header {header!r}: want 'mesh nodes=N key=value ...'")
    try:
        return int(dict(pairs)["nodes"])
    except (KeyError, ValueError):
        raise MeshError(f"bad header {header!r}: nodes= must be an integer") from None


def _number(kind, token: str, ln: str):
    """token read as kind (int or float), or a MeshError quoting its line."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise MeshError(f"{token!r} is not {what} in line {ln!r}") from None


def _keyed(tokens, keys: tuple, ln: str) -> list[float]:
    """Values of the key=value tokens, in the order of keys: each key once,
    and no other token."""
    pairs = [token.split("=", 1) for token in tokens]
    names = sorted(pair[0] for pair in pairs)
    if any(len(pair) != 2 for pair in pairs) or names != sorted(keys):
        want = " ".join(f"{k}=" for k in keys)
        raise MeshError(f"want {want} once each and nothing else in line {ln!r}")
    values = dict(pairs)
    return [_number(float, values[k], ln) for k in keys]


@dataclass(frozen=True)
class Mesh:
    """Weighted graph discretizing a manifold with boundary.

    positions    : (N, d) finite embedding coordinates, N >= 1 and d >= 1.
    edges        : (E, 2) pairs of distinct node indices, each unordered pair
                   listed once.
    edge_weights : (E,) finite conductances (> 0).
    edge_lengths : (E,) finite metric lengths used for geodesics (> 0).
    node_volumes : (N,) finite discrete volume elements (> 0) with a finite sum.
                   Boundary nodes keep a positive entry but carry no weight in
                   bulk sums.
    boundary     : sorted indices of boundary nodes.
    """

    positions: np.ndarray
    edges: np.ndarray
    edge_weights: np.ndarray
    edge_lengths: np.ndarray
    node_volumes: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        if self.positions.ndim != 2 or not self.positions.size:
            raise MeshError("a mesh needs at least one node, and positions of "
                            "shape (N, d) with d >= 1")
        for ids in (self.edges, self.boundary):
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_nodes):
                raise MeshError(f"node index out of range 0..{self.n_nodes - 1}")
        pairs = np.sort(self.edges, axis=1)
        loops = pairs[pairs[:, 0] == pairs[:, 1]]
        if loops.size:
            raise MeshError(f"self-loop edge at node {loops[0, 0]}")
        unique, counts = np.unique(pairs, axis=0, return_counts=True)
        if np.any(counts > 1):
            i, j = unique[counts > 1][0]
            raise MeshError(f"nodes {i} and {j} are joined by more than one edge")
        for name in ("edge_weights", "edge_lengths", "node_volumes"):
            values = getattr(self, name)
            if not (np.all(np.isfinite(values)) and np.all(values > 0)):
                raise MeshError(f"{name} must be finite and positive")
        # a finite total bounds every kernel row sum, as each shape is at most 1
        with np.errstate(over="ignore"):
            total = self.node_volumes.sum()
        if not np.isfinite(total):
            raise MeshError("node_volumes must have a finite sum")
        if not np.all(np.isfinite(self.positions)):
            raise MeshError("positions must be finite")
        interior = self.interior
        if interior.size:
            allowed = np.zeros(self.n_nodes, dtype=bool)
            allowed[interior] = True
            reached = _bfs(self.neighbors[0], [int(interior[0])], allowed)
            if len(reached) != interior.size:
                raise MeshError("interior graph is not connected")

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def interior(self) -> np.ndarray:
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary] = False
        return np.nonzero(mask)[0]

    @cached_property
    def neighbors(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-node neighbour indices and the lengths of the joining edges."""
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        lengths = np.concatenate([self.edge_lengths, self.edge_lengths])
        order = np.argsort(src, kind="stable")
        cuts = np.searchsorted(src[order], np.arange(1, self.n_nodes))
        return np.split(dst[order], cuts), np.split(lengths[order], cuts)

    def distance_matrix(self) -> np.ndarray:
        """All-pairs geodesic distances (shortest weighted paths)."""
        return self._distances

    @cached_property
    def _distances(self) -> np.ndarray:
        """Label-correcting relaxation over all sources at once: row v of `to`
        holds the distances from every source to v, and each node in turn
        takes the best neighbour row plus the joining edge length.  Sweeps
        visit the nodes in breadth-first order, alternating direction, until
        one changes nothing (at most N sweeps); unreachable pairs stay inf.
        `to` is d, one N x N array.  Each distance is summed from its source
        outward, so column s equals Dijkstra's distances from s bitwise, and
        d[s, t] and d[t, s] differ by rounding at most (not at all on a
        lattice of one edge length).  No rule reads the orientation: the
        1e-9 slack of `in_ball` and `clear_of` is far above that rounding.
        """
        n = self.n_nodes
        nbrs, lengths = self.neighbors
        order, seen = [], np.zeros(n, dtype=bool)
        for start in range(n):
            if not seen[start]:
                order += _bfs(nbrs, [start], ~seen)
                seen[order] = True
        to = np.full((n, n), np.inf)
        np.fill_diagonal(to, 0.0)
        steps = [(to[v], nbrs[v], lengths[v][:, None]) for v in order if nbrs[v].size]
        for sweep in range(n):
            changed = False
            for row, ids, length in steps if sweep % 2 == 0 else steps[::-1]:
                best = (to[ids] + length).min(axis=0)
                if (best < row).any():
                    np.minimum(row, best, out=row)
                    changed = True
            if not changed:
                break
        to.flags.writeable = False  # shared by every ball, deep set and trim
        return to

    def boundary_distance(self) -> np.ndarray:
        """Per-node geodesic distance to the nearest boundary node."""
        if self.boundary.size == 0:
            return np.full(self.n_nodes, np.inf)
        return self.distance_matrix()[self.boundary].min(axis=0)

    def trim_to_deformed(self, lam: float) -> np.ndarray:
        """Nodes at geodesic distance >= 1/lam from every boundary node, by
        `clear_of`: the deformed manifold where the regularized interaction
        lives.  It may be empty; nothing is logged.
        """
        if lam <= 0:
            raise MeshError("deformation parameter must be positive")
        keep = clear_of(self.boundary_distance(), lam)
        keep[self.boundary] = False
        return np.nonzero(keep)[0]

    def to_text(self) -> str:
        """Line-oriented serialization (see README for the format)."""
        lines = [f"mesh nodes={self.n_nodes}"]
        bset = set(self.boundary.tolist())
        for i in range(self.n_nodes):
            role = "boundary" if i in bset else "interior"
            pos = " ".join(repr(float(x)) for x in self.positions[i])
            lines.append(f"node {i} {role} vol={float(self.node_volumes[i])!r} pos {pos}")
        for e, (i, j) in enumerate(self.edges):
            lines.append(
                f"edge {i} {j} w={float(self.edge_weights[e])!r} "
                f"len={float(self.edge_lengths[e])!r}"
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Mesh":
        """Inverse of `to_text`.  The header is `mesh nodes=N key=value ...`;
        its only read key is nodes=N, and any other key= is ignored.  Node
        lines may come in any order, but there must be N of them and their
        ids must be exactly 0..N-1; each node sits at its id.  vol=, w= and
        len= are read by key, each once and in any order; a node's role is
        boundary or interior, and every node has as many coordinates, at least
        one."""
        header, *rows = [ln for ln in text.splitlines() if ln.strip()] or [""]
        n_nodes = _header_nodes(header)
        nodes = {}  # id -> (is boundary, volume, position)
        dim = None  # coordinate count of the first node line
        edges, weights, lengths = [], [], []
        for ln in rows:
            parts = ln.split()
            try:
                if parts[0] == "node":
                    k, role = _number(int, parts[1], ln), parts[2]
                    if role not in ("boundary", "interior"):
                        raise MeshError(f"role {role!r} is not boundary or interior "
                                        f"in line {ln!r}")
                    if "pos" not in parts[3:]:
                        raise MeshError(f"no pos in line {ln!r}")
                    at = parts.index("pos", 3)
                    (vol,) = _keyed(parts[3:at], ("vol",), ln)
                    pos = [_number(float, x, ln) for x in parts[at + 1:]]
                    if not pos:
                        raise MeshError(f"no coordinates after pos in line {ln!r}")
                    dim = len(pos) if dim is None else dim
                    if len(pos) != dim:
                        raise MeshError(f"line {ln!r} has {len(pos)} coordinates, "
                                        f"the first node line has {dim}")
                    if k in nodes:
                        raise MeshError(f"duplicate node id {k}")
                    nodes[k] = (role == "boundary", vol, pos)
                elif parts[0] == "edge":
                    i, j = _number(int, parts[1], ln), _number(int, parts[2], ln)
                    w, length = _keyed(parts[3:], ("w", "len"), ln)
                    edges.append([i, j])
                    weights.append(w)
                    lengths.append(length)
                else:
                    raise MeshError(f"unrecognized line: {ln!r}")
            except IndexError:
                raise MeshError(f"truncated line: {ln!r}") from None
        if n_nodes != len(nodes):
            raise MeshError(f"header says nodes={n_nodes}, "
                            f"file has {len(nodes)} node lines")
        for k in sorted(nodes):
            if not 0 <= k < len(nodes):
                raise MeshError(f"node id {k} out of range 0..{len(nodes) - 1}")
        ordered = [nodes[k] for k in range(len(nodes))]
        return Mesh(
            positions=np.asarray([pos for _, _, pos in ordered], dtype=float),
            edges=np.asarray(edges, dtype=int).reshape(-1, 2),
            edge_weights=np.asarray(weights, dtype=float),
            edge_lengths=np.asarray(lengths, dtype=float),
            node_volumes=np.asarray([vol for _, vol, _ in ordered], dtype=float),
            boundary=np.asarray([k for k, (b, _, _) in enumerate(ordered) if b],
                                dtype=int),
        )


@dataclass(frozen=True)
class Cut:
    """A codimension-one cut of a mesh into left and right submanifolds.

    interface : interior separator nodes (the cut surface).
    label     : (N,) side of each node.  LEFT or RIGHT for a side's interior
                and outer boundary nodes; CUT for the interface and for the
                outer boundary nodes touching it, which sit on the cut line
                and appear in both side problems with a common value.
    boundary  : (N,) mask of the mesh's outer boundary nodes.
    edges     : (E, 2) the mesh's edges, in its order.
    """

    interface: np.ndarray
    label: np.ndarray
    boundary: np.ndarray
    edges: np.ndarray

    def side_interior(self, side: str) -> np.ndarray:
        return np.nonzero((self.label == side) & ~self.boundary)[0]

    def side_outer_boundary(self, side: str) -> np.ndarray:
        """Outer (non-interface) boundary of one side, shared nodes included."""
        on_side = (self.label == side) | (self.label == CUT)
        return np.nonzero(on_side & self.boundary)[0]

    def edge_fraction(self, side: str) -> np.ndarray:
        """Per-edge share of the conductance attributed to one side: 1 with an
        end on the side, 1/2 with both ends on the cut line, else 0.  The
        shares of the two sides sum to one."""
        ends = self.label[self.edges]
        return np.where((ends == side).any(axis=1), 1.0,
                        np.where((ends == CUT).all(axis=1), 0.5, 0.0))


def _bfs(nbrs: list[np.ndarray], starts: list[int], allowed: np.ndarray) -> list[int]:
    """Nodes reachable from `starts` through `allowed` nodes, in BFS order."""
    allowed = allowed.copy()
    allowed[starts] = False
    order, queue = list(starts), deque(starts)
    while queue:
        for u in nbrs[queue.popleft()].tolist():
            if allowed[u]:
                allowed[u] = False
                order.append(u)
                queue.append(u)
    return order


def _node_side_labels(mesh: Mesh, interface: set[int]) -> tuple[np.ndarray, np.ndarray]:
    """Split interior nodes minus the interface into two groups.

    The component containing the smallest node index becomes the left group;
    any further components join the right group, which is empty when the
    remaining interior is connected.
    """
    interior = np.array([i for i in mesh.interior if i not in interface], dtype=int)
    if not interior.size:
        raise MeshError("not a separator: no interior nodes remain")
    allowed = np.zeros(mesh.n_nodes, dtype=bool)
    allowed[interior] = True
    in_first = np.zeros(mesh.n_nodes, dtype=bool)
    in_first[_bfs(mesh.neighbors[0], [int(interior[0])], allowed)] = True
    return interior[in_first[interior]], interior[~in_first[interior]]


def cut_along_interface(mesh: Mesh, selector) -> Cut:
    """Cut the mesh along the interior nodes picked by `selector`.

    `selector` is a predicate on node indices.  The selected nodes must
    separate the interior graph; `_node_side_labels` splits the remaining
    interior into left and right.  Outer boundary nodes touching the
    interface sit on the cut line (CUT); every other boundary node takes the
    side it reaches through unlabelled boundary nodes, left first, and
    boundary pieces that reach neither side go left.  An edge joining the
    two sides means the selection does not separate.

    When the remaining interior is connected, the cut is one-sided.  A
    boundary node is cut off when the interior reaches neither it nor a
    neighbour of it through unlabelled boundary nodes, and the interface
    reaches it through cut-off nodes.  The cut separates only if some node
    is cut off; the cut-off nodes off the cut line make the side without
    interior nodes, and the left side is the one holding the smallest node
    id outside the interface.
    """
    interface = np.array(
        sorted(n for n in mesh.interior if selector(n)), dtype=int
    )
    if interface.size == 0:
        raise MeshError("not a separator: empty selection")
    left, right = _node_side_labels(mesh, set(interface.tolist()))
    nbrs = mesh.neighbors[0]
    boundary = np.zeros(mesh.n_nodes, dtype=bool)
    boundary[mesh.boundary] = True
    label = np.full(mesh.n_nodes, "", dtype=object)
    label[left], label[right], label[interface] = LEFT, RIGHT, CUT
    touching = [b for b in mesh.boundary if (label[nbrs[b]] == CUT).any()]
    label[touching] = CUT
    for side in (LEFT, RIGHT):
        label[_bfs(nbrs, np.nonzero(label == side)[0].tolist(), label == "")] = side
    if right.size == 0:
        near = label == LEFT
        near[mesh.edges[near[mesh.edges].any(axis=1)]] = True
        cut_off = np.zeros(mesh.n_nodes, dtype=bool)
        cut_off[_bfs(nbrs, interface.tolist(), boundary & ~near)] = True
        cut_off[interface] = False
        if not cut_off.any():
            raise MeshError("not a separator: no boundary node is cut off")
        outside = np.ones(mesh.n_nodes, dtype=bool)
        outside[interface] = False
        if cut_off[np.argmax(outside)]:
            label[label == LEFT] = RIGHT
        else:
            label[cut_off & (label == "")] = RIGHT
    label[label == ""] = LEFT
    ends = label[mesh.edges]
    if np.any((ends == LEFT).any(axis=1) & (ends == RIGHT).any(axis=1)):
        raise MeshError("not a separator: edge crosses the cut")
    return Cut(interface=interface, label=label, boundary=boundary, edges=mesh.edges)


def lambda_one(mesh: Mesh, cut: Cut) -> float:
    """Reciprocal of the minimal interface-to-boundary geodesic distance.

    The regularization scale must exceed this value for the cut geometry to
    admit ball-supported kernels on both sides.
    """
    if mesh.boundary.size == 0:
        raise MeshError("no boundary")
    if cut.interface.size == 0:
        raise MeshError("empty interface")
    d = mesh.distance_matrix()[np.ix_(cut.interface, mesh.boundary)]
    return 1.0 / float(d.min())


def _flat(_):
    return 1.0


def _box_lattice(shape: tuple[int, ...], spacing: float, metric_profile) -> Mesh:
    """Box lattice with shape[a] nodes along axis a, `spacing` apart.

    Node ids put axis 0 fastest.  Edges join each node to its +1 neighbour
    along each axis, in (node, axis) order, and the nodes on any face of the
    box are boundary.  With n = len(shape), conductance w_e = spacing^(n-2) *
    profile(edge midpoint), edge length spacing * profile(midpoint), node
    volume spacing^n * profile(node).
    """
    if spacing <= 0:
        raise MeshError("nonpositive spacing")
    dim, last = len(shape), np.array(shape) - 1
    coords = np.column_stack(
        np.unravel_index(np.arange(np.prod(shape)), shape, order="F"))
    positions = coords * spacing
    nodes, axes = np.nonzero(coords < last)
    edges = np.column_stack([nodes, nodes + np.cumprod((1,) + shape[:-1])[axes]])
    try:
        weight, volume = spacing ** (dim - 2), spacing**dim
    except OverflowError:
        raise MeshError(f"spacing {spacing} overflows edge weights or volumes") from None
    mids = 0.5 * (positions[edges[:, 0]] + positions[edges[:, 1]])
    prof_mid = np.array([float(metric_profile(m)) for m in mids])
    prof_node = np.array([float(metric_profile(p)) for p in positions])
    return Mesh(
        positions=positions,
        edges=edges,
        edge_weights=weight * prof_mid,
        edge_lengths=spacing * prof_mid,
        node_volumes=volume * prof_node,
        boundary=np.nonzero(((coords == 0) | (coords == last)).any(axis=1))[0],
    )


def build_interval_mesh(n_interior: int, spacing: float, metric_profile=_flat) -> Mesh:
    """Path graph: n_interior interior nodes flanked by 2 boundary nodes."""
    if n_interior < 1:
        raise MeshError("need at least one interior node")
    return _box_lattice((n_interior + 2,), spacing, metric_profile)


def build_grid_mesh(nx: int, ny: int, spacing: float, metric_profile=_flat) -> Mesh:
    """Rectangular grid with 4-neighbor stencil; the outer ring is boundary."""
    if nx < 2 or ny < 2:
        raise MeshError("degenerate grid dimensions")
    return _box_lattice((nx, ny), spacing, metric_profile)
