"""Discrete manifolds: weighted graphs with boundary labels and metric data.

A mesh plays the role of a compact Riemannian manifold with boundary.  Edge
weights are finite-volume conductances, node volumes discretize the metric
volume element, and shortest weighted paths stand in for geodesics.  Graph
searches (geodesics, connectivity) are plain numpy: breadth-first search and
Bellman's label-correcting relaxation, with no sparse-graph library.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

LEFT = "left"
RIGHT = "right"

#: relative slack used when comparing geodesic distances against 1/Lambda,
#: so that balls and trims behave predictably when a node sits exactly on
#: the cut radius.
_DIST_RTOL = 1e-9


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Weighted graph discretizing a manifold with boundary.

    positions    : (N, d) embedding coordinates.
    edges        : (E, 2) node index pairs, each pair listed once.
    edge_weights : (E,) conductances (> 0).
    edge_lengths : (E,) metric lengths used for geodesics (> 0).
    node_volumes : (N,) discrete volume elements (> 0).  Boundary nodes keep
                   a positive entry but carry no weight in bulk sums.
    boundary     : sorted indices of boundary nodes.
    dim          : manifold dimension n >= 1.
    """

    positions: np.ndarray
    edges: np.ndarray
    edge_weights: np.ndarray
    edge_lengths: np.ndarray
    node_volumes: np.ndarray
    boundary: np.ndarray
    dim: int
    spacing: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for ids in (self.edges, self.boundary):
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_nodes):
                raise MeshError(f"node index out of range 0..{self.n_nodes - 1}")
        if np.any(self.edge_weights <= 0) or np.any(self.edge_lengths <= 0):
            raise MeshError("edge weights and lengths must be positive")
        if np.any(self.node_volumes <= 0):
            raise MeshError("node volumes must be positive")
        interior = self.interior
        if interior.size:
            allowed = np.zeros(self.n_nodes, dtype=bool)
            allowed[interior] = True
            reached = _bfs(self.neighbors()[0], int(interior[0]), allowed)
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

    def neighbors(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-node neighbour indices and the lengths of the joining edges."""
        if "nbrs" not in self._cache:
            src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            lengths = np.concatenate([self.edge_lengths, self.edge_lengths])
            order = np.argsort(src, kind="stable")
            cuts = np.searchsorted(src[order], np.arange(1, self.n_nodes))
            self._cache["nbrs"] = (np.split(dst[order], cuts),
                                        np.split(lengths[order], cuts))
        return self._cache["nbrs"]

    def distance_matrix(self) -> np.ndarray:
        """All-pairs geodesic distances (shortest weighted paths).

        Label-correcting relaxation over all sources at once: row v of `to`
        holds the distances from every source to v, and each node in turn
        takes the best neighbour row plus the joining edge length.  Sweeps
        visit the nodes in breadth-first order, alternating direction, until
        one changes nothing (at most N sweeps).  Each distance is summed from
        its source outward, so d[s, t] equals Dijkstra's value bitwise;
        unreachable pairs stay inf.
        """
        if "d" not in self._cache:
            n = self.n_nodes
            nbrs, lengths = self.neighbors()
            order, seen = [], np.zeros(n, dtype=bool)
            for start in range(n):
                if not seen[start]:
                    order += _bfs(nbrs, start, ~seen)
                    seen[order] = True
            to = np.full((n, n), np.inf)
            np.fill_diagonal(to, 0.0)
            for sweep in range(n):
                changed = False
                for v in order if sweep % 2 == 0 else order[::-1]:
                    if nbrs[v].size == 0:
                        continue
                    best = (to[nbrs[v]] + lengths[v][:, None]).min(axis=0)
                    shorter = best < to[v]
                    if shorter.any():
                        to[v, shorter] = best[shorter]
                        changed = True
                if not changed:
                    break
            self._cache["d"] = np.ascontiguousarray(to.T)
        return self._cache["d"]

    def boundary_distance(self) -> np.ndarray:
        """Per-node geodesic distance to the nearest boundary node."""
        if self.boundary.size == 0:
            return np.full(self.n_nodes, np.inf)
        return self.distance_matrix()[self.boundary].min(axis=0)

    def trim_to_deformed(self, lam: float) -> np.ndarray:
        """Nodes at geodesic distance >= 1/lam from every boundary node.

        The deformed manifold where the regularized interaction lives.  An
        empty result is legal and logged.
        """
        if lam <= 0:
            raise MeshError("deformation parameter must be positive")
        radius = 1.0 / lam
        keep = self.boundary_distance() >= radius * (1.0 - _DIST_RTOL)
        keep[self.boundary] = False
        nodes = np.nonzero(keep)[0]
        if nodes.size == 0:
            logger.warning("deformed mesh is empty at lambda=%g (radius %g)", lam, radius)
        return nodes

    def to_text(self) -> str:
        """Line-oriented serialization (see README for the format)."""
        lines = [f"mesh dim={self.dim} spacing={float(self.spacing)!r} nodes={self.n_nodes}"]
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
        """Inverse of `to_text`.  Node lines may come in any order, but there
        must be as many as the header's nodes=N and their ids must be exactly
        0..N-1; each node sits at its id."""
        header, *rows = [ln for ln in text.splitlines() if ln.strip()]
        fields = dict(kv.split("=") for kv in header.split()[1:])
        dim, spacing = int(fields["dim"]), float(fields["spacing"])
        nodes = {}  # id -> (is boundary, volume, position)
        edges, weights, lengths = [], [], []
        for ln in rows:
            parts = ln.split()
            try:
                if parts[0] == "node":
                    k, role, vol = int(parts[1]), parts[2], parts[3]
                    if k in nodes:
                        raise MeshError(f"duplicate node id {k}")
                    nodes[k] = (role == "boundary", float(vol.split("=")[1]),
                                [float(x) for x in parts[parts.index("pos") + 1:]])
                elif parts[0] == "edge":
                    edges.append([int(parts[1]), int(parts[2])])
                    weights.append(float(parts[3].split("=")[1]))
                    lengths.append(float(parts[4].split("=")[1]))
                else:
                    raise MeshError(f"unrecognized line: {ln!r}")
            except IndexError:
                raise MeshError(f"truncated line: {ln!r}") from None
        if int(fields["nodes"]) != len(nodes):
            raise MeshError(f"header says nodes={fields['nodes']}, "
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
            dim=dim,
            spacing=spacing,
        )


@dataclass(frozen=True)
class Cut:
    """A codimension-one cut of a mesh into left and right submanifolds.

    interface          : interior separator nodes (the cut surface).
    left_nodes         : interior nodes strictly on the left.
    right_nodes        : interior nodes strictly on the right.
    left_boundary      : outer boundary nodes on the left side.
    right_boundary     : outer boundary nodes on the right side.
    shared_boundary    : outer boundary nodes touching the cut line; they
                         appear in both side problems with a common value.
    edge_left_fraction : per-edge share of the conductance attributed to the
                         left side; shares of left and right sum to one, and
                         edges lying on the cut line split half and half.
    """

    interface: np.ndarray
    left_nodes: np.ndarray
    right_nodes: np.ndarray
    left_boundary: np.ndarray
    right_boundary: np.ndarray
    shared_boundary: np.ndarray
    edge_left_fraction: np.ndarray

    def side_interior(self, side: str) -> np.ndarray:
        return self.left_nodes if side == LEFT else self.right_nodes

    def side_outer_boundary(self, side: str) -> np.ndarray:
        """Outer (non-interface) boundary of one side, shared nodes included."""
        own = self.left_boundary if side == LEFT else self.right_boundary
        return np.asarray(sorted(set(own) | set(self.shared_boundary)), dtype=int)

    def edge_fraction(self, side: str) -> np.ndarray:
        f = self.edge_left_fraction
        return f if side == LEFT else 1.0 - f


def _bfs(nbrs: list[np.ndarray], start: int, allowed: np.ndarray) -> list[int]:
    """Nodes reachable from `start` through `allowed` nodes, in BFS order."""
    allowed = allowed.copy()
    allowed[start] = False
    order, queue = [start], deque([start])
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
    any further components join the right group.  Raises if the selector does
    not separate.
    """
    interior = np.array([i for i in mesh.interior if i not in interface], dtype=int)
    if not interior.size:
        raise MeshError("not a separator: no interior nodes remain")
    allowed = np.zeros(mesh.n_nodes, dtype=bool)
    allowed[interior] = True
    in_first = np.zeros(mesh.n_nodes, dtype=bool)
    in_first[_bfs(mesh.neighbors()[0], int(interior[0]), allowed)] = True
    left, right = interior[in_first[interior]], interior[~in_first[interior]]
    if right.size == 0:
        # one-sided cut: all remaining interior on one side, the other empty
        if interior.min() > min(interface):
            return right, interior
        if interior.max() < max(interface):
            return interior, right
        raise MeshError("not a separator")
    return left, right


def cut_along_interface(mesh: Mesh, selector) -> Cut:
    """Cut the mesh along the interior nodes picked by `selector`.

    `selector` is a predicate on node indices.  The selected nodes must
    separate the interior graph; left and right interior components are
    derived from the remaining connectivity, the outer boundary is
    partitioned by adjacency, and each edge receives a left/right
    conductance share (cut-line edges split evenly).
    """
    interface = np.array(
        sorted(n for n in mesh.interior if selector(n)), dtype=int
    )
    if interface.size == 0:
        raise MeshError("not a separator: empty selection")
    iface = set(interface.tolist())
    left, right = _node_side_labels(mesh, iface)
    lset, rset = set(left.tolist()), set(right.tolist())

    neighbors = [set(nb.tolist()) for nb in mesh.neighbors()[0]]

    # Boundary nodes adjacent to the interface sit on the cut line and are
    # shared; the rest take the side of their interior neighbors, falling
    # back to boundary-graph proximity.
    side_of: dict[int, str | None] = {}
    shared = []
    for b in mesh.boundary:
        b = int(b)
        nb = neighbors[b]
        if nb & iface:
            shared.append(b)
            side_of[b] = None
        elif nb & lset:
            side_of[b] = LEFT
        elif nb & rset:
            side_of[b] = RIGHT
        else:
            side_of[b] = None
    pending = [b for b in side_of if side_of[b] is None and b not in shared]
    while pending:
        progressed = False
        for b in list(pending):
            tags = {side_of.get(n) for n in neighbors[b] if n in side_of}
            tags.discard(None)
            if tags:
                side_of[b] = LEFT if LEFT in tags else RIGHT
                pending.remove(b)
                progressed = True
        if not progressed:
            for b in pending:  # isolated boundary pieces default left
                side_of[b] = LEFT
            break
    left_bdry = np.array(sorted(b for b, s in side_of.items() if s == LEFT), dtype=int)
    right_bdry = np.array(sorted(b for b, s in side_of.items() if s == RIGHT), dtype=int)
    shared_bdry = np.array(sorted(shared), dtype=int)

    def node_tag(n: int) -> str:
        if n in iface or n in shared:
            return "cut"
        if n in lset or side_of.get(n) == LEFT:
            return LEFT
        if n in rset or side_of.get(n) == RIGHT:
            return RIGHT
        raise MeshError(f"node {n} has no side")

    frac = np.empty(len(mesh.edges))
    for e, (i, j) in enumerate(mesh.edges):
        ti, tj = node_tag(int(i)), node_tag(int(j))
        tags = {ti, tj}
        if tags == {"cut"}:
            frac[e] = 0.5
        elif LEFT in tags and RIGHT in tags:
            raise MeshError("not a separator: edge crosses the cut")
        elif LEFT in tags:
            frac[e] = 1.0
        else:
            frac[e] = 0.0
    return Cut(
        interface=interface,
        left_nodes=left,
        right_nodes=right,
        left_boundary=left_bdry,
        right_boundary=right_bdry,
        shared_boundary=shared_bdry,
        edge_left_fraction=frac,
    )


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


def build_interval_mesh(n_interior: int, spacing: float, metric_profile=_flat) -> Mesh:
    """Path graph: n_interior interior nodes flanked by 2 boundary nodes.

    Conductance w_e = spacing^(n-2) * profile(edge midpoint), node volume
    spacing^n * profile(node), edge length spacing * profile(midpoint).
    """
    if n_interior < 1:
        raise MeshError("need at least one interior node")
    if spacing <= 0:
        raise MeshError("nonpositive spacing")
    n = n_interior + 2
    xs = np.arange(n) * spacing
    positions = xs[:, None]
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    mids = 0.5 * (xs[:-1] + xs[1:])
    prof_mid = np.array([float(metric_profile(np.array([x]))) for x in mids])
    prof_node = np.array([float(metric_profile(np.array([x]))) for x in xs])
    if np.any(prof_mid <= 0) or np.any(prof_node <= 0):
        raise MeshError("metric profile must be positive")
    dim = 1
    return Mesh(
        positions=positions,
        edges=edges,
        edge_weights=spacing ** (dim - 2) * prof_mid,
        edge_lengths=spacing * prof_mid,
        node_volumes=spacing**dim * prof_node,
        boundary=np.array([0, n - 1]),
        dim=dim,
        spacing=spacing,
    )


def build_grid_mesh(nx: int, ny: int, spacing: float, metric_profile=_flat) -> Mesh:
    """Rectangular grid with 4-neighbor stencil; the outer ring is boundary."""
    if nx < 2 or ny < 2:
        raise MeshError("degenerate grid dimensions")
    if spacing <= 0:
        raise MeshError("nonpositive spacing")

    def idx(ix, iy):
        return iy * nx + ix

    positions = np.array(
        [[ix * spacing, iy * spacing] for iy in range(ny) for ix in range(nx)]
    )
    edges, mids = [], []
    for iy in range(ny):
        for ix in range(nx):
            if ix + 1 < nx:
                edges.append([idx(ix, iy), idx(ix + 1, iy)])
                mids.append([(ix + 0.5) * spacing, iy * spacing])
            if iy + 1 < ny:
                edges.append([idx(ix, iy), idx(ix, iy + 1)])
                mids.append([ix * spacing, (iy + 0.5) * spacing])
    prof_mid = np.array([float(metric_profile(np.asarray(m))) for m in mids])
    prof_node = np.array([float(metric_profile(p)) for p in positions])
    if np.any(prof_mid <= 0) or np.any(prof_node <= 0):
        raise MeshError("metric profile must be positive")
    boundary = np.array(
        sorted(
            idx(ix, iy)
            for iy in range(ny)
            for ix in range(nx)
            if ix in (0, nx - 1) or iy in (0, ny - 1)
        )
    )
    dim = 2
    return Mesh(
        positions=positions,
        edges=np.asarray(edges, dtype=int),
        edge_weights=spacing ** (dim - 2) * prof_mid,
        edge_lengths=spacing * prof_mid,
        node_volumes=spacing**dim * prof_node,
        boundary=boundary,
        dim=dim,
        spacing=spacing,
    )
