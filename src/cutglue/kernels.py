"""Quasi-local averaging kernels on meshes and regularized Green's matrices.

A kernel at scale lam is a row-stochastic matrix supported in geodesic balls
of radius 1/lam.  Applied on both legs of the Green's matrix it produces a
regularized propagator with a finite diagonal.  Once the shortest edge falls
outside the ball every ball holds its own node alone: the kernel is the
exact identity and each regularized quantity equals its original bitwise.
The ball and the boundary clearance of the deep sets are `meshes.in_ball`
and `meshes.clear_of`, which own the slack; this module writes none.

A kernel shape is one of the names in `SHAPES`.  Each maps an array of
scaled distances t = d lam in [0, 1] to an array of weights in [0, 1], and
each is exactly 1 at t = 0; a kernel is built from one shape call over every
node pair inside the balls.  A run holds one kernel per scale, with each
side's deformed nodes, in `gluing.ScaleData`; both routes average with it.
The mesh stack reads no flat-space module: only `suites` imports `euclidean`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .green import GreenBundle, _read_only
from .meshes import CUT, Cut, Mesh, clear_of, in_ball
from .reports import Report, gap


class KernelError(ValueError):
    pass


def shape_uniform(t: np.ndarray) -> np.ndarray:
    return np.ones_like(t)


def shape_bump(t: np.ndarray) -> np.ndarray:
    return (1.0 - t * t) ** 2


def shape_triangle(t: np.ndarray) -> np.ndarray:
    return 1.0 - t


SHAPES = {
    "uniform": shape_uniform,
    "bump": shape_bump,
    "triangle": shape_triangle,
}


@dataclass(frozen=True)
class KernelMatrix:
    """Row-stochastic averaging matrix with geodesic-ball support."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not np.all(m >= 0):
            raise KernelError("negative or NaN kernel entries")
        if not gap(m.sum(axis=1), 1.0) <= 1e-12:
            raise KernelError("kernel rows must sum to 1")

    @property
    def is_identity(self) -> bool:
        n = self.matrix.shape[0]
        return bool(np.array_equal(self.matrix, np.eye(n)))


def build_mesh_kernel(mesh: Mesh, lam: float, shape: str = "uniform") -> KernelMatrix:
    """Averaging kernel at scale lam: weight(p,q) = shape(d(p,q) lam) vol(q).

    Rows are normalized to 1 over the geodesic ball of radius 1/lam, as
    `meshes.in_ball` draws it; balls truncated by the mesh edge are simply
    renormalized.  Every ball holds its own node, where the shape is 1 and
    the volume positive, so every row sum is positive, and finite as the
    mesh's volumes sum to a finite total.  A ball that the shortest edge
    falls outside holds its node alone, weighted x/x = 1.0: the kernel is
    the exact identity.
    The one n x n buffer is the weight matrix, divided by its row sums in
    place; it becomes the kernel, read-only, as a run shares it.
    No cut is read: `gluing.ScaleData` checks lam against the cut's lambda_1.
    """
    if lam <= 0:
        raise KernelError("lam must be positive")
    try:
        weight = SHAPES[shape]
    except KeyError:
        raise KernelError(f"unknown kernel shape {shape!r}") from None
    radius = 1.0 / lam
    n = mesh.n_nodes
    d = mesh.distance_matrix()
    rows, cols = np.nonzero(in_ball(d, lam))
    w = np.zeros((n, n))
    w[rows, cols] = (weight(np.minimum(d[rows, cols] / radius, 1.0))
                     * mesh.node_volumes[cols])
    w /= w.sum(axis=1)[:, None]
    return KernelMatrix(matrix=_read_only(w)[0])


def restrict_kernel_to_submesh(kernel: KernelMatrix, keep_nodes) -> KernelMatrix:
    """Renormalize rows over the columns surviving in a submesh.

    Rows of nodes in the submesh lose their outside columns and are rescaled
    to unit sum; rows fully supported inside come through unchanged.  Rows of
    nodes outside the submesh are replaced by identity rows (they carry no
    meaning for the submesh problem).  The result is read-only.
    """
    keep = np.zeros(kernel.matrix.shape[0], dtype=bool)
    keep[np.asarray(list(keep_nodes), dtype=int)] = True
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    m = np.array(kernel.matrix)
    # kept rows with weight outside; exact, as kernel entries are nonnegative
    leaks = np.flatnonzero(keep & (m @ ~keep > 0.0))
    # each gathered row is contiguous, so every row mass is summed in the
    # same order as the row on its own
    mass = m[np.ix_(leaks, kept)].sum(axis=1)
    empty = leaks[mass <= 0.0]
    if empty.size:
        raise KernelError(f"zero surviving row mass at node {empty[0]}")
    m[np.ix_(leaks, dropped)] = 0.0
    m[np.ix_(leaks, kept)] /= mass[:, None]
    m[dropped] = 0.0
    m[dropped, dropped] = 1.0
    return KernelMatrix(matrix=_read_only(m)[0])


def regularized_green(kernel: KernelMatrix, bundle: GreenBundle) -> np.ndarray:
    """Averaged propagator between all node pairs: H G H' on interior legs.

    Boundary columns of the kernel meet the zero boundary values of the
    fluctuation field and drop out.
    """
    h = kernel.matrix[:, bundle.interior]
    return h @ bundle.green @ h.T


def spectral_regularized_green(mesh: Mesh, eigenpairs: tuple[np.ndarray, np.ndarray],
                               kernel: KernelMatrix) -> np.ndarray:
    """Independent route to H G H': eigen-decomposition of the interior operator.

    eigenpairs is `np.linalg.eigh` of the interior block of `operators.assemble`;
    it does not depend on lam, so one decomposition serves every scale.  Sums
    (H psi)(H psi)' / eigenvalue over the full spectrum.
    """
    vals, vecs = eigenpairs
    hv = kernel.matrix[:, mesh.interior] @ vecs
    return (hv / vals) @ hv.T


def deformed_side_nodes(mesh: Mesh, cut: Cut, side: str, lam: float) -> np.ndarray:
    """Side interior nodes whose 1/lam ball cannot leave the side submanifold.

    These are the nodes whose ball (`meshes.in_ball`) holds no node of the
    other side, so the whole-mesh and restricted kernels agree row by row,
    and that are also clear of the side's own boundary, outer and interface
    (`meshes.clear_of`), so they survive the side's deformation too.  Read
    off the mesh and the cut alone.
    """
    interior = cut.side_interior(side)
    bdry = np.concatenate([cut.side_outer_boundary(side), cut.interface])
    outside = np.flatnonzero((cut.label != side) & (cut.label != CUT))
    rows = mesh.distance_matrix()[interior]
    deep = clear_of(rows[:, bdry].min(axis=1), lam)
    if outside.size:
        deep &= ~in_ball(rows[:, outside].min(axis=1), lam)
    return interior[deep].astype(int)


def verify_regularization(g_reg: np.ndarray, spectral: np.ndarray) -> Report:
    """Finiteness of the averaged diagonal and the two-route consistency
    check: g_reg by `regularized_green`, spectral by
    `spectral_regularized_green`, of the same kernel."""
    report = Report("regularization")
    diag = np.diag(g_reg)
    report.require("finite-diagonal", np.all(np.isfinite(diag)),
                   {"max_diag": float(diag.max())})
    report.compare("matrix-vs-spectral", g_reg, spectral, 1e-12)
    report.compare("symmetry", g_reg, g_reg.T, 1e-12)
    return report
