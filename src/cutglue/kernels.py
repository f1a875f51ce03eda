"""Quasi-local averaging kernels on meshes and regularized Green's matrices.

A kernel at scale lam is a row-stochastic matrix supported in geodesic balls
of radius 1/lam.  Applied on both legs of the Green's matrix it produces a
regularized propagator with a finite diagonal.  Once 1/lam drops below the
minimum edge length the kernel is the exact identity matrix and every
regularized quantity coincides bitwise with its unregularized original.

A kernel shape maps an array of scaled distances t = d lam in [0, 1] to an
array of nonnegative weights; each kernel is built from one shape call over
every node pair inside the balls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .euclidean import RadialProfile
from .green import GreenBundle, SideBundle
from .meshes import LEFT, RIGHT, _DIST_RTOL, Cut, Mesh, lambda_one
from .reports import Check, Report


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


def shape_from_profile(profile: RadialProfile):
    """Discrete shape taken from a composed continuum radius distribution."""
    if profile.density is None:
        raise KernelError("composed shape needs a continuous radius density")

    def shape(t: np.ndarray) -> np.ndarray:
        out = np.zeros_like(t)
        live = (t > 0.0) & (t <= profile.support)
        out[live] = profile.density(t[live])
        return out

    return shape


def resolve_shape(name_or_fn):
    if callable(name_or_fn):
        return name_or_fn
    try:
        return SHAPES[name_or_fn]
    except KeyError:
        raise KernelError(f"unknown kernel shape {name_or_fn!r}") from None


@dataclass(frozen=True)
class KernelMatrix:
    """Row-stochastic averaging matrix with geodesic-ball support."""

    matrix: np.ndarray
    lam: float

    @property
    def support_radius(self) -> float:
        return 1.0 / self.lam

    def __post_init__(self):
        m = self.matrix
        if np.any(m < 0):
            raise KernelError("negative kernel entries")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-12:
            raise KernelError("kernel rows must sum to 1")

    @property
    def is_identity(self) -> bool:
        n = self.matrix.shape[0]
        return bool(np.array_equal(self.matrix, np.eye(n)))


def build_mesh_kernel(mesh: Mesh, lam: float, shape="uniform",
                      cut: Cut | None = None) -> KernelMatrix:
    """Averaging kernel at scale lam: weight(p,q) = shape(d(p,q) lam) vol(q).

    Rows are normalized to 1 over the geodesic ball of radius 1/lam; balls
    truncated by the mesh edge are simply renormalized.  When a cut is given
    lam must exceed the cut's admissibility scale.  A ball smaller than the
    shortest edge yields the exact identity matrix.
    """
    if lam <= 0:
        raise KernelError("lam must be positive")
    if cut is not None and lam <= lambda_one(mesh, cut):
        raise KernelError("lam below lambda_1")
    shape = resolve_shape(shape)
    radius = 1.0 / lam
    n = mesh.n_nodes
    if radius < float(mesh.edge_lengths.min()) * (1.0 - _DIST_RTOL):
        return KernelMatrix(matrix=np.eye(n), lam=lam)
    d = mesh.distance_matrix()
    rows, cols = np.nonzero(d <= radius * (1.0 + _DIST_RTOL))
    w = np.zeros((n, n))
    w[rows, cols] = (shape(np.minimum(d[rows, cols] / radius, 1.0))
                     * mesh.node_volumes[cols])
    total = w.sum(axis=1)
    live = total > 0.0
    # degenerate rows (shape vanishing on the whole ball) stay identity rows
    m = np.eye(n)
    m[live] = w[live] / total[live, None]
    return KernelMatrix(matrix=m, lam=lam)


def restrict_kernel_to_submesh(kernel: KernelMatrix, keep_nodes) -> KernelMatrix:
    """Renormalize rows over the columns surviving in a submesh.

    Rows of nodes in the submesh lose their outside columns and are rescaled
    to unit sum; rows fully supported inside come through unchanged.  Rows of
    nodes outside the submesh are replaced by identity rows (they carry no
    meaning for the submesh problem).
    """
    keep = np.zeros(kernel.matrix.shape[0], dtype=bool)
    keep[np.asarray(list(keep_nodes), dtype=int)] = True
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    m = np.array(kernel.matrix)
    # take() keeps each row's gathered columns contiguous, so every row mass
    # is summed in the same order as the row on its own
    mass = m.take(kept, axis=1).sum(axis=1)
    leaks = np.flatnonzero(keep & m[:, dropped].any(axis=1))
    empty = leaks[mass[leaks] <= 0.0]
    if empty.size:
        raise KernelError(f"zero surviving row mass at node {empty[0]}")
    m[np.ix_(leaks, dropped)] = 0.0
    m[np.ix_(leaks, kept)] /= mass[leaks, None]
    m[dropped] = 0.0
    m[dropped, dropped] = 1.0
    return KernelMatrix(matrix=m, lam=kernel.lam)


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


def deformed_side_nodes(mesh: Mesh, sb: SideBundle, lam: float) -> np.ndarray:
    """Side interior nodes whose 1/lam ball cannot leave the side submanifold.

    These are the nodes where the whole-mesh and restricted kernels agree row
    by row, and additionally at distance >= 1/lam from the side's own
    boundary (so they survive the side's deformation too).
    """
    outside = np.setdiff1d(np.arange(mesh.n_nodes), sb.nodes)
    radius = 1.0 / lam
    d = mesh.distance_matrix()
    bdry = np.concatenate([sb.outer, sb.sigma])
    rows = d[sb.interior]
    deep = rows[:, bdry].min(axis=1) >= radius * (1.0 - _DIST_RTOL)
    if outside.size:
        deep &= rows[:, outside].min(axis=1) > radius * (1.0 + _DIST_RTOL)
    return sb.interior[deep].astype(int)


@dataclass(frozen=True)
class SideKernels:
    """A kernel with each side's deformed nodes (deep) and their rows of the
    kernel restricted to that side (deep_rows).  See `gluing.side_kernels`."""

    kernel: KernelMatrix
    deep: dict
    deep_rows: dict


def verify_deformed_gluing(kernels: SideKernels, g_reg: np.ndarray,
                           glued: np.ndarray) -> Report:
    """Decomposition of the averaged propagator across a cut.

    For nodes deep inside each side the whole-mesh averaged propagator g_reg
    must equal the glued Green's matrix (`green.glued_green`) averaged with
    each side's restricted kernel rows: the side-regularized propagator plus
    an interface round trip on one side, the pure interface round trip
    across sides, all built from restricted kernels and side Green data only.
    """
    kernel, deep, rows = kernels.kernel, kernels.deep, kernels.deep_rows

    report = Report("deformed-gluing")
    for side in deep:
        nodes = deep[side]
        diff = np.abs(kernel.matrix[nodes] - rows[side]).max() if nodes.size else 0.0
        report.add(Check(f"restricted-rows-match-{side}", float(diff), 1e-10,
                         {"deep_nodes": nodes.size}))
    for a, b, name in ((LEFT, LEFT, f"same-side-{LEFT}"),
                       (RIGHT, RIGHT, f"same-side-{RIGHT}"),
                       (LEFT, RIGHT, "cross-side")):
        if deep[a].size == 0 or deep[b].size == 0:
            continue
        whole = g_reg[np.ix_(deep[a], deep[b])]
        averaged = rows[a] @ glued @ rows[b].T
        report.add(Check(name, float(np.abs(whole - averaged).max()), 1e-10))
    return report


def verify_regularization(g_reg: np.ndarray, spectral: np.ndarray) -> Report:
    """Finiteness of the averaged diagonal and the two-route consistency
    check: g_reg by `regularized_green`, spectral by
    `spectral_regularized_green`, of the same kernel."""
    report = Report("regularization")
    diag = np.diag(g_reg)
    report.add(Check("finite-diagonal",
                     0.0 if np.all(np.isfinite(diag)) else np.inf, 0.0,
                     {"max_diag": float(diag.max())}))
    report.add(Check("matrix-vs-spectral",
                     float(np.abs(g_reg - spectral).max()), 1e-12))
    report.add(Check("symmetry", float(np.abs(g_reg - g_reg.T).max()), 1e-12))
    return report
