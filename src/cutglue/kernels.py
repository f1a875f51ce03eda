"""Quasi-local averaging kernels on meshes and regularized Green's matrices.

A kernel at scale lam is a row-stochastic matrix supported in geodesic balls
of radius 1/lam.  Applied on both legs of the Green's matrix it produces a
regularized propagator with a finite diagonal.  Once 1/lam drops below the
minimum edge length the kernel is the exact identity matrix and every
regularized quantity coincides bitwise with its unregularized original.
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


def shape_uniform(t: float) -> float:
    return 1.0


def shape_bump(t: float) -> float:
    return (1.0 - t * t) ** 2


def shape_triangle(t: float) -> float:
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

    def shape(t: float) -> float:
        return profile.density(t) if 0.0 < t <= profile.support else 0.0

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
    m = np.zeros((n, n))
    for p in range(n):
        inside = d[p] <= radius * (1.0 + _DIST_RTOL)
        w = np.zeros(n)
        for q in np.nonzero(inside)[0]:
            t = min(d[p, q] / radius, 1.0)
            w[q] = shape(t) * mesh.node_volumes[q]
        total = w.sum()
        if total <= 0.0:
            # degenerate row (shape vanishing on the whole ball): identity
            m[p, p] = 1.0
        else:
            m[p] = w / total
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
    m = np.array(kernel.matrix)
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
            raise KernelError(f"zero surviving row mass at node {p}")
        m[p, ~keep] = 0.0
        m[p, keep] /= mass
    return KernelMatrix(matrix=m, lam=kernel.lam)


def regularized_green(kernel_a: KernelMatrix, kernel_b: KernelMatrix,
                      green: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Averaged propagator between all node pairs: H_a G H_b' on interior legs.

    Boundary columns of the kernels meet the zero boundary values of the
    fluctuation field and drop out.
    """
    ha = kernel_a.matrix[:, interior]
    hb = kernel_b.matrix[:, interior]
    return ha @ green @ hb.T


def spectral_regularized_green(mesh: Mesh, eigenpairs: tuple[np.ndarray, np.ndarray],
                               kernel: KernelMatrix) -> np.ndarray:
    """Independent route to H G H': eigen-decomposition of the interior operator.

    eigenpairs is `np.linalg.eigh(interior_matrix)`; it does not depend on lam,
    so one decomposition serves every scale.  Sums (H psi)(H psi)' / eigenvalue
    over the full spectrum.
    """
    vals, vecs = eigenpairs
    interior = mesh.interior
    h = kernel.matrix[:, interior]
    hv = h @ vecs
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
    out = []
    for p in sb.interior:
        if outside.size and d[p, outside].min() <= radius * (1.0 + _DIST_RTOL):
            continue
        if d[p, bdry].min() < radius * (1.0 - _DIST_RTOL):
            continue
        out.append(int(p))
    return np.asarray(out, dtype=int)


@dataclass(frozen=True)
class SideKernels:
    """A kernel with each side's deformed nodes (deep) and their rows of the
    kernel restricted to that side (deep_rows).  See `gluing.side_kernels`."""

    kernel: KernelMatrix
    deep: dict
    deep_rows: dict


def _extended_side(sb: SideBundle):
    """Side Green and interface map over (side interior + interface) nodes.

    Interface nodes carry zero side Green and an identity interface map, so
    the gluing decomposition holds verbatim on the extended index set.
    """
    ids = np.concatenate([sb.interior, sb.sigma])
    ni, ns = sb.interior.size, sb.sigma.size
    green_ext = np.zeros((ni + ns, ni + ns))
    green_ext[:ni, :ni] = sb.green
    to_sigma = np.zeros((ni + ns, ns))
    to_sigma[:ni] = sb.poisson_sigma
    to_sigma[ni:] = np.eye(ns)
    return ids, green_ext, to_sigma


def verify_deformed_gluing(kernels: SideKernels, bundle: GreenBundle,
                           sides: dict, g_sigma: np.ndarray,
                           tolerance: float = 1e-10) -> Report:
    """Decomposition of the averaged propagator across a cut.

    For nodes deep inside each side the whole-mesh averaged propagator must
    split into the side-regularized propagator plus an interface round trip
    (same side), and into the pure interface round trip (across sides), all
    built from restricted kernels and side Green data only.
    """
    kernel, deep = kernels.kernel, kernels.deep
    g_reg = regularized_green(kernel, kernel, bundle.green, bundle.interior)

    report = Report("deformed-gluing")
    parts = {}
    for side, sb in sides.items():
        nodes, rows = deep[side], kernels.deep_rows[side]
        diff = np.abs(kernel.matrix[nodes] - rows).max() if nodes.size else 0.0
        report.add(Check(f"restricted-rows-match-{side}", float(diff), tolerance,
                         {"deep_nodes": nodes.size}))
        ids, green_ext, to_sigma = _extended_side(sb)
        h = rows.take(ids, axis=1)  # C order; rows[:, ids] would be F order
        parts[side] = (h @ green_ext @ h.T, h @ to_sigma)

    for side in (LEFT, RIGHT):
        nodes = deep[side]
        if nodes.size == 0:
            continue
        own, hsig = parts[side]
        whole = g_reg[np.ix_(nodes, nodes)]
        glued = own + hsig @ g_sigma @ hsig.T
        report.add(Check(f"same-side-{side}", float(np.abs(whole - glued).max()),
                         tolerance))
    if deep[LEFT].size and deep[RIGHT].size:
        whole = g_reg[np.ix_(deep[LEFT], deep[RIGHT])]
        glued = parts[LEFT][1] @ g_sigma @ parts[RIGHT][1].T
        report.add(Check("cross-side", float(np.abs(whole - glued).max()), tolerance))
    return report


def verify_regularization(bundle: GreenBundle, eigenpairs: tuple[np.ndarray, np.ndarray],
                          kernel: KernelMatrix, tolerance: float = 1e-12) -> Report:
    """Finiteness of the averaged diagonal and the two-route consistency check;
    eigenpairs must be those of the interior operator bundle inverts."""
    g_reg = regularized_green(kernel, kernel, bundle.green, bundle.interior)
    spectral = spectral_regularized_green(bundle.mesh, eigenpairs, kernel)
    report = Report("regularization")
    diag = np.diag(g_reg)
    report.add(Check("finite-diagonal",
                     0.0 if np.all(np.isfinite(diag)) else np.inf, 0.0,
                     {"max_diag": float(diag.max())}))
    report.add(Check("matrix-vs-spectral",
                     float(np.abs(g_reg - spectral).max()), tolerance))
    report.add(Check("symmetry", float(np.abs(g_reg - g_reg.T).max()), tolerance))
    return report
