"""Green's matrices, harmonic extensions, and boundary response operators.

Everything a boundary-value problem contributes to the gluing algebra lives
here: the Dirichlet Green's matrix (inverse interior operator), the Poisson
operator mapping boundary data to its harmonic extension, and the
boundary-to-boundary response (Dirichlet-to-Neumann) realized as a Schur
complement.  Normal-derivative kernels are never formed pointwise; every
boundary operator is a finite matrix obtained by block elimination, which
keeps all gluing identities exact up to rounding.  The whole mesh and each
side of a cut take their operator from the one assembly,
`operators.operator_matrix`, and eliminate it the same way.  `glued_green`
rebuilds the whole Green's matrix from side data alone; a run builds it once
and every gluing check reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshes import LEFT, RIGHT, Cut, Mesh
from .operators import OperatorSpec, assemble, operator_matrix
from .reports import Check, Report


class GreenError(ValueError):
    pass


def _inverse_spd(m: np.ndarray, what: str) -> np.ndarray:
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise GreenError(f"non-positive spectrum in {what}") from exc
    inv = np.linalg.inv(c)
    return inv.T @ inv


def _eliminate(a: np.ndarray, interior: np.ndarray, boundary: np.ndarray,
               what: str):
    """Block elimination of the interior unknowns of the operator `a`.

    Returns the Green's matrix G = inv(a_ii), the Poisson map -G a_ib and the
    Schur complement a_bb - a_ib' G a_ib onto the boundary, with i and b the
    node ids `interior` and `boundary`.  An empty interior leaves a_bb as it
    is.
    """
    a_ib = a[np.ix_(interior, boundary)]
    green = _inverse_spd(a[np.ix_(interior, interior)], what)
    return green, -green @ a_ib, a[np.ix_(boundary, boundary)] - a_ib.T @ green @ a_ib


def _block(matrix: np.ndarray, labels: np.ndarray, ids_a, ids_b) -> np.ndarray:
    """Block of a matrix whose rows and columns are labelled by node ids."""
    pos = {int(n): k for k, n in enumerate(labels)}
    return matrix[np.ix_([pos[int(n)] for n in ids_a], [pos[int(n)] for n in ids_b])]


@dataclass(frozen=True)
class GreenBundle:
    """Green's matrix, Poisson operator, and boundary response of one mesh.

    green   : (I, I) inverse of the interior operator.
    poisson : (I, B); interior values of the harmonic extension of eta are
              poisson @ eta.
    dtn     : (B, B) Schur complement of the full operator onto the boundary;
              the energy of the harmonic extension is eta' dtn eta / 2.
    """

    mesh: Mesh
    spec: OperatorSpec
    interior: np.ndarray
    boundary: np.ndarray
    green: np.ndarray
    poisson: np.ndarray
    dtn: np.ndarray

    def extend(self, eta: np.ndarray) -> np.ndarray:
        """Full-node harmonic extension field of boundary data eta."""
        field = np.zeros(self.mesh.n_nodes)
        field[self.boundary] = eta
        field[self.interior] = self.poisson @ eta
        return field

    def green_block(self, ids_a, ids_b) -> np.ndarray:
        """Green's matrix between interior node ids ids_a (rows) and ids_b."""
        return _block(self.green, self.interior, ids_a, ids_b)

    def dtn_block(self, ids_a, ids_b) -> np.ndarray:
        """Boundary response between boundary node ids ids_a (rows) and ids_b."""
        return _block(self.dtn, self.boundary, ids_a, ids_b)


def green_bundle(mesh: Mesh, spec: OperatorSpec) -> GreenBundle:
    interior, boundary = mesh.interior, mesh.boundary
    green, poisson, dtn = _eliminate(assemble(mesh, spec), interior, boundary,
                                     "interior operator")
    return GreenBundle(
        mesh=mesh,
        spec=spec,
        interior=interior,
        boundary=boundary,
        green=green,
        poisson=poisson,
        dtn=dtn,
    )


@dataclass(frozen=True)
class SideBundle:
    """Green data of one side of a cut, with the cut surface as boundary.

    The side boundary is ordered [outer..., sigma...]; `outer` includes the
    shared nodes sitting on the cut line.  The side operator is assembled
    like the whole one, from the mesh conductances scaled by the cut's edge
    attribution to this side; it carries the full mass term on the side
    interior, half of it on the interface and none on the outer boundary.
    Its interior and interior-to-surface blocks are therefore the whole
    operator's, and the two sides' interface responses add up exactly to the
    inverse interface Green's matrix of the whole mesh.
    """

    side: str
    interior: np.ndarray
    outer: np.ndarray
    sigma: np.ndarray
    green: np.ndarray
    poisson: np.ndarray
    dtn: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        """Every node of the side submesh: interior, outer boundary, interface."""
        return np.concatenate([self.interior, self.outer, self.sigma])

    @property
    def n_outer(self) -> int:
        return self.outer.size

    @property
    def poisson_sigma(self) -> np.ndarray:
        return self.poisson[:, self.n_outer:]

    @property
    def dtn_sigma(self) -> np.ndarray:
        """Interface response D(Sigma, side)."""
        k = self.n_outer
        return self.dtn[k:, k:]

    @property
    def dtn_outer(self) -> np.ndarray:
        k = self.n_outer
        return self.dtn[:k, :k]

    @property
    def dtn_cross(self) -> np.ndarray:
        """Outer-to-interface block (rows outer, columns sigma)."""
        k = self.n_outer
        return self.dtn[:k, k:]


def side_bundle(mesh: Mesh, spec: OperatorSpec, cut: Cut, side: str) -> SideBundle:
    interior = cut.side_interior(side)
    outer = cut.side_outer_boundary(side)
    sigma = cut.interface
    mass = np.zeros(mesh.n_nodes)
    mass[interior] = spec.mass_squared * mesh.node_volumes[interior]
    mass[sigma] = 0.5 * spec.mass_squared * mesh.node_volumes[sigma]
    a = operator_matrix(mesh, mesh.edge_weights * cut.edge_fraction(side), mass)
    green, poisson, dtn = _eliminate(a, interior, np.concatenate([outer, sigma]),
                                     f"{side} side operator")
    return SideBundle(
        side=side,
        interior=interior,
        outer=outer,
        sigma=sigma,
        green=green,
        poisson=poisson,
        dtn=dtn,
    )


def interface_green(left: SideBundle, right: SideBundle) -> np.ndarray:
    """Interface Green's matrix: inverse of the summed interface responses."""
    return _inverse_spd(left.dtn_sigma + right.dtn_sigma, "interface response sum")


def glued_green(sides: dict, g_sigma: np.ndarray, n_nodes: int):
    """Whole Green's matrix over every node, glued from side data alone.

    Each side's Green's matrix sits on its interior block, and the interface
    round trip to_sigma g_sigma to_sigma' is added everywhere.  to_sigma maps
    interface values to node values: each side's Poisson map onto Sigma on
    its interior rows, the identity on Sigma, zero on the outer boundary.
    Returns (glued, to_sigma); glued is zero outside the interior nodes.
    """
    to_sigma = np.zeros((n_nodes, g_sigma.shape[0]))
    for sb in sides.values():
        to_sigma[sb.interior] = sb.poisson_sigma
        to_sigma[sb.sigma] = np.eye(sb.sigma.size)
    glued = to_sigma @ g_sigma @ to_sigma.T
    for sb in sides.values():
        glued[np.ix_(sb.interior, sb.interior)] += sb.green
    return glued, to_sigma


def quadratic_form_S0(mesh: Mesh, spec: OperatorSpec, field: np.ndarray) -> float:
    """Discrete free action: edge-difference energy plus interior mass term."""
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    grad = 0.5 * np.sum(mesh.edge_weights * (field[i] - field[j]) ** 2)
    interior = mesh.interior
    mass = 0.5 * spec.mass_squared * np.sum(
        mesh.node_volumes[interior] * field[interior] ** 2
    )
    return float(grad + mass)


def cross_form(bundle: GreenBundle, ids_a: np.ndarray, eta_a: np.ndarray,
               ids_b: np.ndarray, eta_b: np.ndarray) -> float:
    """Boundary cross term between data on two disjoint boundary subsets.

    Defined so that the energy of a summed extension decomposes as
    S0[a+b] = S0[a] + S0[b] - cross_form(a, b).
    """
    if set(map(int, ids_a)) & set(map(int, ids_b)):
        raise GreenError("overlapping boundary subsets")
    block = bundle.dtn_block(ids_a, ids_b)
    return float(-eta_a @ block @ eta_b)


def verify_quadratic_decomposition(bundle: GreenBundle, cut: Cut,
                                   trials: int = 100, seed: int = 0) -> Report:
    """Check the additive split of the free action under background shifts.

    For random interior fields phi (zero on the boundary) and random boundary
    data split across the two outer parts, the free action of phi plus the
    harmonic extension must decompose into the separate energies minus the
    boundary cross term.
    """
    rng = np.random.default_rng(seed)
    mesh, spec = bundle.mesh, bundle.spec
    # the left part keeps the cut-line nodes, the right part the rest
    on_right = cut.label[bundle.boundary] == RIGHT
    loc_l, loc_r = np.nonzero(~on_right)[0], np.nonzero(on_right)[0]
    ids_l, ids_r = bundle.boundary[loc_l], bundle.boundary[loc_r]
    report = Report("quadratic-decomposition")
    scale = max(1.0, float(np.abs(bundle.green).max()))
    worst = 0.0
    for _ in range(trials):
        phi = np.zeros(mesh.n_nodes)
        phi[mesh.interior] = rng.standard_normal(mesh.interior.size)
        eta = rng.standard_normal(bundle.boundary.size)
        eta_l = np.zeros_like(eta)
        eta_r = np.zeros_like(eta)
        eta_l[loc_l] = eta[loc_l]
        eta_r[loc_r] = eta[loc_r]
        total = quadratic_form_S0(mesh, spec, phi + bundle.extend(eta))
        parts = (
            quadratic_form_S0(mesh, spec, phi)
            + quadratic_form_S0(mesh, spec, bundle.extend(eta_l))
            + quadratic_form_S0(mesh, spec, bundle.extend(eta_r))
            - cross_form(bundle, ids_l, eta_l[loc_l], ids_r, eta_r[loc_r])
        )
        worst = max(worst, abs(total - parts) / scale)
    report.add(Check("free-action-split", worst, 1e-12,
                     {"trials": trials, "mesh_nodes": mesh.n_nodes}))
    return report


def verify_green_gluing(bundle: GreenBundle, sides: dict, g_sigma: np.ndarray,
                        glued: np.ndarray) -> Report:
    """Entrywise check of the same-side and cross-side gluing relations.

    Each named block of the whole-mesh Green's matrix must equal the same
    block of glued, the matrix of `glued_green(sides, g_sigma, ...)`: the
    side Green's matrix plus the interface round
    trip on one side, the pure interface round trip across sides.  The
    interface Green's block is computed both as a block of the dense whole
    inverse and as the inverse summed side response g_sigma; their agreement
    is part of the report.
    """
    left, right = sides[LEFT], sides[RIGHT]
    interface = left.sigma  # the cut interface, shared by both sides
    report = Report("green-gluing")

    def residual(ids_a, ids_b) -> float:
        whole = bundle.green_block(ids_a, ids_b)
        return float(np.abs(whole - glued[np.ix_(ids_a, ids_b)]).max())

    block = bundle.green_block(interface, interface)
    report.add(Check("interface-green-two-paths",
                     float(np.abs(block - g_sigma).max()), 1e-10))
    report.add(Check("interface-response-inverse",
                     float(np.abs((left.dtn_sigma + right.dtn_sigma) @ block
                                  - np.eye(block.shape[0])).max()),
                     1e-10))

    for sb in (left, right):
        if sb.interior.size == 0:
            continue
        report.add(Check(f"same-side-{sb.side}",
                         residual(sb.interior, sb.interior), 1e-10))
        report.add(Check(f"side-to-interface-{sb.side}",
                         residual(sb.interior, interface), 1e-10))
    if left.interior.size and right.interior.size:
        report.add(Check("cross-side", residual(left.interior, right.interior),
                         1e-10))
    return report


def verify_dtn_difference(bundle: GreenBundle, sb: SideBundle) -> Report:
    """Difference between whole-mesh and one-side outer boundary responses.

    The difference matrix is regular (finite entrywise); the report carries
    its max norm so refinement sweeps can confirm it stays bounded.
    """
    whole_block = bundle.dtn_block(sb.outer, sb.outer)
    diff = whole_block - sb.dtn_outer
    norm = float(np.abs(diff).max()) if diff.size else 0.0
    report = Report("outer-response-difference")
    report.add(Check(f"finite-difference-{sb.side}", 0.0 if np.isfinite(norm) else np.inf,
                     0.0, {"max_entry": norm, "outer_nodes": sb.outer.size}))
    return report
