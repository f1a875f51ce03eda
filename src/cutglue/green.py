"""Green's matrices, harmonic extensions, and boundary response operators.

Everything a boundary-value problem contributes to the gluing algebra lives
here: the Dirichlet Green's matrix (inverse interior operator), the Poisson
operator mapping boundary data to its harmonic extension, and the
boundary-to-boundary response (Dirichlet-to-Neumann) realized as a Schur
complement.  Normal-derivative kernels are never formed pointwise; every
boundary operator is a finite matrix obtained by block elimination, which
keeps all gluing identities exact up to rounding.  The whole mesh and each
side of a cut are one kind of object, a `GreenBundle`: the Dirichlet problem
of an operator from the one assembly, `operators.operator_matrix`, whose
boundary is its outer part followed by the cut interface.  The whole mesh is
the problem with an empty interface.  Building one is the spectrum check:
it refuses an operator not positive definite or too ill-conditioned for
float64.  Every Dirichlet Green's matrix, the interface one included, is
inv(L)' inv(L) from the Cholesky factor L, inverted in place as 2x2 blocks
down to leaves of at most `INVERSE_LEAF` rows, so no N x N LU is run.
`glued_product` multiplies by the whole Green's matrix glued from side
data alone, by row blocks, and never forms that matrix.
Every matrix made here is read-only, since a run shares each one among its
checks.  The harmonic extension and the cross form read boundary
data from node fields.  The free action, the cross form and the harmonic
extension take a leading batch axis, one row per trial, so the TRIALS
seeded trials of `verify_quadratic_decomposition` are one array program;
their draws come from the standard library's `random`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .meshes import RIGHT, Cut, Mesh
from .operators import OperatorSpec, assemble, operator_matrix
from .reports import Report, gap


#: seeded trials of `verify_quadratic_decomposition`
TRIALS = 120
#: rows at and below which `_invert_lower` calls `np.linalg.inv`
INVERSE_LEAF = 64
#: rows of `a` per block of `glued_product`
GLUED_ROWS = 128


class GreenError(ValueError):
    pass


def _read_only(*arrays):
    """The arrays, read-only: an in-place write raises, not corrupts a reader."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _invert_lower(low: np.ndarray) -> None:
    """Invert the lower triangular matrix `low` in place, by 2x2 blocks: for
    L = [[A, 0], [C, D]], split at n // 2, the inverse is
    [[inv(A), 0], [-inv(D) (C inv(A)), inv(D)]], with A and D inverted the
    same way in their own blocks.  (C inv(A))' is formed in the zero
    upper-right block and cleared from it, so no level allocates a block.
    Only blocks of at most INVERSE_LEAF rows reach `np.linalg.inv`, whose
    pivoted LU can leave a rounding residue above the diagonal; it is
    dropped, so the strict upper triangle stays exactly zero."""
    n = low.shape[0]
    if n <= INVERSE_LEAF:
        low[...] = np.tril(np.linalg.inv(low))
        return
    h = n // 2
    _invert_lower(low[:h, :h])
    _invert_lower(low[h:, h:])
    upper, lower = low[:h, h:], low[h:, :h]
    np.matmul(low[:h, :h].T, lower.T, out=upper)
    np.matmul(low[h:, h:], upper.T, out=lower)
    np.negative(lower, out=lower)
    upper[...] = 0.0


def _inverse_spd(m: np.ndarray, what: str) -> np.ndarray:
    """Inverse G = inv(L)' inv(L) from the Cholesky factor m = L L'.

    The factor is the one refusal of an operator that is not positive
    definite, whose error alone computes its smallest eigenvalue (on a
    singular operator, a rounding residue of either sign).  inv(L) is the
    recursive block inverse `_invert_lower`, written over the factor: an
    N x N `np.linalg.inv` runs an LU with pivoting on the triangular factor,
    about six times the flops of a triangular inverse, and holds three more
    N x N LAPACK buffers while it runs.  A block of at most INVERSE_LEAF
    rows is inverted by one `np.linalg.inv`: leaves of 16 to 128 rows invert
    a 401- or 1601-row factor in about the same time (within 15%), as
    smaller leaves add Python calls and larger ones LU flops.  An operator
    with at most INVERSE_LEAF interior nodes is thus one leaf.
    """
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        lam = float(np.linalg.eigvalsh(m)[0])
        head = (f"non-positive spectrum in {what}" if lam <= 0.0
                else f"{what} is not positive definite to rounding")
        raise GreenError(f"{head}: smallest eigenvalue {lam:g}") from None
    _invert_lower(c)
    return _read_only(c.T @ c)[0]


CONDITION_LIMIT = 1.0 / np.finfo(float).eps  # about 4.5e15


def _block(matrix: np.ndarray, labels: np.ndarray, ids_a, ids_b) -> np.ndarray:
    """Block of a matrix whose rows and columns are labelled by node ids."""
    pos = {int(n): k for k, n in enumerate(labels)}
    return matrix[np.ix_([pos[int(n)] for n in ids_a], [pos[int(n)] for n in ids_b])]


@dataclass(frozen=True)
class GreenBundle:
    """Dirichlet problem of the free operator: the whole mesh, or one side
    of a cut, whose boundary holds the interface.

    The boundary is ordered [outer..., sigma...]: outer is the mesh boundary
    the problem sees and sigma the interface, empty for the whole mesh.
    green   : (I, I) inverse of the interior operator.
    poisson : (I, B); interior values of the harmonic extension of boundary
              values eta, ordered like the boundary, are poisson @ eta.
    dtn     : (B, B) Schur complement of the operator onto the boundary;
              the energy of the harmonic extension is eta' dtn eta / 2.
    """

    mesh: Mesh
    spec: OperatorSpec
    interior: np.ndarray
    outer: np.ndarray
    sigma: np.ndarray
    green: np.ndarray
    poisson: np.ndarray
    dtn: np.ndarray

    @property
    def boundary(self) -> np.ndarray:
        return np.concatenate([self.outer, self.sigma])

    @property
    def nodes(self) -> np.ndarray:
        """Every node of the problem: interior, outer boundary, interface."""
        return np.concatenate([self.interior, self.outer, self.sigma])

    def extend(self, field: np.ndarray) -> np.ndarray:
        """Harmonic extension of a node field's boundary values, (N,) or one
        row per trial, (T, N): a copy whose interior nodes hold poisson @
        field[..., boundary]; every other node keeps the field's value."""
        out = np.array(field, dtype=float)
        # node-major operands: one field runs the unbatched operations
        out.T[self.interior] = self.poisson @ field[..., self.boundary].T
        return out

    def green_block(self, ids_a, ids_b) -> np.ndarray:
        """Green's matrix between interior node ids ids_a (rows) and ids_b."""
        return _block(self.green, self.interior, ids_a, ids_b)

    def dtn_block(self, ids_a, ids_b) -> np.ndarray:
        """Boundary response between boundary node ids ids_a (rows) and ids_b."""
        return _block(self.dtn, self.boundary, ids_a, ids_b)

    @property
    def poisson_sigma(self) -> np.ndarray:
        return self.poisson[:, self.outer.size:]

    @property
    def dtn_sigma(self) -> np.ndarray:
        """Interface response D(Sigma, side)."""
        k = self.outer.size
        return self.dtn[k:, k:]

    @property
    def dtn_outer(self) -> np.ndarray:
        k = self.outer.size
        return self.dtn[:k, :k]

    @property
    def dtn_cross(self) -> np.ndarray:
        """Outer-to-interface block (rows outer, columns sigma)."""
        k = self.outer.size
        return self.dtn[:k, k:]


def _dirichlet(mesh: Mesh, spec: OperatorSpec, a: np.ndarray, interior: np.ndarray,
               outer: np.ndarray, sigma: np.ndarray, what: str) -> GreenBundle:
    """Block elimination of the interior unknowns of the operator `a`.

    Green's matrix G = inv(a_ii), Poisson map -G a_ib and Schur complement
    a_bb - a_ib' G a_ib onto the boundary, with i the node ids `interior`
    and b those of outer then sigma.  An empty interior leaves a_bb as it is.

    The condition number of a_ii is at least max diag(a_ii) max diag(G), as
    a diagonal entry is at most the largest eigenvalue; from CONDITION_LIMIT
    on, float64 cannot resolve a_ii and it is refused.  A side passes if its
    whole mesh did: its a_ii is a principal submatrix of the whole one and
    its G at most the whole G's block.  The interface response sum gets none.
    """
    boundary = np.concatenate([outer, sigma])
    a_ib = a[np.ix_(interior, boundary)]
    a_ii = a[np.ix_(interior, interior)]
    green = _inverse_spd(a_ii, what)
    # Python floats overflow to inf with no warning
    kappa = float(a_ii.diagonal().max(initial=0)) * float(green.diagonal().max(initial=0))
    if not kappa < CONDITION_LIMIT:
        raise GreenError(f"{what} is too ill-conditioned for float64: "
                         f"condition number at least {kappa:g}")
    poisson, dtn = _read_only(-green @ a_ib,
                              a[np.ix_(boundary, boundary)] - a_ib.T @ green @ a_ib)
    return GreenBundle(mesh, spec, interior, outer, sigma, green, poisson, dtn)


def green_bundle(mesh: Mesh, spec: OperatorSpec) -> GreenBundle:
    """The whole mesh: the Dirichlet problem with an empty interface."""
    return _dirichlet(mesh, spec, assemble(mesh, spec), mesh.interior, mesh.boundary,
                      np.empty(0, dtype=int), "interior operator")


def side_bundle(mesh: Mesh, spec: OperatorSpec, cut: Cut, side: str) -> GreenBundle:
    """One side of the cut, with the interface as part of its boundary.

    Its outer boundary includes the shared nodes sitting on the cut line.
    The side operator is assembled like the whole one, from the mesh
    conductances scaled by the cut's edge attribution to this side; it
    carries the full mass term on the side interior, half of it on the
    interface and none on the outer boundary.  Its interior and
    interior-to-surface blocks are therefore the whole operator's, and the
    two sides' interface responses add up exactly to the inverse interface
    Green's matrix of the whole mesh.
    """
    interior, sigma = cut.side_interior(side), cut.interface
    mass = np.zeros(mesh.n_nodes)
    mass[interior] = spec.mass_squared * mesh.node_volumes[interior]
    mass[sigma] = 0.5 * spec.mass_squared * mesh.node_volumes[sigma]
    a = operator_matrix(mesh, mesh.edge_weights * cut.edge_fraction(side), mass)
    return _dirichlet(mesh, spec, a, interior, cut.side_outer_boundary(side), sigma,
                      f"{side} side operator")


def interface_green(left: GreenBundle, right: GreenBundle) -> np.ndarray:
    """Interface Green's matrix: inverse of the summed interface responses."""
    return _inverse_spd(left.dtn_sigma + right.dtn_sigma, "interface response sum")


def interface_map(sides: dict, n_nodes: int) -> np.ndarray:
    """to_sigma, (N, |Sigma|): maps interface values to node values, as each
    side's Poisson map onto Sigma on its interior rows, the identity on
    Sigma and zero on the outer boundary."""
    sigma = next(iter(sides.values())).sigma  # the cut interface, shared by both sides
    to_sigma = np.zeros((n_nodes, sigma.size))
    for sb in sides.values():
        to_sigma[sb.interior] = sb.poisson_sigma
    to_sigma[sigma] = np.eye(sigma.size)
    return _read_only(to_sigma)[0]


def glued_product(a: np.ndarray, b: np.ndarray, sides: dict, g_sigma: np.ndarray,
                  to_sigma: np.ndarray) -> np.ndarray:
    """a G b' for the whole Green's matrix G over every node, glued from side
    data alone and never formed: G is the interface round trip
    to_sigma g_sigma to_sigma' plus each side's Green's matrix on its
    interior block, and zero outside the interior nodes.  a is (m, N) and
    b (p, N).  The (m, p) result is filled GLUED_ROWS rows of a at a time,
    through those rows of a G, so the temporaries are about 2.5
    (GLUED_ROWS, N) arrays and the one N x N array is the result.  Blocks of
    128 rows hold 0.8 N^2 of temporaries at N = 403 and fill H G H' there
    in 3-4 ms, against 5 ms for the two N x N products H (G H'); at
    N = 1601 they hold 0.2 N^2 and take about as long as those products
    (0.19-0.22 s against 0.19 s).  64-row blocks are slower at both sizes.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], GLUED_ROWS):
        rows = a[start:start + GLUED_ROWS]
        # (rows G)', node-major: a side adds whole rows, which numpy
        # scatters several times faster than columns
        block = to_sigma @ (rows @ to_sigma @ g_sigma).T
        for sb in sides.values():
            block[sb.interior] += sb.green.T @ rows.T[sb.interior]
        np.matmul(block.T, b.T, out=out[start:start + GLUED_ROWS])
    return out


def quadratic_form_S0(mesh: Mesh, spec: OperatorSpec, field: np.ndarray):
    """Discrete free action: edge-difference energy plus interior mass term.

    A field of shape (N,) gives a float; (T, N) gives one action per row.
    """
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    grad = 0.5 * np.sum(mesh.edge_weights * (field[..., i] - field[..., j]) ** 2, axis=-1)
    interior = mesh.interior
    mass = 0.5 * spec.mass_squared * np.sum(
        mesh.node_volumes[interior] * field[..., interior] ** 2, axis=-1
    )
    return _scalar_or_rows(grad + mass)


def cross_form(bundle: GreenBundle, ids_a: np.ndarray, ids_b: np.ndarray,
               field: np.ndarray):
    """Boundary cross term between the parts of one node field on two
    disjoint boundary subsets, the node ids ids_a and ids_b.

    Defined so that the energy of a summed extension decomposes as
    S0[a+b] = S0[a] + S0[b] - cross_form(a, b).  A field of shape (N,)
    gives a float; (T, N) gives one term per row.
    """
    if set(map(int, ids_a)) & set(map(int, ids_b)):
        raise GreenError("overlapping boundary subsets")
    block = bundle.dtn_block(ids_a, ids_b)
    # a row-wise dot product: each row is the vector dot of one unbatched call
    dots = (field[..., ids_a] @ block)[..., None, :] @ field[..., ids_b, None]
    return _scalar_or_rows(-dots[..., 0, 0])


def _scalar_or_rows(values):
    """A float for an unbatched value, else the array of one value per row."""
    return float(values) if np.ndim(values) == 0 else values


def _uniform_draws(seed: int, shape: tuple) -> np.ndarray:
    """Values uniform on [-1, 1) from the stdlib generator `random.Random(seed)`.

    Each value is the top 53 bits of one little-endian 64-bit word of
    randbytes, so the draws depend on the seed alone, on any platform.
    """
    size = math.prod(shape)
    words = np.frombuffer(random.Random(seed).randbytes(8 * size), "<u8")
    return ((words >> 11) * 2.0 ** -52 - 1.0).reshape(shape)


def verify_quadratic_decomposition(bundle: GreenBundle, cut: Cut,
                                   seed: int = 0) -> Report:
    """Check the additive split of the free action under background shifts.

    For random interior fields phi (zero on the boundary) and random boundary
    data split across the two outer parts, the free action of phi plus the
    harmonic extension must decompose into the separate energies minus the
    boundary cross term.  Each of the TRIALS trials is one row of a
    (TRIALS, nodes) array, drawn uniform on [-1, 1) from the nonnegative
    seed; the details name the seed and the trial with the largest residual.
    """
    if seed < 0:
        raise GreenError(f"need seed >= 0, got {seed}")
    mesh, spec, boundary = bundle.mesh, bundle.spec, bundle.boundary
    n_in = mesh.interior.size
    draws = _uniform_draws(seed, (TRIALS, n_in + boundary.size))
    phi, eta = np.zeros((2, TRIALS, mesh.n_nodes))
    phi[:, mesh.interior] = draws[:, :n_in]
    eta[:, boundary] = draws[:, n_in:]
    # the left part keeps the cut-line nodes, the right part the rest
    right = cut.label == RIGHT
    eta_l, eta_r = np.where(right, 0.0, eta), np.where(right, eta, 0.0)
    total = quadratic_form_S0(mesh, spec, phi + bundle.extend(eta))
    parts = (
        quadratic_form_S0(mesh, spec, phi)
        + quadratic_form_S0(mesh, spec, bundle.extend(eta_l))
        + quadratic_form_S0(mesh, spec, bundle.extend(eta_r))
        - cross_form(bundle, boundary[~right[boundary]], boundary[right[boundary]], eta)
    )
    scale = max(1.0, float(np.abs(bundle.green).max()))
    errors = (total - parts) / scale
    report = Report("quadratic-decomposition")
    # argmax names the first NaN trial, whose NaN the residual reports
    report.compare("free-action-split", errors, 0.0, 1e-12,
                   {"trials": TRIALS, "mesh_nodes": mesh.n_nodes, "seed": seed,
                    "worst_trial": int(np.argmax(np.abs(errors)))})
    return report


def verify_green_gluing(bundle: GreenBundle, sides: dict, g_sigma: np.ndarray) -> Report:
    """Entrywise check of the same-side and cross-side gluing relations.

    Each named block of the whole-mesh Green's matrix must equal the same
    block glued from side data, with P_s a side's Poisson map onto the
    interface: G_s + P_s g_sigma P_s' on one side, P_s g_sigma from a side
    to the interface and P_L g_sigma P_R' across sides.  The interface
    Green's block is computed both as a block of the dense whole inverse and
    as the inverse summed side response g_sigma; their agreement is part of
    the report.  Per-side checks are named after the keys of sides.
    """
    left, right = sides.values()
    interface = left.sigma  # the cut interface, shared by both sides
    report = Report("green-gluing")
    block = bundle.green_block(interface, interface)
    report.compare("interface-green-two-paths", block, g_sigma, 1e-10)
    report.compare("interface-response-inverse",
                   (left.dtn_sigma + right.dtn_sigma) @ block,
                   np.eye(block.shape[0]), 1e-10)

    blocks = []
    for side, sb in sides.items():
        if sb.interior.size:
            to_interface = sb.poisson_sigma @ g_sigma
            blocks += [(f"same-side-{side}", sb.interior, sb.interior,
                        sb.green + to_interface @ sb.poisson_sigma.T),
                       (f"side-to-interface-{side}", sb.interior, interface,
                        to_interface)]
    if left.interior.size and right.interior.size:
        blocks.append(("cross-side", left.interior, right.interior,
                       left.poisson_sigma @ g_sigma @ right.poisson_sigma.T))
    for name, ids_a, ids_b, glued in blocks:
        report.compare(name, bundle.green_block(ids_a, ids_b), glued, 1e-10)
    return report


def verify_dtn_difference(bundle: GreenBundle, sb: GreenBundle, side: str) -> Report:
    """Difference between whole-mesh and one-side outer boundary responses;
    the check is named after side.

    The difference matrix is regular (finite entrywise); the report carries
    its max norm so refinement sweeps can confirm it stays bounded.
    """
    norm = gap(bundle.dtn_block(sb.outer, sb.outer), sb.dtn_outer)
    report = Report("outer-response-difference")
    report.require(f"finite-difference-{side}", np.isfinite(norm),
                   {"max_entry": norm, "outer_nodes": sb.outer.size})
    return report
