"""Gluing two regularized partition functions over interface data.

The glued object integrates the product of the two side partition functions
against a Gaussian in the interface values, with covariance equal to the
interface block of the whole Green's matrix.  Here that integral is evaluated
exactly: the three independent Gaussian fields (two side fluctuations and
the interface variable) add up to one node-level field whose covariance is
the whole Green's matrix glued from side quantities; `green.glued_product`
averages it with the kernel without forming it, and the moment engine of
the perturbation module does the rest.  The whole-manifold route
(`averaged_gaussian`, from the whole mesh's Green bundle) sits beside the
glued one (`glued_gaussian`); agreement of the two series is then a matter
of exact linear algebra, order by order.  The boundary data eta is one node
field, zero off the boundary; `GreenBundle.extend` alone extends it, into
the whole mesh on the whole route and into each side on the glued one.

Green data is built once per cut (`GluingContext`), kernels, deformed nodes
and Gaussian data once per scale (`ScaleData`); each builds a field on first
read, and vertex regions are index subsets of it; `ScaleData` alone admits a
scale.  Both routes average with the scale's kernel; only
`verify_deformed_gluing` restricts it to a side.  A run is lambda-major:
each check of a scale reads one copy of the config's `ScaleData`, sharing the
deep sets read at load, and it is dropped before the next is made.  The glued
assemblies and the coupling redefinitions share one covariance.  The glued
and whole series on the union region are computed once per scale and
couplings; the widening evaluates all its regions of one scale in a single
engine pass per Gaussian (glued and whole).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .green import (GreenBundle, _read_only, glued_product, green_bundle,
                    interface_green, interface_map, quadratic_form_S0,
                    side_bundle)
from .kernels import (KernelMatrix, build_mesh_kernel, deformed_side_nodes,
                      regularized_green, restrict_kernel_to_submesh)
from .meshes import LEFT, RIGHT, Cut, Mesh, lambda_one
from .operators import OperatorSpec, assemble
from .perturbation import InteractionSpec, NodeGaussian
from .reports import Report
from .series import PerturbationSeries


class GluingError(ValueError):
    pass


@dataclass(frozen=True)
class GluingContext:
    """Green data of one (mesh, operator, cut), read-only, each field built on
    first read: lambda_one, the cut's `meshes.lambda_one`, read once for
    every scale; whole and side Green bundles, the interface Green's matrix
    g_sigma, the interface map to_sigma (`green.interface_map`) and interior
    eigenpairs."""

    mesh: Mesh
    operator: OperatorSpec
    cut: Cut

    @cached_property
    def lambda_one(self) -> float:
        return lambda_one(self.mesh, self.cut)

    @cached_property
    def bundle(self) -> GreenBundle:
        return green_bundle(self.mesh, self.operator)

    @cached_property
    def sides(self) -> dict:
        return {s: side_bundle(self.mesh, self.operator, self.cut, s) for s in (LEFT, RIGHT)}

    @cached_property
    def g_sigma(self) -> np.ndarray:
        return interface_green(self.sides[LEFT], self.sides[RIGHT])

    @cached_property
    def to_sigma(self) -> np.ndarray:
        return interface_map(self.sides, self.mesh.n_nodes)

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """`np.linalg.eigh` of the interior operator."""
        interior = self.mesh.interior
        return _read_only(*np.linalg.eigh(
            assemble(self.mesh, self.operator)[np.ix_(interior, interior)]))


def _node_mask(n: int, *parts) -> np.ndarray:
    """Boolean mask over n nodes, true on every node id in the parts."""
    mask = np.zeros(n, dtype=bool)
    for part in parts:
        mask[part] = True
    return mask


@dataclass(frozen=True)
class ScaleData:
    """One gluing experiment at one scale, and what every check of it reads.

    eta is the Dirichlet data: a node field, zero off mesh.boundary (zeros
    if not given), stored as a read-only copy; each side reads its own outer
    part, with cut-line nodes shared.  It alone admits a scale: lam must
    exceed the cut's lambda_1, and some side node must be 1/lam or more from
    its side's boundary, so that region is not empty; building one reads deep
    and region.  deep is each side's deformed nodes, read off the cut, and
    region their union (both read-only: copies share them).  The rest is
    built on first read, its arrays read-only too: kernel, at lam; trimmed,
    where widening ends; glued and whole, node-level Gaussian data that
    vertex regions index into, both averaged by the kernel (whole.cov is
    H G H'); base, their series on the region.
    """

    context: GluingContext
    interaction: InteractionSpec
    lam: float
    shape: object = "uniform"
    eta: np.ndarray | None = None
    max_order: float = 1.5

    def __post_init__(self):
        mesh, lam1 = self.context.mesh, self.context.lambda_one
        if self.lam <= lam1:
            raise GluingError(f"lam below lambda_1: {self.lam} <= {lam1}")
        eta = np.zeros(mesh.n_nodes) if self.eta is None else np.array(self.eta, float)
        if eta.shape != (mesh.n_nodes,):
            raise GluingError(f"eta must be a node field of shape ({mesh.n_nodes},), "
                              f"got {eta.shape}")
        if np.any(eta[mesh.interior] != 0.0):
            raise GluingError("eta must be zero off the boundary, interface included")
        object.__setattr__(self, "eta", _read_only(eta)[0])
        # with no deep node to put vertices on, every check compares 0 with 0
        if not self.region.size:
            raise GluingError(f"empty vertex region at lam {self.lam}: no side "
                              f"node is 1/lam or more from its side's boundary")

    @cached_property
    def kernel(self) -> KernelMatrix:
        return build_mesh_kernel(self.context.mesh, self.lam, self.shape)

    @cached_property
    def deep(self) -> dict:
        mesh, cut = self.context.mesh, self.context.cut
        return {s: _read_only(deformed_side_nodes(mesh, cut, s, self.lam))[0]
                for s in (LEFT, RIGHT)}

    @cached_property
    def region(self) -> np.ndarray:
        return _read_only(np.flatnonzero(
            _node_mask(self.context.mesh.n_nodes, *self.deep.values())))[0]

    @cached_property
    def trimmed(self) -> np.ndarray:
        return _read_only(self.context.mesh.trim_to_deformed(self.lam))[0]

    @cached_property
    def glued(self) -> NodeGaussian:
        return glued_gaussian(self)

    @cached_property
    def whole(self) -> NodeGaussian:
        return averaged_gaussian(self.kernel, self.eta, self.context.bundle)

    @cached_property
    def base(self) -> list[PerturbationSeries]:
        return [_series(self, g, [self.region])[0] for g in (self.glued, self.whole)]

    def redefined(self, mapping) -> ScaleData:
        """This scale with couplings mapping(k, t_k), sharing every
        coupling-free field built so far."""
        other = copy(self)
        object.__setattr__(other, "interaction", self.interaction.redefined(mapping))
        vars(other).pop("base", None)
        return other


def averaged_gaussian(kernel: KernelMatrix, eta: np.ndarray,
                      bundle: GreenBundle) -> NodeGaussian:
    """Whole-manifold route: averaged harmonic extension and propagator."""
    phi_bg = bundle.extend(eta)
    return NodeGaussian(quadratic_form_S0(bundle.mesh, bundle.spec, phi_bg),
                        *_read_only(kernel.matrix @ phi_bg,
                                    regularized_green(kernel, bundle)))


def glued_gaussian(data: ScaleData) -> NodeGaussian:
    """Node-level Gaussian data of the glued theory, from side data only.

    Built exclusively from side Green's matrices, side Poisson operators,
    and the interface covariance from the summed interface responses, with
    the interface mean folded into the background field.  It averages with the
    scale's kernel, whose row at a deep node is the side-restricted row, as
    restricted-rows-match-{side} of `verify_deformed_gluing` checks.
    """
    ctx, h = data.context, data.kernel.matrix
    order0, mean = _glued_mean(data, "fold", (LEFT, RIGHT))
    cov = glued_product(h, h, ctx.sides, ctx.g_sigma, ctx.to_sigma)
    return NodeGaussian(order0, *_read_only(mean, cov))


def _glued_mean(data: ScaleData, assembly: str, side_order: tuple):
    """Order-0 action and averaged mean of the glued field: eta extended into
    each side by `GreenBundle.extend`, from the interface mean mu ("fold") or
    from zero on the interface, with mu then added through the interface map
    ("carry"); the two must agree identically."""
    if assembly not in ("fold", "carry"):
        raise GluingError(f"unknown assembly {assembly!r}")
    ctx, eta = data.context, data.eta
    sides, g_sigma = [ctx.sides[s] for s in side_order], ctx.g_sigma

    c = sum(sb.dtn_cross.T @ eta[sb.outer] for sb in sides)
    mu = -g_sigma @ c
    s0 = sum(0.5 * eta[sb.outer] @ sb.dtn_outer @ eta[sb.outer] for sb in sides)
    order0 = float(s0 - 0.5 * c @ g_sigma @ c)

    b = eta.copy()
    if assembly == "fold":
        b[ctx.cut.interface] = mu
    for sb in sides:
        b = sb.extend(b)
    if assembly == "carry":
        b = b + ctx.to_sigma @ mu
    return order0, data.kernel.matrix @ b


def _series(data: ScaleData, gaussian: NodeGaussian, regions) -> list[PerturbationSeries]:
    return gaussian.series(data.interaction, regions, data.context.mesh.node_volumes,
                           data.max_order)


def glued_series(data: ScaleData, assembly: str = "fold",
                 side_order: tuple = (LEFT, RIGHT)) -> PerturbationSeries:
    """Minus log of the glued partition function, order by order, with
    vertices on the union region.  Other assemblies build their own order 0
    and mean; the covariance of data.glued depends on neither choice."""
    if (assembly, tuple(side_order)) == ("fold", (LEFT, RIGHT)):
        return data.base[0]
    order0, mean = _glued_mean(data, assembly, side_order)
    return _series(data, NodeGaussian(order0, mean, data.glued.cov), [data.region])[0]


def whole_series(data: ScaleData) -> PerturbationSeries:
    """Whole-manifold comparison target, through the whole-mesh Green path."""
    return data.base[1]


def verify_deformed_gluing(data: ScaleData) -> Report:
    """Decomposition of the averaged propagator across a cut.

    For nodes deep inside each side the whole-mesh averaged propagator
    (data.whole.cov) must equal the glued Green's matrix averaged with each
    side's restricted kernel rows (`green.glued_product`): the side-regularized
    propagator plus an interface round trip on one side, the pure interface
    round trip across sides, all built from restricted kernels and side Green
    data only.  The one place a kernel is restricted to a side, it checks
    that the deep rows pass through unchanged (restricted-rows-match-{side}).
    """
    kernel, deep = data.kernel, data.deep
    ctx, g_reg = data.context, data.whole.cov
    rows = {s: restrict_kernel_to_submesh(kernel, sb.nodes).matrix[deep[s]]
            for s, sb in ctx.sides.items()}

    report = Report("deformed-gluing")
    for side, nodes in deep.items():
        report.compare(f"restricted-rows-match-{side}", kernel.matrix[nodes], rows[side],
                       1e-10, {"deep_nodes": nodes.size})
    for a, b, name in ((LEFT, LEFT, f"same-side-{LEFT}"),
                       (RIGHT, RIGHT, f"same-side-{RIGHT}"),
                       (LEFT, RIGHT, "cross-side")):
        if deep[a].size == 0 or deep[b].size == 0:
            continue
        report.compare(name, g_reg[np.ix_(deep[a], deep[b])],
                       glued_product(rows[a], rows[b], ctx.sides, ctx.g_sigma,
                                     ctx.to_sigma), 1e-10)
    return report


def verify_gluing_theorem(data: ScaleData, widen: bool = False) -> Report:
    """Glued versus whole series, order by order, plus internal consistency.

    Checks, in order: the two routes to the interface covariance agree; the
    glued and whole coefficients match on the union vertex region; the two
    interface-mean assembly orders and the side-order swap leave the glued
    coefficients unchanged.  These four series are one engine pass each, on
    the union region.  With widen=True the vertex region grows node by node
    from the union up to the full trimmed set, and the match must hold at
    every step; all steps are one engine pass over the glued data and one
    over the whole data.
    """
    ctx = data.context
    block = ctx.bundle.green_block(ctx.cut.interface, ctx.cut.interface)

    report = Report("gluing-theorem")
    report.compare("interface-covariance-two-paths", block, ctx.g_sigma, 1e-10)

    glued = glued_series(data)
    whole = whole_series(data)
    for o in glued.orders():
        report.compare(f"glued-vs-whole-order-{o}", glued.coeff(o), whole.coeff(o),
                       1e-10, {"region_size": data.region.size, "order": o})

    carried = glued_series(data, assembly="carry")
    report.compare("interface-mean-assembly", glued.coefficients, carried.coefficients,
                   1e-12)
    swapped = glued_series(data, side_order=(RIGHT, LEFT))
    report.compare("side-swap", glued.coefficients, swapped.coefficients, 1e-12)

    if widen:
        n = ctx.mesh.n_nodes
        inside = _node_mask(n, data.region)
        added = np.flatnonzero(_node_mask(n, data.trimmed) & ~inside)
        # row k marks the first k + 1 added nodes; the region joins every row
        grown = np.zeros((added.size, n), dtype=bool)
        grown[np.arange(added.size), added] = True
        regions = [np.flatnonzero(m) for m in np.logical_or.accumulate(grown) | inside]
        if regions:
            steps = zip(added.tolist(), regions, _series(data, data.glued, regions),
                        _series(data, data.whole, regions))
            for step, (p, r, g, w) in enumerate(steps, 1):
                report.compare(f"widened-step-{step}", g.coefficients, w.coefficients,
                               1e-10, {"region_size": r.size, "added_node": p})
        final = np.flatnonzero(_node_mask(n, data.region, added))
        report.require("widened-final-region-is-trimmed-set",
                       np.array_equal(final, data.trimmed))
    return report


def renormalization_commutes(data: ScaleData, mappings: dict) -> Report:
    """Gluing must be insensitive to redefinitions of the couplings.

    mappings maps a redefinition name to mapping(k, t_k), which produces the
    new coupling for each power.  Each redefined scenario must pass the same
    per-order match, and its residual magnitude must not move relative to the
    original, whose report is computed once for all of them.  Every check is
    tagged with its redefinition name.  All share the Gaussian data of data,
    which does not depend on the couplings.
    """
    base = verify_gluing_theorem(data).max_residual
    report = Report("renormalization-commutes")
    for name, mapping in mappings.items():
        after = verify_gluing_theorem(data.redefined(mapping))
        after.compare("residual-magnitude-stable", after.max_residual, base, 1e-10)
        for c in after.checks:
            c.details["redefinition"] = name
        report.extend(after.checks)
    return report


def lambda_sweep(data: ScaleData) -> Report:
    """Coefficients and gluing residuals at one scale of a sweep.

    Flags kernel saturation; past the inverse minimum edge length the
    coefficients must coincide bitwise with those of the unaveraged theory:
    mean the harmonic extension of eta, covariance the Green's matrix on the
    interior block and zero elsewhere.
    """
    ctx, lam = data.context, data.lam
    report = Report("lambda-sweep")
    glued = glued_series(data)
    whole = whole_series(data)
    details = {
        "lam": lam,
        "saturated": data.kernel.is_identity,
        "trimmed_nodes": data.trimmed.size,
        "region_size": data.region.size,
    }
    for o in glued.orders():
        d = dict(details)
        d["order"] = o
        d["glued"] = glued.coeff(o)
        report.compare(f"lam-{lam}-order-{o}", glued.coeff(o), whole.coeff(o), 1e-10, d)
    if details["saturated"]:
        bundle, n = ctx.bundle, ctx.mesh.n_nodes
        cov = np.zeros((n, n))
        cov[np.ix_(bundle.interior, bundle.interior)] = bundle.green
        bare = NodeGaussian(data.whole.order0, bundle.extend(data.eta), cov)
        w_bare = _series(data, bare, [data.region])[0]
        report.require(f"lam-{lam}-saturation-bitwise",
                       np.array_equal(whole.coefficients, w_bare.coefficients), details)
    return report
