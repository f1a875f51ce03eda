"""Gluing two regularized partition functions over interface data.

The glued object integrates the product of the two side partition functions
against a Gaussian in the interface values, with covariance equal to the
interface block of the whole Green's matrix.  Here that integral is evaluated
exactly: the three independent Gaussian fields (two side fluctuations and
the interface variable) add up to one node-level field with covariance
`green.glued_green`, built purely from side quantities, and the moment
engine of the perturbation module does the rest.  Agreement with the
whole-manifold series is then a matter of exact linear algebra, order by order.

Green data is built once per cut (`GluingContext`), kernels and Gaussian
data once per scale (`ScaleData`); vertex regions are index subsets of it.
A run is lambda-major: it builds one `ScaleData` at a time, every check of
that scale reads it, and it is dropped before the next scale is built.  The
glued assemblies share one covariance, and the glued and whole series on the
union region are computed once per scale.  The widening evaluates all its
regions of one scale in a single engine pass per Gaussian (glued and whole);
the base comparison and the assembly and side-order checks are one-region
passes on the union region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .green import (GreenBundle, glued_green, green_bundle, interface_green,
                    side_bundle)
from .kernels import (KernelMatrix, SideKernels, build_mesh_kernel,
                      deformed_side_nodes, restrict_kernel_to_submesh)
from .meshes import LEFT, RIGHT, Cut, Mesh, lambda_one
from .operators import OperatorSpec, assemble
from .perturbation import (InteractionSpec, NodeGaussian, averaged_gaussian,
                           effective_action_series)
from .reports import Check, Report
from .series import PerturbationSeries


class GluingError(ValueError):
    pass


@dataclass(frozen=True)
class GluingContext:
    """Whole and side Green bundles of one (mesh, operator, cut), the
    interface Green's matrix g_sigma from the summed side responses, and
    `green.glued_green` of the sides (glued, to_sigma)."""

    mesh: Mesh
    cut: Cut
    operator: OperatorSpec
    bundle: GreenBundle
    sides: dict
    g_sigma: np.ndarray
    glued: np.ndarray
    to_sigma: np.ndarray

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """`np.linalg.eigh` of the interior operator, built on first use."""
        interior = self.mesh.interior
        pairs = np.linalg.eigh(assemble(self.mesh, self.operator)[np.ix_(interior, interior)])
        for array in pairs:
            array.flags.writeable = False
        return pairs


def gluing_context(mesh: Mesh, operator: OperatorSpec, cut: Cut) -> GluingContext:
    """Build the Green data of one cut.  Its matrices are read-only: every
    reader shares them, so an in-place write raises instead of corrupting
    the readers after it."""
    sides = {s: side_bundle(mesh, operator, cut, s) for s in (LEFT, RIGHT)}
    g_sigma = interface_green(sides[LEFT], sides[RIGHT])
    ctx = GluingContext(mesh, cut, operator, green_bundle(mesh, operator),
                        sides, g_sigma, *glued_green(sides, g_sigma, mesh.n_nodes))
    for b in (ctx.bundle, *sides.values()):
        for array in (b.green, b.poisson, b.dtn):
            array.flags.writeable = False
    for array in (ctx.g_sigma, ctx.glued, ctx.to_sigma):
        array.flags.writeable = False
    return ctx


def side_kernels(ctx: GluingContext, lam: float, shape="uniform") -> SideKernels:
    """Kernel at scale lam, restricted to each side bundle's submesh."""
    kernel = build_mesh_kernel(ctx.mesh, lam, shape, cut=ctx.cut)
    deep = {s: deformed_side_nodes(ctx.mesh, sb, lam) for s, sb in ctx.sides.items()}
    deep_rows = {s: restrict_kernel_to_submesh(kernel, sb.nodes).matrix[deep[s]]
                 for s, sb in ctx.sides.items()}
    return SideKernels(kernel=kernel, deep=deep, deep_rows=deep_rows)


@dataclass(frozen=True)
class GluingScenario:
    """Everything one gluing experiment needs.

    eta is the Dirichlet data over the whole boundary (ordered like
    mesh.boundary); each side sees its own outer part, with cut-line nodes
    shared.  lam must exceed the admissibility scale of the cut.
    """

    context: GluingContext
    interaction: InteractionSpec
    lam: float
    shape: object = "uniform"
    eta: np.ndarray | None = None
    max_order: float = 1.5

    def __post_init__(self):
        mesh = self.context.mesh
        if self.lam <= lambda_one(mesh, self.context.cut):
            raise GluingError("lam below lambda_1")
        eta = (np.zeros(mesh.boundary.size) if self.eta is None
               else np.asarray(self.eta, dtype=float))
        if eta.size != mesh.boundary.size:
            raise GluingError("eta must cover the whole boundary")
        object.__setattr__(self, "eta", eta)


def _side_eta(scenario: GluingScenario, sb) -> np.ndarray:
    pos = {int(n): k for k, n in enumerate(scenario.context.mesh.boundary)}
    return np.array([scenario.eta[pos[int(n)]] for n in sb.outer])


def glued_gaussian(scenario: GluingScenario, kernels: SideKernels) -> NodeGaussian:
    """Node-level Gaussian data of the glued theory, from side data only.

    Built exclusively from side Green's matrices, side Poisson operators,
    and the interface covariance from the summed interface responses, with
    the interface mean folded into the background field.  Rows of nodes deep
    inside a side average with that side's restricted kernel.
    """
    order0, mean, rows = _glued_mean(scenario, kernels, "fold", (LEFT, RIGHT))
    return NodeGaussian(order0, mean, rows @ scenario.context.glued @ rows.T)


def _glued_mean(scenario: GluingScenario, kernels: SideKernels, assembly: str,
                side_order: tuple):
    """Order-0 action, averaged mean and averaging rows of the glued field.
    "fold" bakes the interface mean into the background before averaging,
    "carry" adds it through the interface map afterwards; the two must agree
    identically."""
    if assembly not in ("fold", "carry"):
        raise GluingError(f"unknown assembly {assembly!r}")
    ctx = scenario.context
    sides, g_sigma = {s: ctx.sides[s] for s in side_order}, ctx.g_sigma

    etas = {s: _side_eta(scenario, sb) for s, sb in sides.items()}
    c = sum(sb.dtn_cross.T @ etas[s] for s, sb in sides.items())
    mu = -g_sigma @ c
    s0 = sum(0.5 * etas[s] @ sb.dtn_outer @ etas[s] for s, sb in sides.items())
    order0 = float(s0 - 0.5 * c @ g_sigma @ c)

    b = np.zeros(ctx.mesh.n_nodes)
    sigma_value = mu if assembly == "fold" else np.zeros_like(mu)
    for s, sb in sides.items():
        b[sb.outer] = etas[s]
        b[sb.interior] = sb.poisson @ np.concatenate([etas[s], sigma_value])
    if assembly == "fold":
        b[ctx.cut.interface] = mu
    else:
        b = b + ctx.to_sigma @ mu
    rows = np.array(kernels.kernel.matrix)
    for s, deep in kernels.deep.items():
        rows[deep] = kernels.deep_rows[s]
    return order0, rows @ b, rows


@dataclass(frozen=True)
class ScaleData:
    """What every check at one scale reads; build it per lam, drop it after.
    region: union of the sides' deep nodes; trimmed: where widening ends;
    glued, whole: node-level Gaussian data that vertex regions index into
    (whole.cov is the averaged propagator H G H')."""

    scenario: GluingScenario
    kernels: SideKernels
    region: np.ndarray
    trimmed: np.ndarray
    glued: NodeGaussian
    whole: NodeGaussian

    @cached_property
    def base(self) -> list[PerturbationSeries]:
        """Glued and whole series on the union region, computed on first read."""
        return [_series(self, g, [self.region])[0] for g in (self.glued, self.whole)]


def scale_data(scenario: GluingScenario) -> ScaleData:
    ctx = scenario.context
    kernels = side_kernels(ctx, scenario.lam, scenario.shape)
    return ScaleData(scenario=scenario, kernels=kernels,
                     region=np.union1d(kernels.deep[LEFT], kernels.deep[RIGHT]),
                     trimmed=ctx.mesh.trim_to_deformed(scenario.lam),
                     glued=glued_gaussian(scenario, kernels),
                     whole=averaged_gaussian(kernels.kernel, scenario.eta, ctx.bundle))


def _series(data: ScaleData, gaussian: NodeGaussian,
            regions) -> list[PerturbationSeries]:
    sc = data.scenario
    return gaussian.series(sc.interaction, regions, sc.context.mesh.node_volumes,
                           sc.max_order)


def glued_series(data: ScaleData, assembly: str = "fold",
                 side_order: tuple = (LEFT, RIGHT)) -> PerturbationSeries:
    """Minus log of the glued partition function, order by order, with
    vertices on the union region.  Other assemblies build their own order 0
    and mean; the covariance of data.glued depends on neither choice."""
    if (assembly, tuple(side_order)) == ("fold", (LEFT, RIGHT)):
        return data.base[0]
    order0, mean = _glued_mean(data.scenario, data.kernels, assembly, side_order)[:2]
    return _series(data, NodeGaussian(order0, mean, data.glued.cov), [data.region])[0]


def whole_series(data: ScaleData, region: np.ndarray | None = None) -> PerturbationSeries:
    """Whole-manifold comparison target, through the whole-mesh Green path."""
    return data.base[1] if region is None else _series(data, data.whole, [region])[0]


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
    ctx = data.scenario.context
    block = ctx.bundle.green_block(ctx.cut.interface, ctx.cut.interface)

    report = Report("gluing-theorem")
    report.add(Check("interface-covariance-two-paths",
                     float(np.abs(block - ctx.g_sigma).max()), 1e-10))

    glued = glued_series(data)
    whole = whole_series(data)
    for o in glued.orders():
        report.add(Check(f"glued-vs-whole-order-{o}",
                         abs(glued.coeff(o) - whole.coeff(o)), 1e-10,
                         {"region_size": data.region.size, "order": o}))

    carried = glued_series(data, assembly="carry")
    report.add(Check("interface-mean-assembly", glued.max_abs_diff(carried), 1e-12))
    swapped = glued_series(data, side_order=(RIGHT, LEFT))
    report.add(Check("side-swap", glued.max_abs_diff(swapped), 1e-12))

    if widen:
        added = sorted(set(data.trimmed.tolist()) - set(data.region.tolist()))
        regions = [np.union1d(data.region, added[:k]) for k in range(1, len(added) + 1)]
        if regions:
            steps = zip(added, regions, _series(data, data.glued, regions),
                        _series(data, data.whole, regions))
            for step, (p, r, g, w) in enumerate(steps, 1):
                report.add(Check(f"widened-step-{step}", g.max_abs_diff(w),
                                 1e-10, {"region_size": r.size, "added_node": p}))
        final = np.union1d(data.region, added)
        report.add(Check("widened-final-region-is-trimmed-set",
                         0.0 if np.array_equal(final, data.trimmed) else 1.0, 0.0))
    return report


def renormalization_commutes(data: ScaleData, mappings: dict) -> Report:
    """Gluing must be insensitive to redefinitions of the couplings.

    mappings maps a redefinition name to mapping(k, t_k), which produces the
    new coupling for each power.  Each redefined scenario must pass the same
    per-order match, and its residual magnitude must not move relative to the
    original, whose report is computed once for all of them.  Every check is
    tagged with its redefinition name.  All read the same Gaussian data, which
    does not depend on the couplings.
    """
    base = verify_gluing_theorem(data).max_residual
    report = Report("renormalization-commutes")
    for name, mapping in mappings.items():
        sc = replace(data.scenario,
                     interaction=data.scenario.interaction.redefined(mapping))
        after = verify_gluing_theorem(replace(data, scenario=sc))
        after.add(Check("residual-magnitude-stable",
                        abs(after.max_residual - base), 1e-10))
        for c in after.checks:
            c.details["redefinition"] = name
        report.extend(after.checks)
    return report


def lambda_sweep(data: ScaleData) -> Report:
    """Coefficients and gluing residuals at one scale of a sweep.

    Flags kernel saturation; past the inverse minimum edge length the
    coefficients must coincide bitwise with the identity-kernel values.
    """
    sc = data.scenario
    ctx, lam = sc.context, sc.lam
    report = Report("lambda-sweep")
    glued = glued_series(data)
    whole = whole_series(data)
    details = {
        "lam": lam,
        "saturated": data.kernels.kernel.is_identity,
        "trimmed_nodes": data.trimmed.size,
        "region_size": data.region.size,
    }
    for o in glued.orders():
        d = dict(details)
        d["order"] = o
        d["glued"] = glued.coeff(o)
        report.add(Check(f"lam-{lam}-order-{o}",
                         abs(glued.coeff(o) - whole.coeff(o)), 1e-10, d))
    if details["saturated"]:
        identity = KernelMatrix(matrix=np.eye(ctx.mesh.n_nodes), lam=lam)
        w_id = effective_action_series(ctx.bundle, identity, sc.interaction,
                                       sc.eta, sc.max_order, region=data.region)
        exact = 0.0 if np.array_equal(whole.to_array(), w_id.to_array()) else 1.0
        report.add(Check(f"lam-{lam}-saturation-bitwise", exact, 0.0, details))
    return report
