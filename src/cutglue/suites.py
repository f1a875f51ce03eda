"""Named verification suites runnable from a scenario config.

A run's Green data belongs to its `gluing.GluingContext`
(`ScenarioConfig.context`), which builds each field once, on first read, and
every suite reads it.  `run_suites` runs `cfg.suites`, the list settled at
load, and is lambda-major: per scale it copies its `ScaleData`, which the
runners of PER_SCALE (and FIRST_SCALE, at the first) take in place of the
config, and drops the copy before the next.  The context and each copy build
only the fields the selected runners read.
kernel-properties builds its own left side bundle and kernels.
"""

from __future__ import annotations

from copy import copy
from math import pi

import numpy as np

from . import euclidean as eu
from .config import ScenarioConfig
from .gluing import (ScaleData, lambda_sweep, renormalization_commutes,
                     verify_deformed_gluing, verify_gluing_theorem)
from .green import (TRIALS, side_bundle, verify_dtn_difference,
                    verify_green_gluing, verify_quadratic_decomposition)
from .kernels import (build_mesh_kernel, restrict_kernel_to_submesh,
                      spectral_regularized_green, verify_regularization)
from .meshes import LEFT, RIGHT, in_ball
from .reports import Report

# The runners of these take one scale's `ScaleData`; the others (cfg, seed).
PER_SCALE = ("regularization", "deformed-gluing", "gluing-theorem", "lambda-sweep")
FIRST_SCALE = ("renormalization",)


def suite_green_identities(cfg: ScenarioConfig, seed: int) -> Report:
    report = Report("green-identities")
    ctx = cfg.context
    bundle, left, right = ctx.bundle, ctx.sides[LEFT], ctx.sides[RIGHT]
    k = left.dtn_sigma + right.dtn_sigma
    report.compare("interface-response-sum-inverse", k @ ctx.g_sigma, np.eye(k.shape[0]),
                   1e-10)
    report.extend(verify_green_gluing(bundle, ctx.sides, ctx.g_sigma).checks)
    report.extend(verify_dtn_difference(bundle, left, LEFT).checks)
    report.compare("green-symmetry", bundle.green, bundle.green.T, 1e-12)
    if ctx.operator.mass_squared == 0.0:
        report.compare("poisson-rows-sum-to-one", bundle.poisson.sum(axis=1), 1.0, 1e-12)
        report.compare("poisson-nonnegative", np.minimum(bundle.poisson, 0.0), 0.0, 0.0)
    return report


def suite_quadratic_decomposition(cfg: ScenarioConfig, seed: int) -> Report:
    return verify_quadratic_decomposition(cfg.context.bundle, cfg.context.cut, seed)


def suite_averaging_closed_form(cfg: ScenarioConfig, seed: int) -> Report:
    """Flat-space checks; independent of the configured mesh."""
    report = Report("averaging-closed-form")
    lam = 2.0
    one = eu.EuclideanKernelSpec(dim=3, alphas=(1.0,))
    outside = eu.sphere_average(3, [1.0, 0.0, 0.0], lam, one)
    report.compare("shell-outside-equals-g", outside, eu.fundamental_solution(3, 1.0), 1e-8)
    inside = eu.sphere_average(3, [0.1, 0.0, 0.0], lam, one)
    report.compare("shell-inside-constant", inside, lam / (4 * pi), 1e-8)
    flat = eu.EuclideanKernelSpec(dim=2, alphas=(1.0,))
    inside2 = eu.sphere_average(2, [0.2, 0.0], lam, flat)
    report.compare("circle-inside-constant", inside2, np.log(lam) / (2 * pi), 1e-8)
    two = eu.EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))
    for spec, tag in ((one, "single"), (two, "double")):
        prof = eu.extract_profile_f(3, lam, spec, ts=(0.0, 0.25, 0.5, 1.0))
        report.compare(f"f-vanishes-at-one-{tag}", prof(1.0), 0.0, 2e-8)
        prof_b = eu.extract_profile_f(3, 3.7, spec, ts=(0.0, 0.25, 0.5, 1.0))
        report.compare(f"f-scale-independent-{tag}", prof.values, prof_b.values, 1e-8)
    composed = eu.compose_kernels(two)
    report.compare("composition-normalized", composed.total_mass(), 1.0, 1e-8)
    report.compare("composition-support",
                   np.maximum(composed.support - sum(two.alphas), 0.0), 0.0, 1e-12)
    return report


def suite_kernel_properties(cfg: ScenarioConfig, seed: int) -> Report:
    """Checks of each scale's kernel, built here, and of its restriction to
    the left side.  One scale's kernel and restricted kernel are alive at a
    time: both are dropped before the next scale's kernel is built."""
    report = Report("kernel-properties")
    mesh, cut = cfg.context.mesh, cfg.context.cut
    d = mesh.distance_matrix()
    left = side_bundle(mesh, cfg.context.operator, cut, LEFT)
    for scale in cfg.scales:
        lam = scale.lam
        kernel = build_mesh_kernel(mesh, lam, scale.shape)
        report.compare(f"rows-stochastic-lam-{lam}", kernel.matrix.sum(axis=1), 1.0, 1e-12)
        # the largest entry off the ball, as kernel entries are nonnegative
        off = np.max(kernel.matrix, where=~in_ball(d, lam), initial=0.0)
        report.compare(f"ball-support-lam-{lam}", off, 0.0, 0.0)
        restricted = restrict_kernel_to_submesh(kernel, left.nodes)
        report.compare(f"restricted-rows-stochastic-lam-{lam}",
                       restricted.matrix.sum(axis=1), 1.0, 1e-12)
        if not in_ball(float(mesh.edge_lengths.min()), lam):
            report.require(f"saturation-identity-lam-{lam}", kernel.is_identity)
        del kernel, restricted
    return report


def _at_scale(report: Report, data: ScaleData) -> Report:
    """The report with every check tagged with the scale of data."""
    for c in report.checks:
        c.details["lam"] = data.lam
    return report


def suite_regularization(data: ScaleData) -> Report:
    ctx = data.context
    spectral = spectral_regularized_green(ctx.mesh, ctx.eigenpairs, data.kernel)
    return _at_scale(verify_regularization(data.whole.cov, spectral), data)


def suite_deformed_gluing(data: ScaleData) -> Report:
    return _at_scale(verify_deformed_gluing(data), data)


def suite_gluing_theorem(data: ScaleData) -> Report:
    return _at_scale(verify_gluing_theorem(data, widen=True), data)


def suite_renormalization(data: ScaleData) -> Report:
    cubic = 0.1 * (np.arange(data.context.mesh.n_nodes) + 1)
    redefinitions = {
        "quartic-scale-shift": lambda k, t: t + 0.5 * data.lam if k == 4 else t,
        "cubic-position-dependent": lambda k, t: cubic if k == 3 else t,
    }
    commutes = renormalization_commutes(data, redefinitions)
    return Report("renormalization", commutes.checks)


def suite_lambda_sweep(data: ScaleData) -> Report:
    return lambda_sweep(data)


SUITES = {
    "green-identities": (
        "interface response sum, Green gluing relations, boundary response difference",
        suite_green_identities,
    ),
    "quadratic-decomposition": (
        "additive split of the free action under background shifts, "
        f"{TRIALS} seeded trials",
        suite_quadratic_decomposition,
    ),
    "averaging-closed-form": (
        "flat-space sphere averaging: shell property, profile f, composition",
        suite_averaging_closed_form,
    ),
    "kernel-properties": (
        "row-stochasticity, ball support, restriction, saturation to identity",
        suite_kernel_properties,
    ),
    "regularization": (
        "finite averaged diagonal; matrix vs spectral routes agree",
        suite_regularization,
    ),
    "deformed-gluing": (
        "decomposition of the averaged propagator across the cut",
        suite_deformed_gluing,
    ),
    "gluing-theorem": (
        "glued vs whole series per order, with region widening",
        suite_gluing_theorem,
    ),
    "renormalization": (
        "gluing residuals unchanged under coupling redefinitions",
        suite_renormalization,
    ),
    "lambda-sweep": (
        "coefficients and residuals across the scale grid",
        suite_lambda_sweep,
    ),
}


def run_suites(cfg: ScenarioConfig, seed: int) -> dict:
    """{name: Report} of each suite of cfg.suites, in their order.  Each
    scale runs on a copy that holds all it builds; one is alive at a time,
    dropped before the next is made."""
    reports = {}
    for name in cfg.suites:
        if name not in PER_SCALE + FIRST_SCALE:
            reports[name] = SUITES[name][1](cfg, seed)
    for k, scale in enumerate(cfg.scales):
        scaled = [n for n in cfg.suites
                  if n in PER_SCALE or (k == 0 and n in FIRST_SCALE)]
        if not scaled:
            break
        data = copy(scale)
        for name in scaled:
            part = SUITES[name][1](data)
            reports.setdefault(name, Report(part.name)).extend(part.checks)
        del data
    return {name: reports[name] for name in cfg.suites}
