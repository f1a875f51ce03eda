"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line so the run log doubles as a checklist.
"""

import sys
from dataclasses import replace
from math import pi, sqrt

import numpy as np
import pytest

from cutglue import euclidean as eu
from cutglue import kernels as kn
from cutglue.gluing import (GluingContext, ScaleData, lambda_sweep,
                            renormalization_commutes, verify_deformed_gluing,
                            verify_gluing_theorem)
from cutglue.green import (green_bundle, interface_green, side_bundle,
                           verify_green_gluing, verify_quadratic_decomposition)
from cutglue.meshes import (LEFT, RIGHT, build_grid_mesh, build_interval_mesh,
                            cut_along_interface)
from cutglue.operators import OperatorSpec, assemble
from cutglue.perturbation import InteractionSpec, wick_pairings
from cutglue.reports import Report, gap
from cutglue.series import PerturbationSeries, series_exp, series_log
from test_perturbation import boundary_field


_CAPFD = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _emit(num: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {text}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"acceptance criterion {num} failed: {text}"


def _cases():
    path5 = build_interval_mesh(3, 1.0)
    path9 = build_interval_mesh(7, 1.0)
    grid5 = build_grid_mesh(5, 5, 1.0)
    grid9 = build_grid_mesh(9, 9, 1.0)
    return [
        (path5, cut_along_interface(path5, lambda n: n == 2)),
        (path9, cut_along_interface(path9, lambda n: n == 4)),
        (grid5, cut_along_interface(grid5, lambda n: grid5.positions[n][0] == 2.0)),
        (grid9, cut_along_interface(grid9, lambda n: grid9.positions[n][0] == 4.0)),
    ]


def test_criterion_1_interface_response_sum():
    worst = 0.0
    for mesh, cut in _cases():
        for m2 in (0.0, 0.1, 1.0):
            spec = OperatorSpec(m2)
            left = side_bundle(mesh, spec, cut, LEFT)
            right = side_bundle(mesh, spec, cut, RIGHT)
            k = left.dtn_sigma + right.dtn_sigma
            bundle = green_bundle(mesh, spec)
            pos = {int(n): i for i, n in enumerate(bundle.interior)}
            sigma = [pos[int(n)] for n in cut.interface]
            g_sigma = bundle.green[np.ix_(sigma, sigma)]
            res = np.abs(k @ g_sigma - np.eye(len(sigma))).max()
            worst = max(worst, res)
    # hand values on the 5-node path
    mesh, cut = _cases()[0]
    left = side_bundle(mesh, OperatorSpec(0.0), cut, LEFT)
    right = side_bundle(mesh, OperatorSpec(0.0), cut, RIGHT)
    hands = (np.allclose(left.dtn_sigma, [[0.5]], atol=1e-14)
             and np.allclose(right.dtn_sigma, [[0.5]], atol=1e-14)
             and np.allclose(interface_green(left, right), [[1.0]], atol=1e-14))
    _emit(1, worst <= 1e-10 and hands,
          f"interface response sum, max residual {worst:.3e}")


def test_criterion_2_green_gluing_relations():
    worst = 0.0
    for mesh, cut in _cases():
        ctx = GluingContext(mesh, OperatorSpec(0.0), cut)
        rep = verify_green_gluing(ctx.bundle, ctx.sides, ctx.g_sigma)
        worst = max(worst, rep.max_residual)
    small = build_interval_mesh(3, 1.0)
    g = green_bundle(small, OperatorSpec(0.0)).green
    hands = g[0, 2] == pytest.approx(0.25, abs=1e-14) \
        and g[0, 0] == pytest.approx(0.75, abs=1e-14)
    _emit(2, worst <= 1e-10 and hands,
          f"Green gluing relations, max residual {worst:.3e}")


def test_criterion_3_quadratic_decomposition():
    worst = 0.0
    for mesh, cut in _cases():
        rep = verify_quadratic_decomposition(green_bundle(mesh, OperatorSpec(0.1)),
                                             cut, seed=11)
        assert all(c.details["trials"] >= 100 for c in rep.checks)
        worst = max(worst, rep.max_residual)
    _emit(3, worst <= 1e-12,
          f"quadratic decomposition, 120 trials/mesh, max residual {worst:.3e}")


def test_criterion_4_euclidean_closed_form():
    lam = 2.0
    single = eu.EuclideanKernelSpec(dim=3, alphas=(1.0,))
    outside = eu.sphere_average(3, [1.0, 0.0, 0.0], lam, single)
    inside = eu.sphere_average(3, [0.1, 0.0, 0.0], lam, single)
    shell_ok = (abs(outside - eu.fundamental_solution(3, 1.0)) <= 1e-8
                and abs(inside - lam / (4 * pi)) <= 1e-8)
    double = eu.EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))
    prof = eu.extract_profile_f(3, lam, double)
    endpoint_ok = abs(prof(1.0)) <= 2 * eu.QUAD_RTOL
    composed = eu.compose_kernels(double)
    comp_ok = (abs(composed.total_mass() - 1.0) <= 1e-8
               and composed.support <= 1.0 + 1e-8)
    _emit(4, shell_ok and endpoint_ok and comp_ok,
          f"flat-space closed form, |f(1)| = {abs(prof(1.0)):.3e}")


def test_criterion_5_regularization_finiteness():
    worst = 0.0
    finite = True
    for mesh, _ in _cases():
        bundle = green_bundle(mesh, OperatorSpec(0.1))
        interior = np.ix_(mesh.interior, mesh.interior)
        eigenpairs = np.linalg.eigh(assemble(mesh, OperatorSpec(0.1))[interior])
        for lam in (1.5, 2.5):
            kernel = kn.build_mesh_kernel(mesh, lam)
            rep = kn.verify_regularization(
                kn.regularized_green(kernel, bundle),
                kn.spectral_regularized_green(mesh, eigenpairs, kernel))
            finite &= rep.passed
            worst = max(worst, max(c.residual for c in rep.checks
                                   if "spectral" in c.name))
    _emit(5, finite and worst <= 1e-12,
          f"finite averaged diagonal, spectral-vs-matrix {worst:.3e}")


def _deformed(ctx, lam, shape):
    return verify_deformed_gluing(ScaleData(ctx, InteractionSpec({}), lam, shape))


def test_criterion_6_deformed_gluing():
    worst = 0.0
    path9 = build_interval_mesh(7, 1.0)
    pcut = cut_along_interface(path9, lambda n: n == 4)
    grid5 = build_grid_mesh(5, 5, 1.0)
    gcut = cut_along_interface(grid5, lambda n: grid5.positions[n][0] == 2.0)
    pctx = GluingContext(path9, OperatorSpec(0.0), pcut)
    gctx = GluingContext(grid5, OperatorSpec(0.1), gcut)
    for shape in ("uniform", "bump"):
        for lam in (0.5, 1.0):
            rep = _deformed(pctx, lam, shape)
            assert rep.passed
            worst = max(worst, rep.max_residual)
        for lam in (1.5, 2.5):
            rep = _deformed(gctx, lam, shape)
            assert rep.passed
            worst = max(worst, rep.max_residual)
    _emit(6, worst <= 1e-10,
          f"deformed gluing decomposition, max residual {worst:.3e}")


def _scenarios():
    path9 = build_interval_mesh(7, 1.0)
    pcut = cut_along_interface(path9, lambda n: n == 4)
    grid5 = build_grid_mesh(5, 5, 1.0)
    gcut = cut_along_interface(grid5, lambda n: grid5.positions[n][0] == 2.0)
    pctx = GluingContext(path9, OperatorSpec(0.0), pcut)
    gctx = GluingContext(grid5, OperatorSpec(0.1), gcut)
    out = []
    for couplings in ({3: 0.3}, {4: 0.2}, {3: 0.3, 4: 0.2}):
        for eta_on in (False, True):
            p_eta = boundary_field(path9, [1.0, -0.5]) if eta_on else None
            out.append(ScaleData(
                context=pctx, interaction=InteractionSpec(couplings), lam=1.0,
                eta=p_eta, max_order=1.5))
            g_eta = (boundary_field(grid5, 0.2 * np.arange(grid5.boundary.size))
                     if eta_on else None)
            out.append(ScaleData(
                context=gctx, interaction=InteractionSpec(couplings), lam=2.5,
                eta=g_eta, max_order=1.5))
    return out


def test_criterion_7_gluing_theorem():
    worst = 0.0
    widen_ok = True
    for sc in _scenarios():
        rep = verify_gluing_theorem(sc, widen=True)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        worst = max(worst, rep.max_residual)
        widen_ok &= any(c.name == "widened-final-region-is-trimmed-set"
                        and c.passed for c in rep.checks)
    _emit(7, worst <= 1e-10 and widen_ok,
          f"glued vs whole through order 3/2, max residual {worst:.3e}")


def test_criterion_8_coupling_redefinitions():
    path9 = build_interval_mesh(7, 1.0)
    pcut = cut_along_interface(path9, lambda n: n == 4)
    data = ScaleData(context=GluingContext(path9, OperatorSpec(0.0), pcut),
                     interaction=InteractionSpec({3: 0.3, 4: 0.2}),
                     lam=1.0, eta=boundary_field(path9, [1.0, -0.5]), max_order=1.5)
    rep = renormalization_commutes(data, {
        "position-dependent":
            lambda k, t: 0.1 * (np.arange(9) + 1) if k == 3 else t,
        "scale-shift": lambda k, t: t + 0.5 * data.lam if k == 4 else t,
    })
    worst = rep.max_residual
    _emit(8, rep.passed and worst <= 1e-10,
          f"redefined couplings, max residual {worst:.3e}")


def test_criterion_9_wick_and_series():
    counts_ok = True
    for m in (1, 2, 3, 4):
        full = sum(1 for p, u in wick_pairings(range(2 * m)) if not u)
        double_factorial = int(np.prod(np.arange(1, 2 * m, 2)))
        counts_ok &= full == double_factorial
    s = PerturbationSeries(np.array([0.3, -1.2, 0.8, 2.0]))
    round_trip = gap(s.coefficients, series_log(series_exp(s)).coefficients)
    _emit(9, counts_ok and round_trip <= 1e-12,
          f"pairing counts and log/exp round trip ({round_trip:.3e})")


def test_criterion_10_saturation_bitwise():
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    kernel = kn.build_mesh_kernel(mesh, 2.5)
    identity_ok = np.array_equal(kernel.matrix, np.eye(mesh.n_nodes))
    bundle = green_bundle(mesh, OperatorSpec(0.0))
    g_reg = kn.regularized_green(kernel, bundle)
    green_ok = np.array_equal(
        g_reg[np.ix_(bundle.interior, bundle.interior)], bundle.green)
    sc = ScaleData(context=GluingContext(mesh, OperatorSpec(0.0), cut),
                   interaction=InteractionSpec({3: 0.3, 4: 0.2}),
                   lam=1.0, eta=boundary_field(mesh, [1.0, -0.5]), max_order=1.5)
    rep = Report("lambda-sweep")
    for lam in (0.5, 1.0, 2.5):
        rep.extend(lambda_sweep(replace(sc, lam=lam)).checks)
    sat = [c for c in rep.checks if "saturation-bitwise" in c.name]
    sweep_ok = rep.passed and len(sat) == 1 and sat[0].residual == 0.0
    _emit(10, identity_ok and green_ok and sweep_ok,
          "kernels and averaged quantities saturate bitwise past 1/min-edge")
