from math import gamma, log, pi, sqrt

import numpy as np
import pytest

from cutglue import euclidean as eu


def test_fundamental_solution_values():
    assert eu.fundamental_solution(3, [1.0, 0.0, 0.0]) == pytest.approx(1.0 / (4 * pi))
    assert eu.fundamental_solution(2, 1.0) == 0.0
    assert eu.fundamental_solution(4, 2.0) == pytest.approx(1.0 / (16 * pi**2))
    with pytest.raises(eu.AveragingError, match="singularity"):
        eu.fundamental_solution(3, [0.0, 0.0, 0.0])
    with pytest.raises(eu.AveragingError):
        eu.fundamental_solution(1, 1.0)


def test_sphere_area():
    assert eu.sphere_area(2) == pytest.approx(2 * pi)
    assert eu.sphere_area(3) == pytest.approx(4 * pi)
    assert eu.sphere_area(4) == pytest.approx(2 * pi**2)


def test_spec_validation():
    with pytest.raises(eu.AveragingError):
        eu.EuclideanKernelSpec(dim=3, alphas=(0.7, 0.7))  # sum > 1
    with pytest.raises(eu.AveragingError):
        eu.EuclideanKernelSpec(dim=3, alphas=(0.0,))
    with pytest.raises(eu.AveragingError):
        eu.EuclideanKernelSpec(dim=1, alphas=(1.0,))
    bad = eu.RadialProfile(atoms=((1.0, 0.5),), support=1.0)  # mass 1/2
    with pytest.raises(eu.AveragingError, match="not normalized"):
        eu.EuclideanKernelSpec(dim=3, alphas=(1.0,), profiles=(bad,))


def test_newton_shell_three_dim():
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(1.0,))
    lam = 2.0
    outside = eu.sphere_average(3, [1.0, 0.0, 0.0], lam, spec)
    assert outside == pytest.approx(eu.fundamental_solution(3, 1.0), abs=1e-8)
    inside = eu.sphere_average(3, [0.1, 0.0, 0.0], lam, spec)
    assert inside == pytest.approx(lam / (4 * pi), abs=1e-8)


def test_newton_shell_two_dim():
    spec = eu.EuclideanKernelSpec(dim=2, alphas=(1.0,))
    lam = 2.0
    inside = eu.sphere_average(2, [0.2, 0.0], lam, spec)
    assert inside == pytest.approx(np.log(lam) / (2 * pi), abs=1e-8)
    outside = eu.sphere_average(2, [0.8, 0.0], lam, spec)
    assert outside == pytest.approx(eu.fundamental_solution(2, 0.8), abs=1e-8)


def _two_shell_oracle(s: float, a: float, b: float) -> float:
    """Averaging over shell b then shell a, applied to the 3d solution.

    The inner average is G(max(rho, b)) by the shell property; the outer one
    reduces to an exact piecewise-polynomial integral in rho.
    """
    def inner_primitive(rho):
        # primitive of F(rho) * rho with F = 1/(4 pi max(rho, b))
        if rho <= b:
            return rho * rho / (8 * pi * b)
        return b * b / (8 * pi * b) + (rho - b) / (4 * pi)

    if s == 0.0:
        return 1.0 / (4 * pi * max(a, b))
    lo, hi = abs(s - a), s + a
    return (inner_primitive(hi) - inner_primitive(lo)) / (2 * s * a)


def test_two_shell_matches_exact_oracle():
    lam = 2.0
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))
    a = b = 0.5 / lam
    for s in (0.0, 0.1, 0.25, 0.4, 0.5, 0.9):
        got = eu.sphere_average(3, [s, 0.0, 0.0], lam, spec)
        assert got == pytest.approx(_two_shell_oracle(s, a, b), abs=1e-10)


def test_profile_f_single_shell_vanishes():
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(1.0,))
    prof = eu.extract_profile_f(3, 2.0, spec)
    np.testing.assert_allclose(prof.values, 0.0, atol=1e-10)


def test_profile_f_two_shell_values_and_endpoint():
    lam = 2.0
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))
    prof = eu.extract_profile_f(3, lam, spec, ts=(0.0, 0.25, 0.5, 1.0))
    a = b = 0.5 / lam
    g_ball = eu.fundamental_solution(3, 1.0 / lam)
    for t, v in zip(prof.ts, prof.values):
        oracle = (_two_shell_oracle(sqrt(t) / lam, a, b) - g_ball) / lam
        assert v == pytest.approx(oracle, abs=1e-10)
    assert abs(prof(1.0)) <= 2e-8
    assert prof(0.0) == pytest.approx(1.0 / (4 * pi), abs=1e-10)


def test_profile_f_scale_independent():
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))
    p1 = eu.extract_profile_f(3, 2.0, spec)
    p2 = eu.extract_profile_f(3, 3.7, spec)
    np.testing.assert_allclose(p1.values, p2.values, atol=1e-8)


def test_profile_f_rejects_samples_outside_unit_interval():
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(1.0,))
    with pytest.raises(eu.AveragingError):
        eu.extract_profile_f(3, 2.0, spec, ts=(0.0, 1.5))


def test_even_dim_quadrature_not_provided():
    spec = eu.EuclideanKernelSpec(dim=4, alphas=(1.0,))
    with pytest.raises(eu.AveragingError, match="not provided"):
        eu.sphere_average(4, [0.5, 0.0, 0.0, 0.0], 2.0, spec)


def test_compose_two_shells():
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))
    composed = eu.compose_kernels(spec)
    assert composed.total_mass() == pytest.approx(1.0, abs=1e-8)
    assert composed.support <= sum(spec.alphas) + 1e-12
    # two half-radius shells in 3d: length density of the sum is 2 rho on [0,1]
    for rho in (0.1, 0.5, 0.9):
        assert composed.density(rho) == pytest.approx(2.0 * rho, abs=1e-10)


def test_compose_single_is_identity():
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(1.0,))
    composed = eu.compose_kernels(spec)
    assert composed.atoms == ((1.0, 1.0),)
    assert composed.total_mass() == pytest.approx(1.0)


def test_uniform_ball_profile_normalized():
    p = eu.uniform_ball(3)
    assert p.total_mass() == pytest.approx(1.0, abs=1e-12)
    spec = eu.EuclideanKernelSpec(dim=3, alphas=(1.0,), profiles=(p,))
    lam = 2.0
    # averaging over a solid ball, evaluated at the center: the mean of
    # G over the ball radius 1/lam is (3/2) lam / (4 pi)
    got = eu.sphere_average(3, [0.0, 0.0, 0.0], lam, spec)
    assert got == pytest.approx(1.5 * lam / (4 * pi), abs=1e-8)


# -- scalar reference: per-point quadrature, the oracle for the array code ----

def _scalar_green(dim, r):
    if dim == 2:
        return -log(r) / (2.0 * pi)
    return r ** (2 - dim) / ((dim - 2) * eu.sphere_area(dim))


def _scalar_angle_density(dim, u):
    if abs(u) >= 1.0:
        return 0.0
    c = gamma(dim / 2.0) / (sqrt(pi) * gamma((dim - 1) / 2.0))
    return c * (1.0 - u * u) ** ((dim - 3) / 2.0)


def _scalar_shell_integral(fn, breaks, dim, rho, r, order):
    if rho == 0.0:
        return fn(r)
    lo, hi = abs(rho - r), rho + r
    if dim == 2:
        th = [0.0, pi]
        for b in breaks:
            if lo < b < hi:
                v = (b * b - rho * rho - r * r) / (2.0 * rho * r)
                th.append(float(np.arccos(np.clip(v, -1.0, 1.0))))
        th.sort()
        total = 0.0
        for a, b in zip(th[:-1], th[1:]):
            xs, ws = eu._gl(order, a, b)
            s = np.sqrt(rho * rho + r * r + 2.0 * rho * r * np.cos(xs))
            total += float(ws @ np.array([fn(si) for si in s])) / pi
        return total
    cuts = sorted({lo, hi} | {b for b in breaks if lo < b < hi})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs, ws = eu._gl(order, a, b)
        vals = []
        for s in xs:
            v = (s * s - rho * rho - r * r) / (2.0 * rho * r)
            vals.append(_scalar_angle_density(dim, v) * s / (rho * r) * fn(s))
        total += float(ws @ np.array(vals))
    return total


def _scalar_breaks(breaks, factor):
    out = set()
    for r, _ in factor.atoms:
        for b in set(breaks) | {0.0}:
            for c in (b + r, abs(b - r)):
                if c > 0:
                    out.add(c)
    if factor.density is not None:
        out.add(factor.support + (max(breaks) if breaks else 0.0))
    return tuple(sorted(out))


def _scalar_value(dim, s, factors, order):
    """_averaged_value with one scalar call per radius and quadrature node."""
    fn, breaks = (lambda r: _scalar_green(dim, float(r))), ()
    for factor in reversed(factors):
        def fn(rho, inner=fn, inner_breaks=breaks, nodes=factor.nodes(order)):
            return sum(w * _scalar_shell_integral(inner, inner_breaks, dim, rho, r,
                                                  order) for r, w in nodes)

        breaks = _scalar_breaks(breaks, factor)
    return fn(s)


# Array and scalar code run the same panels in the same order.  numpy's
# vectorized log and power may round a node value's last bit differently from
# the C library (about 1 node in 1000 to 2000 here), which the weighted sum
# almost always absorbs: every sample below agrees bitwise on x86-64 with AVX-512.
# The bound leaves room for one such bit to reach the sum.
QUAD_ULPS = 2


_TWO_HALF_SHELLS = eu.EuclideanKernelSpec(dim=3, alphas=(0.5, 0.5))

# spec and profile samples t; at lam = 2 the point |x| = sqrt(t) / 2 must lie
# where the quadrature converges: a continuous radius density puts the
# singular point of G inside the support unless |x| is 0 or past the support
CASES = {
    # inner circle kink at radius 1/4 lies inside every outer circle here
    "dim2-kinks": (eu.EuclideanKernelSpec(dim=2, alphas=(0.5, 0.5)), (0.25, 0.5, 0.75)),
    "dim3-one-shell": (eu.EuclideanKernelSpec(dim=3, alphas=(1.0,)), (0.0, 0.3, 1.0)),
    "dim3-two-shells": (_TWO_HALF_SHELLS, (0.0, 0.3, 0.6, 1.0)),
    "dim3-uniform-ball": (eu.EuclideanKernelSpec(dim=3, alphas=(1.0,),
                                                 profiles=(eu.uniform_ball(3),)),
                          (0.0, 1.0)),
    "dim3-composed": (eu.EuclideanKernelSpec(
        dim=3, alphas=(0.6,), profiles=(eu.compose_kernels(_TWO_HALF_SHELLS),)),
        (0.0, 0.36, 0.64, 1.0)),
}


def _ulps(got, want):
    return abs(got - want) / np.spacing(abs(want))


@pytest.mark.parametrize("name", list(CASES))
def test_quadrature_matches_scalar_reference(name):
    (spec, ts), lam, order = CASES[name], 2.0, 48
    dim = spec.dim
    factors = [p.scaled(a / lam) for a, p in zip(spec.alphas, spec.profiles)]
    prof = eu.extract_profile_f(dim, lam, spec, ts=ts, order=order)
    g_ball = _scalar_green(dim, 1.0 / lam)
    for t, got in zip(prof.ts, prof.values):
        s = sqrt(t) / lam
        h = eu.sphere_average(dim, [s] + [0.0] * (dim - 1), lam, spec, order=order)
        want = _scalar_value(dim, s, factors, 2 * order)
        assert _ulps(h, want) <= QUAD_ULPS
        assert _ulps(got, (want - g_ball) / lam ** (dim - 2)) <= QUAD_ULPS
