"""Euclidean sphere averaging of the fundamental solution, in closed form.

Flat-space laboratory for the averaging operator: multiple averaging over
spheres (or general ball-supported radial weights) applied to the fundamental
solution of the Laplacian.  Inside the averaging ball the result collapses to
a rescaled universal profile f with f(1) = 0; outside it reproduces the
fundamental solution unchanged (the shell property).  Everything here is
numerical quadrature against those structural facts.

Radial functions, radius densities and their compositions map an array of
radii to an array of values, so each quadrature panel is one numpy call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gamma, pi, sqrt
from typing import Callable, Sequence

import numpy as np

#: quadrature tolerance: doubling the order must move nothing past this
QUAD_RTOL = 1e-8
#: Gauss-Legendre points per panel when a profile's mass is summed or two
#: profiles are composed
_PROFILE_ORDER = 64
#: Gauss-Legendre points per panel of a sphere average, checked at twice that
_SPHERE_ORDER = 48


class AveragingError(ValueError):
    pass


def sphere_area(dim: int) -> float:
    """Surface area of the unit (dim-1)-sphere in R^dim."""
    return 2.0 * pi ** (dim / 2.0) / gamma(dim / 2.0)


def _radial_green(dim: int, r: np.ndarray) -> np.ndarray:
    """Fundamental solution of -Laplace in R^dim on an array of radii r > 0."""
    if dim == 2:
        return -np.log(r) / (2.0 * pi)
    return r ** (2 - dim) / ((dim - 2) * sphere_area(dim))


def fundamental_solution(dim: int, x: np.ndarray | float) -> float:
    """Rotation-invariant fundamental solution of -Laplace in R^dim.

    Accepts a point or a plain radius.  dim = 2 uses the logarithmic form;
    dim = 1 is out of scope.
    """
    if dim < 2:
        raise AveragingError("dim must be >= 2")
    r = float(np.linalg.norm(x)) if np.ndim(x) else float(abs(x))
    if r == 0.0:
        raise AveragingError("on-diagonal singularity")
    return float(_radial_green(dim, np.float64(r)))


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@dataclass(frozen=True)
class RadialProfile:
    """Probability distribution of a displacement length on [0, support].

    atoms   : ((radius, mass), ...) point masses (spherical shells).
    density : continuous part, maps an array of radii in (0, support] to an
              array of values; may be None.
    breakpoints : sorted knots bracketing every smooth piece of the density,
                  so piecewise Gauss-Legendre integrates it accurately.
    """

    atoms: tuple = ()
    density: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple = ()
    support: float = 1.0

    def total_mass(self) -> float:
        total = sum(m for _, m in self.atoms)
        if self.density is not None:
            pts = sorted(set((0.0, self.support) + tuple(self.breakpoints)))
            for a, b in zip(pts[:-1], pts[1:]):
                xs, ws = _gl(_PROFILE_ORDER, a, b)
                total += float(ws @ self.density(xs))
        return total

    def nodes(self, order: int) -> list[tuple[float, float]]:
        """(radius, weight) pairs representing the distribution for quadrature."""
        out = [(r, m) for r, m in self.atoms]
        if self.density is not None:
            pts = sorted(set((0.0, self.support) + tuple(self.breakpoints)))
            for a, b in zip(pts[:-1], pts[1:]):
                xs, ws = _gl(order, a, b)
                out.extend(zip(xs.tolist(), (ws * self.density(xs)).tolist()))
        return out

    def scaled(self, c: float) -> "RadialProfile":
        if c <= 0:
            raise AveragingError("scale must be positive")
        dens = None
        if self.density is not None:
            base = self.density
            dens = lambda r, _c=c: base(r / _c) / _c
        return RadialProfile(
            atoms=tuple((r * c, m) for r, m in self.atoms),
            density=dens,
            breakpoints=tuple(b * c for b in self.breakpoints),
            support=self.support * c,
        )


def sphere_shell() -> RadialProfile:
    """The unit sphere, as a radius distribution: one atom at radius 1."""
    return RadialProfile(atoms=((1.0, 1.0),), support=1.0)


def uniform_ball(dim: int) -> RadialProfile:
    """Uniform density on the unit ball, as a radius distribution."""
    return RadialProfile(
        density=lambda r, n=dim: np.where((r > 0) & (r <= 1), n * r ** (n - 1), 0.0),
        breakpoints=(),
        support=1.0,
    )


def _angle_density(dim: int, u: np.ndarray) -> np.ndarray:
    """Density of cos(angle) between independent uniform directions in R^dim.

    Zero for |u| >= 1; the power is taken only inside, where its base is
    positive (dim = 2 has exponent -1/2).
    """
    c = gamma(dim / 2.0) / (sqrt(pi) * gamma((dim - 1) / 2.0))
    inside = np.abs(u) < 1.0
    out = np.zeros(np.shape(u))
    v = u[inside]
    out[inside] = c * (1.0 - v * v) ** ((dim - 3) / 2.0)
    return out


def compose_profiles(p1: RadialProfile, p2: RadialProfile, dim: int) -> RadialProfile:
    """Distribution of |y1 + y2| for independent radial displacements.

    The length of the sum is resolved through the cosine of the random angle
    between the two directions; the result is a purely continuous radius
    distribution whenever either factor has positive radius spread.
    """
    if dim < 2:
        raise AveragingError("dim must be >= 2")
    n1 = np.array([nd for nd in p1.nodes(_PROFILE_ORDER) if nd[0] > 0]).reshape(-1, 2)
    n2 = np.array([nd for nd in p2.nodes(_PROFILE_ORDER) if nd[0] > 0]).reshape(-1, 2)
    # every pair (a, b) of positive node radii, flattened
    a, b = np.repeat(n1[:, 0], len(n2)), np.tile(n2[:, 0], len(n1))
    wab = np.outer(n1[:, 1], n2[:, 1]).ravel()
    aa, bb, ab, two_ab = a * a, b * b, a * b, 2.0 * a * b

    def dens(rho: np.ndarray) -> np.ndarray:
        r = np.asarray(rho, dtype=float)[..., None]
        u = (r * r - aa - bb) / two_ab
        total = (wab * _angle_density(dim, u) * r / ab).sum(axis=-1)
        return np.where(r[..., 0] > 0, total, 0.0)

    # knots where the pairwise supports |a-b|, a+b change for the atoms
    knots = {0.0, p1.support + p2.support}
    for a, _ in p1.atoms:
        for b, _ in p2.atoms:
            knots.update((abs(a - b), a + b))
    return RadialProfile(
        atoms=(),
        density=dens,
        breakpoints=tuple(sorted(knots)),
        support=p1.support + p2.support,
    )


@dataclass(frozen=True)
class EuclideanKernelSpec:
    """Multi-factor averaging specification in flat space.

    alphas scale the factor supports; they lie in (0, 1] and sum to at most 1
    so the composed support stays inside the ball of radius 1/Lambda.
    Profiles default to unit spherical shells (pure sphere averages).
    """

    dim: int
    alphas: tuple
    profiles: tuple = field(default=())

    def __post_init__(self):
        if self.dim < 2:
            raise AveragingError("dim must be >= 2")
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas:
            raise AveragingError("need at least one averaging factor")
        if any(a <= 0 or a > 1 for a in alphas) or sum(alphas) > 1 + 1e-12:
            raise AveragingError("alphas must lie in (0,1] and sum to at most 1")
        object.__setattr__(self, "alphas", alphas)
        profiles = tuple(self.profiles) or tuple(sphere_shell() for _ in alphas)
        if len(profiles) != len(alphas):
            raise AveragingError("one profile per alpha required")
        for p in profiles:
            if abs(p.total_mass() - 1.0) > 1e-6:
                raise AveragingError("profile not normalized")
        object.__setattr__(self, "profiles", profiles)


@dataclass(frozen=True)
class _RadialFn:
    """A rotation-invariant function known through its radial restriction.

    fn maps an array of radii to an array of values.  breaks lists the radii
    where the restriction is not smooth, so nested averages can keep their
    quadrature piecewise.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    breaks: tuple = ()


def _shell_integral(u: _RadialFn, dim: int, rho: float, r: float, order: int) -> float:
    """Average of u over the sphere of radius r centered at distance rho.

    Reduced to one dimension through the cosine of the polar angle; the
    averaged value depends only on |s| = sqrt(rho^2 + r^2 + 2 rho r cos).
    dim = 2 integrates in the angle itself (the cosine density is singular
    at the endpoints); odd dim integrates in s, where the angular density
    times the Jacobian is smooth.  Even dim >= 4 is not provided.
    """
    if rho == 0.0:
        return float(u.fn(np.array([r]))[0])
    lo, hi = abs(rho - r), rho + r
    if dim == 2:
        th = [0.0, pi]
        for b in u.breaks:
            if lo < b < hi:
                v = (b * b - rho * rho - r * r) / (2.0 * rho * r)
                th.append(float(np.arccos(np.clip(v, -1.0, 1.0))))
        th.sort()
        total = 0.0
        for a, b in zip(th[:-1], th[1:]):
            xs, ws = _gl(order, a, b)
            s = np.sqrt(rho * rho + r * r + 2.0 * rho * r * np.cos(xs))
            total += float(ws @ u.fn(s)) / pi
        return total
    if dim % 2 == 0:
        raise AveragingError(f"sphere quadrature not provided for dim={dim}")
    cuts = sorted({lo, hi} | {b for b in u.breaks if lo < b < hi})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs, ws = _gl(order, a, b)
        v = (xs * xs - rho * rho - r * r) / (2.0 * rho * r)
        total += float(ws @ (_angle_density(dim, v) * xs / (rho * r) * u.fn(xs)))
    return total


def _averaged_fn(u: _RadialFn, factor: RadialProfile, dim: int, order: int) -> _RadialFn:
    nodes = factor.nodes(order)
    breaks: set[float] = set()
    for r, _ in factor.atoms:
        for b in set(u.breaks) | {0.0}:
            for c in (b + r, abs(b - r)):
                if c > 0:
                    breaks.add(c)
    if factor.density is not None:
        # continuous radius spread smears the kinks; keep only the support edge
        breaks.add(factor.support + (max(u.breaks) if u.breaks else 0.0))

    def fn(rhos: np.ndarray) -> np.ndarray:
        return np.array([
            sum(w * _shell_integral(u, dim, rho, r, order) for r, w in nodes)
            for rho in rhos.tolist()
        ])

    return _RadialFn(fn=fn, breaks=tuple(sorted(breaks)))


def _averaged_value(dim: int, s: float, factors: Sequence[RadialProfile],
                    order: int) -> float:
    u = _RadialFn(fn=lambda r: _radial_green(dim, r))
    for factor in reversed(factors):
        u = _averaged_fn(u, factor, dim, order)
    return float(u.fn(np.array([s]))[0])


def sphere_average(dim: int, x, lam: float, spec: EuclideanKernelSpec) -> float:
    """Averaged fundamental solution H(G)(x) at scale lam.

    Each factor i displaces by a vector of length at most alphas[i]/lam drawn
    from its radial profile, direction uniform.  The rotation invariance of
    the integrand reduces every directional average to a one-dimensional
    piecewise Gauss-Legendre integral, so nested averages keep full accuracy
    across the kinks the inner averages introduce.  The value is recomputed
    at twice _SPHERE_ORDER; disagreement past QUAD_RTOL raises.
    """
    if lam <= 0:
        raise AveragingError("lam must be positive")
    if spec.dim != dim:
        raise AveragingError("dimension mismatch")
    s = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    factors = [p.scaled(a / lam) for a, p in zip(spec.alphas, spec.profiles)]
    coarse = _averaged_value(dim, s, factors, _SPHERE_ORDER)
    fine = _averaged_value(dim, s, factors, 2 * _SPHERE_ORDER)
    scale = max(1.0, abs(fine))
    if abs(fine - coarse) > QUAD_RTOL * scale:
        raise AveragingError(
            f"quadrature not converged: order {_SPHERE_ORDER} -> "
            f"{2 * _SPHERE_ORDER} moved {abs(fine - coarse):.3e} (rtol {QUAD_RTOL:g})"
        )
    return fine


@dataclass(frozen=True)
class DeformationProfile:
    """Sampled universal profile f on [0, 1], with f(1) = 0."""

    ts: np.ndarray
    values: np.ndarray

    def __call__(self, t: float) -> float:
        return float(np.interp(t, self.ts, self.values))


def extract_profile_f(dim: int, lam: float, spec: EuclideanKernelSpec,
                      ts: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)
                      ) -> DeformationProfile:
    """Recover f from the closed form H(G)(x) = lam^(n-2) f(|x|^2 lam^2) + G_ball.

    G_ball is the fundamental solution evaluated at the ball radius 1/lam
    (for dim = 2 the subtraction removes the log(lam) offset the same way).
    Samples are taken at |x| = sqrt(t)/lam for t in [0, 1]; the profile is a
    lam-independent function by the scaling structure of the average.
    """
    ts = np.asarray(sorted(set(float(t) for t in ts)))
    if np.any(ts < 0) or np.any(ts > 1):
        raise AveragingError("profile samples must lie in [0, 1]")
    g_ball = fundamental_solution(dim, 1.0 / lam)
    vals = []
    direction = np.zeros(dim)
    direction[0] = 1.0
    for t in ts:
        x = sqrt(t) / lam * direction
        h = sphere_average(dim, x, lam, spec)
        vals.append((h - g_ball) / lam ** (dim - 2))
    return DeformationProfile(ts=ts, values=np.asarray(vals))


def compose_kernels(spec: EuclideanKernelSpec) -> RadialProfile:
    """Fold the factor profiles into one radius distribution.

    The result is the distribution of the total displacement length; its
    support is at most sum(alphas) and its mass is 1 up to quadrature error.
    """
    scaled = [p.scaled(a) for a, p in zip(spec.alphas, spec.profiles)]
    out = scaled[0]
    for nxt in scaled[1:]:
        out = compose_profiles(out, nxt, spec.dim)
    return out
