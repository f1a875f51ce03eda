"""Interacting theory: vertices, Wick combinatorics, and the moment engine.

Minus the log of the partition function of a polynomial interaction under a
Gaussian field is computed exactly at each order of the coupling expansion,
as the sum of connected diagrams (the linked-cluster theorem): each vertex
multiset weighs the joint cumulant of its instances.  The Wick topologies of
a tuple of vertex powers (which legs sit on the mean, the self loops, the
propagator multiplicities between vertices, and the multiplicity counted in
integer arithmetic) are enumerated once per tuple and cached, with the
connected ones apart.  Each topology is contracted by replaying a pairwise
plan cached per subscripts and region size: from `BLAS_MIN_NODES` nodes on,
matrix-product steps run through BLAS, every other step through plain
einsum, so the cost follows the diagram rather than the number of vertices.
A term over very few node tuples is one einsum call instead.

One engine pass serves a whole family of vertex regions
(`NodeGaussian.series`): mean and covariance are gathered once on the union
of the regions, and each vertex carries one weight column per region,
zero off it.  Every instance operand carries that column axis, so a Wick
term is contracted once for all regions and its matrix-vector products
become one matrix product.  A single region is a family of one.

The partition series, its log, and a brute-force matching enumerator are
kept alongside as independent routes; they must never be merged.

The engine imports only `series`: Gaussian data arrive as a `NodeGaussian`
of plain arrays, built in `gluing` from Green bundles and kernels.  Each
datum has one form: a coupling is a constant or one value per node, a vertex
is the (power, weights) instance pair the engine contracts, and a series
leaves the engine as its coefficient array.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, factorial, prod

import numpy as np

from .series import PerturbationSeries

#: hard ceiling on simultaneously contracted field legs
LEG_CAP = 12
#: einsum letter of the weight-column axis that every instance operand carries
BATCH = "z"
#: smallest region at which a matrix-product step runs through BLAS; below
#: it numpy's call overhead costs more than the arithmetic, and einsum is cheaper
BLAS_MIN_NODES = 32
#: most vertex-node tuples (region size to the number of instances) a Wick
#: term may span to be contracted in one einsum step, with no pairwise plan:
#: below it the per-step overhead of a plan costs more than the arithmetic
ONE_STEP_TUPLES = 256


class PerturbationError(ValueError):
    pass


@dataclass(frozen=True)
class InteractionSpec:
    """Polynomial interaction sum_k t_k phi^k (no 1/k! normalization).

    couplings maps the power k to a finite constant or to one finite value
    per node, each held as a float array of zero or one dimension.  Powers
    below 3 may be recorded but must carry zero coupling: they would break
    the series grading of the expansion.
    """

    couplings: dict

    def __post_init__(self):
        couplings = {}
        for k, t in self.couplings.items():
            if int(k) != k or k < 0:
                raise PerturbationError(f"bad interaction power {k}")
            t = np.asarray(t)
            if t.dtype.kind not in "iuf" or t.ndim > 1:
                raise PerturbationError(f"power {k} coupling {t!r}: want a constant "
                                        "or one number per node")
            if not np.all(np.isfinite(t)):
                raise PerturbationError(f"power {k} coupling {t!r} is not finite")
            if k < 3 and np.any(t != 0.0):
                raise PerturbationError(f"power {k} coupling must be zero "
                                        "(breaks the series grading)")
            couplings[k] = t.astype(float)
        object.__setattr__(self, "couplings", couplings)

    def coupling_at(self, k: int, nodes: np.ndarray) -> np.ndarray:
        """Per-node coupling values t_k(p) over the given nodes."""
        t = self.couplings.get(k, np.zeros(()))
        return np.full(nodes.size, float(t)) if t.ndim == 0 else t[nodes]

    def powers(self) -> list[int]:
        return sorted(int(k) for k, t in self.couplings.items()
                      if k >= 3 and np.any(t != 0.0))

    def redefined(self, mapping) -> "InteractionSpec":
        """New spec with couplings replaced by mapping(k, t_k)."""
        return InteractionSpec({k: mapping(k, t) for k, t in self.couplings.items()})


def vertex_terms(interaction: InteractionSpec, region: np.ndarray,
                 volumes: np.ndarray) -> list[tuple]:
    """The interaction's vertices on the region nodes, one (power k, weights
    t_k(p) vol(p) over the region) instance pair per nonzero power."""
    region = np.asarray(region, dtype=int)
    return [(k, interaction.coupling_at(k, region) * volumes[region])
            for k in interaction.powers()]


def wick_pairings(legs):
    """All partial matchings of labeled legs: (pairs, unpaired) tuples.

    Brute-force enumerator; serves as the oracle against the counting
    formulas used in the moment engine.
    """
    legs = list(legs)
    if len(legs) > LEG_CAP:
        raise PerturbationError("order cap exceeded")
    if not legs:
        return [((), ())]
    first, rest = legs[0], legs[1:]
    out = []
    for pairs, unpaired in wick_pairings(rest):
        out.append((pairs, (first,) + unpaired))
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for pairs, unpaired in wick_pairings(remaining):
            out.append((((first, other),) + pairs, unpaired))
    return out


def _pair_matrices(residues):
    """Symmetric nonnegative integer matrices m with 2 m_aa + sum_b m_ab = r_a.

    m_ab counts propagators between instances a and b; m_aa counts self
    loops (each consuming two legs of instance a).
    """
    j = len(residues)
    slots = [(a, b) for a in range(j) for b in range(a, j)]

    def rec(idx, left):
        if idx == len(slots):
            if not any(left):
                yield {}
            return
        a, b = slots[idx]
        cap = left[a] // 2 if a == b else min(left[a], left[b])
        for c in range(cap + 1):
            nxt = list(left)
            nxt[a] -= c  # twice on a self loop, which takes two legs of a
            nxt[b] -= c
            for tail in rec(idx + 1, nxt):
                yield {**tail, (a, b): c} if c else tail

    yield from rec(0, list(residues))


def _pairing_count(residues, m) -> int:
    """Number of labeled-leg pairings realizing the pair-count matrix m."""
    return (prod(factorial(r) for r in residues)
            // prod(2**c * factorial(c) if a == b else factorial(c)
                   for (a, b), c in m.items()))


@dataclass(frozen=True)
class _Term:
    """One Wick topology of a tuple of instance powers.

    us    : legs of each instance set to the mean.
    loops : self-loop count of each instance.
    cross : ((a, b), c) propagator multiplicities between instances a < b.
    mult  : integer count of labeled terms with this topology, as a float.
    subs  : einsum subscripts contracting the per-instance vectors, then the
            cross propagators, to a scalar.
    """

    us: tuple
    loops: tuple
    cross: tuple
    mult: float
    subs: str


@functools.lru_cache(maxsize=None)
def _topologies(powers: tuple) -> tuple:
    """Every term of the moment expansion for these instance powers, in sum order."""
    j = len(powers)
    letters = "abcdefghijkl"[:j]
    terms = []
    for us in itertools.product(*[range(k + 1) for k in powers]):
        residues = [k - u for k, u in zip(powers, us)]
        if sum(residues) % 2:
            continue
        comb_u = 1
        for k, u in zip(powers, us):
            comb_u *= comb(k, u)
        for m in _pair_matrices(residues):
            loops = tuple(m.get((a, a), 0) for a in range(j))
            cross = tuple(((a, b), c) for (a, b), c in m.items() if a != b)
            subs = ",".join(list(letters) + [letters[a] + letters[b]
                                             for (a, b), _ in cross]) + "->"
            terms.append(_Term(us, loops, cross,
                               float(comb_u * _pairing_count(residues, m)), subs))
    return tuple(terms)


def _linked(j: int, cross) -> bool:
    """Whether the cross propagators link all j instances into one graph."""
    linked = {0}
    for _ in range(j):
        linked |= {b for (a, b), _ in cross if a in linked}
        linked |= {a for (a, b), _ in cross if b in linked}
    return len(linked) == j


@functools.lru_cache(maxsize=None)
def _connected_topologies(powers: tuple) -> tuple:
    """The terms of `_topologies` whose instance graph is connected."""
    return tuple(t for t in _topologies(powers) if _linked(len(powers), t.cross))


def _contraction_path(subs: str, n: int) -> tuple:
    """Greedy einsum path for subscripts over region size n (reads only shapes)."""
    shapes = [(n,) * len(s) for s in subs[:-2].split(",")]
    ops = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subs, *ops, optimize="greedy")[0])


@functools.lru_cache(maxsize=1024)
def _contraction_plan(subs: str, n: int) -> tuple:
    """The greedy path of subs over region size n as replayable batched steps.

    Every instance operand carries the weight-column letter BATCH, kept to
    the end, so one replay contracts all columns; the path is searched on
    subs without it.  Each step is (operand positions, step subscripts,
    tensordot axes).  A term over at most ONE_STEP_TUPLES node tuples is a
    single einsum step.  Otherwise the steps follow the greedy path: a
    two-operand step over three or more distinct indices, with at least one
    index summed between the two and every other one kept for later steps, is
    a matrix product, and from BLAS_MIN_NODES nodes on it carries its
    tensordot axes, so it runs through BLAS and its result keeps tensordot's
    index order.  Every other step runs through plain einsum.  Caching the
    plan spares numpy's path search and these choices on every call, and
    makes equal inputs contract in the same order, hence bitwise equal.
    """
    inputs = [s if len(s) == 2 else s + BATCH for s in subs[:-2].split(",")]
    if n ** sum(BATCH in s for s in inputs) <= ONE_STEP_TUPLES:
        return ((tuple(reversed(range(len(inputs)))),
                 ",".join(reversed(inputs)) + "->" + BATCH, None),)
    plan = []
    for step in _contraction_path(subs, n)[1:]:
        positions = tuple(sorted(step, reverse=True))
        taken = [inputs.pop(i) for i in positions]
        kept = set("".join(inputs)) | {BATCH}
        axes = None
        if len(taken) == 2 and len(set("".join(taken))) >= 3 and n >= BLAS_MIN_NODES:
            x, y = taken
            shared = [c for c in x if c in y]  # in x's order: not hash order
            if shared and not kept & set(shared) and set(x) ^ set(y) <= kept:
                axes = ([x.index(c) for c in shared], [y.index(c) for c in shared])
                out = "".join(c for c in x + y if c not in shared)
        if axes is None:
            out = "".join(sorted(set("".join(taken)) & kept))
        inputs.append(out)
        plan.append((positions, ",".join(taken) + "->" + out, axes))
    return tuple(plan)


def _contract(subs: str, ops: list, n: int) -> np.ndarray:
    """Per-column einsum of subs over ops along the cached plan for region size n."""
    for positions, step, axes in _contraction_plan(subs, n):
        args = [ops.pop(i) for i in positions]
        ops.append(np.einsum(step, *args) if axes is None
                   else np.tensordot(*args, axes=axes))
    return ops[0]


def _instance_powers(instances) -> tuple:
    powers = tuple(k for k, _ in instances)
    if sum(powers) > LEG_CAP:
        raise PerturbationError("order cap exceeded")
    return powers


def _wick_sum(instances, mean: np.ndarray, cov: np.ndarray, terms):
    """Sum of the given Wick topologies of the instances.

    Instance weights of shape (n, K) hold K weightings of the same instances,
    one per column; every topology is contracted once for all columns and the
    result has shape (K,).  Weights of shape (n,) are one column, and the
    result is a float.  The terms are summed as one matrix-vector product of
    their multiplicities with their per-column values.  Instance operands are
    cached across terms; an elementwise power of cov, for a propagator
    multiplicity above 1, is formed where a term reads it and dropped after.
    """
    ws = [w if np.ndim(w) == 2 else np.asarray(w)[:, None] for _, w in instances]
    mean, diag = mean[:, None], np.diag(cov)[:, None]
    legs = {}  # instance operands, one per (weights, mean legs, self loops)
    # per-term multiplicities and contractions; the zero row keeps an empty
    # sum well formed
    mults, values = [0.0], [np.zeros(ws[0].shape[1] if ws else 1)]
    for t in terms:
        ops = []
        for (_, given), w, u, c in zip(instances, ws, t.us, t.loops):
            key = (id(given), u, c)
            if key not in legs:
                v = w * mean**u if u else w
                legs[key] = v * diag**c if c else v
            ops.append(legs[key])
        ops.extend(cov if c == 1 else cov**c for _, c in t.cross)
        mults.append(t.mult)
        values.append(_contract(t.subs, ops, mean.size))
    total = np.array(mults) @ np.array(values)
    return total if instances and np.ndim(instances[0][1]) == 2 else float(total[0])


def gaussian_expectation(instances, mean: np.ndarray, cov: np.ndarray):
    """E[prod_i sum_p w_i(p) (mean(p) + g(p))^(k_i)] for centered Gaussian g.

    instances: list of (power k_i, weights over region nodes), the weights of
    shape (n,) for one vertex region or (n, K) for K at once, see `_wick_sum`.
    mean, cov: background values and leg covariance over the same nodes.
    """
    powers = _instance_powers(instances)
    if not powers:
        return 1.0
    return _wick_sum(instances, mean, cov, _topologies(powers))


def gaussian_cumulant(instances, mean: np.ndarray, cov: np.ndarray):
    """Joint cumulant of the instance sums of `gaussian_expectation`.

    By the linked-cluster theorem it is the sum of the connected Wick
    topologies only: those whose cross propagators link every instance.
    """
    return _wick_sum(instances, mean, cov,
                     _connected_topologies(_instance_powers(instances)))


def _vertex_counts(xpowers, xmax: int):
    """(counts per vertex, x-power) of each nonempty multiset within xmax."""
    ranges = [range(xmax // x + 1) for x in xpowers]
    for counts in itertools.product(*ranges):
        xpow = sum(x * c for x, c in zip(xpowers, counts))
        if xpow <= xmax and any(counts):
            yield counts, xpow


def leg_budget(powers, max_order: float) -> int:
    """Most field legs in one term of `interaction_z_series` through max_order."""
    xmax = int(round(2 * max_order))
    return max((sum(k * c for k, c in zip(powers, counts))
                for counts, _ in _vertex_counts([k - 2 for k in powers], xmax)),
               default=0)


def _vertex_series(vertices, mean: np.ndarray, cov: np.ndarray,
                   max_order: float, moment, columns: int = 1) -> np.ndarray:
    """Coefficients in x of the sum over vertex multisets within the order
    budget of prod_v (-1)^(c_v) / c_v! times moment(instances), one column per
    weight column of the vertices (see `_wick_sum`).  A vertex is a
    (power k, weights) pair and carries x^(k - 2).

    The prefactor is one float division of exact integers, so it is correctly
    rounded; the moment engine enforces the leg budget.  Order 0 is left at zero.
    """
    xmax = int(round(2 * max_order))
    coeffs = np.zeros((xmax + 1, columns))
    for counts, xpow in _vertex_counts([k - 2 for k, _ in vertices], xmax):
        pref = (-1) ** sum(counts) / prod(factorial(c) for c in counts)
        instances = []
        for v, c in zip(vertices, counts):
            instances.extend([v] * c)  # one weights object: `_wick_sum` caches by id
        coeffs[xpow] += pref * moment(instances, mean, cov)
    return coeffs


def interaction_z_series(vertices, mean: np.ndarray, cov: np.ndarray,
                         max_order: float) -> PerturbationSeries:
    """Series of E[exp(-V)] in x = sqrt(hbar), truncated at x^(2 max_order)."""
    coeffs = _vertex_series(vertices, mean, cov, max_order, gaussian_expectation)[:, 0]
    coeffs[0] = 1.0
    return PerturbationSeries(coeffs)


@dataclass(frozen=True)
class NodeGaussian:
    """Free data over every node: order-0 action, averaged mean leg and
    propagator.  It does not depend on the couplings or the vertex region."""

    order0: float
    mean: np.ndarray
    cov: np.ndarray

    def series(self, interaction: InteractionSpec, regions, volumes: np.ndarray,
               max_order: float) -> list[PerturbationSeries]:
        """Minus log of E[exp(-V)] plus order 0, one series per vertex region.

        The family is one engine pass: mean and covariance are gathered once
        on the union of the regions, and each vertex carries one weight
        column per region, zero off that region, so every Wick topology is
        contracted once for all regions.  One region is a family of one.
        A region is the set of its node ids, marked in a mask over the nodes,
        so their order and repeats do not matter and regions may overlap.
        """
        inside = np.zeros((volumes.size, len(regions)), dtype=bool)
        for k, r in enumerate(regions):
            inside[np.asarray(r, dtype=int), k] = True
        union = np.flatnonzero(inside.any(axis=1))
        inside = inside[union]
        vertices = [(k, np.where(inside, w[:, None], 0.0))
                    for k, w in vertex_terms(interaction, union, volumes)]
        w = -_vertex_series(vertices, self.mean[union], self.cov[np.ix_(union, union)],
                            max_order, gaussian_cumulant, len(regions))
        w[0] = 0.0  # log of the constant term 1
        w[0] += self.order0
        return [PerturbationSeries(c.copy()) for c in w.T]
