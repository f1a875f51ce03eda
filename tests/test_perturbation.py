import gc
import itertools
import weakref
from math import comb, factorial, prod

import numpy as np
import pytest

from cutglue.green import green_bundle
from cutglue.kernels import build_mesh_kernel, regularized_green
from cutglue.meshes import Mesh, build_grid_mesh, build_interval_mesh
from cutglue.operators import OperatorSpec
from cutglue.perturbation import (BLAS_MIN_NODES, LEG_CAP, InteractionSpec,
                                  NodeGaussian, PerturbationError, VertexType,
                                  _vertex_series, averaged_gaussian,
                                  effective_action_series, gaussian_cumulant,
                                  gaussian_expectation, interaction_z_series,
                                  leg_budget, vertex_terms, wick_pairings)
from cutglue.series import PerturbationSeries, series_exp, series_log

M0 = OperatorSpec(0.0)


def interaction_w_series(vertices, mean, cov, max_order):
    """Series of -log E[exp(-V)] by the linked-cluster route: the vertex
    multisets and prefactors of `interaction_z_series`, each weighing the
    joint cumulant of its instances.  The one-region case of
    `NodeGaussian.series`, taking vertices instead of an interaction."""
    coeffs = -_vertex_series(vertices, mean, cov, max_order, gaussian_cumulant)[:, 0]
    coeffs[0] = 0.0  # log of the constant term 1
    return PerturbationSeries.from_array(coeffs, max_order)


def partition_series(mesh, spec, kernel, interaction, eta, max_order):
    """Regularized partition function as a series: exp of minus the action series."""
    return series_exp(-effective_action_series(green_bundle(mesh, spec), kernel,
                                                interaction, eta, max_order))


def test_interaction_spec_validation():
    spec = InteractionSpec({3: 0.3, 4: 0.0})
    assert spec.powers() == [3]
    with pytest.raises(PerturbationError):
        InteractionSpec({2: 1.0})
    with pytest.raises(PerturbationError):
        InteractionSpec({-1: 1.0})
    InteractionSpec({2: 0.0, 3: 1.0})  # zero low-power couplings are fine


def test_position_dependent_coupling():
    spec = InteractionSpec({3: {1: 0.5, 2: 1.5}})
    np.testing.assert_array_equal(spec.coupling_at(3, np.array([1, 2, 3])),
                                  [0.5, 1.5, 0.0])


def test_vertex_terms_trim_table():
    mesh = build_interval_mesh(3, 1.0)
    region = mesh.trim_to_deformed(0.5)
    assert list(region) == [2]
    vs = vertex_terms(InteractionSpec({3: 0.3}), region, mesh.node_volumes)
    assert len(vs) == 1
    v = vs[0]
    assert v.power == 3 and v.xpower == 1  # order sqrt(hbar)
    np.testing.assert_allclose(v.weights, [0.3])
    assert vertex_terms(InteractionSpec({}), region, mesh.node_volumes) == []


def test_wick_pairing_counts():
    # full pairings of 2m legs: (2m-1)!!
    for m, expect in [(1, 1), (2, 3), (3, 15), (4, 105)]:
        pairings = wick_pairings(range(2 * m))
        assert sum(1 for p, u in pairings if not u) == expect


def test_wick_four_leg_breakdown():
    pairings = wick_pairings(range(4))
    assert sum(1 for p, u in pairings if len(p) == 2) == 3
    assert sum(1 for p, u in pairings if len(p) == 1) == 6
    assert sum(1 for p, u in pairings if not p) == 1


def test_wick_two_legs():
    pairings = wick_pairings(["a", "b"])
    assert (((("a", "b"),), ()) in pairings)
    assert ((), ("a", "b")) in pairings
    assert len(pairings) == 2


def test_wick_leg_cap():
    with pytest.raises(PerturbationError, match="order cap"):
        wick_pairings(range(14))


def links_all(pairs, j):
    """Whether the pairs between legs (instance, slot) link all j instances."""
    linked = {0}
    for _ in range(j):
        for (i1, _), (i2, _) in pairs:
            if i1 in linked or i2 in linked:
                linked |= {i1, i2}
    return len(linked) == j


def brute_expectation(instances, mean, cov, connected=False):
    """Independent route: explicit node sums over every labeled matching.

    With connected=True only the matchings that link every instance count,
    which is the joint cumulant.
    """
    n = mean.size
    legs = []
    for i, (k, _) in enumerate(instances):
        legs.extend((i, s) for s in range(k))
    pairings = [(pairs, unpaired) for pairs, unpaired in wick_pairings(legs)
                if not connected or links_all(pairs, len(instances))]
    grids = [range(n)] * len(instances)
    total = 0.0
    for nodes in itertools.product(*grids):
        weight = 1.0
        for (k, w), p in zip(instances, nodes):
            weight *= w[p]
        for pairs, unpaired in pairings:
            term = weight
            for (i1, _), (i2, _) in pairs:
                term *= cov[nodes[i1], nodes[i2]]
            for i, _ in unpaired:
                term *= mean[nodes[i]]
            total += term
    return total


def test_engine_matches_brute_force():
    rng = np.random.default_rng(3)
    n = 3
    mean = rng.standard_normal(n)
    root = rng.standard_normal((n, n))
    cov = root @ root.T
    for powers in [(3,), (4,), (3, 3), (3, 4), (3, 3, 3), (4, 4)]:
        instances = [(k, rng.standard_normal(n)) for k in powers]
        got = gaussian_expectation(instances, mean, cov)
        want = brute_expectation(instances, mean, cov)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_cumulant_matches_connected_brute_force():
    rng = np.random.default_rng(4)
    n = 3
    mean = rng.standard_normal(n)
    root = rng.standard_normal((n, n))
    cov = root @ root.T
    for powers in [(3,), (4,), (3, 3), (3, 4), (3, 3, 3), (4, 4)]:
        instances = [(k, rng.standard_normal(n)) for k in powers]
        got = gaussian_cumulant(instances, mean, cov)
        want = brute_expectation(instances, mean, cov, connected=True)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), powers


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def test_cumulant_is_the_moment_cumulant_sum():
    """kappa(X_1..X_j) = sum over set partitions of (-1)^(b-1) (b-1)! times
    the product of block moments, for every multiset of cubic and quartic
    instances within LEG_CAP."""
    rng = np.random.default_rng(6)
    n = 3
    mean = rng.standard_normal(n)
    root = rng.standard_normal((n, n))
    cov = root @ root.T / n
    weights = {3: rng.standard_normal(n), 4: rng.standard_normal(n)}
    for c3, c4 in itertools.product(range(5), range(4)):
        if not 0 < 3 * c3 + 4 * c4 <= LEG_CAP:
            continue
        instances = [(k, weights[k]) for k in [3] * c3 + [4] * c4]
        want = 0.0
        for part in set_partitions(list(range(len(instances)))):
            b = len(part)
            want += (-1) ** (b - 1) * factorial(b - 1) * prod(
                gaussian_expectation([instances[i] for i in block], mean, cov)
                for block in part)
        got = gaussian_cumulant(instances, mean, cov)
        assert got == pytest.approx(want, rel=1e-10), (c3, c4)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_w_series_is_minus_log_of_z_series(n):
    """The linked-cluster route agrees with log of the partition series at
    every order.  Cubics and quartics through order 2 and quartics through
    order 3 reach every vertex multiset a series within LEG_CAP holds."""
    rng = np.random.default_rng(n)
    mean = rng.standard_normal(n)
    root = rng.standard_normal((n, n))
    cov = root @ root.T / n
    w3, w4 = 0.2 * rng.standard_normal(n), 0.1 * rng.standard_normal(n)
    for vertices, max_order in [
            ([VertexType(3, 1, w3), VertexType(4, 2, w4)], 2.0),
            ([VertexType(4, 2, w4)], 3.0)]:
        got = interaction_w_series(vertices, mean, cov, max_order)
        want = -series_log(interaction_z_series(vertices, mean, cov, max_order))
        for o in want.orders():
            assert got.coeff(o) == pytest.approx(want.coeff(o), rel=1e-12,
                                                 abs=0.0), (max_order, o)


def test_engine_single_node_closed_form():
    # one node, unit variance: the product of instances is (m + g)^L with
    # E[g^k] = (k - 1)!! for even k
    m = 0.7
    mean, cov, one = np.array([m]), np.array([[1.0]]), np.ones(1)
    for j in range(1, LEG_CAP // 3 + 1):
        for powers in itertools.product((3, 4), repeat=j):
            legs = sum(powers)
            if legs > LEG_CAP:
                continue
            want = sum(comb(legs, k) * m ** (legs - k) * prod(range(k - 1, 0, -2))
                       for k in range(0, legs + 1, 2))
            got = gaussian_expectation([(k, one) for k in powers], mean, cov)
            assert got == pytest.approx(want, rel=1e-12), powers


def test_leg_budget_mixed_powers():
    # two quartics carry 8 legs, but a quartic and a quintic fit the same
    # x-budget of 5 with 9
    assert leg_budget([4, 5], 2.5) == 9
    assert leg_budget([4], 2.5) == 8
    assert leg_budget([3], 3.0) == 18
    assert leg_budget([], 1.5) == 0
    assert leg_budget([3, 4], 0.0) == 0


@pytest.mark.parametrize("powers", [(3,), (4,), (3, 4), (4, 5), (3, 6)])
def test_leg_budget_decides_the_engine_cap(powers):
    """The budget is within LEG_CAP exactly when the z-series expands."""
    mean, cov, one = np.array([0.3]), np.array([[1.0]]), np.ones(1)
    vertices = [VertexType(power=k, xpower=k - 2, weights=one) for k in powers]
    for twice in range(9):
        max_order = twice / 2
        for series in (interaction_z_series, interaction_w_series):
            if leg_budget(powers, max_order) <= LEG_CAP:
                series(vertices, mean, cov, max_order)
            else:
                with pytest.raises(PerturbationError, match="order cap"):
                    series(vertices, mean, cov, max_order)


def test_engine_is_bitwise_repeatable():
    rng = np.random.default_rng(5)
    n = 7
    mean = rng.standard_normal(n)
    root = rng.standard_normal((n, n))
    cov = root @ root.T
    instances = [(k, rng.standard_normal(n)) for k in (3, 4, 3)]
    columns = [(k, rng.standard_normal((n, 5))) for k in (3, 4, 3)]
    for moment in (gaussian_expectation, gaussian_cumulant):
        first = moment(instances, mean, cov)
        assert moment(instances, mean, cov) == first
        batch = moment(columns, mean, cov)
        assert batch.shape == (5,)
        assert np.array_equal(moment(columns, mean, cov), batch)


def test_z_series_releases_its_inputs():
    mesh = build_interval_mesh(5, 1.0)
    region = mesh.interior
    inter = InteractionSpec({3: 0.3, 4: 0.2})
    vertices = vertex_terms(inter, region, mesh.node_volumes)
    rng = np.random.default_rng(7)
    mean = rng.standard_normal(region.size)
    gc.disable()
    try:
        for series in (interaction_z_series, interaction_w_series):
            cov = np.eye(region.size)
            ref = weakref.ref(cov)
            series(vertices, mean, cov, 1.5)
            del cov
            assert ref() is None, series.__name__
        # a family of regions: gathered covariance, weight columns, plans
        cov = np.eye(mesh.n_nodes)
        gaussian = NodeGaussian(0.0, rng.standard_normal(mesh.n_nodes), cov)
        refs = [weakref.ref(cov), weakref.ref(gaussian)]
        family = gaussian.series(inter, [region[:2], region, region[1:]],
                                 mesh.node_volumes, 1.5)
        assert len(family) == 3
        del cov, gaussian
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def _path9(couplings, max_order=1.5):
    mesh = build_interval_mesh(7, 1.0)
    gaussian = averaged_gaussian(build_mesh_kernel(mesh, 1.0), np.array([1.0, -0.5]),
                                 green_bundle(mesh, M0))
    return gaussian, InteractionSpec(couplings), mesh, max_order


def _grid(nx, lam):
    mesh = build_grid_mesh(nx, nx, 1.0)
    eta = 0.2 * np.arange(mesh.boundary.size)
    gaussian = averaged_gaussian(build_mesh_kernel(mesh, lam, "bump"), eta,
                                 green_bundle(mesh, OperatorSpec(0.1)))
    return gaussian, InteractionSpec({3: 0.2, 4: 0.1}), mesh, 1.5


def _interval401():
    mesh = build_interval_mesh(401, 1.0)
    gaussian = averaged_gaussian(build_mesh_kernel(mesh, 0.05, "bump"),
                                 np.array([0.4, -0.9]),
                                 green_bundle(mesh, OperatorSpec(0.1)))
    return gaussian, InteractionSpec({3: 0.3, 4: 0.2}), mesh, 1.0


def _widening(start, nodes):
    """Regions grown from start by one node at a time, like the widening."""
    return [np.union1d(start, nodes[:k]) for k in range(1, len(nodes) + 1)]


FAMILIES = {
    "path9-nested-order-1.5": lambda: (
        _path9({3: 0.3, 4: 0.2}), _widening([3, 4], [5, 2, 6, 1, 7])),
    "grid5-nested-order-1.5": lambda: (
        _grid(5, 1.0), _widening([12], [7, 11, 13, 17, 6, 8, 16, 18])),
    # past BLAS_MIN_NODES, so the triangles' matrix products run through BLAS
    "grid9-nested-order-1.5": lambda: (
        _grid(9, 1.0), _widening(np.arange(20, 61), [10, 11, 12, 13, 14, 15, 16])),
    "interval401-nested-order-1": lambda: (
        _interval401(), _widening(np.arange(30, 370), [29, 370, 28, 371, 27, 372])),
    "path9-non-nested-node-couplings": lambda: (
        _path9({3: {1: 0.1, 2: -0.3, 4: 0.5, 6: 0.2, 7: 0.05}, 4: 0.2}),
        [np.array(r) for r in ([1, 2, 3], [3, 4, 5, 6], [2, 7], [6], [1, 7])]),
    # four cubic vertices reach the K4 topology
    "path9-order-2": lambda: (
        _path9({3: 0.3, 4: 0.2}, max_order=2.0), _widening([4], [3, 5, 2, 6, 1, 7])),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_columns_match_single_regions(name):
    """Each column of one batched engine pass equals the one-region call per
    order, and at n <= 6 also the expectation-and-log route."""
    (gaussian, inter, mesh, max_order), regions = FAMILIES[name]()
    vols = mesh.node_volumes
    family = gaussian.series(inter, regions, vols, max_order)
    assert len(family) == len(regions)
    if name.startswith("grid9"):
        assert min(r.size for r in regions) >= BLAS_MIN_NODES
    for r, got in zip(regions, family):
        single = gaussian.series(inter, [r], vols, max_order)[0]
        np.testing.assert_allclose(got.to_array(), single.to_array(), rtol=1e-12,
                                   atol=0.0, err_msg=f"region {r.tolist()}")
        if r.size <= 6:
            z = interaction_z_series(vertex_terms(inter, r, vols), gaussian.mean[r],
                                     gaussian.cov[np.ix_(r, r)], max_order)
            oracle = -series_log(z).to_array()
            oracle[0] += gaussian.order0
            np.testing.assert_allclose(got.to_array(), oracle, rtol=1e-12, atol=0.0,
                                       err_msg=f"region {r.tolist()}")


def test_free_series_is_order_zero_only():
    mesh = build_interval_mesh(3, 1.0)
    kernel = build_mesh_kernel(mesh, 1.0)
    eta = np.array([1.0, 0.0])
    w = effective_action_series(green_bundle(mesh, M0), kernel, InteractionSpec({}),
                                eta, 1.5)
    assert w.coeff(0.0) == pytest.approx(0.125, abs=1e-14)
    assert all(w.coeff(o) == 0.0 for o in w.orders() if o > 0)


def test_cubic_tadpole_coefficient():
    mesh = build_interval_mesh(3, 1.0)
    spec = M0
    bundle = green_bundle(mesh, spec)
    kernel = build_mesh_kernel(mesh, 1.0)
    eta = np.array([1.0, 0.0])
    t3 = 0.3
    w = effective_action_series(bundle, kernel, InteractionSpec({3: t3}), eta, 1.5)
    region = mesh.trim_to_deformed(1.0)
    mean = (kernel.matrix @ bundle.extend(eta))[region]
    g_reg = regularized_green(kernel, bundle)
    diag = np.diag(g_reg)[region]
    oracle = t3 * np.sum(mesh.node_volumes[region] * (mean**3 + 3 * mean * diag))
    assert w.coeff(0.5) == pytest.approx(oracle, abs=1e-13)


def test_quartic_vacuum_coefficient():
    mesh = build_interval_mesh(3, 1.0)
    bundle = green_bundle(mesh, M0)
    kernel = build_mesh_kernel(mesh, 1.0)
    t4 = 0.2
    w = effective_action_series(bundle, kernel, InteractionSpec({4: t4}),
                                np.zeros(2), 1.0)
    region = mesh.trim_to_deformed(1.0)
    g_reg = regularized_green(kernel, bundle)
    diag = np.diag(g_reg)[region]
    oracle = 3 * t4 * np.sum(mesh.node_volumes[region] * diag**2)
    assert w.coeff(1.0) == pytest.approx(oracle, abs=1e-13)
    assert w.coeff(0.5) == 0.0  # odd leg count


def test_partition_and_action_are_exp_log_partners():
    mesh = build_interval_mesh(5, 1.0)
    kernel = build_mesh_kernel(mesh, 1.0)
    eta = np.array([0.7, -0.4])
    inter = InteractionSpec({3: 0.3, 4: 0.2})
    w = effective_action_series(green_bundle(mesh, M0), kernel, inter, eta, 1.5)
    z = partition_series(mesh, M0, kernel, inter, eta, 1.5)
    back = -series_log(z)
    assert w.max_abs_diff(back) <= 1e-12
    assert z.coeff(0.5) == pytest.approx(-np.exp(-w.coeff(0.0)) * w.coeff(0.5),
                                         abs=1e-12)


def test_zero_couplings_partition_is_one():
    mesh = build_interval_mesh(3, 1.0)
    kernel = build_mesh_kernel(mesh, 1.0)
    z = partition_series(mesh, M0, kernel, InteractionSpec({}),
                         np.zeros(2), 1.5)
    np.testing.assert_allclose(z.to_array(), [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_identity_kernel_full_region_reduces_to_unregularized():
    mesh = build_interval_mesh(5, 1.0)
    bundle = green_bundle(mesh, M0)
    identity = build_mesh_kernel(mesh, 2.5)
    assert identity.is_identity
    eta = np.array([1.0, 0.5])
    inter = InteractionSpec({3: 0.1})
    w = effective_action_series(bundle, identity, inter, eta, 1.5,
                                region=mesh.interior)
    # unregularized tadpole: plain extension and plain Green diagonal
    phi = bundle.extend(eta)[mesh.interior]
    diag = np.diag(bundle.green)
    oracle = 0.1 * np.sum(mesh.node_volumes[mesh.interior]
                          * (phi**3 + 3 * phi * diag))
    assert w.coeff(0.5) == pytest.approx(oracle, abs=1e-13)


def test_relabeling_invariance():
    mesh = build_interval_mesh(3, 1.0)
    perm = np.array([4, 2, 0, 3, 1])  # new index of each old node
    inv = np.argsort(perm)
    shuffled = Mesh(
        positions=mesh.positions[inv],
        edges=perm[mesh.edges],
        edge_weights=mesh.edge_weights,
        edge_lengths=mesh.edge_lengths,
        node_volumes=mesh.node_volumes[inv],
        boundary=np.sort(perm[mesh.boundary]),
        dim=1,
        spacing=1.0,
    )
    inter = InteractionSpec({3: 0.3})
    eta = np.array([1.0, -0.5])  # ordered along mesh.boundary = [0, 4]
    k1 = build_mesh_kernel(mesh, 1.0)
    w1 = effective_action_series(green_bundle(mesh, M0), k1, inter, eta, 1.5)
    pos = {int(n): k for k, n in enumerate(np.sort(perm[mesh.boundary]))}
    eta2 = np.zeros(2)
    for old, val in zip(mesh.boundary, eta):
        eta2[pos[int(perm[old])]] = val
    k2 = build_mesh_kernel(shuffled, 1.0)
    w2 = effective_action_series(green_bundle(shuffled, M0), k2, inter, eta2, 1.5)
    assert w1.max_abs_diff(w2) <= 1e-12


def test_order_cap_exceeded_in_series():
    mesh = build_interval_mesh(3, 1.0)
    kernel = build_mesh_kernel(mesh, 1.0)
    with pytest.raises(PerturbationError, match="order cap"):
        effective_action_series(green_bundle(mesh, M0), kernel,
                                InteractionSpec({3: 0.1}), np.zeros(2), 6.0)
