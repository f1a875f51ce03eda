import functools
from dataclasses import replace

import numpy as np
import pytest

from cutglue import gluing
from cutglue.gluing import (GluingContext, GluingError, ScaleData, _node_mask,
                            glued_gaussian, glued_series, lambda_sweep,
                            renormalization_commutes, verify_gluing_theorem,
                            whole_series)
from cutglue.green import green_bundle, quadratic_form_S0
from cutglue.meshes import (LEFT, RIGHT, build_grid_mesh, build_interval_mesh,
                            cut_along_interface)
from cutglue.operators import OperatorSpec
from cutglue.perturbation import InteractionSpec
from cutglue.reports import Report, gap
from test_perturbation import boundary_field, effective_action_series

M0 = OperatorSpec(0.0)


def _eta(mesh, values):
    """The scenarios' Dirichlet data: None, or one value per boundary node."""
    return None if values is None else boundary_field(mesh, values)


def path9_scenario(couplings, eta=None, lam=1.0, max_order=1.5):
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    return ScaleData(context=GluingContext(mesh, M0, cut),
                     interaction=InteractionSpec(couplings), lam=lam,
                     eta=_eta(mesh, eta), max_order=max_order)


def grid_scenario(couplings, eta=None, lam=2.5, mass=0.1):
    mesh = build_grid_mesh(5, 5, 1.0)
    cut = cut_along_interface(mesh, lambda n: mesh.positions[n][0] == 2.0)
    ctx = GluingContext(mesh, OperatorSpec(mass), cut)
    return ScaleData(context=ctx, interaction=InteractionSpec(couplings),
                     lam=lam, eta=_eta(mesh, eta), max_order=1.5)


def test_scenario_validation():
    mesh = build_interval_mesh(7, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 4)
    ctx = GluingContext(mesh, M0, cut)
    with pytest.raises(GluingError, match="lambda_1"):
        ScaleData(context=ctx, interaction=InteractionSpec({}), lam=0.2)
    # above lambda_1 = 1/4, but no side node is 1/0.4 from its side's boundary
    with pytest.raises(GluingError, match=r"^empty vertex region at lam 0\.4: no side "
                                          r"node is 1/lam or more from its side's boundary$"):
        ScaleData(context=ctx, interaction=InteractionSpec({}), lam=0.4)
    with pytest.raises(GluingError, match="eta"):
        ScaleData(context=ctx, interaction=InteractionSpec({}), lam=1.0,
                  eta=np.array([1.0]))


@pytest.mark.parametrize("eta, message", [
    (np.array([1.0, -0.5]), r"eta must be a node field of shape \(9,\), got \(2,\)"),
    (np.zeros(10), r"eta must be a node field of shape \(9,\), got \(10,\)"),
    (np.zeros((1, 9)), r"eta must be a node field of shape \(9,\), got \(1, 9\)"),
    (np.eye(9)[2], "eta must be zero off the boundary, interface included"),
    (np.eye(9)[4], "eta must be zero off the boundary, interface included"),
    (np.full(9, np.nan), "eta must be zero off the boundary, interface included"),
], ids=["boundary-list", "long", "batched", "interior-node", "interface-node", "nan"])
def test_scale_data_refuses_eta_not_a_boundary_field(eta, message):
    """Node 4 of the nine-node path is the interface, node 2 a side interior
    node; eta must be an (N,) node field that is zero off nodes 0 and 8."""
    mesh = build_interval_mesh(7, 1.0)
    ctx = GluingContext(mesh, M0, cut_along_interface(mesh, lambda n: n == 4))
    with pytest.raises(GluingError, match=f"^{message}$"):
        ScaleData(context=ctx, interaction=InteractionSpec({}), lam=1.0, eta=eta)


def test_scale_data_keeps_a_read_only_copy_of_eta():
    mesh = build_interval_mesh(7, 1.0)
    ctx = GluingContext(mesh, M0, cut_along_interface(mesh, lambda n: n == 4))
    given = np.zeros(9, dtype=int)
    given[0] = 2
    data = ScaleData(context=ctx, interaction=InteractionSpec({}), lam=1.0, eta=given)
    given[0] = 3
    assert data.eta.dtype == float and data.eta.tolist() == [2.0] + [0.0] * 8
    assert not data.eta.flags.writeable
    assert path9_scenario({}).eta.tolist() == [0.0] * 9


def test_free_order_zero_equals_whole_action():
    mesh = build_interval_mesh(3, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 2)
    eta = boundary_field(mesh, [1.0, -0.5])
    data = ScaleData(context=GluingContext(mesh, M0, cut),
                     interaction=InteractionSpec({}), lam=1.0, eta=eta,
                     max_order=1.0)
    glued = glued_series(data)
    bundle = green_bundle(mesh, M0)
    s0 = quadratic_form_S0(mesh, M0, bundle.extend(eta))
    assert abs(glued.coeff(0.0) - s0) <= 1e-12
    assert all(glued.coeff(o) == 0.0 for o in glued.orders() if o > 0)


def test_cubic_tadpole_matches_whole():
    data = path9_scenario({3: 0.3}, eta=np.array([1.0, -0.5]))
    glued = glued_series(data)
    whole = whole_series(data)
    assert abs(glued.coeff(0.5) - whole.coeff(0.5)) <= 1e-10
    assert glued.coeff(0.5) != 0.0


@pytest.mark.parametrize("couplings", [{}, {3: 0.3}, {4: 0.2}, {3: 0.3, 4: 0.2}])
@pytest.mark.parametrize("with_eta", [False, True])
def test_theorem_on_nine_path(couplings, with_eta):
    eta = np.array([1.0, -0.5]) if with_eta else None
    rep = verify_gluing_theorem(path9_scenario(couplings, eta=eta), widen=True)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert rep.max_residual <= 1e-10


@pytest.mark.parametrize("couplings", [{3: 0.2}, {4: 0.1}, {3: 0.2, 4: 0.1}])
@pytest.mark.parametrize("with_eta", [False, True])
def test_theorem_on_grid(couplings, with_eta):
    mesh = build_grid_mesh(5, 5, 1.0)
    eta = 0.2 * np.arange(mesh.boundary.size) if with_eta else None
    rep = verify_gluing_theorem(grid_scenario(couplings, eta=eta), widen=True)
    assert rep.passed and rep.max_residual <= 1e-10


def test_widening_terminates_at_trimmed_set():
    data = path9_scenario({3: 0.3, 4: 0.2}, eta=np.array([1.0, -0.5]))
    rep = verify_gluing_theorem(data, widen=True)
    final = [c for c in rep.checks if c.name == "widened-final-region-is-trimmed-set"]
    assert len(final) == 1 and final[0].passed
    widened = [c for c in rep.checks if c.name.startswith("widened-step")]
    assert widened  # the middle zone around the interface is nonempty
    assert max(c.residual for c in widened) <= 1e-10


def test_union_region_on_nine_path():
    data = path9_scenario({})
    assert list(data.region) == [1, 2, 3, 5, 6, 7]


def interval41_scenario():
    """A real (non-identity) bump kernel: deep sets well inside each side."""
    mesh = build_interval_mesh(41, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 21)
    return ScaleData(context=GluingContext(mesh, OperatorSpec(0.1), cut),
                     interaction=InteractionSpec({3: 0.3}), lam=0.25,
                     shape="bump", max_order=1.0)


def interval41_sparse_start():
    """Widening from every other union node: added nodes interleave with it."""
    data = interval41_scenario()
    vars(data)["region"] = data.region[::2]
    return data


SCALES = {
    "path9": lambda: path9_scenario({3: 0.3, 4: 0.2}),
    "grid5": lambda: grid_scenario({3: 0.2}),
    "interval41": interval41_scenario,
    "interval41-sparse-start": interval41_sparse_start,
}


def _same_ids(got, expected):
    assert got.dtype == expected.dtype and np.array_equal(got, expected), (got, expected)


@pytest.mark.parametrize("name", ["path9", "grid5", "interval41"])
def test_scale_region_is_union1d_of_deep_sets(name):
    data = SCALES[name]()
    _same_ids(data.region, np.union1d(data.deep[LEFT], data.deep[RIGHT]))


@pytest.mark.parametrize("name", list(SCALES))
def test_widening_regions_are_union1d_steps(name, monkeypatch):
    """The regions of one widening pass, checked against numpy's set
    routines: the union region plus the first k nodes of the sorted
    difference between the trimmed set and it, for k = 1 .. K."""
    data = SCALES[name]()
    added = np.setdiff1d(data.trimmed, data.region)
    expected = [np.union1d(data.region, added[:k]) for k in range(1, added.size + 1)]
    assert expected
    passes = []
    series = gluing._series

    def spy(data, gaussian, regions):
        passes.append(regions)
        return series(data, gaussian, regions)

    monkeypatch.setattr(gluing, "_series", spy)
    rep = verify_gluing_theorem(data, widen=True)
    # the last two engine passes are the glued and the whole widening
    for regions in passes[-2:]:
        assert len(regions) == len(expected)
        for got, want in zip(regions, expected):
            _same_ids(got, want)
    steps = [c for c in rep.checks if c.name.startswith("widened-step")]
    assert [c.details["added_node"] for c in steps] == added.tolist()
    assert all(type(c.details["added_node"]) is int for c in steps)


def test_node_mask_is_union1d():
    """Overlapping, unsorted and repeated ids, empty parts included."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        parts = [rng.integers(0, 30, size=rng.integers(0, 12))
                 for _ in range(rng.integers(1, 4))]
        expected = functools.reduce(np.union1d, parts, np.array([], dtype=int))
        _same_ids(np.flatnonzero(_node_mask(30, *parts)), expected)


def test_assembly_orders_agree():
    data = path9_scenario({3: 0.3}, eta=np.array([1.0, -0.5]))
    fold = glued_series(data)
    carry = glued_series(data, assembly="carry")
    assert gap(fold.coefficients, carry.coefficients) <= 1e-12
    with pytest.raises(GluingError):
        glued_series(data, assembly="sideways")


def test_side_swap_invariance():
    data = path9_scenario({3: 0.3, 4: 0.2}, eta=np.array([0.4, 0.9]))
    a = glued_series(data)
    b = glued_series(data, side_order=("right", "left"))
    assert gap(a.coefficients, b.coefficients) <= 1e-12


def test_default_glued_data_is_the_fold_assembly():
    data = path9_scenario({3: 0.3}, eta=np.array([1.0, -0.5]))
    fresh = glued_gaussian(data)
    assert fresh.order0 == data.glued.order0
    assert np.array_equal(fresh.mean, data.glued.mean)
    assert np.array_equal(fresh.cov, data.glued.cov)


def test_whole_data_matches_effective_action_series():
    """Widening reads an index subset of the per-scale whole data; on any
    region that must equal the whole route built from scratch, bitwise."""
    data = path9_scenario({3: 0.3, 4: 0.2}, eta=np.array([1.0, -0.5]))
    ctx = data.context
    for region in (data.region, data.trimmed, data.trimmed[1:]):
        fresh = effective_action_series(green_bundle(ctx.mesh, ctx.operator),
                                        data.kernel, data.interaction,
                                        data.eta, data.max_order, region=region)
        got = data.whole.series(data.interaction, [region], ctx.mesh.node_volumes,
                                data.max_order)[0]
        assert np.array_equal(got.coefficients, fresh.coefficients)


def test_renormalization_scale_shift():
    sc = path9_scenario({3: 0.3, 4: 0.2}, eta=np.array([1.0, -0.5]))
    rep = renormalization_commutes(
        sc, {"scale-shift": lambda k, t: t + 0.5 * sc.lam if k == 4 else t})
    assert rep.passed and rep.max_residual <= 1e-10


def test_renormalization_position_dependent():
    sc = path9_scenario({3: 0.3, 4: 0.2}, eta=np.array([1.0, -0.5]))
    rep = renormalization_commutes(sc, {
        "position-dependent":
            lambda k, t: 0.1 * (np.arange(9) + 1) if k == 3 else t})
    assert rep.passed and rep.max_residual <= 1e-10


def test_renormalization_identity_is_noop():
    data = path9_scenario({3: 0.3})
    base = verify_gluing_theorem(data)
    rep = renormalization_commutes(data, {"identity": lambda k, t: t})
    base_rows = [(c.name, c.residual) for c in base.checks]
    rep_rows = [(c.name, c.residual) for c in rep.checks[:len(base.checks)]]
    assert base_rows == rep_rows


def test_lambda_sweep_saturation():
    sc = path9_scenario({3: 0.3, 4: 0.2}, eta=np.array([1.0, -0.5]))
    rep = Report("lambda-sweep")
    for lam in (0.5, 1.0, 2.5):
        rep.extend(lambda_sweep(replace(sc, lam=lam)).checks)
    assert rep.passed
    saturated = [c for c in rep.checks if "saturation-bitwise" in c.name]
    assert len(saturated) == 1 and saturated[0].residual == 0.0
    sizes = {}
    for c in rep.checks:
        if "trimmed_nodes" in c.details:
            sizes[c.details["lam"]] = c.details["trimmed_nodes"]
    assert sizes[0.5] <= sizes[1.0] <= sizes[2.5]


def test_saturation_oracle_is_independent_of_the_averaging(monkeypatch):
    """At a saturated scale the whole series is compared with the unaveraged
    theory, which no averaged propagator enters: one scaled by 1 + 2^-40
    fails the check."""
    averaged = gluing.regularized_green
    monkeypatch.setattr(gluing, "regularized_green",
                        lambda kernel, bundle: averaged(kernel, bundle) * (1 + 2.0 ** -40))
    data = path9_scenario({3: 0.3, 4: 0.2}, eta=np.array([1.0, -0.5]), lam=2.5)
    [check] = [c for c in lambda_sweep(data).checks if "saturation-bitwise" in c.name]
    assert check.residual == 1.0 and not check.passed


def test_regularized_diagonal_nondecreasing_in_lam():
    from cutglue.kernels import build_mesh_kernel, regularized_green
    mesh = build_interval_mesh(7, 1.0)
    bundle = green_bundle(mesh, M0)
    diags = []
    for lam in (0.5, 1.0, 2.5):
        kernel = build_mesh_kernel(mesh, lam)
        g_reg = regularized_green(kernel, bundle)
        diags.append(g_reg[4, 4])
    assert diags[0] <= diags[1] + 1e-12 <= diags[2] + 1e-12
