import os
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutglue import green
from cutglue.config import load_config
from cutglue.green import (GLUED_ROWS, GreenError, cross_form, glued_product,
                           green_bundle, interface_green, interface_map,
                           quadratic_form_S0, side_bundle,
                           verify_dtn_difference, verify_green_gluing,
                           verify_quadratic_decomposition)
from cutglue.kernels import build_mesh_kernel
from cutglue.meshes import (LEFT, RIGHT, Mesh, build_grid_mesh, build_interval_mesh,
                            cut_along_interface)
from cutglue.operators import OperatorSpec, assemble, operator_matrix
from cutglue.suites import SUITES
from peaks import traced_peak
from test_perturbation import boundary_field

M0 = OperatorSpec(mass_squared=0.0)


def path5():
    mesh = build_interval_mesh(3, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 2)
    return mesh, cut


def test_green_matrix_hand_value():
    mesh, _ = path5()
    bundle = green_bundle(mesh, M0)
    expected = 0.25 * np.array([[3.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 3.0]])
    np.testing.assert_allclose(bundle.green, expected, atol=1e-14)


def test_harmonic_extension_linear_profile():
    mesh, _ = path5()
    bundle = green_bundle(mesh, M0)
    field = bundle.extend(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(field, [1.0, 0.75, 0.5, 0.25, 0.0], atol=1e-14)


def test_constant_extension():
    mesh = build_grid_mesh(5, 5, 1.0)
    bundle = green_bundle(mesh, M0)
    field = bundle.extend(boundary_field(mesh, 1.0))
    np.testing.assert_allclose(field, 1.0, atol=1e-13)


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_side_extension_keeps_every_node_off_the_side_interior(side):
    """A side bundle's extend writes its own interior nodes from the field's
    side boundary values (outer, then the interface); every other entry, the
    other side's interior included, comes back as given.  A batch extends
    row by row, to rounding, and the field passed in is not written."""
    mesh = build_grid_mesh(5, 5, 1.0)
    cut = cut_along_interface(mesh, lambda n: mesh.positions[n][0] == 2.0)
    sb = side_bundle(mesh, OperatorSpec(0.1), cut, side)
    fields = np.random.default_rng(3).standard_normal((4, mesh.n_nodes))
    given = fields.copy()
    out = sb.extend(fields)
    assert np.array_equal(fields, given)
    others = np.ones(mesh.n_nodes, dtype=bool)
    others[sb.interior] = False
    assert np.array_equal(out[:, others], fields[:, others])
    np.testing.assert_allclose(out[:, sb.interior], fields[:, sb.boundary] @ sb.poisson.T,
                               rtol=1e-13, atol=1e-15)
    for row, field in zip(out, fields):
        np.testing.assert_allclose(sb.extend(field), row, rtol=1e-13, atol=1e-15)


def test_poisson_maximum_principle():
    mesh = build_grid_mesh(5, 5, 1.0)
    bundle = green_bundle(mesh, M0)
    assert bundle.poisson.min() >= -1e-14
    np.testing.assert_allclose(bundle.poisson.sum(axis=1), 1.0, atol=1e-13)


def test_side_responses_five_node_path():
    mesh, cut = path5()
    left = side_bundle(mesh, M0, cut, LEFT)
    right = side_bundle(mesh, M0, cut, RIGHT)
    np.testing.assert_allclose(left.dtn_sigma, [[0.5]], atol=1e-14)
    np.testing.assert_allclose(right.dtn_sigma, [[0.5]], atol=1e-14)
    g_sigma = interface_green(left, right)
    np.testing.assert_allclose(g_sigma, [[1.0]], atol=1e-14)
    # G restricted to the interface equals the whole-inverse entry G(2,2) = 1
    bundle = green_bundle(mesh, M0)
    assert bundle.green[1, 1] == pytest.approx(1.0)


def test_empty_side_interior_degenerates_to_diagonal_share():
    # cut right next to the boundary: the left side keeps no interior nodes
    mesh = build_interval_mesh(3, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 1)
    left = side_bundle(mesh, M0, cut, LEFT)
    assert left.interior.size == 0
    # boundary node 0 sits on the cut line; the edge (0,1) splits evenly, so
    # the left response is the diagonal share alone
    np.testing.assert_allclose(left.dtn_sigma, [[0.5]], atol=1e-14)
    right = side_bundle(mesh, M0, cut, RIGHT)
    bundle = green_bundle(mesh, M0)
    # the sum of responses still inverts the interface Green entry G(1,1)=3/4
    k = left.dtn_sigma + right.dtn_sigma
    np.testing.assert_allclose(k, [[1.0 / bundle.green[0, 0]]], atol=1e-13)


@pytest.mark.parametrize("make, column", [
    (lambda: build_interval_mesh(7, 1.0), 4.0),
    (lambda: build_grid_mesh(5, 5, 1.0), 2.0),
], ids=["path9", "grid5"])
def test_whole_mesh_is_the_problem_without_interface(make, column):
    """One Dirichlet type: the whole mesh has an empty interface, and each
    side's boundary is its outer part followed by the cut interface."""
    mesh = make()
    cut = cut_along_interface(mesh, lambda n: abs(mesh.positions[n][0] - column) < 1e-9)
    whole = green_bundle(mesh, M0)
    assert whole.sigma.size == 0
    np.testing.assert_array_equal(whole.boundary, mesh.boundary)
    np.testing.assert_array_equal(whole.dtn_outer, whole.dtn)
    assert whole.dtn_sigma.shape == (0, 0)
    for side in (LEFT, RIGHT):
        sb = side_bundle(mesh, M0, cut, side)
        outer = cut.side_outer_boundary(side)
        np.testing.assert_array_equal(sb.boundary, np.concatenate([outer, cut.interface]))
        np.testing.assert_array_equal(
            sb.nodes, np.concatenate([cut.side_interior(side), outer, cut.interface]))


def interior_block(mesh, spec):
    return assemble(mesh, spec)[np.ix_(mesh.interior, mesh.interior)]


def test_smallest_eigenvalue_path_oracle():
    """The interior operator of 3 interior nodes is tridiag(-1, 2, -1), whose
    eigenvalues are 2 - sqrt(2), 2 and 2 + sqrt(2): a mass term moving the
    lowest to -0.123456 is refused, and the refusal names that value."""
    mesh = build_interval_mesh(3, 1.0)
    green_bundle(mesh, M0)
    spec = OperatorSpec(-(2.0 - np.sqrt(2.0)) - 0.123456)
    with pytest.raises(GreenError, match=r"^non-positive spectrum in interior "
                                         r"operator: smallest eigenvalue -0\.123456$"):
        green_bundle(mesh, spec)


def test_failed_factor_with_positive_eigenvalue_is_not_called_non_positive(monkeypatch):
    """A Cholesky factor can fail on a singular operator whose computed
    smallest eigenvalue is a positive rounding residue.  The failure is forced
    here on tridiag(-1, 2, -1), whose smallest eigenvalue is 2 - sqrt(2): the
    refusal names that value and does not call it non-positive."""
    def fail(m, *args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(GreenError, match=r"^interior operator is not positive definite "
                                         r"to rounding: smallest eigenvalue 0\.585786$"):
        green_bundle(build_interval_mesh(3, 1.0), M0)


@pytest.mark.parametrize("offset", [1e-9, -1e-9], ids=["above", "below"])
def test_cholesky_and_eigenvalue_agree_at_the_threshold(offset):
    """mass^2 just above and just below minus the smallest massless
    eigenvalue: the whole bundle is built exactly when the eigenvalue is
    positive."""
    mesh = build_interval_mesh(7, 1.0)
    massless = np.linalg.eigvalsh(interior_block(mesh, M0))[0]
    spec = OperatorSpec(-massless + offset)
    try:
        green_bundle(mesh, spec)
        passed = True
    except GreenError as exc:
        assert "non-positive spectrum" in str(exc)
        passed = False
    smallest = np.linalg.eigvalsh(interior_block(mesh, spec))[0]
    assert passed == (smallest > 0) == (offset > 0)


def test_negative_mass_can_break_positivity():
    with pytest.raises(GreenError, match="non-positive spectrum"):
        green_bundle(build_grid_mesh(5, 5, 1.0), OperatorSpec(mass_squared=-10.0))


def test_condition_bound_refuses_what_float64_cannot_resolve():
    """One edge of weight 1e300 in a unit path: the Cholesky factor exists,
    but max diag(A) max diag(G) reads 1e300 and the bundle is refused."""
    text = "".join(
        ["mesh dim=1 spacing=1.0 nodes=9\n"]
        + [f"node {k} {'boundary' if k in (0, 8) else 'interior'} vol=1.0 pos {k}.0\n"
           for k in range(9)]
        + [f"edge {k} {k + 1} w={1e300 if k == 3 else 1.0} len=1.0\n" for k in range(8)])
    with pytest.raises(GreenError, match=r"^interior operator is too ill-conditioned "
                                         r"for float64: condition number at least 1e\+300$"):
        green_bundle(Mesh.from_text(text), M0)


def test_condition_bound_refuses_from_the_limit_on(monkeypatch):
    """path5's bound is max diag(A) max diag(G) = 2 * 1, to rounding: a limit
    at the bound refuses the bundle, the next float up does not."""
    mesh, _ = path5()
    kappa = 2.0 * float(green_bundle(mesh, M0).green.diagonal().max())
    assert kappa == pytest.approx(2.0, abs=1e-14)
    monkeypatch.setattr(green, "CONDITION_LIMIT", np.nextafter(kappa, 3.0))
    green_bundle(mesh, M0)
    monkeypatch.setattr(green, "CONDITION_LIMIT", kappa)
    with pytest.raises(GreenError, match="condition number at least 2$"):
        green_bundle(mesh, M0)


def random_spd(n):
    """A seeded symmetric positive definite matrix, eigenvalues about 1 to 5."""
    b = np.random.default_rng(n).standard_normal((n, n))
    return b @ b.T / n + np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 129, 200, 401])
def test_inverse_spd_is_the_inverse(n):
    """At, around and above the leaf size, G from the block inverse of the
    Cholesky factor is `np.linalg.inv` of the matrix to rounding and exactly
    symmetric, and the factor's inverse is exactly lower triangular."""
    m = random_spd(n)
    g = green._inverse_spd(m, "test matrix")
    want = np.linalg.inv(m)
    assert np.abs(g - want).max() <= 4e-15 * np.abs(want).max()
    assert np.array_equal(g, g.T)
    inv = np.linalg.cholesky(m)
    green._invert_lower(inv)
    assert not np.triu(inv, 1).any()


def test_whole_bundle_inverts_no_block_above_the_leaf(monkeypatch):
    """Building the whole bundle of a 401-interior interval calls
    `np.linalg.inv` on leaf blocks only, never on the whole factor."""
    sizes, inv = [], np.linalg.inv

    def counted(a):
        sizes.append(a.shape[0])
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    green_bundle(build_interval_mesh(401, 1.0), OperatorSpec(0.1))
    assert sizes and max(sizes) <= green.INVERSE_LEAF


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(4, 7), ny=st.integers(3, 6), column=st.integers(0, 4),
       amp=st.floats(0.0, 0.9), mass=st.floats(0.0, 4.0))
def test_side_condition_bound_is_at_most_the_whole(nx, ny, column, amp, mass):
    """A side bundle cannot be refused once the whole one was built: its
    interior operator is a principal submatrix of the whole one, and its
    Green's matrix is at most the whole one's block, so its bound
    max diag(A) max diag(G) is at most the whole bound."""
    mesh = build_grid_mesh(nx, ny, 1.0,
                           metric_profile=lambda x: 1.0 + amp * np.sin(x[0] + x[1]) ** 2)
    column = 1 + column % (nx - 2)
    cut = cut_along_interface(mesh, lambda n: mesh.positions[n][0] == column)
    spec = OperatorSpec(mass)
    diagonal = np.diag(assemble(mesh, spec))

    def bound(bundle):
        return (diagonal[bundle.interior].max(initial=0.0)
                * bundle.green.diagonal().max(initial=0.0))

    whole = bound(green_bundle(mesh, spec))
    for side in (LEFT, RIGHT):
        assert bound(side_bundle(mesh, spec, cut, side)) <= whole * (1 + 1e-12)


def test_quadratic_form_hand_value():
    mesh, _ = path5()
    bundle = green_bundle(mesh, M0)
    field = bundle.extend(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    assert quadratic_form_S0(mesh, M0, field) == pytest.approx(0.125, abs=1e-14)
    assert quadratic_form_S0(mesh, M0, np.zeros(5)) == 0.0


def test_quadratic_form_matches_schur_energy():
    mesh = build_grid_mesh(5, 5, 1.0)
    spec = OperatorSpec(mass_squared=0.3)
    bundle = green_bundle(mesh, spec)
    rng = np.random.default_rng(7)
    for _ in range(20):
        eta = rng.standard_normal(mesh.boundary.size)
        s_edges = quadratic_form_S0(mesh, spec, bundle.extend(boundary_field(mesh, eta)))
        s_schur = 0.5 * eta @ bundle.dtn @ eta
        assert s_edges == pytest.approx(s_schur, abs=1e-12)


def test_cross_form_zero_and_overlap():
    mesh, cut = path5()
    bundle = green_bundle(mesh, M0)
    a, b = np.array([0]), np.array([4])
    field = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert cross_form(bundle, a, b, field) == 0.0
    with pytest.raises(GreenError, match="overlapping"):
        cross_form(bundle, a, a, field)


@settings(max_examples=30, deadline=None)
@given(ea=st.floats(-3, 3), eb=st.floats(-3, 3))
def test_cross_form_symmetry(ea, eb):
    mesh = build_grid_mesh(5, 4, 1.0)
    bundle = green_bundle(mesh, OperatorSpec(0.2))
    ids = list(map(int, mesh.boundary))
    a, b = np.array(ids[:3]), np.array(ids[3:6])
    field = np.zeros(mesh.n_nodes)
    field[a] = [ea, -ea, 2 * ea]
    field[b] = [eb, eb, -eb]
    s_ab = cross_form(bundle, a, b, field)
    s_ba = cross_form(bundle, b, a, field)
    assert s_ab == pytest.approx(s_ba, abs=1e-12)


def test_cross_form_closes_the_decomposition():
    # the cross term is fixed by requiring S0[a+b] = S0[a] + S0[b] - S_{l,r}
    mesh, cut = path5()
    bundle = green_bundle(mesh, M0)
    a, b = np.array([0]), np.array([4])
    full = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    s_sum = quadratic_form_S0(mesh, M0, bundle.extend(full))
    s_a = quadratic_form_S0(mesh, M0, bundle.extend(np.array([1.0, 0.0, 0.0, 0.0, 0.0])))
    s_b = quadratic_form_S0(mesh, M0, bundle.extend(np.array([0.0, 0.0, 0.0, 0.0, 1.0])))
    assert s_sum == pytest.approx(s_a + s_b - cross_form(bundle, a, b, full),
                                  abs=1e-14)


def test_quadratic_decomposition_reports():
    mesh, cut = path5()
    rep = verify_quadratic_decomposition(green_bundle(mesh, M0), cut)
    assert rep.passed and rep.max_residual <= 1e-12
    grid = build_grid_mesh(5, 5, 1.0)
    gcut = cut_along_interface(grid, lambda n: grid.positions[n][0] == 2.0)
    rep = verify_quadratic_decomposition(green_bundle(grid, OperatorSpec(0.3)), gcut)
    assert rep.passed and rep.max_residual <= 1e-12


def test_quadratic_decomposition_keeps_a_nan_trial():
    """A bundle whose Poisson map is all NaN must fail, not read 0.0."""
    mesh, cut = path5()
    bundle = green_bundle(mesh, M0)
    broken = replace(bundle, poisson=np.full_like(bundle.poisson, np.nan))
    [check] = verify_quadratic_decomposition(broken, cut).checks
    assert np.isnan(check.residual) and not check.passed


def test_quadratic_decomposition_batch_is_the_trial_loop():
    """The trials run as one batch.  Recomputed one at a time from the same
    draws, with unbatched fields, every term matches the batch to rounding,
    and the split holds trial by trial."""
    grid = build_grid_mesh(5, 5, 1.0)
    cut = cut_along_interface(grid, lambda n: grid.positions[n][0] == 2.0)
    spec = OperatorSpec(0.3)
    bundle = green_bundle(grid, spec)
    seed, trials, n_in = 4, green.TRIALS, grid.interior.size
    draws = green._uniform_draws(seed, (trials, n_in + bundle.boundary.size))
    phi, eta = np.zeros((2, trials, grid.n_nodes))
    phi[:, grid.interior] = draws[:, :n_in]
    eta[:, bundle.boundary] = draws[:, n_in:]
    right = cut.label == RIGHT
    on_right = right[bundle.boundary]
    ids_l, ids_r = bundle.boundary[~on_right], bundle.boundary[on_right]
    eta_l, eta_r = np.where(right, 0.0, eta), np.where(right, eta, 0.0)

    def terms(phi, eta, eta_l, eta_r):
        return [quadratic_form_S0(grid, spec, phi + bundle.extend(eta)),
                quadratic_form_S0(grid, spec, phi),
                quadratic_form_S0(grid, spec, bundle.extend(eta_l)),
                quadratic_form_S0(grid, spec, bundle.extend(eta_r)),
                cross_form(bundle, ids_l, ids_r, eta)]

    batch = terms(phi, eta, eta_l, eta_r)
    for t in range(trials):
        single = terms(phi[t], eta[t], eta_l[t], eta_r[t])
        assert all(type(s) is float for s in single)
        if t < 5:
            np.testing.assert_allclose([b[t] for b in batch], single, rtol=1e-12)
        total, *parts, cross = single
        assert abs(total - (sum(parts) - cross)) <= 1e-12
    [check] = verify_quadratic_decomposition(bundle, cut, seed).checks
    assert check.passed
    assert check.details["seed"] == seed and 0 <= check.details["worst_trial"] < trials


@pytest.mark.parametrize("part", ["cross-block", "poisson-entry"])
def test_quadratic_decomposition_fails_one_perturbed_entry(part):
    """One entry off by a relative 1e-9, in the boundary response the cross
    term reads or in the Poisson map, fails the split."""
    mesh, cut = path5()
    bundle = green_bundle(mesh, M0)
    if part == "cross-block":
        # boundary [0, 4]: the cross term reads the response between them
        dtn = np.array(bundle.dtn)
        dtn[0, 1] *= 1 + 1e-9
        broken = replace(bundle, dtn=dtn)
    else:
        poisson = np.array(bundle.poisson)
        poisson[1, 0] *= 1 + 1e-9
        broken = replace(bundle, poisson=poisson)
    assert verify_quadratic_decomposition(bundle, cut).passed
    [check] = verify_quadratic_decomposition(broken, cut).checks
    assert check.residual > check.tolerance and not check.passed


def test_quadratic_decomposition_refuses_a_negative_seed():
    mesh, cut = path5()
    with pytest.raises(GreenError, match="need seed >= 0, got -1"):
        verify_quadratic_decomposition(green_bundle(mesh, M0), cut, -1)


def test_trial_draws_follow_the_seed():
    """The draws are uniform on [-1, 1) from the stdlib generator: the same
    seed draws the same values, two seeds draw different ones."""
    draws = green._uniform_draws(1, (200, 30))
    assert draws.shape == (200, 30)
    assert -1.0 <= draws.min() < -0.99 and 0.99 < draws.max() < 1.0
    np.testing.assert_array_equal(draws, green._uniform_draws(1, (200, 30)))
    assert not np.array_equal(draws, green._uniform_draws(2, (200, 30)))
    first = random.Random(1).getrandbits(64) >> 11
    assert draws[0, 0] == first / 2.0 ** 52 - 1.0


def test_poisson_nonnegative_fails_on_a_nan():
    """One NaN in the Poisson map of massless path9 fails the sign check
    too, not only the row sums."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "path9_cubic.json"), SUITES)
    ctx = cfg.context
    poisson = np.array(ctx.bundle.poisson)
    poisson[2, 0] = np.nan
    vars(ctx)["bundle"] = replace(ctx.bundle, poisson=poisson)
    checks = {c.name: c for c in SUITES["green-identities"][1](cfg, 0).checks}
    assert np.isnan(checks["poisson-nonnegative"].residual)
    assert not checks["poisson-nonnegative"].passed


def test_green_gluing_hand_values():
    mesh, cut = path5()
    bundle = green_bundle(mesh, M0)
    left = side_bundle(mesh, M0, cut, LEFT)
    right = side_bundle(mesh, M0, cut, RIGHT)
    g_sigma = interface_green(left, right)
    # cross side: G(1,3) = P_l(1,sigma) G_sigma P_r(3,sigma) = 0.5 * 1 * 0.5
    glued = left.poisson_sigma @ g_sigma @ right.poisson_sigma.T
    assert glued[0, 0] == pytest.approx(0.25)
    assert bundle.green[0, 2] == pytest.approx(0.25)
    # same side: G(1,1) = G_l(1,1) + 0.5 * 1 * 0.5 = 0.5 + 0.25
    same = left.green + left.poisson_sigma @ g_sigma @ left.poisson_sigma.T
    assert same[0, 0] == pytest.approx(0.75)
    assert bundle.green[0, 0] == pytest.approx(0.75)


def test_green_gluing_reports():
    for mesh, sel, spec in [
        (build_interval_mesh(7, 1.0), lambda n: n == 4, M0),
        (build_grid_mesh(5, 5, 1.0), None, OperatorSpec(0.1)),
    ]:
        if sel is None:
            sel = lambda n, m=mesh: m.positions[n][0] == 2.0
        cut = cut_along_interface(mesh, sel)
        sides = {s: side_bundle(mesh, spec, cut, s) for s in (LEFT, RIGHT)}
        g_sigma = interface_green(sides[LEFT], sides[RIGHT])
        rep = verify_green_gluing(green_bundle(mesh, spec), sides, g_sigma)
        assert rep.passed and rep.max_residual <= 1e-10


@pytest.mark.parametrize("case", ["path9", "grid5", "grid7-curved"])
def test_glued_green_is_the_padded_whole_green(case):
    """Side Green's matrices plus the interface round trip rebuild the whole
    Green's matrix on every interior pair, and nothing elsewhere: the glued
    product on identity rows is the padded whole G, and on rows of a that
    span three row blocks, the last partial, and b of another height it is
    a G b'."""
    if case == "path9":
        mesh, spec, mid = build_interval_mesh(7, 1.0), M0, 4.0
    elif case == "grid5":
        mesh, spec, mid = build_grid_mesh(5, 5, 1.0), OperatorSpec(0.1), 2.0
    else:
        mesh = build_grid_mesh(
            7, 7, 1.0,
            metric_profile=lambda x: 1.0 + 0.4 * np.sin(x[0]) ** 2 + 0.1 * x[1])
        spec, mid = OperatorSpec(0.1), 3.0
        assert np.ptp(mesh.edge_weights) > 0.1 and np.ptp(mesh.node_volumes) > 0.1
    cut = cut_along_interface(mesh, lambda n: mesh.positions[n][0] == mid)
    sides = {s: side_bundle(mesh, spec, cut, s) for s in (LEFT, RIGHT)}
    g_sigma = interface_green(sides[LEFT], sides[RIGHT])
    to_sigma = interface_map(sides, mesh.n_nodes)
    bundle = green_bundle(mesh, spec)
    padded = np.zeros((mesh.n_nodes, mesh.n_nodes))
    padded[np.ix_(bundle.interior, bundle.interior)] = bundle.green
    eye = np.eye(mesh.n_nodes)
    rng = np.random.default_rng(7)
    rows = rng.uniform(-1.0, 1.0, (2 * GLUED_ROWS + 5, mesh.n_nodes))
    for a, b in ((eye, eye), (rows, rows[:3])):
        want = a @ padded @ b.T
        got = glued_product(a, b, sides, g_sigma, to_sigma)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_array_equal(to_sigma[cut.interface], np.eye(cut.interface.size))
    assert not to_sigma[mesh.boundary].any()


def test_glued_product_holds_its_result_alone():
    """No N x N glued Green's matrix is made: on a 403-node interval the
    traced peak of an averaged glued covariance H G H' is its result and at
    most three (GLUED_ROWS, n) temporaries."""
    mesh = build_interval_mesh(401, 1.0)
    cut = cut_along_interface(mesh, lambda n: n == 201)
    sides = {s: side_bundle(mesh, M0, cut, s) for s in (LEFT, RIGHT)}
    g_sigma, to_sigma = interface_green(*sides.values()), interface_map(sides, mesh.n_nodes)
    h = build_mesh_kernel(mesh, 0.05, "bump").matrix
    peak = traced_peak(lambda: glued_product(h, h, sides, g_sigma, to_sigma),
                       mesh.n_nodes)
    assert peak <= 1 + 3 * GLUED_ROWS / mesh.n_nodes, peak


def test_green_block_reads_by_node_id():
    mesh, _ = path5()
    bundle = green_bundle(mesh, M0)
    # interior nodes 1, 2, 3 sit at positions 0, 1, 2 of the Green's matrix
    np.testing.assert_array_equal(bundle.green_block([3, 1], [2]),
                                  bundle.green[[2, 0]][:, [1]])
    with pytest.raises(KeyError):
        bundle.green_block([0], [1])  # node 0 is a boundary node


def test_dtn_difference_bounded_under_refinement():
    norms = []
    for n_interior in (3, 7, 15):  # spacing halves, same geometry [0, 4]
        spacing = 4.0 / (n_interior + 1)
        mesh = build_interval_mesh(n_interior, spacing)
        mid = 2.0
        cut = cut_along_interface(
            mesh, lambda n, m=mesh: abs(m.positions[n][0] - mid) < 1e-9)
        rep = verify_dtn_difference(green_bundle(mesh, M0),
                                    side_bundle(mesh, M0, cut, LEFT), LEFT)
        assert rep.passed
        norms.append(float(rep.checks[0].details["max_entry"]))
    assert all(np.isfinite(v) for v in norms)
    assert max(norms) <= 2.0 * max(norms[0], 1e-12)  # no blow-up trend


def reference_surface_matrix(mesh, spec, cut, side, surf):
    """Surface block of a side operator, one edge at a time: the loop that
    built it before every operator came from `operator_matrix`."""
    pos = {int(n): k for k, n in enumerate(surf)}
    frac = cut.edge_fraction(side)
    m = np.zeros((surf.size, surf.size))
    for e, (i, j) in enumerate(mesh.edges):
        w = mesh.edge_weights[e] * frac[e]
        if w == 0.0:
            continue
        ii, jj = pos.get(int(i)), pos.get(int(j))
        if ii is not None:
            m[ii, ii] += w
        if jj is not None:
            m[jj, jj] += w
        if ii is not None and jj is not None:
            m[ii, jj] -= w
            m[jj, ii] -= w
    for n in cut.interface:
        m[pos[int(n)], pos[int(n)]] += 0.5 * spec.mass_squared * mesh.node_volumes[int(n)]
    return m


def assert_bitwise(x, y):
    assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("case", ["path9_cubic", "grid5_quartic", "grid9-curved"])
def test_side_operators_come_from_the_one_assembly(monkeypatch, case):
    """Each side operator is built like the whole one, from side-attributed
    conductances: its surface block matches the per-edge reference, and its
    interior and interior-to-surface blocks are the whole operator's."""
    if case == "grid9-curved":
        mesh = build_grid_mesh(
            9, 9, 1.0,
            metric_profile=lambda x: 1.0 + 0.4 * np.sin(x[0]) ** 2 + 0.1 * x[1])
        spec, surface_tolerance = OperatorSpec(0.1), 1e-15
        cut = cut_along_interface(mesh, lambda n: mesh.positions[n][0] == 4.0)
    else:
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                       f"{case}.json"), SUITES)
        ctx, surface_tolerance = cfg.context, 0.0
        mesh, spec, cut = ctx.mesh, ctx.operator, ctx.cut
    built = []

    def recorded(*args):
        built.append(operator_matrix(*args))
        return built[-1]

    monkeypatch.setattr(green, "operator_matrix", recorded)
    whole = assemble(mesh, spec)
    for side in (LEFT, RIGHT):
        side_bundle(mesh, spec, cut, side)
        a = built.pop()
        interior = cut.side_interior(side)
        surf = np.concatenate([cut.side_outer_boundary(side), cut.interface])
        reference = reference_surface_matrix(mesh, spec, cut, side, surf)
        if surface_tolerance:
            assert np.abs(a[np.ix_(surf, surf)] - reference).max() <= surface_tolerance
        else:
            assert_bitwise(a[np.ix_(surf, surf)], reference)
        for cols in (interior, surf):
            assert_bitwise(a[np.ix_(interior, cols)], whole[np.ix_(interior, cols)])
