"""Grid operator, power iteration, product regression, and tail roots."""

import math

import numpy as np
import pytest

import reference_engine as ref
from conftest import (ALPHA_D1, ALPHA_ROT, BETA_D1, BETA_ROT, K1_D2, RHO_D1,
                      RHO_ROT, d1_lognormal_spec, d1_quarter_spec,
                      d2_contracting_matrix_spec, d2_finite_pair_spec,
                      d2_finite_three_spec, d2_lognormal_matrix_spec,
                      d2_rotation_spec, d3_rotation_spec, k_at, rng_state)
from reference_oracles import k_by_products
from smoothtail.errors import NoRootError, NoSecondRootError
from smoothtail.rng import substream
from smoothtail.spectral import (OperatorAssembler, _brent_min, _brent_root,
                                 build_grid, k_grid, power_iteration,
                                 solve_alpha_beta)
from smoothtail.walks import apply_batch


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_unit_norm_and_weights():
    for spec in (d1_lognormal_spec(), d2_lognormal_matrix_spec(),
                 d2_rotation_spec()):
        grid = build_grid(spec)
        from smoothtail.walks import vec_norm
        assert np.allclose(vec_norm(grid.points, spec.norm), 1.0, atol=1e-10)


def test_grid_interp_partition_of_unity():
    grid = build_grid(d2_lognormal_matrix_spec())
    rng = substream(1, "g")
    dirs = rng.random((100, 2)) + 1e-3
    idx, w = grid.interp_rows(dirs)
    assert np.allclose(w.sum(axis=1), 1.0)
    vals = grid.interp_values(np.ones(len(grid)), dirs)
    assert np.allclose(vals, 1.0)


def test_grid_interp_recovers_linear_in_angle():
    grid = build_grid(d2_lognormal_matrix_spec())
    angles = np.arctan2(grid.points[:, 1], grid.points[:, 0])
    test = np.column_stack([np.cos(angles[3:250] + 1e-3),
                            np.sin(angles[3:250] + 1e-3)])
    got = grid.interp_values(angles, test)
    assert np.allclose(got, angles[3:250] + 1e-3, atol=1e-6)


@pytest.mark.parametrize("geom_class, geometry", [
    ("nonnegative-C", "halfline"), ("invertible-ipo", "pm1")])
def test_d1_grid_lookups_nearest_neighbour(geom_class, geometry):
    from smoothtail.model import (Branching, LognormalScalarMatrix,
                                  ModelSpec, QLaw)
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalScalarMatrix(mu=-1.0, sigma2=0.5,
                                                    matrix=[[1.0]]),
                     q_law=QLaw(kind="zero"), geom_class=geom_class)
    grid = build_grid(spec)
    assert grid.geometry == geometry
    dirs = np.concatenate([[[1.0], [-1.0], [0.0], [-0.0], [np.nan],
                            [1e-310], [-1e-310]],
                           substream(3, "d1").standard_normal((1000, 1))])
    n = len(dirs)
    # the closed forms: the one point of the half line, and on {+1, -1}
    # index 1 exactly for negative directions (+-0 and NaN map to index 0)
    want = (np.zeros(n, dtype=np.int64) if geometry == "halfline"
            else (dirs[:, 0] < 0).astype(np.int64))
    # which is the max-inner-product search over the grid points
    with np.errstate(invalid="ignore"):
        unit = dirs / np.maximum(np.abs(dirs), 1e-300)
        assert np.array_equal(np.argmax(unit @ grid.points.T, axis=1), want)
    assert np.array_equal(grid.cell_index(dirs), want)
    idx, w = grid.interp_rows(dirs)
    assert np.array_equal(idx, np.column_stack([want, want]))
    assert np.array_equal(w, np.column_stack([np.ones(n), np.zeros(n)]))


def _geometry_spec(d, geom_class):
    from smoothtail.model import (Branching, LognormalScalarMatrix,
                                  ModelSpec, QLaw)
    return ModelSpec(dimension=d, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalScalarMatrix(
                         mu=-1.0, sigma2=0.5, matrix=np.ones((d, d)) + np.eye(d)),
                     q_law=QLaw(kind="zero"), geom_class=geom_class)


def _random_directions(n, d, nonneg, seed):
    z = substream(seed, "dirs").standard_normal((n, d))
    z = np.abs(z) if nonneg else z
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _unit_points(grid):
    return grid.points / np.linalg.norm(grid.points, axis=1, keepdims=True)


@pytest.mark.parametrize("J", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("geom_class, geometry", [
    ("nonnegative-C", "quarter_circle"), ("invertible-ipo", "circle")])
def test_covering_radius_d2_is_exact(geom_class, geometry, J):
    # pi / (4J) on the quarter circle, pi / J on the circle: 1e5 random
    # directions come within 1e-3 of it and never beyond it
    grid = build_grid(_geometry_spec(2, geom_class), size=J)
    assert grid.geometry == geometry and len(grid) == J
    r = grid.covering_radius()
    assert r == (math.pi / (4 * J) if geometry == "quarter_circle"
                 else math.pi / J)
    dirs = _random_directions(100_000, 2, geometry == "quarter_circle", 30 + J)
    cos_nearest = np.clip((dirs @ _unit_points(grid).T).max(axis=1), -1, 1)
    brute = float(np.arccos(cos_nearest).max())
    assert brute <= r
    assert r - brute <= 1e-3


@pytest.mark.parametrize("geom_class", ["nonnegative-C", "invertible-ipo"])
def test_covering_radius_d1_is_zero(geom_class):
    assert build_grid(_geometry_spec(1, geom_class)).covering_radius() == 0.0


@pytest.mark.parametrize("d, geom_class, geometry", [
    (1, "nonnegative-C", "halfline"), (1, "invertible-ipo", "pm1"),
    (2, "nonnegative-C", "quarter_circle"), (2, "invertible-ipo", "circle"),
    (3, "nonnegative-C", "orthant"), (3, "invertible-ipo", "sphere")])
def test_cell_index_is_the_largest_inner_product_point(d, geom_class, geometry):
    grid = build_grid(_geometry_spec(d, geom_class), size=8)
    assert grid.geometry == geometry
    dirs = _random_directions(100_000, d, geometry in ("halfline",
                              "quarter_circle", "orthant"), 40 + d)
    inner = dirs @ _unit_points(grid).T
    top = np.sort(inner, axis=1)
    # exact ties (within rounding) may go either way
    clear = (top[:, -1] - top[:, -2] > 1e-9) if len(grid) > 1 \
        else np.ones(len(dirs), dtype=bool)
    assert clear.mean() > 0.99
    assert np.array_equal(grid.cell_index(dirs[clear]),
                          np.argmax(inner[clear], axis=1))


def test_cell_index_spans_several_chunks():
    # 2e6 // 2 rows per chunk on {+1, -1}: two chunks, the last one partial
    grid = build_grid(_geometry_spec(1, "invertible-ipo"))
    x = substream(50, "chunks").standard_normal((1_000_000 + 1234, 1))
    assert np.array_equal(grid.cell_index(x), (x[:, 0] < 0).astype(np.int64))


# ---------------------------------------------------------------------------
# operator and power iteration
# ---------------------------------------------------------------------------

def _dense(op):
    """The G x G matrix of an operator from assemble_groups: the rows
    (vals, cols) added up, or the rank-one matrix whose every row is r."""
    if not isinstance(op, tuple):
        return np.tile(op, (len(op), 1))
    vals, cols = op
    G = vals.shape[1]
    out = np.zeros((G, G))
    np.add.at(out, (np.arange(G)[None, :], cols), vals)
    return out


def _rows_of(dense):
    """A dense matrix in the row form: row i pairs op[i, j] with column j."""
    G = len(dense)
    return (np.asarray(dense, dtype=float).T.copy(),
            np.tile(np.arange(G)[:, None], (1, G)))


def test_operator_rows_stochastic_at_zero_tilt():
    spec = d2_finite_pair_spec()
    moment, op = OperatorAssembler(spec, build_grid(spec), 0,
                                   substream(2, "o")).assemble_groups(0.0)
    assert moment == 1.0
    vals, cols = op
    # two atoms, two interpolation neighbours each, for every grid point
    assert vals.shape == cols.shape == (4, 256)
    assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(_dense(op).sum(axis=1), 1.0, atol=1e-12)


def test_operator_d1_scalar_moment():
    # G = 1 and |W x| = W: the direction operator is [[1]], so k(s) is the
    # closed-form E W^s = exp(-s + s^2/4) itself
    spec = d1_lognormal_spec()
    assembler = OperatorAssembler(spec, build_grid(spec), 400_000,
                                  substream(3, "o"))
    for s in (0.0, 1.0, ALPHA_D1, 2.0, BETA_D1, 5.5):
        moment, op = assembler.assemble_groups(s)
        assert np.array_equal(_dense(op), [[1.0]])
        exact = math.exp(spec.ensemble.log_scalar_moment(s))
        assert exact == pytest.approx(math.exp(-s + 0.25 * s * s), rel=1e-14)
        assert moment == exact
        assert k_grid(assembler, s).k == pytest.approx(exact, rel=1e-14)


def test_operator_rotation_row_sums():
    # every row of the rank-one operator is the cell law r, a probability
    # vector, so k(s) is the exact E c^s, e = 1 and nu = r (1/G on the
    # circle) with no iteration
    for make_spec, G in ((d2_rotation_spec, 64), (d3_rotation_spec, 64),
                         (d2_rotation_spec, 7)):
        spec = make_spec()
        assembler = OperatorAssembler(spec, build_grid(spec, size=G), 20_000,
                                      substream(4, "o"))
        for s in (0.0, 1.0, 7.2):
            moment, r = assembler.assemble_groups(s)
            assert r.shape == (G,) and r.min() >= 0
            assert r.sum() == pytest.approx(1.0, abs=1e-14)
            res = k_grid(assembler, s)
            assert res.k == moment == pytest.approx(
                math.exp(-s + 0.125 * s * s), rel=1e-14)
            assert np.array_equal(res.e, np.ones(G))
            assert np.array_equal(res.nu, r)
            assert res.iterations == 0 and res.residual == 0.0
            if spec.d == 2:
                assert np.array_equal(r, np.full(G, 1.0 / G))


@pytest.mark.parametrize("make_spec", [d2_rotation_spec, d3_rotation_spec])
def test_rotation_operator_matches_cached_rows(make_spec):
    # the dense Monte Carlo operator scattered from 1875 cached rotations
    # is circulant on the d = 2 circle, so its eigenpair is (1, 1, 1/G)
    # whatever the draws: the closed form to rounding.  At d = 3 its rows
    # sum to 1, so k = E W^s, and its nu is the cell law up to the Monte
    # Carlo error of the draws.
    spec = make_spec()
    G = 64
    grid = build_grid(spec, size=G)
    assembler = OperatorAssembler(spec, grid, 15_000, substream(28, "o"))
    reference = ref.OperatorAssembler(spec, grid, 15_000, substream(28, "o"))
    K = len(reference._weights)
    assert K == 1875
    assert assembler.direction_draws == (0 if spec.d == 2 else K)
    for s in (0.0, 1.0, 7.2):
        res = k_grid(assembler, s)
        k, e, nu, _, _ = ref.power_iteration(reference.assemble(s))
        assert res.k == pytest.approx(math.exp(-s + 0.125 * s * s), rel=1e-12)
        if spec.d == 2:
            np.testing.assert_allclose(res.k, k, rtol=1e-13)
            np.testing.assert_allclose(res.e, e, rtol=1e-13)
            np.testing.assert_allclose(res.nu, nu, rtol=1e-13)
        else:
            np.testing.assert_allclose(res.k, k, rtol=1e-12)
            np.testing.assert_allclose(res.e, 1.0, rtol=0)
            # within one binomial standard error of K directions per cell
            # (r is the mean row of the reference operator; at seed 28 the
            # two differ by at most 0.1 of it)
            se = np.sqrt(nu * (1.0 - nu) / K)
            assert (np.abs(res.nu - nu) <= se).all()


@pytest.mark.parametrize("make_spec, s, mc_reps", [
    (d1_lognormal_spec, BETA_D1, 400_000),
    (d2_lognormal_matrix_spec, 1.0, 50_000),
    (d2_rotation_spec, 4.0, 15_000),
    (d2_finite_pair_spec, 1.5, 0),
], ids=["d1-lognormal", "W*P", "c*R", "finite-support"])
def test_factored_k_matches_per_group_power_iterations(make_spec, s, mc_reps):
    # the operator is E W^s * op, so one power iteration of op gives k; the
    # reference iterates on the whole operator, scattered from cached rows.
    # The rank-one rotation operator needs no iteration.
    spec = make_spec()
    grid = build_grid(spec, size=64)
    res = k_grid(OperatorAssembler(spec, grid, mc_reps, substream(31, "f")), s)
    want = ref.k_grid(spec, s, grid=grid, mc_reps=mc_reps,
                      rng=substream(31, "f"))
    assert res.k == pytest.approx(want.k, rel=1e-9)
    assert res.iterations == (0 if make_spec is d2_rotation_spec
                              else want.iterations)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("make_spec", [
    d2_lognormal_matrix_spec, d2_contracting_matrix_spec,
    d2_finite_pair_spec, d2_finite_three_spec],
    ids=["W*P", "contracting-W*P", "finite-pair", "three-atom"])
def test_row_form_matches_dense_reference(make_spec, s):
    # the row form and the dense BLAS iteration differ only in the order of
    # the additions: k, e and nu agree to rounding, in as many steps
    spec = make_spec()
    grid = build_grid(spec)
    res = k_grid(OperatorAssembler(spec, grid, 50_000, substream(32, "f")), s)
    want = ref.k_grid(spec, s, grid=grid, mc_reps=50_000,
                      rng=substream(32, "f"))
    assert res.iterations == want.iterations
    assert res.k == pytest.approx(want.k, rel=1e-13)
    for got, exp in ((res.e, want.e), (res.nu, want.nu)):
        assert np.abs(got - exp).max() <= 1e-13 * np.abs(exp).max()
    assert res.residual == pytest.approx(want.residual, rel=1e-3, abs=1e-14)


@pytest.mark.parametrize("make_spec", [d1_lognormal_spec,
                                       d2_lognormal_matrix_spec,
                                       d2_finite_pair_spec, d2_rotation_spec,
                                       d3_rotation_spec])
def test_grid_products_match_einsum_exactly(make_spec):
    # OperatorAssembler's direction rows: every draw's D^T at every grid
    # point through walks.apply_batch, bit for bit as np.einsum
    spec = make_spec()
    ens = spec.ensemble
    atoms = ens.atoms()
    mats = atoms[0] if atoms is not None else ens.directions(
        substream(29, "o"), 1875)
    mats = np.swapaxes(mats, -1, -2)
    X = build_grid(spec, size=64).points
    assert np.array_equal(apply_batch(mats[:, None], X[None]),
                          np.einsum("kij,gj->kgi", mats, X))


def test_rotation_assembler_memory_at_default_settings():
    # 256 points and mc_reps = 1e6 once drew 15,625 rotations into a dense
    # 0.5 MB G x G operator; the circle's cell law is 1/G in closed form,
    # so nothing is drawn and no G x G array is formed
    import tracemalloc
    spec = d2_rotation_spec()
    grid = build_grid(spec)
    rng = substream(30, "o")
    state = rng_state(rng)
    # a first call in a fresh process allocates about 0.9 MB of lazy state
    k_grid(OperatorAssembler(spec, build_grid(spec, size=8), 8, rng), 1.0)
    tracemalloc.start()
    try:
        assembler = OperatorAssembler(spec, grid, 1_000_000, rng)
        for s in (1.0, 4.0, 7.2):
            k_grid(assembler, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid) == 256
    assert rng_state(rng) == state and assembler.direction_draws == 0
    assert peak < 256 * 256 * 8 / 8


def test_power_iteration_identity():
    k, e, nu, _, res = power_iteration(_rows_of(np.eye(8)))
    assert k == pytest.approx(1.0)
    assert np.allclose(e, e[0])
    assert np.allclose(nu, 1.0 / 8)
    assert res < 1e-9


def test_power_iteration_rank_one():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    op = 2.0 * np.outer(np.ones(4), p)
    for form in (_rows_of(op), p):
        k, e, nu, _, _ = power_iteration(form)
        assert k == pytest.approx(2.0 if form is not p else 1.0)
        assert np.allclose(nu, p)
        assert np.allclose(e, e[0])


def test_k_grid_matches_closed_form_d2():
    spec = d2_lognormal_matrix_spec()
    res = k_at(spec, 1.0, 100_000, substream(5, "k"))
    assert res.k == pytest.approx(K1_D2, rel=0.02)
    assert res.e.min() > 0
    assert res.nu.sum() == pytest.approx(1.0)
    assert float(res.nu @ res.e) == pytest.approx(1.0, abs=1e-8)
    assert res.residual <= 1e-8


def test_k_zero_is_one_on_all_families():
    for spec in (d1_lognormal_spec(), d2_lognormal_matrix_spec(),
                 d2_finite_pair_spec(), d2_rotation_spec()):
        res = k_at(spec, 0.0, 20_000, substream(6, "k"))
        assert abs(res.k - 1.0) < 1e-3


def test_grid_resolution_stability():
    spec = d2_lognormal_matrix_spec()
    k1 = k_at(spec, 1.0, 50_000, substream(7, "k"),
              grid=build_grid(spec, 128)).k
    k2 = k_at(spec, 1.0, 50_000, substream(7, "k"),
              grid=build_grid(spec, 256)).k
    assert abs(k2 - k1) / k1 < 1e-2


# ---------------------------------------------------------------------------
# products estimate
# ---------------------------------------------------------------------------

def test_products_zero_tilt():
    pe = k_by_products(d1_lognormal_spec(), 0.0, [2, 4, 6], 1000,
                       substream(8, "p"))
    assert pe.k == pytest.approx(1.0, abs=1e-12)


def test_products_beta_slope_exact_under_tilt():
    pe = k_by_products(d1_lognormal_spec(), BETA_D1, list(range(2, 13)), 5000,
                       substream(9, "p"), tilt=BETA_D1)
    assert pe.slope == pytest.approx(-math.log(2.0), rel=1e-9)


def test_products_rotation_isometry():
    spec = d2_rotation_spec()
    pe = k_by_products(spec, 1.0, [2, 4, 6, 8], 50_000, substream(10, "p"))
    assert pe.k == pytest.approx(math.exp(-0.875), rel=0.02)


def test_grid_and_products_agree():
    spec = d2_lognormal_matrix_spec()
    res = k_at(spec, 1.0, 100_000, substream(11, "k"))
    pe = k_by_products(spec, 1.0, [2, 4, 6, 8], 100_000, substream(12, "p"))
    se_prod = abs(pe.k) * max(r[2] for r in pe.per_n)
    comb = 3 * se_prod + 1e-3 * res.k
    assert abs(res.k - pe.k) < comb


# ---------------------------------------------------------------------------
# m(s) and roots
# ---------------------------------------------------------------------------

def test_m_of_s_values():
    spec = d1_lognormal_spec()

    def m(s, seed, mc_reps):
        res = k_at(spec, s, mc_reps, substream(seed, "m"))
        return spec.mean_children() * res.k

    assert m(1.0, 13, 400_000) == pytest.approx(2 * math.exp(-0.75), rel=1e-3)
    assert m(0.0, 14, 1000) == pytest.approx(2.0, abs=1e-9)
    assert m(BETA_D1, 15, 1_000_000) == pytest.approx(1.0, rel=5e-3)


def test_brent_root_closed_form():
    for f, lo, hi, root in ((lambda x: x ** 3 - 2.0, 0.0, 3.0, 2.0 ** (1 / 3)),
                            (lambda x: math.exp(x) - 3.0, -5.0, 5.0,
                             math.log(3.0)),
                            (lambda x: 1.0 - 2.0 * math.exp(-x + x * x / 4),
                             2.0, 6.0, BETA_D1)):
        for tol in (1e-4, 1e-10):
            history = []
            x = _brent_root(f, lo, hi, tol, history)
            assert abs(x - root) <= tol + 4 * np.finfo(float).eps * abs(root)
            assert history and all(lo <= a <= b <= hi for _, a, b in history)


def test_brent_root_no_sign_change():
    with pytest.raises(NoRootError):
        _brent_root(lambda x: x * x + 1.0, -1.0, 2.0, 1e-8, [])


def test_brent_min_interior_and_boundary():
    tol = 1e-8
    x = _brent_min(lambda x: (x - 1.3) ** 2 + 0.5, 0.0, 4.0, tol, [])
    assert abs(x - 1.3) < 1e-7
    x = _brent_min(lambda x: math.log(2.0) - x + x * x / 4, 0.0, 6.0, tol, [])
    assert abs(x - 2.0) < 1e-7
    # monotone: the minimum sits on an end of the bracket, which the
    # minimizer approaches to within 2*(sqrt(eps)*|x| + tol/3)
    reach = 2 * (math.sqrt(np.finfo(float).eps) * 4.0 + tol / 3)
    x = _brent_min(lambda x: math.exp(-x), 0.0, 4.0, tol, [])
    assert 4.0 - reach <= x < 4.0
    x = _brent_min(lambda x: x, 0.0, 4.0, tol, [])
    assert 0.0 < x <= reach


def test_solve_alpha_beta_reference(monkeypatch):
    spec = d1_lognormal_spec()
    calls = []
    assemble = OperatorAssembler.assemble_groups

    def counted(self, s):
        calls.append(s)
        return assemble(self, s)

    monkeypatch.setattr(OperatorAssembler, "assemble_groups", counted)
    sol = solve_alpha_beta(spec, s_max=6.0, tol=1e-8,
                           rng=substream(16, "s"), mc_reps=1_000_000)
    assert len(calls) <= 40
    assert len(set(calls)) == len(calls)          # each s is assembled once
    assert sol.alpha == pytest.approx(ALPHA_D1, abs=0.01)
    assert sol.beta == pytest.approx(BETA_D1, abs=0.02)
    assert 0 < sol.alpha < sol.s_star < sol.beta
    assert sol.m_alpha == pytest.approx(1.0, abs=1e-6)
    assert sol.m_beta == pytest.approx(1.0, abs=1e-6)
    assert sol.rho > 0
    assert sol.k_beta * 2.0 == pytest.approx(sol.m_beta, rel=1e-12)


def test_solve_alpha_beta_rotation_oracle():
    spec = d2_rotation_spec()
    sol = solve_alpha_beta(spec, s_max=12.0, tol=1e-7, rng=substream(19, "s"),
                           grid=build_grid(spec, size=64), mc_reps=200_000)
    assert abs(sol.alpha - ALPHA_ROT) < 0.01
    assert abs(sol.beta - BETA_ROT) < 0.02
    assert sol.rho == pytest.approx(RHO_ROT, rel=0.02)


def test_solver_runs_one_right_iteration_per_s(monkeypatch):
    # m(s) reads only k: each distinct s is assembled once and iterated
    # once, on the right, and never through the two-sided power_iteration
    from smoothtail import spectral
    spec = d2_contracting_matrix_spec()
    assembled, iterated = [], []
    assemble, dominant = OperatorAssembler.assemble_groups, spectral._dominant_pair

    def counted_assemble(self, s):
        assembled.append(s)
        return assemble(self, s)

    def counted_dominant(apply, G):
        iterated.append(G)
        return dominant(apply, G)

    def refused(op):
        raise AssertionError("the solver ran a left iteration")

    monkeypatch.setattr(OperatorAssembler, "assemble_groups", counted_assemble)
    monkeypatch.setattr(spectral, "_dominant_pair", counted_dominant)
    monkeypatch.setattr(spectral, "power_iteration", refused)
    grid = build_grid(spec, size=64)
    sol = solve_alpha_beta(spec, s_max=6.0, tol=1e-7, rng=substream(33, "s"),
                           grid=grid, mc_reps=400_000)
    assert len(set(assembled)) == len(assembled) == len(iterated) > 20
    assert iterated == [64] * len(iterated)
    monkeypatch.undo()
    res = k_grid(OperatorAssembler(spec, grid, 400_000, substream(33, "s")),
                 sol.beta)
    assert res.k == pytest.approx(sol.k_beta, rel=1e-9)
    assert float(res.nu @ res.e) == pytest.approx(1.0, abs=1e-12)
    assert res.residual < 1e-9


@pytest.mark.parametrize("seed", [6101, 7207, 8311])
@pytest.mark.parametrize("make_spec, grid_size, mc_reps, s_max, beta, bound", [
    (d1_lognormal_spec, None, 1_000_000, 6.0, BETA_D1, 1e-9),
    (d2_rotation_spec, 64, 15_000, 12.0, BETA_ROT, 1e-6),
    (d2_contracting_matrix_spec, 256, 400_000, 6.0, BETA_D1, 1e-5),
], ids=["d1", "c*R", "W*P"])
def test_beta_meets_its_oracle(make_spec, grid_size, mc_reps, s_max, beta,
                               bound, seed):
    # the benchmark workloads' solve_index settings.  E W^s is exact, so
    # the error left is the root finder's (d=1, and c*R, whose rows sum to
    # 1) and the 256-point grid's (W*P)
    spec = make_spec()
    sol = solve_alpha_beta(spec, s_max=s_max, tol=1e-7,
                           rng=substream(seed, "solve-index"),
                           grid=build_grid(spec, size=grid_size),
                           mc_reps=mc_reps)
    assert abs(sol.beta - beta) <= bound


def test_solve_no_second_root():
    spec = d1_quarter_spec()       # m(s) = 2 * 4^{-s}, strictly decreasing
    with pytest.raises(NoSecondRootError) as exc:
        solve_alpha_beta(spec, s_max=4.0, tol=1e-6, rng=substream(17, "s"),
                         mc_reps=1000)
    # the message carries m at the bracket's end, 2 * 4^-4
    assert "m is still decreasing at s_max=4.0 (m=0.0078125)" in str(exc.value)


def test_drift_reference():
    spec = d1_lognormal_spec()
    sol = solve_alpha_beta(spec, s_max=6.0, tol=1e-8,
                           rng=substream(18, "d"), mc_reps=1_000_000)
    assert sol.rho == pytest.approx(RHO_D1, rel=0.02)
    assert sol.k_drift == pytest.approx(RHO_D1, rel=0.02)
    assert sol.s_star == pytest.approx(2.0, abs=0.01)    # s* = 2 exactly
    # the drift vanishes at the minimizer s* = 2
    assembler = OperatorAssembler(spec, build_grid(spec), 1_000_000,
                                  substream(18, "d"))
    h = 1e-2
    m_deriv = spec.mean_children() * (k_grid(assembler, 2.0 + h).k
                                      - k_grid(assembler, 2.0 - h).k) / (2 * h)
    assert abs(m_deriv) < 0.02


def test_log_convexity_midpoint():
    spec = d2_lognormal_matrix_spec()
    rng = substream(19, "c")
    grid = build_grid(spec, 128)
    assembler = OperatorAssembler(spec, grid, 50_000, rng)
    for (s1, s2) in [(0.2, 1.0), (0.5, 2.0), (1.0, 3.0)]:
        vals = {}
        for s in (s1, s2, 0.5 * (s1 + s2)):
            vals[s] = 2.0 * k_grid(assembler, s).k
        mid = math.log(vals[0.5 * (s1 + s2)])
        chord = 0.5 * (math.log(vals[s1]) + math.log(vals[s2]))
        assert mid <= chord + 0.02


def test_spectral_result_roundtrip_interp():
    spec = d2_lognormal_matrix_spec()
    res = k_at(spec, 1.5, 50_000, substream(20, "k"))
    vals = res.e_interp(res.grid.points)
    assert np.allclose(vals, res.e, rtol=1e-9)


def test_solve_no_root_when_m_above_one():
    # the expanding d=2 model: min_s m(s) stays near 2
    from smoothtail.errors import NoRootError
    spec = d2_lognormal_matrix_spec()
    with pytest.raises(NoRootError):
        solve_alpha_beta(spec, s_max=3.0, tol=1e-6, rng=substream(21, "s"),
                         mc_reps=20_000)


def test_power_iteration_oscillation_detected():
    from smoothtail.errors import ConvergenceError
    op = np.array([[0.0, 2.0], [1.0, 0.0]])     # eigenvalues +-sqrt(2)
    with pytest.raises(ConvergenceError, match="oscillation"):
        power_iteration(_rows_of(op))


def test_exact_assembly_rejects_annihilating_atom():
    from smoothtail.errors import AssemblyError
    from smoothtail.model import Branching, FiniteSupport, ModelSpec, QLaw
    mats = np.array([[[0.0]], [[0.5]]])            # the zero atom kills S+
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=mats,
                                            probs=np.array([0.5, 0.5])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    with pytest.raises(AssemblyError):
        OperatorAssembler(spec, build_grid(spec), 0, substream(24, "o"))
