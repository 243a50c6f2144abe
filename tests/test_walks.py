"""Projective action, norms, walk cocycle, and tilted sampling."""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import (BETA_D1, d1_lognormal_spec, d2_finite_pair_spec,
                      d2_lognormal_matrix_spec, d2_rotation_spec)
from smoothtail.errors import SingularActionError, SpecError
from smoothtail.rng import substream
from smoothtail import walks
from smoothtail.walks import (PathState, act, estimate_Pi_norm_moment, iota,
                              operator_norm, run_walks, simulate_walk, step,
                              tilted_batch, tilted_walk, weighted_mean)

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# act / step
# ---------------------------------------------------------------------------

def test_act_permutation():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = act(m, np.array([1.0, 0.0]), "l1")
    assert np.allclose(out, [0.0, 1.0])


def test_act_scaling_invariance():
    rng = substream(1, "act")
    for _ in range(10):
        x = rng.random(3) + 0.1
        x = x / np.abs(x).sum()
        c = rng.random() * 5 + 0.1
        assert np.allclose(act(c * np.eye(3), x, "l1"), x)


def test_act_power_iteration_to_perron_direction():
    m = np.array([[1.0, 1.0], [1.0, 2.0]])
    x = np.array([1.0, 0.0])
    for _ in range(200):
        x = act(m, x, "l1")
    target = np.array([1.0, PHI]) / (1.0 + PHI)
    assert np.allclose(x, target, atol=1e-10)


def test_act_unit_norm_invariant():
    rng = substream(2, "act")
    for norm in ("l1", "l2"):
        for _ in range(50):
            m = rng.random((3, 3)) + 0.05
            x = rng.random(3) + 0.05
            x = x / walks.vec_norm(x, norm)
            y = act(m, x, norm)
            assert abs(walks.vec_norm(y, norm) - 1.0) < 1e-10


def test_act_singular_raises():
    with pytest.raises(SingularActionError):
        act(np.zeros((2, 2)), np.array([1.0, 0.0]), "l1")


def test_step_scalar_and_cocycle():
    st = PathState(U=np.array([1.0]), S=0.0, n=0, norm="l1")
    st = step(st, np.array([[2.0]]))
    assert st.S == pytest.approx(math.log(2.0))
    assert st.n == 1

    rng = substream(3, "step")
    m1 = rng.random((2, 2)) + 0.1
    m2 = rng.random((2, 2)) + 0.1
    u = np.array([0.3, 0.7])
    st = PathState(U=u.copy(), S=0.0, n=0, norm="l1")
    st = step(step(st, m1), m2)
    direct = math.log(np.abs(m2 @ m1 @ u).sum())
    assert st.S == pytest.approx(direct, rel=1e-12)


def test_cocycle_against_dense_product():
    spec = d2_finite_pair_spec()
    rng = substream(4, "walk")
    mats = spec.ensemble.draw(rng, 30)
    u = np.array([0.5, 0.5])
    st = PathState(U=u.copy(), S=0.0, n=0, norm="l1")
    prod = np.eye(2)
    for m in mats:
        st = step(st, m.T)
        prod = m.T @ prod
    assert st.S == pytest.approx(math.log(np.abs(prod @ u).sum()), rel=1e-8)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_operator_norm_l1_column_sum():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert operator_norm(m, "l1") == 6.0
    # oracle: maximize |m x|_1 over a fine grid of the positive simplex
    w = np.linspace(0, 1, 2001)
    xs = np.column_stack([w, 1 - w])
    vals = np.abs(xs @ m.T).sum(axis=1)
    assert vals.max() == pytest.approx(6.0, abs=1e-12)


def test_operator_norm_l2():
    assert operator_norm(2 * np.eye(3), "l2") == pytest.approx(2.0)
    assert operator_norm(np.diag([3.0, 1 / 3]), "l2") == pytest.approx(3.0)


def test_iota_values():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert iota(m, "l1", "nonnegative-C") == 4.0
    w = np.linspace(0, 1, 2001)
    xs = np.column_stack([w, 1 - w])
    vals = np.abs(xs @ m.T).sum(axis=1)
    assert vals.min() == pytest.approx(4.0, abs=1e-12)
    assert iota(np.diag([3.0, 1 / 3]), "l2", "invertible-ipo") == pytest.approx(1 / 3)


def test_iota_le_operator_norm_random():
    rng = substream(5, "iota")
    for _ in range(100):
        m = rng.random((3, 3))
        m[m < 0.1] = 0.15      # keep allowable
        assert iota(m, "l1", "nonnegative-C") <= operator_norm(m, "l1") + 1e-12


def test_iota_domain_errors():
    with pytest.raises(SpecError):
        iota(np.array([[1.0, 0.0], [2.0, 0.0]]), "l1", "nonnegative-C")
    with pytest.raises(SpecError):
        iota(np.zeros((2, 2)), "l2", "invertible-ipo")


def test_submultiplicativity_and_sandwich():
    rng = substream(6, "sub")
    for norm in ("l1", "l2"):
        for _ in range(100):
            m = rng.random((2, 2)) + 0.01
            n = rng.random((2, 2)) + 0.01
            lhs = operator_norm(m @ n, norm)
            rhs = operator_norm(m, norm) * operator_norm(n, norm)
            assert lhs <= rhs * (1 + 1e-12)
            x = rng.random(2) + 0.01
            gc = "nonnegative-C" if norm == "l1" else "invertible-ipo"
            lo = iota(m, norm, gc) * walks.vec_norm(x, norm)
            hi = operator_norm(m, norm) * walks.vec_norm(x, norm)
            mx = walks.vec_norm(m @ x, norm)
            assert lo - 1e-12 <= mx <= hi + 1e-12


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def test_walk_zero_steps():
    spec = d1_lognormal_spec()
    st = simulate_walk(spec, np.array([1.0]), 0, substream(7, "w"))
    assert st.n == 0 and st.S == 0.0 and st.U[0] == 1.0


def test_walk_lln_drift():
    spec = d1_lognormal_spec()
    batch = run_walks(spec, np.array([1.0]), 200, 1000, substream(8, "w"))
    drift = batch.S / 200
    se = drift.std(ddof=1) / math.sqrt(len(drift))
    assert abs(drift.mean() - (-1.0)) < 3 * se


def test_walk_rotation_isometry():
    spec = d2_rotation_spec()
    rng = substream(9, "w")
    mats = spec.ensemble.draw(rng, 50)
    scales = np.linalg.norm(mats[:, :, 0], axis=1)   # |c R e1|_2 = c
    st = PathState(U=np.array([1.0, 0.0]), S=0.0, n=0, norm="l2")
    for m in mats:
        st = step(st, m.T)
    assert st.S == pytest.approx(np.log(scales).sum(), rel=1e-10)


def test_tilted_walk_weight_at_zero_tilt():
    spec = d1_lognormal_spec()
    out = tilted_walk(spec, np.array([1.0]), 10, 0.0, None, substream(10, "t"))
    assert out.weight == 1.0 and out.log_weight == 0.0


def test_tilted_drift_matches_cumulant():
    spec = d1_lognormal_spec()
    batch = tilted_batch(spec, np.array([1.0]), 200, BETA_D1, None, 2000,
                         substream(11, "t"))
    drift = batch.S / 200
    se = drift.std(ddof=1) / math.sqrt(len(drift))
    target = -1.0 + 0.5 * BETA_D1
    assert abs(drift.mean() - target) < 3 * se


def test_tilted_zero_tilt_matches_nominal_law():
    spec = d1_lognormal_spec()
    nominal = run_walks(spec, np.array([1.0]), 30, 4000, substream(12, "a"))
    tilted = tilted_batch(spec, np.array([1.0]), 30, 0.0, None, 4000,
                          substream(13, "b"))
    ks = stats.ks_2samp(nominal.S, tilted.S)
    assert ks.pvalue > 0.01


def test_tilted_vs_naive_probability():
    spec = d1_lognormal_spec()
    n, log_t = 10, -10.0
    nb = run_walks(spec, np.array([1.0]), n, 100_000, substream(14, "n"))
    p = float((nb.S > log_t).mean())
    se_n = math.sqrt(p * (1 - p) / 100_000)
    tb = tilted_batch(spec, np.array([1.0]), n, 1.0, None, 100_000,
                      substream(15, "t"))
    est, se_t = weighted_mean((tb.S > log_t).astype(float), tb.log_weight)
    assert abs(est - p) < 3 * math.hypot(se_n, se_t)


def test_tilted_finite_support_exact_ratios():
    spec = d2_finite_pair_spec()
    sampler = walks.StepSampler(spec, s=1.5)
    rng = substream(16, "fs")
    U = np.tile(np.array([0.5, 0.5]), (500, 1))
    mats, logr = sampler.tilted(rng, U)
    assert mats.shape == (500, 2, 2)
    assert np.isfinite(logr).all()
    # importance-weighted transition frequencies reproduce the nominal fair coin
    first = (mats[:, 0, 1] == 1.0)  # transposed upper-triangular generator
    w = np.exp(logr)
    est = (w * first).sum() / len(w)
    se = (w * first).std(ddof=1) / math.sqrt(len(w))
    assert abs(est - 0.5) < 4 * se


# ---------------------------------------------------------------------------
# moment estimates
# ---------------------------------------------------------------------------

def test_pi_norm_moment_zeroth():
    spec = d1_lognormal_spec()
    est, se = estimate_Pi_norm_moment(spec, 5, 0.0, 100, substream(17, "m"))
    assert est == 1.0 and se == 0.0


def test_pi_norm_moment_single_factor():
    spec = d1_lognormal_spec()
    est, se = estimate_Pi_norm_moment(spec, 1, 1.0, 200_000, substream(18, "m"))
    assert abs(est - math.exp(-0.75)) < 3 * se


def test_pi_norm_moment_beta_tilted_exact():
    # E||Pi_10||^beta = 2^-10 by construction; the conjugate tilt is
    # variance-free in d = 1, the naive route cannot resolve this moment
    spec = d1_lognormal_spec()
    est, _se = estimate_Pi_norm_moment(spec, 10, BETA_D1, 4000,
                                       substream(19, "m"), method="tilted")
    assert est == pytest.approx(2.0 ** -10, rel=1e-9)


def test_pi_norm_moment_needs_reps():
    with pytest.raises(SpecError):
        estimate_Pi_norm_moment(d1_lognormal_spec(), 3, 1.0, 1,
                                substream(20, "m"))


def test_csv_trace_shape():
    spec = d2_lognormal_matrix_spec()
    states = walks.walk_trace(spec, np.array([1.0, 0.0]), 5, substream(21, "tr"))
    assert len(states) == 6
    assert states[-1].n == 5
    for st in states:
        assert abs(walks.vec_norm(st.U, "l1") - 1) < 1e-10


def test_trace_table_export(tmp_path):
    from smoothtail import artifacts
    spec = d2_lognormal_matrix_spec()
    states = walks.walk_trace(spec, np.array([1.0, 0.0]), 4,
                              substream(30, "tr"))
    cols, rows = walks.trace_table(states)
    assert cols == ["n", "u0", "u1", "S"]
    artifacts.write_csv(tmp_path / "trace.csv", cols, rows, "0" * 16)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 2 + 5


def test_tilted_with_eigenfunction_unbiased():
    # with a grid eigenfunction driving the proposal, weighted averages
    # still reproduce nominal expectations exactly (ratios are exact)
    from smoothtail.spectral import k_grid
    spec = d2_finite_pair_spec()
    s = 1.5
    res = k_grid(spec, s, mc_reps=0, rng=substream(40, "k"))
    u0 = np.array([1.0, 0.0])
    n = 4
    nominal = walks.run_walks(spec, u0, n, 200_000, substream(41, "n"))
    target = float(np.exp(s * nominal.S).mean())
    se_n = float(np.exp(s * nominal.S).std(ddof=1) / math.sqrt(200_000))
    tb = walks.tilted_batch(spec, u0, n, s, res, 50_000, substream(42, "t"))
    est, se_t = weighted_mean(np.ones(50_000), s * tb.S + tb.log_weight)
    assert abs(est - target) < 3 * math.hypot(se_n, se_t)
    # the eigenfunction proposal should not be degenerate
    from smoothtail.walks import effective_sample_size
    assert effective_sample_size(tb.log_weight) > 10_000


def test_d3_rotation_walk_and_grid():
    from smoothtail.model import Branching, LognormalRotation, ModelSpec, QLaw
    from smoothtail.spectral import build_grid
    spec = ModelSpec(dimension=3, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalRotation(mu=-0.5, sigma2=0.1, d=3),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 0.0, 0.0]),
                     geom_class="invertible-ipo")
    grid = build_grid(spec, size=128)
    assert np.allclose(np.linalg.norm(grid.points, axis=1), 1.0, atol=1e-10)
    batch = walks.run_walks(spec, np.array([1.0, 0.0, 0.0]), 10, 200,
                            substream(43, "w"))
    assert np.allclose(np.linalg.norm(batch.U, axis=1), 1.0, atol=1e-9)
    # rotations are isometries: the drift is E log c = mu
    se = batch.S.std(ddof=1) / math.sqrt(200)
    assert abs(batch.S.mean() / 10 - (-0.5)) < 4 * se / 10 + 0.05
    idx = grid.cell_index(batch.U)
    assert ((0 <= idx) & (idx < 128)).all()


# ---------------------------------------------------------------------------
# unrolled kernels vs the einsum / axis reductions they replace
# ---------------------------------------------------------------------------

def _lognormal_entries(rng, shape, signed=True):
    x = np.exp(2.0 * rng.standard_normal(shape))
    return x * rng.choice([-1.0, 1.0], size=shape) if signed else x


@pytest.mark.parametrize("d,n_max", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
def test_matvec_sum_matches_einsum_exactly(d, n_max):
    rng = substream(60, "matvec", 10 * d + n_max)
    mats = _lognormal_entries(rng, (5000, n_max, d, d))
    xs = _lognormal_entries(rng, (5000, n_max, d))
    assert np.array_equal(walks.matvec_sum(mats, xs),
                          np.einsum("snij,snj->si", mats, xs))


@pytest.mark.parametrize("d,n_max", [(3, 1), (3, 2), (1, 3), (3, 3)])
def test_matvec_sum_close_to_einsum(d, n_max):
    # einsum's own summation order differs here; positive entries keep
    # the relative error at roundoff
    rng = substream(61, "matvec", 10 * d + n_max)
    mats = _lognormal_entries(rng, (5000, n_max, d, d), signed=False)
    xs = _lognormal_entries(rng, (5000, n_max, d), signed=False)
    np.testing.assert_allclose(walks.matvec_sum(mats, xs),
                               np.einsum("snij,snj->si", mats, xs),
                               rtol=1e-13, atol=0)


def test_matvec_sum_no_slots_is_zero():
    out = walks.matvec_sum(np.zeros((4, 0, 2, 2)), np.zeros((4, 0, 2)))
    assert np.array_equal(out, np.zeros((4, 2)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matmul_batch_and_l1_norms_match_exactly(d):
    rng = substream(62, "matmul", d)
    a = _lognormal_entries(rng, (5000, d, d))
    b = _lognormal_entries(rng, (5000, d, d))
    x = _lognormal_entries(rng, (5000, d))
    assert np.array_equal(walks.matmul_batch(a, b),
                          np.einsum("rij,rjk->rik", a, b))
    assert np.array_equal(walks.vec_norm(x, "l1"), np.abs(x).sum(axis=-1))
    assert np.array_equal(walks.operator_norms(a, "l1"),
                          np.abs(a).sum(axis=-2).max(axis=-1))


def test_masked_slots_under_random_n():
    # random N in {1, 2, 3}: slots past N are zeroed before the kernel,
    # in the population step and in the certificate's Z-marks alike
    from smoothtail.branching import _innovation_batch
    from smoothtail.certificate import draw_z_marks
    from smoothtail.model import Branching, ModelSpec, QLaw
    base = d2_lognormal_matrix_spec()
    spec = ModelSpec(dimension=2,
                     branching=Branching(mode="random", support=(1, 2, 3),
                                         probs=(0.3, 0.3, 0.4)),
                     ensemble=base.ensemble,
                     q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
                     geom_class=base.geom_class)
    n, mats, q = _innovation_batch(spec, 3000, substream(63, "innov"))
    active = np.arange(1, mats.shape[1] + 1)[None, :] <= n[:, None]
    assert mats.shape[1] == 3 and not active.all()
    assert not mats[~active].any() and (mats[active] > 0).all()
    xs = _lognormal_entries(substream(63, "xs"), (3000, 3, 2))
    assert np.array_equal(walks.matvec_sum(mats, xs),
                          np.einsum("snij,snj->si", mats, xs))

    pool = _lognormal_entries(substream(64, "pool"), (500, 2), signed=False)
    count = 4000
    got = draw_z_marks(spec, pool, count, substream(64, "z"))
    # the same draws, contracted by einsum over the masked stack
    rng = substream(64, "z")
    nvals = spec.branching.sample(rng, count)
    want = spec.q_law.draw(rng, count, 2).astype(float)
    slots = int(nvals.max() - 1)
    raw = spec.ensemble.draw(rng, count * slots).reshape(count, slots, 2, 2)
    idx = rng.integers(0, len(pool), size=(count, slots))
    mask = np.arange(slots)[None, :] < (nvals - 1)[:, None]
    assert not mask.all()
    want += np.einsum("csij,csj->ci", raw * mask[:, :, None, None], pool[idx])
    assert np.array_equal(got, np.abs(want).sum(axis=-1))
