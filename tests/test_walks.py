"""Projective action, norms, walk cocycle, and tilted sampling."""

import math

import numpy as np
import pytest
from scipy import stats

import reference_engine as ref
from conftest import (BETA_D1, d1_lognormal_spec, d2_finite_pair_spec,
                      d2_finite_three_spec, d2_lognormal_matrix_spec,
                      d2_rotation_spec, k_at, rng_state)
from reference_oracles import RecordedRatios, k_by_products
from smoothtail.errors import SingularActionError
from smoothtail.rng import substream
from smoothtail import walks
from smoothtail.spectral import build_grid
from smoothtail.walks import (norms_and_iotas, operator_norms, run_walks,
                              tilted_batch, weighted_mean)

PHI = (1 + math.sqrt(5)) / 2


def operator_norm(m, norm):
    """The induced norm of one matrix, through the batched engine."""
    return float(operator_norms(np.asarray(m, dtype=float)[None], norm)[0])


def iota(m, norm):
    """The minimal expansion of one matrix, through the batched engine."""
    return float(norms_and_iotas(np.asarray(m, dtype=float)[None], norm)[1][0])


class FixedSteps:
    """Stand-in sampler whose draws are the given steps M, in order, one
    path at a time, each as the factors (log scale 0, M) with a zero log
    ratio."""

    def __init__(self, steps):
        self._steps = iter(np.asarray(steps, dtype=float))

    def tilted(self, rng, U):
        return np.zeros(1), next(self._steps)[None], np.zeros(1)


def walk_through(spec, u0, steps):
    """One recorded path of run_walks driven by the given steps."""
    return run_walks(spec, u0, len(steps), 1, None,
                     sampler=FixedSteps(steps), record_hist=True)


# ---------------------------------------------------------------------------
# the reference projective action / one walk step
# ---------------------------------------------------------------------------

def test_act_permutation():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = ref.act(m, np.array([1.0, 0.0]), "l1")
    assert np.allclose(out, [0.0, 1.0])


def test_act_scaling_invariance():
    rng = substream(1, "act")
    for _ in range(10):
        x = rng.random(3) + 0.1
        x = x / np.abs(x).sum()
        c = rng.random() * 5 + 0.1
        assert np.allclose(ref.act(c * np.eye(3), x, "l1"), x)


def test_act_power_iteration_to_perron_direction():
    m = np.array([[1.0, 1.0], [1.0, 2.0]])
    x = np.array([1.0, 0.0])
    for _ in range(200):
        x = ref.act(m, x, "l1")
    target = np.array([1.0, PHI]) / (1.0 + PHI)
    assert np.allclose(x, target, atol=1e-10)


def test_act_unit_norm_invariant():
    rng = substream(2, "act")
    for norm in ("l1", "l2"):
        for _ in range(50):
            m = rng.random((3, 3)) + 0.05
            x = rng.random(3) + 0.05
            x = x / walks.vec_norm(x, norm)
            y = ref.act(m, x, norm)
            assert abs(walks.vec_norm(y, norm) - 1.0) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_vec_norm_matches_numpy_sums_exactly(d):
    # validate's E|Q|^s reads |Q| from vec_norm; below d = 8 numpy adds
    # the components left to right too, so validation.json keeps its bytes
    q = substream(3, "vn").normal(size=(1000, d)) * 10.0
    assert np.array_equal(walks.vec_norm(q, "l1"), np.abs(q).sum(axis=1))
    assert np.array_equal(walks.vec_norm(q, "l2"),
                          np.sqrt((q * q).sum(axis=1)))


def test_act_singular_raises():
    with pytest.raises(SingularActionError):
        ref.act(np.zeros((2, 2)), np.array([1.0, 0.0]), "l1")


def test_step_scalar_and_cocycle():
    one = walk_through(d1_lognormal_spec(), np.array([1.0]), [[[2.0]]])
    assert one.S[0] == pytest.approx(math.log(2.0))
    assert one.U[0, 0] == 1.0
    assert one.opnorm_log_hist.shape == (1, 2)
    assert one.opnorm_log_hist[0, 1] == pytest.approx(math.log(2.0))

    rng = substream(3, "step")
    m1 = rng.random((2, 2)) + 0.1
    m2 = rng.random((2, 2)) + 0.1
    u = np.array([0.3, 0.7])
    two = walk_through(d2_finite_pair_spec(), u, [m1, m2])
    direct = math.log(np.abs(m2 @ m1 @ u).sum())
    assert two.S[0] == pytest.approx(direct, rel=1e-12)
    assert two.opnorm_log_hist[0, 2] == pytest.approx(
        math.log(operator_norm(m2 @ m1, "l1")), rel=1e-12)


def test_cocycle_against_dense_product():
    spec = d2_finite_pair_spec()
    rng = substream(4, "walk")
    steps = np.swapaxes(spec.ensemble.draw(rng, 30), -1, -2)
    u = np.array([0.5, 0.5])
    batch = walk_through(spec, u, steps)
    prod = np.eye(2)
    for k, m in enumerate(steps, start=1):
        prod = m @ prod
        assert batch.opnorm_log_hist[0, k] == pytest.approx(
            math.log(operator_norm(prod, "l1")), rel=1e-8)
    y = prod @ u
    assert batch.S[0] == pytest.approx(math.log(np.abs(y).sum()), rel=1e-8)
    assert walks.vec_norm(batch.U[0], "l1") == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(batch.U[0], y / np.abs(y).sum(), atol=1e-12)


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
    assert iota(m, "l1") == 4.0
    w = np.linspace(0, 1, 2001)
    xs = np.column_stack([w, 1 - w])
    vals = np.abs(xs @ m.T).sum(axis=1)
    assert vals.min() == pytest.approx(4.0, abs=1e-12)
    assert iota(np.diag([3.0, 1 / 3]), "l2") == pytest.approx(1 / 3)


def test_iota_le_operator_norm_random():
    rng = substream(5, "iota")
    for _ in range(100):
        m = rng.random((3, 3))
        m[m < 0.1] = 0.15      # keep allowable
        assert iota(m, "l1") <= operator_norm(m, "l1") + 1e-12


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
            lo = iota(m, norm) * walks.vec_norm(x, norm)
            hi = operator_norm(m, norm) * walks.vec_norm(x, norm)
            mx = walks.vec_norm(m @ x, norm)
            assert lo - 1e-12 <= mx <= hi + 1e-12


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def test_walk_zero_steps():
    spec = d1_lognormal_spec()
    batch = run_walks(spec, np.array([1.0]), 0, 3, substream(7, "w"),
                      record_hist=True)
    assert (batch.S == 0.0).all() and (batch.U == 1.0).all()
    assert (batch.log_weight == 0.0).all()
    assert batch.opnorm_log_hist.shape == (3, 1)


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
    batch = walk_through(spec, np.array([1.0, 0.0]),
                         np.swapaxes(mats, -1, -2))
    log_scale = np.log(scales).sum()
    assert batch.S[0] == pytest.approx(log_scale, rel=1e-10)
    assert batch.opnorm_log_hist[0, 50] == pytest.approx(log_scale, rel=1e-10)
    assert walks.vec_norm(batch.U[0], "l2") == pytest.approx(1.0, abs=1e-12)


def test_tilted_walk_weight_at_zero_tilt():
    spec = d1_lognormal_spec()
    batch = tilted_batch(spec, np.array([1.0]), 10, 0.0, None, 50,
                         substream(10, "t"))
    assert (batch.log_weight == 0.0).all()


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
    log_scale, mats, logr = sampler.tilted(rng, U)
    assert not log_scale.any()               # finite support: scale 1
    assert mats.shape == (500, 2, 2)
    assert np.isfinite(logr).all()
    # importance-weighted transition frequencies reproduce the nominal fair coin
    first = (mats[:, 0, 1] == 1.0)  # transposed upper-triangular generator
    w = np.exp(logr)
    est = (w * first).sum() / len(w)
    se = (w * first).std(ddof=1) / math.sqrt(len(w))
    assert abs(est - 0.5) < 4 * se


def test_tilted_finite_support_picks_by_the_h_transform_kernel():
    # at one direction U the sampler picks atom k with probability
    # proportional to p_k |M_k U|^beta e_beta(M_k . U), M_k = A_k^T
    spec = d2_finite_three_spec()
    beta = 2.577
    rng = substream(43, "e")
    before = rng_state(rng)
    res = k_at(spec, beta, 0, rng)          # exact: the atoms draw nothing
    assert rng_state(rng) == before
    assert np.ptp(res.e) > 0.1 * res.e.max()
    U = np.array([0.3, 0.7])
    mats, probs = spec.ensemble.atoms()
    kernel = []
    for A, p in zip(mats, probs):
        y = A.T @ U
        size = abs(y).sum()
        kernel.append(p * size ** beta * res.e_interp(y[None] / size)[0])
    kernel = np.array(kernel) / sum(kernel)
    _, picked, log_ratio = walks.StepSampler(spec, beta, res).tilted(
        substream(44, "pick"), np.tile(U, (400, 1)))
    k = np.array([next(j for j, A in enumerate(mats) if (A.T == M).all())
                  for M in picked])
    assert len(set(k)) == 3
    np.testing.assert_allclose(probs[k] * np.exp(-log_ratio), kernel[k],
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# moment estimates
# ---------------------------------------------------------------------------

def test_pi_norm_moment_zeroth():
    spec = d1_lognormal_spec()
    pe = k_by_products(spec, 0.0, [1, 5], 100, substream(17, "m"))
    assert pe.per_n == [(1, 0.0, 0.0), (5, 0.0, 0.0)]


def test_pi_norm_moment_single_factor():
    spec = d1_lognormal_spec()
    pe = k_by_products(spec, 1.0, [1, 2], 200_000, substream(18, "m"))
    n, log_mean, rel_se = pe.per_n[0]
    assert n == 1
    est = math.exp(log_mean)
    assert abs(est - math.exp(-0.75)) < 3 * rel_se * est


def test_pi_norm_moment_beta_tilted_exact():
    # E||Pi_10||^beta = 2^-10 by construction; the conjugate tilt is
    # variance-free in d = 1, the naive route cannot resolve this moment
    spec = d1_lognormal_spec()
    pe = k_by_products(spec, BETA_D1, [2, 10], 4000, substream(19, "m"),
                       tilt=BETA_D1)
    n, log_mean, _rel_se = pe.per_n[1]
    assert n == 10
    assert log_mean == pytest.approx(-10 * math.log(2.0), rel=1e-9)


@pytest.mark.parametrize("make_spec, s", [
    (d1_lognormal_spec, BETA_D1), (d2_lognormal_matrix_spec, 2.0),
    (d2_finite_pair_spec, 1.5)], ids=["d1", "w-p", "finite-support"])
def test_recorded_ratios_sum_to_the_walk_log_weight(make_spec, s):
    # the products oracle's running log weights are the cumulative sums of
    # the recorded step ratios: at the last step they are the walk's own
    spec = make_spec()
    sampler = RecordedRatios(walks.StepSampler(spec, s))
    batch = run_walks(spec, None, 9, 500, substream(20, "r"), sampler=sampler)
    assert len(sampler.log_ratios) == 9
    assert np.array_equal(np.cumsum(sampler.log_ratios, axis=0)[-1],
                          batch.log_weight)
    assert batch.log_weight.any()


def test_tilted_with_eigenfunction_unbiased():
    # with a grid eigenfunction driving the proposal, weighted averages
    # still reproduce nominal expectations exactly (ratios are exact)
    spec = d2_finite_pair_spec()
    s = 1.5
    res = k_at(spec, s, 0, substream(40, "k"))
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


def _kernel_pairs(shape, d, rng):
    """(apply_batch result, np.einsum result, exact) for each call of one
    shape, in the layouts its call site passes: the walk's D^T are
    transposed views, the pool's D_i contiguous.  Where einsum adds in
    another order the entries are positive, which keeps the gap at
    roundoff."""
    swap = lambda a: np.swapaxes(a, -1, -2)
    if shape in ("walk", "shared_walk", "partial_product"):
        exact = d <= 2 or shape == "partial_product"
        paths = 1 if shape == "shared_walk" else 5000
        mats = swap(_lognormal_entries(rng, (paths, d, d), exact))
        if shape == "partial_product":
            # run_walks: G^T = (D^T G)^T, the rows of G^T (the columns of
            # G) at once; then the l1 norms of G and of a column, on signed
            # entries at every d
            G_T = _lognormal_entries(rng, (5000, d, d), exact)
            G = swap(walks.apply_batch(mats[:, None], G_T))
            assert np.array_equal(walks.operator_norms(G, "l1"),
                                  np.abs(G).sum(axis=-2).max(axis=-1))
            assert np.array_equal(walks.vec_norm(G[..., 0], "l1"),
                                  np.abs(G[..., 0]).sum(axis=-1))
            yield G, np.einsum("rij,rjk->rik", mats, swap(G_T)), exact
            return
        # run_walks: one D^T per path, or one row for every path
        U = _lognormal_entries(rng, (5000, d), exact)
        yield (walks.apply_batch(mats, U),
               np.einsum("rij,rj->ri", np.broadcast_to(mats, (5000, d, d)), U),
               exact)
        return
    if shape == "pool_out":
        # resampled_sum with a shared D: out += D y
        P = _lognormal_entries(rng, (d, d), d <= 2)
        y = _lognormal_entries(rng, (5000, d), d <= 2)
        out = _lognormal_entries(rng, (5000, d), d <= 2)
        want = out + np.einsum("ij,sj->si", P, y)
        yield walks.apply_batch(P, y, out=out), want, d <= 2
        return
    # pool_slots: every slot's D_i x_i at once
    for slots in range(4):
        exact = d <= 2
        mats = _lognormal_entries(rng, (5000, slots, d, d), exact)
        xs = _lognormal_entries(rng, (5000, slots, d), exact)
        yield (walks.apply_batch(mats, xs),
               np.einsum("snij,snj->sni", mats, xs), exact)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shape", ["walk", "shared_walk", "partial_product",
                                   "pool_slots", "pool_out"])
def test_apply_batch_matches_einsum(shape, d):
    # the call shapes of the one small-matrix kernel against np.einsum:
    # bit for bit where the two add in the same order, else to roundoff
    rng = substream(60, shape, d)
    pairs = list(_kernel_pairs(shape, d, rng))
    assert pairs
    for got, want, exact in pairs:
        assert got.shape == want.shape
        if exact:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _slot_sum(mats, xs):
    """sum over n of mats[:, n] @ xs[:, n], accumulated as resampled_sum does
    with per-slot D: slot 0 through apply_batch, the others added with out."""
    acc = walks.apply_batch(mats[:, 0], xs[:, 0])
    for k in range(1, mats.shape[1]):
        walks.apply_batch(mats[:, k], xs[:, k], out=acc)
    return acc


@pytest.mark.parametrize("d,n_max", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
def test_matvec_sum_matches_einsum_exactly(d, n_max):
    rng = substream(60, "matvec", 10 * d + n_max)
    mats = _lognormal_entries(rng, (5000, n_max, d, d))
    xs = _lognormal_entries(rng, (5000, n_max, d))
    assert np.array_equal(_slot_sum(mats, xs),
                          np.einsum("snij,snj->si", mats, xs))


@pytest.mark.parametrize("d,n_max", [(3, 1), (3, 2), (1, 3), (3, 3)])
def test_matvec_sum_close_to_einsum(d, n_max):
    # einsum's own summation order differs here; positive entries keep
    # the relative error at roundoff
    rng = substream(61, "matvec", 10 * d + n_max)
    mats = _lognormal_entries(rng, (5000, n_max, d, d), signed=False)
    xs = _lognormal_entries(rng, (5000, n_max, d), signed=False)
    np.testing.assert_allclose(_slot_sum(mats, xs),
                               np.einsum("snij,snj->si", mats, xs),
                               rtol=1e-13, atol=0)


def test_matvec_sum_no_slots_is_zero():
    out = walks.apply_batch(np.zeros((4, 0, 2, 2)), np.zeros((4, 0, 2)))
    assert out.shape == (4, 0, 2)
    assert np.array_equal(out.sum(axis=1), np.zeros((4, 2)))


@pytest.mark.parametrize("d", [2, 3])
def test_l2_norms_match_exactly(d):
    # the unrolled sum of squares and one SVD for both extreme singular
    # values replay the plain reductions bit for bit
    rng = substream(66, "l2", d)
    x = _lognormal_entries(rng, (1875, 64, d))
    assert np.array_equal(walks.vec_norm(x, "l2"),
                          np.sqrt((x * x).sum(axis=-1)))
    a = _lognormal_entries(rng, (5000, d, d))
    sv = np.linalg.svd(a, compute_uv=False)
    opn, io = walks.norms_and_iotas(a, "l2")
    assert np.array_equal(opn, sv[:, 0]) and np.array_equal(io, sv[:, -1])
    a = np.abs(a)
    opn, io = walks.norms_and_iotas(a, "l1")
    assert np.array_equal(opn, walks.operator_norms(a, "l1"))
    assert np.array_equal(io, a.sum(axis=-2).min(axis=-1))


def test_masked_slots_under_random_n():
    # random N in {1, 2, 3}: slots past N are zeroed before the kernel
    # (the certificate's Z-marks are checked in test_certificate.py)
    from smoothtail.branching import resampled_sum
    from smoothtail.model import Branching, ModelSpec, QLaw
    base = d2_lognormal_matrix_spec()
    spec = ModelSpec(dimension=2,
                     branching=Branching(mode="random", support=(1, 2, 3),
                                         probs=(0.3, 0.3, 0.4)),
                     ensemble=base.ensemble,
                     q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
                     geom_class=base.geom_class)
    pool = _lognormal_entries(substream(64, "pool"), (500, 2), signed=False)

    got = resampled_sum(spec, pool, 3000, substream(63, "innov"))
    # the same draws (N, the factors W_i and P of the A_i, Q, indices),
    # contracted by einsum as P (sum_i W_i X_i) with the masked scales
    rng = substream(63, "innov")
    n = spec.branching.sample(rng, 3000)
    log_w, dirs = spec.ensemble.factors(rng, 3000 * 3)
    want = ref.draw_q(spec.q_law, rng, 3000, 2).astype(float)
    idx = rng.integers(0, len(pool), size=(3000, 3))
    active = np.arange(1, 4)[None, :] <= n[:, None]
    assert n.max() == 3 and not active.all()
    y = np.einsum("sn,snj->sj", np.exp(log_w).reshape(3000, 3) * active,
                  pool[idx])
    want += np.einsum("ij,sj->si", dirs[0], y)
    assert np.array_equal(got, want)


class Recorder:
    """Passes a sampler's steps through and keeps them."""

    def __init__(self, sampler):
        self.sampler, self.steps = sampler, []

    def tilted(self, rng, U):
        step = self.sampler.tilted(rng, U)
        self.steps.append(step)
        return step


@pytest.mark.parametrize("make_spec", [d2_lognormal_matrix_spec,
                                       d2_rotation_spec], ids=["w-p", "c-r"])
@pytest.mark.parametrize("s", [0.0, 2.0], ids=["nominal", "tilted"])
def test_factored_walk_matches_full_stack(make_spec, s):
    # the walk's factored steps (log W, D^T) against the same steps
    # multiplied out as M = W D^T and applied by einsum: only roundoff may
    # differ
    spec = make_spec()
    n, reps = 12, 3000
    rec = Recorder(walks.StepSampler(spec, s=s))
    got = run_walks(spec, np.array([1.0, 0.0]), n, reps, substream(71, "w"),
                    sampler=rec, record_hist=True)
    U = np.tile([1.0, 0.0], (reps, 1))
    G = np.broadcast_to(np.eye(2), (reps, 2, 2))
    S, logw, opn = np.zeros(reps), np.zeros(reps), [np.zeros(reps)]
    for log_scale, dirs_T, lr in rec.steps:
        assert dirs_T.shape[0] == (1 if make_spec is d2_lognormal_matrix_spec
                                   else reps)
        mats = np.exp(log_scale)[:, None, None] * dirs_T
        y = np.einsum("rij,rj->ri", mats, U)
        nrm = walks.vec_norm(y, spec.norm)
        U, S = y / nrm[:, None], S + np.log(nrm)
        G = np.einsum("rij,rjk->rik", mats, G)
        gn = walks.operator_norms(G, spec.norm)
        G = G / gn[:, None, None]
        opn.append(opn[-1] + np.log(gn))
        logw += lr
    assert len(rec.steps) == n
    np.testing.assert_allclose(got.U, U, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(got.S, S, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(got.opnorm_log_hist, np.column_stack(opn),
                               rtol=1e-13, atol=1e-13)
    assert np.array_equal(got.log_weight, logw)


# ---------------------------------------------------------------------------
# the nominal walk is the tilt-0 walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_spec", [d2_finite_pair_spec,
                                       d2_lognormal_matrix_spec],
                         ids=["finite-support", "lognormal"])
def test_default_sampler_is_tilt_zero_bit_for_bit(make_spec):
    spec = make_spec()
    u0 = np.array([1.0, 0.0])
    nominal = run_walks(spec, u0, 12, 2000, substream(70, "w"),
                        sampler=None, record_hist=True)
    zero = tilted_batch(spec, u0, 12, 0.0, None, 2000, substream(70, "w"),
                        record_hist=True)
    for name in ("U", "S", "log_weight", "opnorm_log_hist"):
        assert np.array_equal(getattr(nominal, name), getattr(zero, name))
    assert not nominal.log_weight.any()


def test_default_start_is_e1_bit_for_bit():
    spec = d2_lognormal_matrix_spec()
    walk = {u0 is None: run_walks(spec, u0, 8, 500, substream(71, "w"),
                                  sampler=walks.StepSampler(spec, BETA_D1),
                                  record_hist=True)
            for u0 in (None, np.array([1.0, 0.0]))}
    for name in ("U", "S", "log_weight", "opnorm_log_hist"):
        assert np.array_equal(getattr(walk[True], name),
                              getattr(walk[False], name))


# ---------------------------------------------------------------------------
# shared-direction walks
# ---------------------------------------------------------------------------

class PerPathFactor:
    """Passes a sampler's steps through with a shared (1, d, d) direction
    factor handed back as the (R, d, d) stack it stands for, which forces
    run_walks onto its per-path rows."""

    def __init__(self, sampler):
        self.sampler = sampler

    def tilted(self, rng, U):
        log_scale, dirs_T, lr = self.sampler.tilted(rng, U)
        return log_scale, np.broadcast_to(dirs_T, (len(U),) + dirs_T.shape[1:]), lr


WALK_FIELDS = ("U", "S", "log_weight", "opnorm_log_hist")


@pytest.mark.parametrize("make_spec", [d1_lognormal_spec,
                                       d2_lognormal_matrix_spec],
                         ids=["scalar-d1", "w-p-d2"])
@pytest.mark.parametrize("s", [0.0, BETA_D1], ids=["nominal", "beta"])
@pytest.mark.parametrize("record_hist", [False, True], ids=["plain", "hist"])
def test_shared_walk_is_the_per_path_walk(make_spec, s, record_hist):
    spec = make_spec()
    u0 = np.eye(spec.d)[0]
    got = {}
    for wrap in (False, True):
        sampler = walks.StepSampler(spec, s=s)
        got[wrap] = run_walks(spec, u0, 12, 2000, substream(72, "w"),
                              sampler=PerPathFactor(sampler) if wrap else sampler,
                              record_hist=record_hist)
    shared, per_path = got[False], got[True]
    # the shared walk kept one direction row for the whole batch
    assert shared.U.strides[0] == 0 and per_path.U.strides[0] != 0
    for name in WALK_FIELDS:
        a, b = getattr(shared, name), getattr(per_path, name)
        assert (a is None) == (b is None) == (name.endswith("_hist")
                                              and not record_hist)
        assert a is None or np.array_equal(a, b)
    assert np.ptp(shared.S) > 1.0


def test_equal_start_rows_stay_shared():
    # a (reps, d) start with equal rows (estimate_PW's branches from pre.U)
    # walks like the one start it repeats
    spec = d2_lognormal_matrix_spec()
    sampler = walks.StepSampler(spec, s=2.0)
    one = run_walks(spec, np.array([0.3, 0.7]), 8, 500, substream(73, "w"),
                    sampler=sampler, record_hist=True)
    rows = run_walks(spec, np.tile([0.3, 0.7], (500, 1)), 8, 500,
                     substream(73, "w"), sampler=sampler, record_hist=True)
    assert rows.U.strides[0] == 0
    for name in WALK_FIELDS:
        assert np.array_equal(getattr(one, name), getattr(rows, name))


@pytest.mark.parametrize("m", [0, 2])
def test_pw_branches_match_per_path_walks(monkeypatch, m):
    from smoothtail import certificate
    spec = d2_lognormal_matrix_spec()
    params = certificate.EventParams(t=30.0, C0=10.0, delta=0.2, rho=0.5)
    args = (spec, 5, 4, m, params, 4000)
    shared = certificate.estimate_PW(*args, substream(74, "pw"), tilt=2.0)
    monkeypatch.setattr(certificate, "StepSampler",
                        lambda *a, **k: PerPathFactor(walks.StepSampler(*a, **k)))
    per_path = certificate.estimate_PW(*args, substream(74, "pw"), tilt=2.0)
    assert shared.hits > 0 and shared == per_path


class SingularSteps:
    """Steps whose direction factor is zero on the chosen paths."""

    def __init__(self, d, zero_rows=None):
        self.d, self.zero_rows = d, zero_rows

    def tilted(self, rng, U):
        R = len(U)
        if self.zero_rows is None:
            dirs = np.zeros((1, self.d, self.d))
        else:
            dirs = np.broadcast_to(np.eye(self.d), (R, self.d, self.d)).copy()
            dirs[self.zero_rows] = 0.0
        return np.zeros(R), dirs, np.zeros(R)


@pytest.mark.parametrize("zero_rows, bad", [(None, 50), (slice(0, 7), 7)],
                         ids=["shared", "per-path"])
def test_singular_action_counts_paths(zero_rows, bad):
    spec = d2_lognormal_matrix_spec()
    with pytest.raises(SingularActionError,
                       match=f"^{bad} of 50 paths hit a singular action at step 1$"):
        run_walks(spec, np.array([1.0, 0.0]), 3, 50, None,
                  sampler=SingularSteps(2, zero_rows))
