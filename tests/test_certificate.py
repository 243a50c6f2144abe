"""Event indicators, probability estimates, subtree counts, cones, and the bound."""

import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import reference_engine as ref
from conftest import (BETA_D1, BETA_ROT, K_BETA_D1, RHO_D1, RHO_ROT,
                      d1_lognormal_spec, d2_contracting_matrix_spec,
                      d2_finite_three_spec,
                      d2_lognormal_matrix_spec, d2_rotation_spec,
                      d3_rotation_spec, k_at, random13_spec, rng_state)
from reference_oracles import (build_sparse_subtree, estimate_tail_prob,
                               expected_count_check, grow_tree, indicator_V)
from smoothtail import certificate, walks
from smoothtail.branching import sample_fixed_point
from smoothtail.certificate import (ESS_FLOOR, VERDICT_Z, EventParams,
                                    HitSummary, _cap_geometry, _draw_V,
                                    _indicator_V_batch, choose_event_params,
                                    cone_family, draw_z_marks, estimate_PV,
                                    estimate_PW, lower_bound, verdict)
from smoothtail.errors import CoverageError, NondegeneracyError, SpecError
from smoothtail.model import Branching, FiniteSupport, ModelSpec, QLaw
from smoothtail.rng import substream
from smoothtail.walks import vec_norm


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_event_params_window():
    p = EventParams(t=math.exp(25 * RHO_D1), C0=10.0, delta=0.2, rho=RHO_D1)
    assert p.n_t == 25
    assert p.window == (20.0, 22.5)
    assert p.window_levels() == [20, 21, 22]
    assert p.D == pytest.approx(1.0 + 10.0 / (1.0 - math.exp(-0.2)))
    assert p.flags == []


def test_event_params_small_t_flagged():
    p = EventParams(t=2.0, C0=1.0, delta=0.1, rho=RHO_D1)
    assert p.n_t >= 1
    assert any("below recommended" in f for f in p.flags)


def test_subtree_levels():
    p = EventParams(t=math.exp(25 * RHO_D1), C0=10.0, delta=0.2, rho=RHO_D1)
    assert p.levels(2) == [20, 22]
    assert p.levels(4) == [20]
    assert p.levels(6) == []
    # n_t = 16: the window [12, 14] is closed at both ends, and L_t holds
    # the same top level the (C0, delta) search scores
    p = EventParams(t=math.exp(15.5 * RHO_D1), C0=10.0, delta=0.2, rho=RHO_D1)
    assert p.n_t == 16 and p.window == (12.0, 14.0)
    assert p.window_levels() == [12, 13, 14]
    assert p.levels(1) == [12, 13, 14]
    assert p.levels(2) == [12, 14]
    assert p.levels(3) == [12]


# ---------------------------------------------------------------------------
# indicator
# ---------------------------------------------------------------------------

def test_indicator_examples():
    p = EventParams(t=1.0 + 1e-12, C0=10.0, delta=0.1, rho=1.0)
    # n=1: ||Pi*_0|| = 1, Z_1 = 0.3 -> lhs 1 * max(0.3, 1) = 1 <= e^-0.1 * 10
    assert indicator_V(np.array([0.0]), 1.5, np.array([0.3]), p, 1)
    assert not indicator_V(np.array([0.0]), 0.5, np.array([0.3]), p, 1)
    tiny = EventParams(t=1.0 + 1e-12, C0=1e-9, delta=0.1, rho=1.0)
    assert not indicator_V(np.array([0.0]), 1.5, np.array([0.3]), tiny, 1)


def test_indicator_requires_marks():
    p = EventParams(t=2.0, C0=1.0, delta=0.1, rho=1.0)
    with pytest.raises(SpecError):
        indicator_V(np.array([0.0]), 3.0, np.array([]), p, 1)


def test_batch_indicator_matches_one_path_oracle():
    # the certificate's batched V indicator, row by row against the one-path
    # reference, on random norm histories, final scales and Z-marks
    rng = substream(19, "ind")
    n, reps = 6, 4000
    p = EventParams(t=2.0, C0=3.0, delta=0.2, rho=1.0)
    hist = np.cumsum(rng.normal(0.0, 0.4, (reps, n + 1)), axis=1)
    pi_u = np.exp(rng.normal(0.7, 0.6, reps))
    z = np.exp(rng.normal(0.0, 1.0, (reps, n)))
    got = _indicator_V_batch(hist[:, :n] + np.log(np.maximum(z, 1.0)),
                             np.log(pi_u), p)
    want = [indicator_V(hist[r], pi_u[r], z[r], p, n) for r in range(reps)]
    assert got.tolist() == want
    assert 0.05 < got.mean() < 0.95


# ---------------------------------------------------------------------------
# V probabilities
# ---------------------------------------------------------------------------

def test_pv_naive_vs_tilted(d1_pool):
    spec = d1_lognormal_spec()
    # small scale where the naive estimator still sees events
    t = math.exp(3 * RHO_D1)
    p = EventParams(t=t, C0=30.0, delta=0.1, rho=RHO_D1)
    x = d1_pool.vectors
    nv = estimate_PV(spec, 2, p, 600_000, substream(1, "nv"), tilt=0.0,
                     pool_vectors=x)
    tl = estimate_PV(spec, 2, p, 100_000, substream(2, "tl"), tilt=BETA_D1,
                     pool_vectors=x)
    assert nv.hits > 20 and tl.hits > 100
    assert abs(nv.value - tl.value) < 3 * math.hypot(nv.se, tl.se)


def test_pv_naive_vs_tilted_n8(d1_pool):
    # moderate t at n = 8: the event is ~3e-5 so the naive route still sees
    # it, and on the event the tilted weights are bounded by k^n t^-beta
    spec = d1_lognormal_spec()
    p = EventParams(t=1.0, C0=1000.0, delta=0.05, rho=RHO_D1)
    x = d1_pool.vectors
    nv = estimate_PV(spec, 8, p, 2_000_000, substream(30, "nv8"),
                     tilt=0.0, pool_vectors=x)
    tl = estimate_PV(spec, 8, p, 100_000, substream(31, "tl8"),
                     tilt=BETA_D1, pool_vectors=x)
    assert nv.hits > 20 and tl.hits > 1000
    assert abs(nv.value - tl.value) < 3 * math.hypot(nv.se, tl.se)


def test_pv_event_inclusion(d1_pool):
    spec = d1_lognormal_spec()
    t = math.exp(10 * RHO_D1)
    p = EventParams(t=t, C0=10.0, delta=0.2, rho=RHO_D1)
    pv = estimate_PV(spec, 7, p, 100_000, substream(3, "pv"), tilt=BETA_D1,
                     pool_vectors=d1_pool.vectors)
    tp = estimate_tail_prob(spec, 7, t, 100_000, substream(4, "tp"),
                            tilt=BETA_D1)
    assert pv.value <= tp.value * (1 + 1e-9) + 3 * math.hypot(pv.se, tp.se)


def test_pv_level_stationary(d1_pool):
    # independent streams at the same level agree within 3 combined SE,
    # the estimate depends on |i| only
    spec = d1_lognormal_spec()
    t = math.exp(12 * RHO_D1)
    p = EventParams(t=t, C0=10.0, delta=0.2, rho=RHO_D1)
    a = estimate_PV(spec, 9, p, 150_000, substream(5, "a"), tilt=BETA_D1,
                    pool_vectors=d1_pool.vectors)
    b = estimate_PV(spec, 9, p, 150_000, substream(6, "b"), tilt=BETA_D1,
                    pool_vectors=d1_pool.vectors)
    assert abs(a.value - b.value) < 3 * math.hypot(a.se, b.se)


# ---------------------------------------------------------------------------
# V blocks
# ---------------------------------------------------------------------------

def _pv_from_draws(blocks, params, cones):
    """The V estimate on the given blocks of draws (S, log weight, U, left
    side), each scored and folded into one summary in order."""
    summary = HitSummary(len(cones.masses))
    for S, log_weight, U, lhs in blocks:
        ind = _indicator_V_batch(lhs, S, params)
        summary.add(log_weight, ind, cones.caps.cell_index(U[ind]))
    return summary.estimate(cones.masses)


def _block_draws(spec, n, reps, rng, tilt, pool, u):
    """_draw_V one V_BLOCK_MARKS block after another."""
    block = certificate.V_BLOCK_MARKS // n
    return [_draw_V(spec, n, min(block, reps - start), rng, tilt, None,
                    pool, u) for start in range(0, reps, block)]


def _two_pass(log_weight, hit, cap, masses):
    """The summary by two passes over every path, with numpy's mean and
    std: value and se, the ESS over the hits, the per-cap rates, their
    mass-weighted sum and its se (cap is read on the hits only)."""
    x = np.where(hit, np.exp(log_weight), 0.0)
    rates = np.array([np.mean(np.where(hit & (cap == j), x, 0.0))
                      for j in range(len(masses))])
    root_n = math.sqrt(len(x))
    return {"hits": int(hit.sum()), "value": np.mean(x),
            "se": np.std(x, ddof=1) / root_n,
            "ess": x[hit].sum() ** 2 / (x[hit] ** 2).sum(),
            "cap_rates": rates, "weighted": masses @ rates,
            "weighted_se": np.std(np.where(hit, masses[cap], 0.0) * x,
                                  ddof=1) / root_n}


def _two_pass_on_draws(blocks, params, cones):
    """_two_pass over the V draws of every block at once."""
    S, log_weight, U, lhs = (np.concatenate(arrays) for arrays in zip(*blocks))
    hit = _indicator_V_batch(lhs, S, params)
    cap = np.zeros(len(S), dtype=np.intp)
    cap[hit] = cones.caps.cell_index(U[hit])
    return _two_pass(log_weight, hit, cap, cones.masses)


def _assert_matches_two_pass(est, want):
    assert est.hits == want["hits"] > 0
    for key in ("value", "se", "ess", "weighted", "weighted_se"):
        assert getattr(est, key) == pytest.approx(want[key], rel=1e-12), key
    np.testing.assert_allclose(est.cap_rates, want["cap_rates"], rtol=1e-12,
                               atol=0)


def _as_tuple(est):
    doc = asdict(est)
    doc["cap_rates"] = est.cap_rates.tolist()
    return tuple(sorted(doc.items()))


@pytest.mark.parametrize("reps", [5_000, certificate.V_BLOCK_MARKS // 8])
def test_pv_within_one_block_is_one_draw_v_batch(d1_pool, reps):
    # an estimate whose reps * n marks fit in one block draws exactly what
    # one _draw_V call draws, and leaves its generator in the same state
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    p = EventParams(t=float(np.quantile(x[:, 0], 0.999)), C0=10.0,
                    delta=0.1, rho=RHO_D1)
    cones = cone_family(x, *_cap_geometry(spec, 8), p, spec)
    rng, rng_ref = substream(92, "v"), substream(92, "v")
    est = estimate_PV(spec, 8, p, reps, rng, tilt=BETA_D1, pool_vectors=x,
                      cones=cones)
    draws = [_draw_V(spec, 8, reps, rng_ref, BETA_D1, None, x, None)]
    assert est.hits > 0
    assert _as_tuple(est) == _as_tuple(_pv_from_draws(draws, p, cones))
    assert rng_state(rng) == rng_state(rng_ref)
    _assert_matches_two_pass(est, _two_pass_on_draws(draws, p, cones))


def test_pv_over_several_blocks_is_the_blocks_in_order(d1_pool):
    # three blocks, the last one short: the per-block draws concatenated
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    p = EventParams(t=float(np.quantile(x[:, 0], 0.999)), C0=10.0,
                    delta=0.1, rho=RHO_D1)
    cones = cone_family(x, *_cap_geometry(spec, 8), p, spec)
    reps = 2 * (certificate.V_BLOCK_MARKS // 8) + 5
    rng, rng_ref = substream(93, "v"), substream(93, "v")
    est = estimate_PV(spec, 8, p, reps, rng, tilt=BETA_D1, pool_vectors=x,
                      cones=cones)
    blocks = _block_draws(spec, 8, reps, rng_ref, BETA_D1, x, None)
    assert len(blocks) == 3
    assert est.hits > 0
    assert _as_tuple(est) == _as_tuple(_pv_from_draws(blocks, p, cones))
    assert rng_state(rng) == rng_state(rng_ref)
    _assert_matches_two_pass(est, _two_pass_on_draws(blocks, p, cones))


def test_pv_blocks_keep_per_path_directions(monkeypatch):
    # rotations give every path its own final direction U, so the cap
    # lookup runs on each block's own hits; 48 blocks of 21 paths, the last
    # one of 13
    monkeypatch.setattr(certificate, "V_BLOCK_MARKS", 64)
    spec = d2_rotation_spec()
    g = substream(90, "pool")
    pool = g.standard_normal((20_000, 2)) * np.exp(g.standard_normal((20_000, 1)))
    p = EventParams(t=5.0, C0=1.0, delta=0.2, rho=RHO_ROT)
    cones = cone_family(pool, *_cap_geometry(spec, 8), p, spec)
    rng, rng_ref = substream(91, "v"), substream(91, "v")
    est = estimate_PV(spec, 3, p, 1000, rng, tilt=BETA_ROT, pool_vectors=pool,
                      cones=cones)
    blocks = _block_draws(spec, 3, 1000, rng_ref, BETA_ROT, pool, None)
    assert len(np.unique(np.concatenate([U for _, _, U, _ in blocks]),
                         axis=0)) > 1
    assert (est.cap_rates > 0).sum() > 1
    assert _as_tuple(est) == _as_tuple(_pv_from_draws(blocks, p, cones))
    assert rng_state(rng) == rng_state(rng_ref)
    _assert_matches_two_pass(est, _two_pass_on_draws(blocks, p, cones))


def _traced_peak(call):
    """call()'s result and the tracemalloc peak above its entry point."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_pv_working_set_is_one_block(d1_pool):
    # every block folds into the summary's running sums, so the peak is one
    # block's draws whatever reps is; keeping a hit flag, log weight and
    # cap per path grew by about 36 bytes a path
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    p = EventParams(t=float(np.quantile(x[:, 0], 0.999)), C0=10.0,
                    delta=0.1, rho=RHO_D1)
    cones = cone_family(x, *_cap_geometry(spec, 8), p, spec)
    peaks = []
    for reps in (100_000, 2_000_000):
        est, peak = _traced_peak(lambda: estimate_PV(
            spec, 8, p, reps, substream(94, "v"), tilt=BETA_D1,
            pool_vectors=x, cones=cones))
        assert est.hits > 0
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 2 ** 20


def test_search_working_set_is_one_block(d1_pool):
    # the search scores each block for every cell and keeps only the
    # cells' sums, so its peak does not grow with reps either
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    eps = _cap_geometry(spec, 8)[1]
    peaks = []
    for reps in (100_000, 2_000_000):
        chosen, peak = _traced_peak(lambda: choose_event_params(
            spec, t, RHO_D1, K_BETA_D1, substream(96, "search"), x, BETA_D1,
            u=np.array([1.0]), reps=reps, eps=eps))
        assert reps * min(chosen.window_levels()) > certificate.V_BLOCK_MARKS
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 2 ** 20


def test_lower_bound_over_blocks_is_the_same_at_any_worker_count(
        monkeypatch, d1_pool):
    # two levels, each drawn in many blocks, fanned out over 1 and 2 workers
    monkeypatch.setattr(certificate, "V_BLOCK_MARKS", 2 ** 12)
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    reports = [lower_bound(
        spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1, C1=1,
        pool_vectors=x, rng=substream(95, "lb"), C0=10.0, delta=0.1,
        reps_v=5_000, reps_w=1_000, threads=threads) for threads in (1, 2)]
    assert len(reports[0].levels) == 2
    assert all(level["hits"] > 0 for level in reports[0].per_level_V)
    docs = [json.dumps(rep.to_jsonable()) for rep in reports]
    assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# W probabilities
# ---------------------------------------------------------------------------

def test_pw_near_one_for_tiny_t():
    spec = d1_lognormal_spec()
    # t far below scale with a huge C0: every constraint is vacuous
    p = EventParams(t=math.exp(-5.0), C0=1e6, delta=0.1, rho=RHO_D1)
    est = estimate_PW(spec, 2, 2, 0, p, 20_000, substream(7, "w"),
                      tilt=0.0)
    assert est.value > 0.99
    p_one = estimate_tail_prob(spec, 2, p.t, 20_000, substream(8, "w1"),
                               tilt=0.0)
    assert est.value <= p_one.value + 3 * math.hypot(est.se, p_one.se)


def test_pw_decreases_in_split_depth(d1_pool):
    spec = d1_lognormal_spec()
    t = math.exp(12 * RHO_D1)
    p = EventParams(t=t, C0=10.0, delta=0.2, rho=RHO_D1)
    vals = []
    for gap in (2, 4, 6):                    # gap = p - m
        est = estimate_PW(spec, 10, 10, 10 - gap, p, 40_000,
                          substream(9, "w", gap), tilt=BETA_D1)
        vals.append(est.value)
    # earlier splits decorrelate the two paths: P(W) falls as p - m grows
    assert vals[0] > vals[1] > vals[2] > 0


def test_pw_inclusion(d1_pool):
    spec = d1_lognormal_spec()
    t = math.exp(10 * RHO_D1)
    p = EventParams(t=t, C0=10.0, delta=0.2, rho=RHO_D1)
    w = estimate_PW(spec, 8, 8, 2, p, 60_000, substream(10, "w"), tilt=BETA_D1)
    one = estimate_tail_prob(spec, 8, t, 60_000, substream(11, "o"),
                             tilt=BETA_D1)
    assert w.value <= one.value * (1 + 1e-9) + 3 * math.hypot(w.se, one.se)


# ---------------------------------------------------------------------------
# Z-marks
# ---------------------------------------------------------------------------

def _replayed_z_marks(spec, pool, count, rng):
    """The Z-mark draw as a standalone routine: N, then Q, then the factors
    (W_i, P) of the A_i = W_i P and the pool indices, contracted by einsum
    as P (sum_i W_i X_i)."""
    d = spec.d
    nvals = spec.branching.sample(rng, count)
    slots = int(max(nvals.max() - 1, 0))
    out = ref.draw_q(spec.q_law, rng, count, d).astype(float)
    if slots > 0:
        log_w, dirs = spec.ensemble.factors(rng, count * slots)
        assert dirs.shape == (1, d, d)
        idx = rng.integers(0, len(pool), size=(count, slots))
        mask = np.arange(slots)[None, :] < (nvals - 1)[:, None]
        w = np.exp(log_w).reshape(count, slots)
        y = np.einsum("sn,snj->sj", w * mask, pool[idx])
        out += np.einsum("ij,sj->si", dirs[0], y)
    return vec_norm(out, spec.norm)


@pytest.mark.parametrize("make_spec", [
    lambda: replace(d1_lognormal_spec(), q_law=QLaw(kind="zero")),
    d1_lognormal_spec,
    lambda: replace(d2_lognormal_matrix_spec(), q_law=QLaw(kind="zero")),
    d2_lognormal_matrix_spec,
    lambda: replace(d2_lognormal_matrix_spec(),
                    branching=Branching(mode="random", support=(1, 3),
                                        probs=(0.5, 0.5))),
], ids=["d1-zero-q", "d1-deterministic-q", "d2-zero-q", "d2-deterministic-q",
        "d2-random-n13"])
def test_z_marks_match_standalone_draw(make_spec):
    # with a zero or deterministic Q nothing is drawn for Q, so drawing it
    # before or after the A_i gives the same marks bit for bit
    spec = make_spec()
    pool = np.abs(substream(80, "pool").standard_normal((700, spec.d))) * 5.0
    got = draw_z_marks(spec, pool, 5000, substream(81, "z"))
    want = _replayed_z_marks(spec, pool, 5000, substream(81, "z"))
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# sparse subtree
# ---------------------------------------------------------------------------

def test_sparse_subtree_binary():
    spec = d1_lognormal_spec()
    tree = grow_tree(spec, 4, substream(12, "t"))
    ep = EventParams(t=math.exp(5.2 * RHO_D1), C0=1.0, delta=0.1, rho=RHO_D1)
    # n_t = 6, window [3.55, 4.78]: L_t for C1 = 2 is {4}
    assert ep.levels(2) == [4]
    nodes = build_sparse_subtree(tree, 2, ep)
    assert len(nodes) == 4                      # 2^{4-2}
    for i in nodes:
        assert len(i) == 4 and i[-2:] == (1, 1)


def test_sparse_subtree_random_n_audit():
    spec = ModelSpec(dimension=1,
                     branching=Branching(mode="random", support=(0, 2),
                                         probs=(0.35, 0.65)),
                     ensemble=FiniteSupport(matrices=np.array([[[0.5]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    ep = EventParams(t=math.exp(5.2 * RHO_D1), C0=1.0, delta=0.1, rho=RHO_D1)
    rng = substream(13, "t")
    for _ in range(20):
        tree = grow_tree(spec, 4, rng)
        for i in build_sparse_subtree(tree, 2, ep):
            assert i[-2:] == (1, 1) and len(i) == 4


def test_expected_count_binary_exact():
    mean, se, pred = expected_count_check(d1_lognormal_spec(), 2, 8, 500,
                                          substream(14, "c"))
    assert pred == 2 ** 6
    assert mean == pred and se == 0.0          # deterministic for fixed N


def test_expected_count_single_node():
    mean, se, pred = expected_count_check(d1_lognormal_spec(), 8, 8, 50,
                                          substream(15, "c"))
    assert pred == 1.0 and mean == 1.0


def test_expected_count_random_n():
    mean, se, pred = expected_count_check(random13_spec(), 2, 8, 2000,
                                          substream(16, "c"))
    assert pred == 2 ** 6
    assert abs(mean - pred) < 3 * se


def _childless_spec() -> ModelSpec:
    # N in {0, 3} with probabilities (1/4, 3/4): E N = 9/4, P(N >= 1) = 3/4
    return ModelSpec(dimension=1,
                     branching=Branching(mode="random", support=(0, 3),
                                         probs=(0.25, 0.75)),
                     ensemble=FiniteSupport(matrices=np.array([[[0.25]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="deterministic", vector=[1.0]),
                     geom_class="nonnegative-C")


@pytest.mark.parametrize("level,C1", [(8, 2), (12, 4)])
def test_expected_count_thinned_by_p_child(level, C1):
    # a node of the sparse subtree needs its C1 last ancestors to have a
    # first child, so its expected count is (E N)^(l - C1) P(N >= 1)^C1
    spec = _childless_spec()
    mean, se, pred = expected_count_check(spec, C1, level, 2000,
                                          substream(16, "c0", level))
    assert spec.branching.p_child() == 0.75
    assert pred == pytest.approx(2.25 ** (level - C1) * 0.75 ** C1, rel=1e-12)
    assert abs(mean - pred) < 3 * se
    # the unthinned count is far outside the simulation's error
    assert abs(mean - 2.25 ** (level - C1)) > 10 * se


def test_lower_bound_counts_are_thinned_by_p_child(d1_pool):
    # the V coefficients are the expected sparse-subtree counts; the pool
    # only has to give the caps some mass
    spec = _childless_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    rep = lower_bound(spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1,
                      C1=2, pool_vectors=x, rng=substream(26, "lb"),
                      C0=10.0, delta=0.2, reps_v=1_000, reps_w=100)
    assert rep.levels
    for row in rep.per_level_V:
        assert row["count"] == pytest.approx(
            2.25 ** (row["level"] - 2) * 0.75 ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_cone_family_symmetric_d1():
    rng = substream(17, "cone")
    z = rng.standard_t(df=3, size=200_000)
    pool = z[:, None]
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=np.array([[[0.5]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="deterministic", vector=[1.0]),
                     geom_class="invertible-id")
    ep = EventParams(t=10.0, C0=1.0, delta=0.5, rho=1.0)
    fam = cone_family(pool, *_cap_geometry(spec, 2), ep, spec)
    assert fam.eps == pytest.approx(1.0)
    p_direct = float((np.abs(z) > ep.D).mean()) / 2
    assert fam.kappa == pytest.approx(p_direct, rel=0.2)
    # both caps are kept, and together they hold every member beyond D
    assert len(fam.masses) == 2 and (fam.masses > 0).all()
    assert fam.masses.sum() == pytest.approx(2 * p_direct, rel=1e-12)


def test_cone_family_class_C_coverage(d1_pool):
    spec = d1_lognormal_spec()
    ep = EventParams(t=20.0, C0=1.0, delta=0.5, rho=RHO_D1)
    fam = cone_family(d1_pool.vectors, *_cap_geometry(spec, 1), ep, spec)
    assert fam.kappa > 0
    direct = float((d1_pool.vectors[:, 0] > ep.D).mean())
    assert fam.kappa == pytest.approx(direct, rel=1e-9)


def test_cone_family_degenerate_pool():
    spec = d1_lognormal_spec()
    ep = EventParams(t=20.0, C0=10.0, delta=0.1, rho=RHO_D1)
    pool = np.full((1000, 1), 0.5)     # point mass below D
    with pytest.raises(NondegeneracyError):
        cone_family(pool, *_cap_geometry(spec, 1), ep, spec)


def test_cone_family_d2(d2_pool_for_cones):
    spec, pool = d2_pool_for_cones
    ep = EventParams(t=5.0, C0=0.5, delta=0.5, rho=0.5)
    fam = cone_family(pool, *_cap_geometry(spec, 8), ep, spec)
    assert fam.kappa > 0
    # every cap is kept: kappa is the smallest mass any of them holds, and
    # eps = cos(2r) / d for the exact covering radius r = pi / 32 of the 8
    # quarter-circle cells
    assert len(fam.masses) == 8 and fam.caps.geometry == "quarter_circle"
    assert fam.kappa == fam.masses[fam.masses > 0].min()
    assert fam.caps.covering_radius() == math.pi / 32
    assert fam.eps == pytest.approx(math.cos(math.pi / 16) / 2, rel=1e-15)
    # each member beyond D / eps counts in the cap of its nearest grid point
    exceed = pool[vec_norm(pool, spec.norm) > ep.D / fam.eps]
    unit = fam.caps.points / np.linalg.norm(fam.caps.points, axis=1,
                                            keepdims=True)
    nearest = np.argmax(exceed @ unit.T, axis=1)
    assert np.array_equal(fam.masses,
                          np.bincount(nearest, minlength=8) / len(pool))


@pytest.mark.parametrize("make_spec, J", [(d2_lognormal_matrix_spec, 1),
                                          (d2_rotation_spec, 4)])
def test_cap_geometry_caps_a_right_angle_apart_cannot_cover(make_spec, J):
    # one quarter-circle cap, or four circle caps, leave a direction pi / 4
    # from its cap's center: two directions in one cap may be orthogonal
    with pytest.raises(CoverageError):
        certificate._cap_geometry(make_spec(), J)


def test_cap_geometry_circle_eps():
    # eight circle caps (l2 cone): r = pi / 8 and eps = cos(pi / 4)
    caps, eps = certificate._cap_geometry(d2_rotation_spec(), 8)
    assert caps.geometry == "circle" and len(caps) == 8
    assert eps == math.cos(math.pi / 4)


def test_cone_family_d3_checks_coverage_on_balanced_sobol_points():
    # the d >= 3 covering radius takes a power-of-2 Sobol set, for which
    # scipy does not warn that the points lose their balance
    from smoothtail.model import LognormalScalarMatrix
    spec = ModelSpec(dimension=3, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalScalarMatrix(
                         mu=-2.0, sigma2=0.25, matrix=np.ones((3, 3)) + np.eye(3)),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 1.0, 1.0]),
                     geom_class="nonnegative-C")
    pool = 50.0 * np.exp(substream(20, "pool3").standard_normal((20_000, 3)))
    ep = EventParams(t=100.0, C0=1.0, delta=0.4, rho=0.5)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="The balance properties")
        fam = cone_family(pool, *_cap_geometry(spec, 8), ep, spec)
        r = fam.caps.covering_radius()
    assert fam.caps.geometry == "orthant" and len(fam.caps) == 8
    assert fam.kappa > 0 and 0 < r < math.pi / 4
    assert fam.eps == math.cos(2 * r) / 3


@pytest.fixture(scope="module")
def d2_pool_for_cones():
    # contractive d=2 variant (m(1) < 1) so the pool converges
    from smoothtail.branching import sample_fixed_point
    from smoothtail.model import LognormalScalarMatrix
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalScalarMatrix(
                         mu=-2.2, sigma2=0.25, matrix=[[1.0, 1.0], [1.0, 2.0]]),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
                     geom_class="nonnegative-C")
    pool = sample_fixed_point(spec, 40, 50_000, np.array([1.0, 1.0]),
                              substream(18, "pool2"))
    return spec, pool.vectors


# ---------------------------------------------------------------------------
# assembled bound
# ---------------------------------------------------------------------------

def test_lower_bound_consistency(d1_pool):
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    rep = lower_bound(spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1,
                      C1=2, pool_vectors=x, rng=substream(19, "lb"),
                      reps_v=60_000, reps_w=10_000, reps_search=10_000)
    emp = float((x[:, 0] > t).mean())
    emp_se = math.sqrt(emp * (1 - emp) / len(x))
    assert rep.bound <= emp + 3 * emp_se
    assert rep.bound == pytest.approx(rep.kappa * rep.v_sum - rep.w_sum)
    assert rep.C0 > 0 and rep.delta > 0
    assert rep.verdict in ("positive", "not positive at these parameters")


def test_lower_bound_report_identities(d1_pool):
    # the report's bound, its standard error and t^beta times the V term
    # follow from its own ingredients
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    rep = lower_bound(spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1,
                      C1=2, pool_vectors=x, rng=substream(20, "lb"),
                      C0=10.0, delta=0.2, reps_v=20_000, reps_w=5_000)
    assert rep.kappa > 0 and rep.levels
    assert rep.bound == rep.kappa * rep.v_sum - rep.w_sum
    assert rep.bound_se == pytest.approx(math.sqrt(
        (rep.kappa * rep.v_sum_se) ** 2 + rep.w_sum_se ** 2
        + (rep.v_sum * rep.kappa_se) ** 2), rel=1e-12)
    assert rep.t_beta_v_term == pytest.approx(
        t ** BETA_D1 * rep.kappa * rep.v_sum, rel=1e-12)
    assert rep.fitted_D1 == pytest.approx(
        rep.t_beta_v_term / (rep.kappa * rep.shape_actual), rel=1e-12)


@pytest.mark.parametrize("C0,delta", [(10.0, 0.2), (None, None)])
def test_lower_bound_depends_on_u_and_t_through_t_over_u(C0, delta):
    # <c u, X> > c t is the event <u, X> > t: scaling both by c = 2 or 1/2
    # (exact in floating point) gives the same bound and V term, and the
    # report keeps the u and t it was given
    spec = d2_contracting_matrix_spec()
    pool = sample_fixed_point(spec, 30, 50_000, np.array([1.0, 1.0]),
                              substream(27, "pool")).vectors
    u = np.array([1.0, 0.5])
    t = float(np.quantile(pool @ u, 0.999))
    reps = {c: lower_bound(spec, c * u, c * t, RHO_D1, BETA_D1, K_BETA_D1,
                           C1=1, pool_vectors=pool, rng=substream(27, "lb"),
                           C0=C0, delta=delta, reps_v=5_000, reps_w=1_000,
                           reps_search=2_000)
            for c in (1.0, 2.0, 0.5)}
    assert reps[1.0].levels and reps[1.0].v_term > 0
    for c, rep in reps.items():
        assert rep.t == c * t and np.array_equal(rep.u, c * u)
        assert rep.n_t == reps[1.0].n_t
        assert rep.bound == reps[1.0].bound
        assert rep.v_term == reps[1.0].v_term


def test_lower_bound_one_cap_v_term_is_kappa_times_v_sum(d1_pool):
    # d=1 nonnegative has one cap, so every V path lands in it: m(U) is
    # kappa, and the cap-weighted term is the floor's kappa * v_sum
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    rep = lower_bound(spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1,
                      C1=2, pool_vectors=x, rng=substream(25, "lb"),
                      C0=10.0, delta=0.2, reps_v=20_000, reps_w=2_000)
    assert len(rep.cap_masses) == 1 and rep.cap_masses[0] == rep.kappa
    assert rep.v_term == pytest.approx(rep.kappa * rep.v_sum, rel=1e-12)
    assert rep.bound == rep.v_term - rep.w_sum
    for row in rep.per_level_V:
        assert row["weighted"] == pytest.approx(rep.kappa * row["p"],
                                                rel=1e-12)
        assert row["weighted_se"] == pytest.approx(rep.kappa * row["se"],
                                                   rel=1e-12)


def test_lower_bound_se_is_walk_plus_cap_mass_variance(monkeypatch):
    # bound_se^2 = sum_l (coef_l weighted_se_l)^2
    #            + sum_j (sum_l coef_l rate_lj)^2 se_j^2 + w_sum_se^2
    # on the rotation model, whose V paths end in every cap
    spec = d2_rotation_spec()
    pool = 10.0 * substream(26, "pool").standard_normal((20_000, 2))
    cones, v_ests = [], []
    cone_fn, pv_fn = certificate.cone_family, certificate.estimate_PV

    def keep_cones(*args, **kw):
        cones.append(cone_fn(*args, **kw))
        return cones[-1]

    def keep_pv(*args, **kw):
        v_ests.append(pv_fn(*args, **kw))
        return v_ests[-1]

    monkeypatch.setattr(certificate, "cone_family", keep_cones)
    monkeypatch.setattr(certificate, "estimate_PV", keep_pv)
    rep = lower_bound(spec, np.array([1.0, 0.0]), 1000.0, RHO_ROT, BETA_ROT,
                      0.5, C1=1, pool_vectors=pool, rng=substream(26, "lb"),
                      C0=3.0, delta=0.4, reps_v=4_000, reps_w=500)
    (fam,) = cones
    assert rep.levels == [6, 7] and len(v_ests) == 2
    coefs = [2.0 ** (ell - 1) for ell in rep.levels]
    totals = sum(c * est.cap_rates for c, est in zip(coefs, v_ests))
    assert (totals > 0).all() and rep.cap_masses == fam.masses.tolist()
    for est in v_ests:
        assert est.weighted == pytest.approx(fam.masses @ est.cap_rates,
                                             rel=1e-12)
    assert rep.v_term == pytest.approx(fam.masses @ totals, rel=1e-12)
    walk_var = sum((c * est.weighted_se) ** 2 for c, est in zip(coefs, v_ests))
    cap_var = float(((totals * fam.masses_se) ** 2).sum())
    assert cap_var > 0
    assert rep.v_term_se == pytest.approx(math.sqrt(walk_var + cap_var),
                                          rel=1e-12)
    assert rep.bound_se == pytest.approx(
        math.sqrt(walk_var + cap_var + rep.w_sum_se ** 2), rel=1e-12)
    assert rep.bound == rep.v_term - rep.w_sum


@pytest.mark.parametrize("make_spec", [d2_rotation_spec, d3_rotation_spec])
def test_lower_bound_flags_the_sampled_cap_radius_at_d3(make_spec):
    # at d >= 3 the covering radius is a maximum over Sobol directions, which
    # can fall short of the true one and so overstate eps
    spec = make_spec()
    pool = 10.0 * substream(27, "pool").standard_normal((20_000, spec.d))
    u = np.eye(spec.d)[0]
    rep = lower_bound(spec, u, 1000.0, RHO_ROT, BETA_ROT, 0.5, C1=1,
                      pool_vectors=pool, rng=substream(27, "lb"), C0=3.0,
                      delta=0.4, J=64, reps_v=500, reps_w=100)
    flag = ("cap radius sampled over 1024 directions (d >= 3): eps may "
            "overstate the cone constant")
    assert (flag in rep.flags) == (spec.d >= 3)


def test_lower_bound_empty_level_set_is_vacuous(d1_pool):
    # n_t = 4, window [2, 3): no multiple of C1 = 5 lies in it, so L_t is
    # empty and the bound is 0 by construction, not a negative finding
    spec = d1_lognormal_spec()
    t = math.exp(4 * RHO_D1)
    rep = lower_bound(spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1,
                      C1=5, pool_vectors=d1_pool.vectors,
                      rng=substream(24, "lb"), C0=10.0, delta=0.2,
                      reps_v=1_000, reps_w=1_000)
    assert rep.n_t == 4 and rep.levels == []
    assert rep.verdict == "vacuous"
    assert rep.bound == 0.0 and math.copysign(1.0, rep.bound) == 1.0
    assert rep.per_level_V == [] and rep.per_geometry_W == []
    assert any(f.startswith("L_t empty for C1=5") for f in rep.flags)


def test_lower_bound_refuses_c1_below_1_before_the_search(monkeypatch,
                                                         d1_pool):
    def no_search(*args, **kwargs):
        raise AssertionError("the (C0, delta) search ran")

    monkeypatch.setattr(certificate, "choose_event_params", no_search)
    with pytest.raises(SpecError, match="C1"):
        lower_bound(d1_lognormal_spec(), np.array([1.0]), 10.0, RHO_D1,
                    BETA_D1, K_BETA_D1, C1=0, pool_vectors=d1_pool.vectors,
                    rng=substream(28, "lb"))


def test_lower_bound_flags_low_ess_w_with_hits(d1_pool):
    # with 60 paths per geometry no W estimate can reach the ESS floor, so
    # every one is flagged, including those that did hit
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    rep = lower_bound(spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1,
                      C1=2, pool_vectors=x, rng=substream(23, "lb"),
                      C0=10.0, delta=0.2, reps_v=20_000, reps_w=60)
    hit = [g for g in rep.per_geometry_W if g["hits"] > 0]
    assert hit and all(g["ess"] < ESS_FLOOR for g in hit)
    for g in rep.per_geometry_W:
        geom = f"({g['p']},{g['q']},{g['m']})"
        msg = [f for f in rep.flags if f.startswith(f"W estimate at (p,q,m)={geom}")]
        assert len(msg) == 1
        assert f"ess={g['ess']:.1f}" in msg[0]
        assert ("no hits" in msg[0]) == (g["hits"] == 0)
    # a flagged estimate rules out "positive", and the verdict says why once
    assert rep.verdict == "not positive at these parameters"
    reason = [f for f in rep.flags if f.startswith("not positive: ")]
    n_flagged = sum(g["ess"] < ESS_FLOOR
                    for g in rep.per_level_V + rep.per_geometry_W)
    assert len(reason) == 1
    assert f"{n_flagged} V/W estimates below the ESS floor" in reason[0]


def test_lower_bound_below_direct_union(d1_pool):
    # direct simulation of the union of V-events over the sparse subtree
    # at a small scale; the assembled bound must stay below it
    spec = d1_lognormal_spec()
    x = d1_pool.vectors[:, 0]
    rho, beta = RHO_D1, BETA_D1
    t = math.exp(4 * rho)
    C0, delta, C1 = 30.0, 0.1, 1
    rep = lower_bound(spec, np.array([1.0]), t, rho, beta, K_BETA_D1, C1=C1,
                      pool_vectors=d1_pool.vectors, rng=substream(21, "lb"),
                      C0=C0, delta=delta, reps_v=200_000, reps_w=50_000)
    # n_t = 4: the closed window [2, 3] holds both of its ends
    assert rep.levels == [2, 3]
    # the union over the subtree's nodes, those ending in 1 at levels 2 and
    # 3, simulated on the joint binary tree: every edge weight is drawn
    # once, and a node's sibling sum is its sibling's weight times a pool
    # member, plus Q = 1
    R, chunk = 2_000_000, 250_000
    rng = substream(22, "union")
    mu, sig = -1.0, math.sqrt(0.5)
    log_c0t = math.log(C0 * t)
    logt = math.log(t)
    edges = [e for depth in (1, 2, 3)
             for e in itertools.product((1, 2), repeat=depth)]
    nodes = [e for e in edges if len(e) in rep.levels and e[-1] == 1]
    hits = 0
    for _ in range(R // chunk):
        log_a = {e: mu + sig * rng.standard_normal(chunk) for e in edges}
        sib = {e: np.exp(log_a[e]) * x[rng.integers(0, len(x), size=chunk)]
               + 1.0 for e in edges}
        union = np.zeros(chunk, dtype=bool)
        for node in nodes:
            L = len(node)
            log_pi = np.zeros(chunk)
            ok = np.ones(chunk, dtype=bool)
            for k in range(L):
                other = node[:k] + (3 - node[k],)
                ok &= (log_pi + np.log(np.maximum(sib[other], 1.0))
                       <= log_c0t - (L - k) * delta)
                log_pi = log_pi + log_a[node[:k + 1]]
            union |= ok & (log_pi >= logt)
        hits += int(union.sum())
    p_union = hits / R
    se_union = math.sqrt(p_union * (1 - p_union) / R)
    assert rep.bound <= p_union + 3 * se_union + 3 * rep.bound_se


def test_cone_family_one_sided_pool_keeps_the_empty_cap():
    # a full-sphere model whose pool never points negative: both caps are
    # kept, the -e1 cap with mass 0, and a V path that ends there adds 0
    from smoothtail.model import LognormalScalarMatrix
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalScalarMatrix(
                         mu=-1.0, sigma2=0.5, matrix=[[1.0]]),
                     q_law=QLaw(kind="deterministic", vector=[1.0]),
                     geom_class="nonnegative-C")
    object.__setattr__(spec, "geom_class", "invertible-id")
    object.__setattr__(spec, "norm", "l2")
    pool = np.abs(substream(23, "c").standard_normal((50_000, 1))) * 30.0
    ep = EventParams(t=10.0, C0=1.0, delta=0.5, rho=1.0)
    fam = cone_family(pool, *_cap_geometry(spec, 2), ep, spec)
    assert fam.eps == 1.0
    assert fam.masses[0] > 0 and fam.masses[1] == 0.0
    assert fam.kappa == fam.masses[0]
    # positive scales keep a path's direction: from -e1 every path ends on
    # the empty cap, from +e1 on the one with mass
    loose = EventParams(t=10.0, C0=100.0, delta=0.5, rho=1.0)
    for u, cap in ((-1.0, 1), (1.0, 0)):
        est = estimate_PV(spec, 3, loose, 4_000, substream(24, "c"),
                          tilt=BETA_D1, pool_vectors=pool,
                          u=np.array([u]), cones=fam)
        assert est.hits > 0
        assert est.cap_rates[cap] == est.value
        assert est.cap_rates[1 - cap] == 0.0
        assert est.weighted == fam.masses[cap] * est.value
    assert est.weighted > 0


@pytest.mark.parametrize("n_blocks", [1, 9])
def test_summary_matches_a_two_pass_reference(n_blocks):
    # the summary's running sums against numpy's two passes over the whole
    # draw; over many blocks the log weights drift up, so the running
    # maximum rises block after block and the sums are rescaled
    g = substream(97, "summary")
    reps, masses = 45_000, np.array([0.0, 3e-4, 1e-3, 2.5e-3])
    log_weight = 2.0 * g.standard_normal(reps) + np.linspace(0.0, 30.0, reps)
    hit = g.random(reps) < 0.3
    cap = g.integers(0, len(masses), reps)
    blocks = np.array_split(np.arange(reps), n_blocks)
    assert (np.diff([log_weight[idx].max() for idx in blocks]) > 0).all()
    summary = HitSummary(len(masses))
    for idx in blocks:
        summary.add(log_weight[idx], hit[idx], cap[idx][hit[idx]])
    _assert_matches_two_pass(summary.estimate(masses),
                             _two_pass(log_weight, hit, cap, masses))


def test_summarize_flags_and_upper_bound():
    # no hits: flagged (ESS 0), with three times the largest weight per rep
    lw = np.log(np.array([0.5, 2.0, 1.0, 4.0]))
    none = HitSummary().add(lw, np.zeros(4, dtype=bool)).estimate()
    assert none.hits == 0 and none.ess == 0.0 and none.value == 0.0
    assert none.flagged
    assert none.upper_95 == pytest.approx(3.0 * 4.0 / 4, rel=1e-12)
    # hits whose weight sits on one sample: ESS near 1, flagged, no bound
    ind = np.zeros(1000, dtype=bool)
    ind[:200] = True
    lw = np.zeros(1000)
    lw[0] = 20.0
    skewed = HitSummary().add(lw, ind).estimate()
    assert skewed.hits == 200 and skewed.ess < 2.0
    assert skewed.flagged and skewed.upper_95 is None
    # equal weights: the ESS is the hit count; at the floor it passes
    for hits in (ESS_FLOOR - 1, ESS_FLOOR, 3 * ESS_FLOOR):
        ind = np.zeros(1000, dtype=bool)
        ind[:hits] = True
        est = HitSummary().add(np.zeros(1000), ind).estimate()
        assert est.ess == pytest.approx(hits, rel=1e-12)
        assert est.value == pytest.approx(hits / 1000, rel=1e-12)
        assert est.flagged == (hits < ESS_FLOOR)
        assert est.upper_95 is None


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

def test_verdict_rule():
    assert VERDICT_Z == 2
    # no level to sum over: vacuous, whatever the numbers
    assert verdict([], 0.0, 0.0, 0) == ("vacuous", None)
    assert verdict([], 0.0, 0.0, 3) == ("vacuous", None)
    # clear of two standard errors with every estimate above the floor
    assert verdict([4, 6], 1.0, 0.49, 0) == ("positive", None)
    # a bound inside its error bar
    call, reason = verdict([4, 6], 1.0, 0.5, 0)
    assert call == "not positive at these parameters"
    assert reason == "not positive: bound 1 not above 2 x bound_se 0.5"
    call, reason = verdict([4], 3.2e-13, 4.4e-12, 0)
    assert call == "not positive at these parameters"
    assert reason == "not positive: bound 3.2e-13 not above 2 x bound_se 4.4e-12"
    call, reason = verdict([4], -1.0, 0.0, 0)
    assert call == "not positive at these parameters" and "bound -1 " in reason
    # a flagged estimate, even under a tight error bar
    assert verdict([4], 1.0, 0.01, 2) == (
        "not positive at these parameters",
        "not positive: 2 V/W estimates below the ESS floor")
    # both reasons, in one flag
    assert verdict([4], 0.0, 1.0, 1) == (
        "not positive at these parameters",
        "not positive: bound 0 not above 2 x bound_se 1; "
        "1 V/W estimates below the ESS floor")
    # a sampled cap radius (d >= 3), even on a bound clear of its error bar
    assert verdict([4], 1.0, 0.01, 0, sampled_radius=True) == (
        "not positive at these parameters",
        "not positive: cap radius sampled, not exact (d >= 3)")
    assert verdict([], 1.0, 0.01, 0, sampled_radius=True) == ("vacuous", None)


def test_lower_bound_hands_the_verdict_its_bound_and_flags(monkeypatch, d1_pool):
    # the rule as lower_bound applies it: the same report is positive or
    # not depending only on the error bar and the ESS flags it carries
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    args = (spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1)
    kw = dict(C1=2, pool_vectors=x, C0=10.0, delta=0.2, reps_v=20_000,
              reps_w=2_000)
    seen = []

    def fake_verdict(levels, bound, bound_se, n_flagged, sampled_radius,
                     random_n):
        seen.append((bound, bound_se, n_flagged))
        assert not sampled_radius          # d = 1: the radius is exact
        assert not random_n                # N = 2 is fixed
        return verdict(levels, 1.0, 0.0, 0)

    monkeypatch.setattr(certificate, "verdict", fake_verdict)
    rep = lower_bound(*args, rng=substream(26, "lb"), **kw)
    assert rep.verdict == "positive"
    assert not any(f.startswith("not positive") for f in rep.flags)
    bound, bound_se, n_flagged = seen[0]
    assert (bound, bound_se) == (rep.bound, rep.bound_se)
    assert n_flagged == sum(r["ess"] < ESS_FLOOR for r in
                            rep.per_level_V + rep.per_geometry_W)


def test_lower_bound_tilts_finite_support_walks_by_e_beta(monkeypatch):
    # the certificate works out e_beta from the model and hands it to
    # every tilted walk, V and W alike
    spec = d2_finite_three_spec()
    beta, rho = 2.577, 0.437
    seen = []

    class Recording(walks.StepSampler):
        def __init__(self, spec, s=0.0, spectral=None):
            seen.append((s, spectral))
            super().__init__(spec, s, spectral)

    monkeypatch.setattr(walks, "StepSampler", Recording)
    monkeypatch.setattr(certificate, "StepSampler", Recording)
    x = 1.0 + substream(29, "pool").pareto(1.0, size=(20_000, 2))
    rep = lower_bound(spec, np.array([1.0, 0.0]), math.exp(8 * rho), rho,
                      beta, 0.5, C1=2, pool_vectors=x, rng=substream(30, "lb"),
                      C0=10.0, delta=0.2, reps_v=500, reps_w=200)
    want = k_at(spec, beta, 0, substream(31, "k")).e
    assert rep.levels and len(seen) == len(rep.levels) + len(rep.per_geometry_W)
    for s, res in seen:
        assert s == beta and res.s == beta
        assert np.array_equal(res.e, want)


# ---------------------------------------------------------------------------
# (C0, delta) search on common random numbers
# ---------------------------------------------------------------------------

def _brute_force_choice(levels, draws, t, rho, k_beta):
    """The search's score, one path at a time through indicator_V, on the
    draws the search made: the fewest missed levels first, then the
    rate-shape spread and mean over the levels hit."""
    best = None
    for C0 in (1.0, 3.0, 10.0, 30.0):
        for delta in (0.05, 0.1, 0.2, 0.4):
            params = EventParams(t=t, C0=C0, delta=delta, rho=rho)
            missed, centered = 0, []
            for n, (batch, z) in zip(levels, draws):
                ind = np.array([
                    indicator_V(batch.opnorm_log_hist[r], math.exp(batch.S[r]),
                                z[r], params, n)
                    for r in range(len(batch.S))])
                value = float(np.mean(ind * np.exp(batch.log_weight)))
                if not ind.any() or value <= 0:
                    missed += 1
                else:
                    centered.append(math.log(value) - n * math.log(k_beta))
            key = (missed, max(centered, default=0.0) - min(centered, default=0.0),
                   -sum(centered) / max(len(centered), 1))
            if best is None or key < best[0]:
                best = (key, (C0, delta))
    return best[1]


def test_search_scores_every_cell_on_one_draw_per_level(monkeypatch, d1_pool):
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    reps = 1500
    walks_drawn, marks_drawn = [], []
    tilted_batch, z_marks = certificate.tilted_batch, certificate.draw_z_marks

    def counting_batch(spec, u0, n, s, spectral, reps, rng, record_hist=False):
        batch = tilted_batch(spec, u0, n, s, spectral, reps, rng,
                             record_hist=record_hist)
        walks_drawn.append((n, s, record_hist, batch))
        return batch

    def counting_marks(spec, pool_vectors, count, rng):
        z = z_marks(spec, pool_vectors, count, rng)
        # a copy: the search turns the marks into the indicator's left side
        # in place
        marks_drawn.append(z.copy())
        return z

    monkeypatch.setattr(certificate, "tilted_batch", counting_batch)
    monkeypatch.setattr(certificate, "draw_z_marks", counting_marks)
    chosen = choose_event_params(spec, t, RHO_D1, K_BETA_D1,
                                 substream(27, "search"), x, BETA_D1,
                                 u=np.array([1.0]), reps=reps,
                                 eps=_cap_geometry(spec, 8)[1])
    levels = chosen.window_levels()
    assert len(levels) >= 2
    # exactly one tilted walk batch and one Z-mark array per window level
    assert [(n, s, h) for n, s, h, _ in walks_drawn] == \
        [(n, BETA_D1, True) for n in levels]
    assert [len(z) for z in marks_drawn] == [reps * n for n in levels]
    draws = [(b, z.reshape(reps, n)) for (n, _, _, b), z
             in zip(walks_drawn, marks_drawn)]
    want = _brute_force_choice(levels, draws, t, RHO_D1, K_BETA_D1)
    assert (chosen.C0, chosen.delta) == want


def test_lower_bound_with_search_is_the_same_at_any_worker_count(d1_pool):
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    docs = [json.dumps(lower_bound(
        spec, np.array([1.0]), t, RHO_D1, BETA_D1, K_BETA_D1, C1=2,
        pool_vectors=x, rng=substream(28, "lb"), reps_v=5_000, reps_w=1_000,
        reps_search=2_000, threads=threads).to_jsonable())
        for threads in (1, 2)]
    assert docs[0] == docs[1]
