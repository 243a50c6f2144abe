"""Survival curves, Hill recovery on synthetic laws, flatness verdicts."""

import json
import math

import numpy as np
import pytest

from conftest import BETA_D1
from reference_oracles import directional_profile, empirical_survival
from smoothtail.errors import SpecError, WindowError
from smoothtail.rng import substream
from smoothtail.tails import (MIN_EXCEEDANCES, hill, scaled_tail_flatness,
                              tail_report)


def _pareto(theta, n, seed, xm=1.0):
    return xm * substream(seed, "pareto").random(n) ** (-1.0 / theta)


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------

def test_survival_basics():
    pool = np.array([[1.0], [2.0], [3.0], [4.0]])
    out = empirical_survival(pool, [1.0], [2.5, 0.5, 9.0])
    assert list(out) == [0.5, 1.0, 0.0]


def test_flatness_survival_matches_oracle():
    # the flatness curve's survival is the empirical survival on its grid,
    # here for an oblique direction of a d = 2 pool
    rng = substream(12, "d2")
    pool = np.abs(rng.standard_t(df=3, size=(200_000, 2)))
    u = np.array([0.6, 0.8])
    proj = np.sort(pool @ u)
    t_lo, t_hi = np.quantile(proj, [0.99, 0.999])
    out = scaled_tail_flatness(proj, 3.0, t_lo, t_hi, substream(13, "b"))
    assert np.array_equal(out.survival,
                          empirical_survival(pool, u, out.t_grid))


def test_survival_monotone():
    pool = _pareto(2.0, 5000, 1)[:, None]
    ts = np.linspace(1.0, 20.0, 50)
    surv = empirical_survival(pool, [1.0], ts)
    assert (np.diff(surv) <= 0).all()
    assert ((0 <= surv) & (surv <= 1)).all()


# ---------------------------------------------------------------------------
# Hill
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [1.0, 2.5, 4.0])
def test_hill_recovers_pareto_index(theta):
    x = np.sort(_pareto(theta, 100_000, int(theta * 10)))
    est = hill(x, 0.01, rng=substream(2, "boot"))
    assert est.ci_low <= theta <= est.ci_high
    assert est.index == pytest.approx(theta, rel=0.15)


def test_hill_constant_samples_error():
    with pytest.raises(SpecError):
        hill(np.full(100_000, 3.0), 0.01, substream(3, "boot"))


def test_hill_insufficient_exceedances():
    with pytest.raises(SpecError):
        hill(np.sort(_pareto(2.0, 500, 3)), 0.01, substream(4, "boot"))


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------

def test_flatness_pareto_supported():
    theta, xm = 2.5, 1.0
    x = np.sort(_pareto(theta, 1_000_000, 4, xm))
    t_lo, t_hi = np.quantile(x, 0.99), np.quantile(x, 0.9999)
    out = scaled_tail_flatness(x, theta, t_lo, t_hi, rng=substream(5, "b"))
    assert out.supported
    assert out.min_lower_95 > 0
    # scaled values sit near the exact constant x_m^theta
    assert out.scaled_min == pytest.approx(xm ** theta, rel=0.3)
    assert out.ratio < 2.0


def test_flatness_exponential_not_supported():
    x = np.sort(-np.log(substream(6, "e").random(1_000_000)))
    t_lo, t_hi = np.quantile(x, 0.99), np.quantile(x, 0.9999)
    out = scaled_tail_flatness(x, 3.0, t_lo, t_hi, rng=substream(7, "b"))
    assert not out.supported
    assert out.ratio > out.ratio_max_allowed


def test_flatness_unresolvable_window():
    x = np.sort(_pareto(2.0, 2000, 8))
    with pytest.raises(WindowError) as exc:
        scaled_tail_flatness(x, 2.0, 1.5, x[-1] * 2, substream(8, "b"))
    # the message names the largest t_hi the pool resolves
    usable = x[-(MIN_EXCEEDANCES + 1)]
    assert f"largest usable t_hi is {usable:.6g}" in str(exc.value)


# ---------------------------------------------------------------------------
# directional profile
# ---------------------------------------------------------------------------

def test_profile_symmetric_d1():
    z = substream(9, "sym").standard_t(df=3, size=400_000)
    pool = z[:, None]
    t = float(np.quantile(np.abs(z), 0.995))
    entries = directional_profile(pool, [[1.0], [-1.0]], t, 3.0)
    a, b = entries
    assert a.resolvable and b.resolvable
    assert abs(a.scaled - b.scaled) < 3 * math.hypot(a.se, b.se)


def test_profile_unresolvable_direction_flagged():
    pool = np.abs(substream(10, "p").random((10_000, 2)))
    entries = directional_profile(pool, [[1.0, 0.0], [-1.0, 0.0]], 0.9, 2.0)
    assert entries[0].resolvable
    assert not entries[1].resolvable      # nonnegative pool never points at -e1


# ---------------------------------------------------------------------------
# full report on the reference pool
# ---------------------------------------------------------------------------

def test_tail_report_reference_pool(d1_pool):
    report = tail_report(d1_pool.vectors, np.array([1.0]), BETA_D1,
                         rng=substream(11, "r"),
                         window_quantiles=(0.99, 0.9995))
    assert report.flatness.min_lower_95 > 0
    assert (np.diff(report.flatness.survival) <= 0).all()
    # Hill and the spectral root agree loosely (within 0.4)
    best = min(report.hill_by_fraction.values(),
               key=lambda h: abs(h.index - BETA_D1))
    assert abs(best.index - BETA_D1) <= 0.4
    # log-log slope near -beta
    assert report.loglog_slope == pytest.approx(-BETA_D1, abs=0.6)


def test_tail_report_lowers_t_hi_to_keep_the_exceedance_floor():
    # the 0.99995 quantile of 2e5 draws leaves 10 above it, fewer than
    # MIN_EXCEEDANCES, so t_hi falls to the 51st-largest projection
    x = _pareto(2.0, 200_000, 14)
    report = tail_report(x[:, None], np.array([1.0]), 2.0,
                         rng=substream(14, "r"),
                         window_quantiles=(0.99, 0.99995), n_boot=20)
    usable = np.sort(x)[-(MIN_EXCEEDANCES + 1)]
    assert report.window[1] == usable
    # the grid ends at exp(log(t_hi)), t_hi up to rounding
    assert report.flatness.t_grid[-1] == pytest.approx(usable, rel=1e-14)


def test_tail_report_writes_an_infinite_flatness_ratio_null(tmp_path):
    # at beta = 600 the scaled tail t^beta P(X > t) spans more than the
    # float range over the window, so s_max / s_min overflows to inf; the
    # report writes the ratio null and stays strict JSON
    from smoothtail import artifacts
    x = substream(12, "p").pareto(2.0, (200_000, 1)) + 1.0
    x /= np.quantile(x, 0.999)
    report = tail_report(x, np.array([1.0]), 600.0, rng=substream(12, "r"),
                         n_boot=20)
    assert report.flatness.ratio == math.inf
    assert not report.flatness.supported
    path = tmp_path / "tail_report.json"
    artifacts.write_json(path, report.to_jsonable(), "0" * 16)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc["flatness"]["ratio"] is None
    assert 0 < doc["flatness"]["scaled_min"] < doc["flatness"]["scaled_max"]


def test_profile_constant_under_model_symmetry():
    # scaled rotations with Q uniform on the four signed axes: the model law
    # is invariant under the dihedral subgroup, so the profile must agree
    # across the four axis directions at every depth (the full rotation
    # invariance of the tail only emerges far deeper than a 4e5 pool)
    from smoothtail.branching import sample_fixed_point_replicated
    from smoothtail.model import (Branching, LognormalRotation, ModelSpec,
                                  QLaw)
    qv = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalRotation(mu=-1.0, sigma2=0.25, d=2),
                     q_law=QLaw(kind="finite_support", vectors=qv,
                                probs=np.full(4, 0.25)),
                     geom_class="invertible-ipo")
    rngs = [substream(6602, "pool", i) for i in range(4)]
    pool = sample_fixed_point_replicated(spec, 50, 200_000, np.zeros(2), rngs)
    x = pool.vectors
    us = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
          np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    t = float(np.quantile(x @ us[0], 0.995))
    entries = directional_profile(x, us, t, 7.0)
    assert all(e.resolvable for e in entries)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i], entries[j]
            assert abs(a.scaled - b.scaled) < 3 * math.hypot(a.se, b.se)


# ---------------------------------------------------------------------------
# windowed bootstrap draws vs the full multinomial counts
# ---------------------------------------------------------------------------

def _hill_boot_full_count(logs, draws, k):
    # every resample counted over all n order statistics
    n = len(logs)
    counts = np.bincount(draws, minlength=n)
    csum = np.cumsum(counts[::-1])
    m = np.searchsorted(csum, k + 1)
    top_idx = n - 1 - np.arange(m + 1)
    cnt = counts[top_idx].astype(float)
    take = min(float(k), csum[m])
    cnt[-1] -= csum[m] - take
    x_k_log = logs[top_idx[-1]]
    h = float((cnt * (logs[top_idx] - x_k_log)).sum() / k)
    return 1.0 / h if h > 0 else np.inf


def _scaled_mins_full_count(proj_sorted, t_grid, beta, resamples):
    # each resample is a length-n index array, counted over all of range(n)
    n = len(proj_sorted)
    pos = np.searchsorted(proj_sorted, t_grid, side="right")
    tb = t_grid ** beta
    mins = []
    for draws in resamples:
        w = np.bincount(draws, minlength=n)
        suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0]])
        mins.append((tb * (suffix[pos] / n)).min())
    return np.asarray(mins)


def _replayed_resample(rng, n, lo, rest_rng, k=None):
    """A full resample of range(n) whose window part replays the bootstrap's
    draws from rng: the binomial count of draws in [lo, n), then their
    positions.  The draws below lo come from rng only where the Hill
    fallback draws them (k given and at most k window hits); otherwise
    the estimators never read them, and rest_rng supplies them."""
    m = rng.binomial(n, (n - lo) / n)
    top = lo + rng.integers(0, n - lo, m)
    below = rng if k is not None and m <= k else rest_rng
    return np.concatenate([top, below.integers(0, lo, n - m)]), m


def test_hill_bootstrap_matches_full_count():
    x = np.sort(_pareto(2.0, 30_000, 70))
    k_frac, n_boot = 0.01, 60
    est = hill(x, k_frac, rng=substream(71, "boot"), n_boot=n_boot)
    logs = np.log(x)
    n, k = len(x), est.k
    window = min(n, 2 * k + 64)
    rng, rest = substream(71, "boot"), substream(71, "rest")
    boots = []
    for _ in range(n_boot):
        draws, m = _replayed_resample(rng, n, n - window, rest, k)
        # the top window holds the resampled (k+1)-th largest
        assert m > k
        boots.append(_hill_boot_full_count(logs, draws, k))
    boots = np.asarray(boots)
    lo, hi = np.percentile(boots[np.isfinite(boots)], [2.5, 97.5])
    assert (est.ci_low, est.ci_high) == (float(lo), float(hi))


def test_hill_window_fallback_matches_full_count():
    from smoothtail.tails import _resampled_hill
    xs = np.sort(_pareto(1.5, 20_000, 72))
    logs = np.log(xs)
    n, k = len(xs), 200
    for window in (10, 2 * k + 64, n):
        got, rng = substream(73, "boot"), substream(73, "boot")
        rest = substream(73, "rest")
        for _ in range(5):
            draws, m = _replayed_resample(rng, n, n - window, rest, k)
            # the top 10 order statistics catch about 10 draws, not k + 1
            assert (m <= k) == (window == 10)
            # the window's logs are taken on its slice alone
            assert _resampled_hill(xs, np.log(xs[n - window:]), got, k) == \
                _hill_boot_full_count(logs, draws, k)
        # both generators consumed the same draws, fallback included
        assert got.random() == rng.random()


def test_scaled_mins_match_full_count():
    from smoothtail.tails import _bootstrap_scaled_mins
    proj = np.sort(_pareto(2.5, 30_000, 74))
    t_grid = np.exp(np.linspace(math.log(np.quantile(proj, 0.95)),
                                math.log(np.quantile(proj, 0.999)), 25))
    lo = int(np.searchsorted(proj, t_grid, side="right").min())
    assert lo > 0
    got = _bootstrap_scaled_mins(proj, t_grid, 2.5, substream(75, "b"), 40)
    rng, rest = substream(75, "b"), substream(75, "rest")
    want = _scaled_mins_full_count(
        proj, t_grid, 2.5,
        [_replayed_resample(rng, len(proj), lo, rest)[0] for _ in range(40)])
    assert np.array_equal(got, want)


def test_top_counts_follow_the_multinomial_law():
    # window counts of a uniform resample of range(n): the total is
    # Binomial(n, p) and each cell Binomial(n, 1/n), mean 1
    from smoothtail.tails import _top_counts
    n, lo, reps = 2000, 1900, 20_000
    rng = substream(76, "law")
    counts = np.array([_top_counts(rng, n, lo) for _ in range(reps)])
    assert counts.shape == (reps, n - lo)
    p = (n - lo) / n
    total = counts.sum(axis=1)
    mean, var = n * p, n * p * (1 - p)
    assert abs(total.mean() - mean) < 4 * math.sqrt(var / reps)
    # Var of the sample variance: (mu4 - var^2 (reps - 3)/(reps - 1)) / reps,
    # with the binomial fourth central moment mu4
    mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))
    se_var = math.sqrt((mu4 - var ** 2 * (reps - 3) / (reps - 1)) / reps)
    assert abs(total.var(ddof=1) - var) < 4 * se_var
    cell_se = math.sqrt((1 - 1 / n) / reps)
    assert (np.abs(counts.mean(axis=0) - 1.0) < 4 * cell_se).all()
