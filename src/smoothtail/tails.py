"""Empirical tail analysis of fixed-point pools.

Survival curves, Hill estimates with bootstrap intervals, and the
scaled-tail flatness diagnostic (is t^beta * P(<u,X> > t) bounded away
from zero and roughly flat over a resolvable window?).
The exponent beta is always an input from the spectral side, never re-fit
here: hypothesis and evidence stay separated.

Both bootstraps read only the top window of the sorted sample, so a
resample is drawn there alone: a binomial count of the draws that land in
the window, then that many uniform positions inside it.  This is the exact
law of a full resample restricted to the window, at O(window) cost per
resample; only the Hill fallback (too few window hits) draws the rest,
at O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError, WindowError

BOOTSTRAP_DEFAULT = 200
FLATNESS_RATIO_MAX = 4.0
MIN_EXCEEDANCES = 50


# ---------------------------------------------------------------------------
# Hill estimator
# ---------------------------------------------------------------------------

@dataclass
class HillEstimate:
    index: float
    ci_low: float
    ci_high: float
    k: int                      # number of order statistics used


def _top_counts(rng: np.random.Generator, n: int, lo: int) -> np.ndarray:
    """Counts of positions lo..n-1 in a uniform resample of range(n).

    The number of the n draws that land in [lo, n) is Binomial(n, (n-lo)/n),
    and given that number they are i.i.d. uniform on [lo, n): the counts
    have the law of the full multinomial counts restricted to the window.
    """
    m = rng.binomial(n, (n - lo) / n)
    return np.bincount(rng.integers(0, n - lo, m), minlength=n - lo)


def _resampled_hill(logs: np.ndarray, rng: np.random.Generator, k: int,
                    window: int) -> float:
    """Hill index of one bootstrap resample of ascending log data.

    The resample is drawn over the top ``window`` order statistics only;
    when k or fewer of its n draws land there, the other draws are added,
    uniform below the window, and the resample is counted in full.
    """
    n = len(logs)
    lo = n - window
    counts = _top_counts(rng, n, lo)
    hits = int(counts.sum())
    if hits <= k:
        below = np.bincount(rng.integers(0, lo, n - hits), minlength=lo)
        counts = np.concatenate([below, counts])
        lo = 0
    logs = logs[lo:]
    # walk down from the top to find the resampled k-th order statistic
    csum = np.cumsum(counts[::-1])
    m = np.searchsorted(csum, k + 1)           # index from the top
    top_idx = len(counts) - 1 - np.arange(m + 1)
    cnt = counts[top_idx].astype(float)
    cnt[-1] -= csum[m] - k
    x_k_log = logs[top_idx[-1]]
    h = float((cnt * (logs[top_idx] - x_k_log)).sum() / k)
    return 1.0 / h if h > 0 else np.inf


def hill(samples: np.ndarray, k_frac: float, rng: np.random.Generator,
         n_boot: int = BOOTSTRAP_DEFAULT) -> HillEstimate:
    """Hill tail-index estimate on the top k_frac order statistics of an
    ascending positive sample.

    Bootstrap CI (percentile, 95%) from n_boot resamples of the full
    sample.  Each resample draws only the top window of min(n, 2k + 64)
    order statistics, which almost always holds the resampled k + 1
    largest: a binomial count of window hits, then their positions.  A
    resample thus costs O(window) = O(k); in the rare fallback, when the
    window holds k or fewer draws, the rest of the resample is drawn and
    counted in full at O(n).
    """
    xs = np.asarray(samples, dtype=float)
    n = len(xs)
    k = int(n * k_frac)
    if k < 100:
        raise SpecError(f"only {k} exceedances at k_frac={k_frac}; need >= 100")
    if xs[-k - 1] <= 0 or xs[-k - 1] == xs[-1]:
        raise SpecError("degenerate upper order statistics (no positive log spacings)")
    est = 1.0 / np.mean(np.log(xs[-k:]) - math.log(xs[-k - 1]))
    logs = np.log(xs)
    window = min(n, 2 * k + 64)
    boots = np.empty(n_boot)
    for b in range(n_boot):
        boots[b] = _resampled_hill(logs, rng, k, window)
    lo, hi = np.percentile(boots[np.isfinite(boots)], [2.5, 97.5])
    return HillEstimate(float(est), float(lo), float(hi), k)


# ---------------------------------------------------------------------------
# scaled-tail flatness
# ---------------------------------------------------------------------------

@dataclass
class FlatnessSummary:
    t_grid: np.ndarray
    survival: np.ndarray
    scaled: np.ndarray          # t^beta * survival
    scaled_min: float
    scaled_max: float
    ratio: float
    min_lower_95: float         # one-sided bootstrap lower bound for the min
    supported: bool
    ratio_max_allowed: float


def _bootstrap_scaled_mins(proj_sorted: np.ndarray, t_grid: np.ndarray,
                           beta: float, rng: np.random.Generator,
                           n_boot: int) -> np.ndarray:
    """Pool-level bootstrap of min_t t^beta * survival, preserving cross-t
    dependence, via per-element multinomial weights and suffix sums.  Only
    the weights at or above the lowest grid position are drawn: the
    survival at every grid point reads nothing below it."""
    n = len(proj_sorted)
    pos = np.searchsorted(proj_sorted, t_grid, side="right")
    lo = int(pos.min())
    pos = pos - lo
    tb = t_grid ** beta
    mins = np.empty(n_boot)
    for b in range(n_boot):
        w = _top_counts(rng, n, lo)
        suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0]])
        surv = suffix[pos] / n
        mins[b] = (tb * surv).min()
    return mins


def scaled_tail_flatness(proj: np.ndarray, beta: float, t_lo: float,
                         t_hi: float, rng: np.random.Generator,
                         n_points: int = 25, n_boot: int = BOOTSTRAP_DEFAULT,
                         ratio_max: float = FLATNESS_RATIO_MAX) -> FlatnessSummary:
    """t^beta-scaled survival of the ascending projections proj over a
    log-spaced window, with verdict.

    Positivity is supported when the bootstrap 95% lower bound of the
    window minimum is strictly positive and the max/min ratio stays under
    ratio_max.  The window must keep at least 50 exceedances at t_hi.
    """
    if not (0 < t_lo < t_hi):
        raise SpecError("need 0 < t_lo < t_hi")
    n = len(proj)
    n_above = n - np.searchsorted(proj, t_hi, side="right")
    if n_above < MIN_EXCEEDANCES:
        usable = proj[-(MIN_EXCEEDANCES + 1)] if n > MIN_EXCEEDANCES else None
        raise WindowError(
            f"only {n_above} exceedances at t_hi={t_hi:.6g}; "
            f"largest usable t_hi is {usable:.6g}" if usable is not None else
            f"pool of {n} cannot resolve any window")
    t_grid = np.exp(np.linspace(math.log(t_lo), math.log(t_hi), n_points))
    counts = n - np.searchsorted(proj, t_grid, side="right")
    surv = counts / n
    scaled = t_grid ** beta * surv
    mins = _bootstrap_scaled_mins(proj, t_grid, beta, rng, n_boot)
    min_lb = float(np.percentile(mins, 5.0))
    s_min, s_max = float(scaled.min()), float(scaled.max())
    ratio = s_max / s_min if s_min > 0 else math.inf
    supported = bool(min_lb > 0 and ratio < ratio_max)
    return FlatnessSummary(t_grid=t_grid, survival=surv, scaled=scaled,
                           scaled_min=s_min, scaled_max=s_max, ratio=ratio,
                           min_lower_95=min_lb, supported=supported,
                           ratio_max_allowed=ratio_max)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass
class TailReport:
    """Everything the tails command emits for one direction."""

    u: np.ndarray
    beta: float
    survival_se: np.ndarray
    hill_by_fraction: dict          # k_frac -> HillEstimate
    flatness: FlatnessSummary
    loglog_slope: float
    window: tuple[float, float] = (0.0, 0.0)

    def to_jsonable(self) -> dict:
        return {
            "u": self.u.tolist(),
            "beta": self.beta,
            "window": list(self.window),
            "loglog_slope": self.loglog_slope,
            "hill": {str(kf): {"index": h.index, "ci_low": h.ci_low,
                               "ci_high": h.ci_high, "k": h.k}
                     for kf, h in self.hill_by_fraction.items()},
            "flatness": {
                "scaled_min": self.flatness.scaled_min,
                "scaled_max": self.flatness.scaled_max,
                # s_min = 0, or s_max / s_min overflowing: written null
                "ratio": (self.flatness.ratio
                          if math.isfinite(self.flatness.ratio) else None),
                "min_lower_95": self.flatness.min_lower_95,
                "supported": self.flatness.supported,
                "ratio_max_allowed": self.flatness.ratio_max_allowed,
            },
        }


def tail_report(pool_vectors: np.ndarray, u: np.ndarray, beta: float,
                rng: np.random.Generator,
                window_quantiles: tuple[float, float] = (0.99, 0.9999),
                k_fracs=(0.01, 0.005, 0.002),
                n_points: int = 25, n_boot: int = BOOTSTRAP_DEFAULT,
                ratio_max: float = FLATNESS_RATIO_MAX) -> TailReport:
    """Assemble the survival/Hill/flatness report over a quantile window.
    The pool is projected onto u and sorted once: the flatness curve reads
    the ascending projections, and Hill their positive slice."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    proj = np.sort(np.atleast_2d(np.asarray(pool_vectors, dtype=float)) @ u)
    pos = proj[np.searchsorted(proj, 0.0, side="right"):]
    if len(pos) < 10 * MIN_EXCEEDANCES:
        raise WindowError("too few positive projections for a tail report")
    t_lo, t_hi = np.quantile(proj, window_quantiles)
    n = len(proj)
    if n - np.searchsorted(proj, t_hi, side="right") < MIN_EXCEEDANCES:
        t_hi = proj[-(MIN_EXCEEDANCES + 1)]
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not (t_lo > 0 and t_hi > t_lo):
        raise WindowError("window quantiles are not resolvable or not positive")
    flat = scaled_tail_flatness(proj, beta, t_lo, t_hi, rng=rng,
                                n_points=n_points, n_boot=n_boot,
                                ratio_max=ratio_max)
    surv_se = np.sqrt(np.maximum(flat.survival * (1 - flat.survival), 0.0) / n)
    hills = {}
    for kf in k_fracs:
        try:
            hills[kf] = hill(pos, kf, rng=rng, n_boot=n_boot)
        except SpecError:
            continue
    good = flat.survival > 0
    slope = float(np.polyfit(np.log(flat.t_grid[good]),
                             np.log(flat.survival[good]), 1)[0])
    return TailReport(u=u, beta=beta, survival_se=surv_se,
                      hill_by_fraction=hills, flatness=flat,
                      loglog_slope=slope, window=(t_lo, t_hi))
