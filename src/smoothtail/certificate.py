"""Monte Carlo tail-positivity certificate.

Estimates every ingredient of the union lower bound for P(<u, X> > t):
the exceedance mass m_j of each directional cap, one-path event
probabilities P(V_{n,t}) over the level window around
n_t = ceil(log t / rho) weighed by the mass m(U) of the cap each path's
final direction lands in, two-path overlap probabilities P(W) grouped by
(p, q, m) geometry, and expected node counts of the sparse
all-ones-suffix subtree.  The assembled statistic

    sum_{i in W} E[1{V_{i,t}} m(U_i)]  -  sum_{pairs} P(W_{i,i',t})

is a statistical lower bound: a negative value is a valid outcome, and
every low-confidence ingredient flags the report rather than stopping it.
Every V and W estimate is a HitSummary of its hits' importance weights,
fed V path blocks of V_BLOCK_MARKS Z-marks, in the (C0, delta) search too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .branching import resampled_sum
from .errors import CoverageError, NondegeneracyError, SpecError
from .model import ModelSpec
from .rng import parallel_map, spawn
from .spectral import (COVER_TEST_POINTS, OperatorAssembler, SphereGrid,
                       build_grid, k_grid)
from .walks import StepSampler, run_walks, tilted_batch, vec_norm

MIN_NT_HARD = 4
MIN_NT_RECOMMENDED = 16
ESS_FLOOR = 100            # effective contributing samples per estimate
VERDICT_Z = 2              # a positive bound must clear this many standard errors
SEARCH_C0 = (1.0, 3.0, 10.0, 30.0)        # the (C0, delta) search grid
SEARCH_DELTA = (0.05, 0.1, 0.2, 0.4)
V_BLOCK_MARKS = 2 ** 17    # Z-marks per V block: a V estimate's working set


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass
class EventParams:
    """Scale t with the event constants (C0, delta) and the level window."""

    t: float
    C0: float
    delta: float
    rho: float
    flags: list = field(default_factory=list)

    def __post_init__(self):
        if min(self.t, self.C0, self.delta, self.rho) <= 0:
            raise SpecError("t, C0, delta, rho must all be positive")
        if self.n_t < MIN_NT_RECOMMENDED:
            self.flags.append(
                f"n_t = {self.n_t} below recommended {MIN_NT_RECOMMENDED}")

    @property
    def n_t(self) -> int:
        # clamp keeps n_t >= 1 for sub-scale t (window may then be empty)
        return max(1, int(math.ceil(math.log(self.t) / self.rho)))

    @property
    def window(self) -> tuple[float, float]:
        r = math.sqrt(self.n_t)
        return self.n_t - r, self.n_t - r / 2

    def window_levels(self) -> list[int]:
        """The integer levels of the closed window
        [n_t - sqrt(n_t), n_t - sqrt(n_t) / 2]: the levels the (C0, delta)
        search scores."""
        lo, hi = self.window
        return [n for n in range(int(math.ceil(lo)), int(math.floor(hi)) + 1)]

    def levels(self, C1: int) -> list[int]:
        """L_t: the window levels that are multiples of the sparsity
        constant C1, where a node's last C1 coordinates are all 1."""
        return [n for n in self.window_levels() if n % C1 == 0]

    @property
    def D(self) -> float:
        return 1.0 + self.C0 / (1.0 - math.exp(-self.delta))


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

def _indicator_V_batch(lhs: np.ndarray, S_final: np.ndarray,
                       params: EventParams) -> np.ndarray:
    """Vectorized V indicator over a batch of paths of length n, given
    lhs = log ||Pi*_k|| + log(|Z_k| v 1) for k < n, shape (R, n)."""
    n = lhs.shape[1]
    rhs = math.log(params.C0 * params.t) - np.arange(n, 0, -1) * params.delta
    return (S_final >= math.log(params.t)) & (lhs <= rhs).all(axis=1)


def draw_z_marks(spec: ModelSpec, pool_vectors: np.ndarray, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """|Z| draws for Z = sum_{i=2}^N A_i X_i + Q: a population-dynamics
    innovation without its first child, with X_i resampled from a converged
    pool (the only available sampler for the fixed-point law)."""
    return resampled_sum(spec, np.atleast_2d(pool_vectors), count, rng,
                         skip=1, norm=spec.norm)


@dataclass
class ProbEstimate:
    value: float
    se: float
    hits: int
    ess: float
    flagged: bool = False
    upper_95: Optional[float] = None   # one-sided bound when hits == 0
    # a V estimate's cap-weighted term E[1{V} m(U)] (see estimate_PV)
    weighted: Optional[float] = None
    weighted_se: Optional[float] = None
    cap_rates: Optional[np.ndarray] = None


def _mean_se(s1: float, s2: float, n: int) -> float:
    """Standard error (ddof 1) of a mean of n values, from s1 = sum, s2 = sum^2."""
    return math.sqrt(max(s2 - s1 * s1 / n, 0.0) / ((n - 1) * n)) if n > 1 else 0.0


class HitSummary:
    """An importance-sampled hit set, folded in block by block: the path
    count, the largest log weight M seen, the hit count and, per cap, the
    sums of w = exp(log weight - M) and w^2 over the hits, rescaled when M
    rises.  W and each search cell are the one-cap case."""

    def __init__(self, caps: int = 1):
        self.paths = self.hits = 0
        self.log_max = -math.inf
        self.sum_w, self.sum_w2 = np.zeros(caps), np.zeros(caps)

    def add(self, log_weight: np.ndarray, hit: np.ndarray,
            cap: Optional[np.ndarray] = None) -> "HitSummary":
        """Fold in a block's log weights, hit flags and (with caps) hits' caps."""
        self.paths += len(log_weight)
        top = float(log_weight.max())
        if top > self.log_max:
            shrink = math.exp(self.log_max - top)
            self.sum_w *= shrink
            self.sum_w2 *= shrink * shrink
            self.log_max = top
        w = np.exp(log_weight[hit] - self.log_max)
        self.hits += len(w)
        cap = np.zeros(len(w), dtype=np.intp) if cap is None else cap
        self.sum_w += np.bincount(cap, w, minlength=len(self.sum_w))
        self.sum_w2 += np.bincount(cap, w * w, minlength=len(self.sum_w))
        return self

    def estimate(self, masses: Optional[np.ndarray] = None) -> ProbEstimate:
        """The hit rate with its se and ESS (sum w)^2 / sum w^2, flagged under
        ESS_FLOOR (no hits: ESS 0 and a heuristic bound of three times the
        largest weight per path); with the caps' masses, also the per-cap
        rates, their mass-weighted sum and its se."""
        n = self.paths
        scale = math.exp(self.log_max) if self.log_max < 700 else math.inf
        s1, s2 = float(self.sum_w.sum()), float(self.sum_w2.sum())
        ess = s1 * s1 / s2 if s2 > 0 else 0.0
        est = ProbEstimate(value=s1 / n * scale, se=_mean_se(s1, s2, n) * scale,
                           hits=self.hits, ess=ess, flagged=ess < ESS_FLOOR,
                           upper_95=3.0 * scale / n if self.hits == 0 else None)
        if masses is not None:
            est.cap_rates = self.sum_w / n * scale
            est.weighted = float(masses @ est.cap_rates)
            est.weighted_se = scale * _mean_se(float(masses @ self.sum_w),
                                               float(masses ** 2 @ self.sum_w2), n)
        return est


def _draw_V(spec: ModelSpec, n: int, reps: int, rng: np.random.Generator,
            tilt: float, spectral, pool_vectors: np.ndarray,
            u: Optional[np.ndarray]):
    """The draws behind a P(V_{n,t}) estimate: reps paths of length n at the
    given tilt with their history, then their n Z-marks each, as the paths'
    (S, log weight) and the (reps, n) left side log ||Pi*_k|| + log(|Z_k| v 1)
    of the indicator, formed in place on the marks, with the paths' final
    directions U between them.  Only the indicator depends on (C0, delta)."""
    batch = tilted_batch(spec, u, n, tilt, spectral, reps, rng,
                         record_hist=True)
    lhs = draw_z_marks(spec, pool_vectors, reps * n, rng).reshape(reps, n)
    np.maximum(lhs, 1.0, out=lhs)
    np.log(lhs, out=lhs)
    lhs += batch.opnorm_log_hist[:, :n]
    return batch.S, batch.log_weight, batch.U, lhs


def _estimate_V_cells(spec: ModelSpec, n: int, cells: list, reps: int,
                      rng: np.random.Generator, tilt: float, pool_vectors,
                      spectral, u, cones: Optional[ConeFamily] = None) -> list:
    """P(V_{n,t}) for every cell (an EventParams) on the same draws: blocks
    of V_BLOCK_MARKS // n paths, each one _draw_V call on rng, scored for
    every cell and folded into its HitSummary (with cones, per cap of U),
    so at most one block is live.  With reps * n within one block the
    draws are exactly those of one _draw_V call."""
    sums = [HitSummary(1 if cones is None else len(cones.masses)) for _ in cells]
    block = max(1, V_BLOCK_MARKS // max(n, 1))
    for start in range(0, reps, block):
        S, log_weight, U, lhs = _draw_V(spec, n, min(block, reps - start),
                                        rng, tilt, spectral, pool_vectors, u)
        for params, summary in zip(cells, sums):
            hit = _indicator_V_batch(lhs, S, params)
            summary.add(log_weight, hit,
                        None if cones is None else cones.caps.cell_index(U[hit]))
    return [s.estimate(None if cones is None else cones.masses) for s in sums]


def estimate_PV(spec: ModelSpec, n: int, params: EventParams, reps: int,
                rng: np.random.Generator, *, tilt: float,
                pool_vectors: np.ndarray, spectral=None,
                u: Optional[np.ndarray] = None,
                cones: Optional[ConeFamily] = None) -> ProbEstimate:
    """P(V_{n,t}) by Monte Carlo at the given tilt (0 is the nominal walk,
    beta the certificate's) with Z-marks from a pool; u defaults to e_1.
    With cones, the same draws also give E[1{V} m(U)], each hit weighed by
    the mass of the cap its final direction U lands in: its rate per cap
    (cap_rates), their mass-weighted sum (weighted) and that sum's walk
    standard error (weighted_se)."""
    return _estimate_V_cells(spec, n, [params], reps, rng, tilt, pool_vectors,
                             spectral, u, cones)[0]


def estimate_PW(spec: ModelSpec, p: int, q: int, m: int, params: EventParams,
                reps: int, rng: np.random.Generator, *, tilt: float,
                spectral=None, u: Optional[np.ndarray] = None) -> ProbEstimate:
    """P(W) for the two-path overlap event at geometry (p, q, m).

    A shared prefix of length m, then two conditionally independent
    continuations of lengths p - m and q - m, all at the given tilt; the
    meet-product norm constraint uses the prefix's own operator norm.
    """
    if not (0 <= m <= q <= p):
        raise SpecError("need 0 <= m <= q <= p")
    if m == p:
        raise SpecError("the pair must split strictly below p")
    sampler = StepSampler(spec, tilt, spectral)
    pre = run_walks(spec, u, m, reps, rng, sampler=sampler, record_hist=True)
    log_t = math.log(params.t)
    meet_ok = pre.opnorm_log_hist[:, m] <= math.log(params.C0 * params.t) \
        - params.delta * (p - m)
    br1 = run_walks(spec, pre.U, p - m, reps, rng, sampler=sampler)
    ok1 = pre.S + br1.S > log_t
    if q > m:
        br2 = run_walks(spec, pre.U, q - m, reps, rng, sampler=sampler)
        ok2 = pre.S + br2.S > log_t
        logw = pre.log_weight + br1.log_weight + br2.log_weight
    else:
        # the shorter path is the meet itself: its exceedance uses the prefix
        ok2 = pre.S > log_t
        logw = pre.log_weight + br1.log_weight
    return HitSummary().add(logw, ok1 & ok2 & meet_ok).estimate()


# ---------------------------------------------------------------------------
# cone family
# ---------------------------------------------------------------------------

@dataclass
class ConeFamily:
    """Every cap with its exceedance mass, and the floor kappa: the smallest
    positive mass."""

    caps: SphereGrid               # cap j is the cell of grid point j
    eps: float                     # inner-product constant for the model norm
    masses: np.ndarray             # (J,) exceedance mass per cap
    masses_se: np.ndarray
    kappa: float
    kappa_se: float


def _cap_geometry(spec: ModelSpec, J: int):
    """The caps, the cells of build_grid(spec, size=J), and eps = cos(2r) / c
    for their covering radius r.  A walk direction and a pool member in the
    same cap are at most 2r apart, and c (= d for the l1 cone, 1 for l2)
    converts the l2 inner product to the model norm."""
    caps = build_grid(spec, size=J)
    r = caps.covering_radius()
    if 2 * r >= math.pi / 2 - 1e-9:
        raise CoverageError(
            "cap geometry cannot cover the sphere; increase J or widen apertures")
    norm_factor = float(spec.d) if spec.norm == "l1" else 1.0
    return caps, math.cos(2 * r) / norm_factor


def cone_family(pool_vectors: np.ndarray, caps: SphereGrid, eps: float,
                eparams: EventParams, spec: ModelSpec) -> ConeFamily:
    """Every cap of _cap_geometry with its exceedance mass m_j: the share of
    pool members of model norm beyond D / eps whose nearest cap grid point
    is j.  A member x there and a direction U in the same cap have
    <U, x> > D, so a V path ending at U gains m(U), the mass of U's cap."""
    pool_vectors = np.atleast_2d(np.asarray(pool_vectors, dtype=float))
    n, d = pool_vectors.shape
    if d != spec.d:
        raise SpecError("pool dimension mismatch")
    exceed = vec_norm(pool_vectors, spec.norm) > eparams.D / eps
    masses = np.bincount(caps.cell_index(pool_vectors[exceed]),
                         minlength=len(caps)) / n
    if not masses.any():
        raise NondegeneracyError(
            f"no pool mass beyond D/eps = {eparams.D / eps:.6g}: pool degenerate "
            "or D too large")
    masses_se = np.sqrt(masses * (1 - masses) / n)
    held = np.flatnonzero(masses)
    floor = held[np.argmin(masses[held])]
    return ConeFamily(caps=caps, eps=eps, masses=masses, masses_se=masses_se,
                      kappa=float(masses[floor]),
                      kappa_se=float(masses_se[floor]))


# ---------------------------------------------------------------------------
# parameter search and assembly
# ---------------------------------------------------------------------------

def choose_event_params(spec: ModelSpec, t: float, rho: float, k_beta: float,
                        rng: np.random.Generator,
                        pool_vectors: np.ndarray, beta: float,
                        spectral=None, u: Optional[np.ndarray] = None,
                        reps: int = 20_000, *, eps: float) -> EventParams:
    """Grid search for (C0, delta) maximizing P(V) stability over the window.

    A cell whose cone threshold D / eps (eps of the caps' geometry) lies at
    or beyond the largest pool norm is skipped: the cone family would find
    no mass beyond it, and finds some in every cell that is kept.
    Score: first the number of window levels a cell misses (no hit, or an
    estimate of 0); then, over the levels it hits, the range of
    log P(V_n) - n log k(beta) (the rate-shape residual), tie-breaking
    toward larger mean mass.  A pick that misses levels carries a flag that
    names them.  The window depends on t and rho alone, so every cell is
    scored on the same V blocks (common random numbers), level by level.
    """
    cells = [EventParams(t=t, C0=C0, delta=delta, rho=rho)
             for C0 in SEARCH_C0 for delta in SEARCH_DELTA]
    reach = float(vec_norm(pool_vectors, spec.norm).max())
    cells = [c for c in cells if c.D / eps < reach]
    if not cells:
        raise SpecError(
            f"no (C0, delta) cell at t = {t:.6g} has pool mass beyond its "
            f"cone threshold D/eps (largest pool norm {reach:.6g}); "
            "lower t or enlarge the pool")
    levels = cells[0].window_levels()
    by_level = [_estimate_V_cells(spec, n, cells, reps, rng, beta,
                                  pool_vectors, spectral, u) for n in levels]
    scores = []    # by levels missed, spread, -mean; ties go to the first cell
    for i in range(len(cells)):
        hit = {n: math.log(ests[i].value) - n * math.log(k_beta)
               for n, ests in zip(levels, by_level)
               if ests[i].hits and ests[i].value > 0}
        missed = [n for n in levels if n not in hit]
        centered = list(hit.values()) or [0.0]
        scores.append((len(missed), max(centered) - min(centered),
                       -(sum(centered) / len(centered)), i, missed))
    *_, i, missed = min(scores)
    params = cells[i]
    if missed:
        params.flags.append(
            f"search: (C0, delta) = ({params.C0:g}, {params.delta:g}) has no "
            f"positive V estimate at window levels {missed}; no cell hits "
            "more levels")
    return params


@dataclass
class CertificateReport:
    """Assembled lower bound with all chosen parameters and diagnostics."""

    t: float
    u: np.ndarray
    C0: float
    delta: float
    C1: int
    rho: float
    beta: float
    n_t: int
    levels: list
    kappa: float              # smallest positive cap mass: the floor of m(U)
    kappa_se: float
    eps: float
    cap_masses: list
    v_sum: float              # sum over the sparse subtree of P(V)
    v_sum_se: float
    v_term: float             # sum over the sparse subtree of E[1{V} m(U)]
    v_term_se: float
    w_sum: float
    w_sum_se: float
    bound: float
    bound_se: float
    verdict: str              # "positive" | "not positive at these parameters" | "vacuous"
    t_beta_v_term: float      # t^beta * v_term
    shape_actual: float       # #L_t k(beta)^C1 / sqrt(n_t)
    shape_idealized: float    # k(beta)^C1 / (2 C1)
    fitted_D1: float
    per_level_V: list = field(default_factory=list)
    per_geometry_W: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        out = asdict(self)
        for k in ("t_beta_v_term", "fitted_D1"):
            if not math.isfinite(out[k]):
                out[k] = None     # empty L_t, or t^beta overflow
        out["u"] = self.u.tolist()
        return out


def verdict(levels: list, bound: float, bound_se: float, n_flagged: int,
            sampled_radius: bool = False,
            random_n: bool = False) -> tuple[str, Optional[str]]:
    """The certificate's verdict on a bound summed over the levels L_t, and
    the reason when it is not positive.  Positive needs the bound to clear
    VERDICT_Z standard errors, no V or W estimate under the ESS floor
    (n_flagged counts those), an exact cap radius (not sampled, d <= 2)
    and a fixed N (not random_n, where marks and counts are not exact)."""
    if not levels:
        # no level to sum over: the bound is 0 by construction, not evidence
        return "vacuous", None
    reasons = []
    if not bound > VERDICT_Z * bound_se:
        reasons.append(f"bound {bound:.3g} not above {VERDICT_Z} x "
                       f"bound_se {bound_se:.3g}")
    if n_flagged:
        reasons.append(f"{n_flagged} V/W estimates below the ESS floor")
    if sampled_radius:
        reasons.append("cap radius sampled, not exact (d >= 3)")
    if random_n:
        reasons.append("random N: Z-marks and pair counts not exact")
    if not reasons:
        return "positive", None
    return ("not positive at these parameters",
            "not positive: " + "; ".join(reasons))


def lower_bound(spec: ModelSpec, u: np.ndarray, t: float, rho: float,
                beta: float, k_beta: float, C1: int,
                pool_vectors: np.ndarray, rng: np.random.Generator,
                C0: Optional[float] = None, delta: Optional[float] = None,
                J: int = 8, reps_v: int = 100_000, reps_w: int = 10_000,
                reps_search: int = 20_000,
                threads: int = 1) -> CertificateReport:
    """Evaluate sum E[1{V} m(U)] - sum P(W) over the sparse subtree.

    The event <u, X> > t is <u/|u|, X> > t/|u| in the model norm, so the
    walks start at u/|u| and the events are set at t/|u|; the report keeps
    u and t as given.  The sum over the subtree uses expected node counts
    (E N)^{l - C1} P(N >= 1)^{C1} times per-level estimates
    (E[1{V_i} m(U_i)] depends only on |i| by exchangeability).
    Its variance adds the walks' to sum_j (sum_l coef_l rate_lj)^2 se_j^2
    for the cap masses m_j, which leaves out their (negative) covariances.
    Pair sums are grouped by (p, q, m) with expected ordered-pair counts
    (E N)^{p+q-m-2 C1}.  The walks are tilted at beta, by e_beta for finite
    support: the exact grid operator works it out from the atoms and draws
    nothing from rng.  Every estimate draws from its own pre-derived
    substream, so results do not depend on the worker count.
    """
    if C1 < 1 or C1 != int(C1):
        raise SpecError("C1 must be a positive integer")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    u_len = float(vec_norm(u, spec.norm))
    if not u_len > 0:
        raise SpecError("u must be nonzero")
    unit, t_unit = u / u_len, t / u_len
    caps, eps = _cap_geometry(spec, J)
    spectral = (k_grid(OperatorAssembler(spec, build_grid(spec), 0, rng), beta)
                if spec.ensemble.atoms() is not None else None)
    if C0 is None or delta is None:
        eparams = choose_event_params(spec, t_unit, rho, k_beta, rng,
                                      pool_vectors, beta, spectral=spectral,
                                      u=unit, reps=reps_search, eps=eps)
    else:
        eparams = EventParams(t=t_unit, C0=C0, delta=delta, rho=rho)
    if eparams.n_t < MIN_NT_HARD:
        raise SpecError(
            f"n_t = {eparams.n_t} < {MIN_NT_HARD}: no usable level window at t={t}")
    levels = eparams.levels(C1)
    flags = list(eparams.flags)
    if spec.d >= 3:
        flags.append(f"cap radius sampled over {COVER_TEST_POINTS} directions "
                     "(d >= 3): eps may overstate the cone constant")
    if not levels:
        flags.append(f"L_t empty for C1={C1} in window {eparams.window}")
    law = spec.branching
    random_n = law.mode == "random" and len(
        {k for k, p in zip(law.support, law.probs) if p > 0}) > 1
    if random_n:
        flags.append("random N: Z-marks use the law of N, not the size-biased "
                     "one, and pair counts are powers of E N; both can "
                     "overstate the bound")
    en = spec.mean_children()
    thin = spec.branching.p_child() ** C1
    cones = cone_family(pool_vectors, caps, eps, eparams, spec)
    geoms = [(p, q, m)
             for p in levels for q in levels if q <= p
             for m in range(0, (q - 1 if q == p else q) + 1)]
    v_streams = spawn(rng, len(levels))
    w_streams = spawn(rng, len(geoms))
    n_v = len(levels)

    def estimate(i: int):
        # the V levels first, then the W geometries, in one fan-out: no
        # worker waits for the V estimates to finish before a W starts
        if i < n_v:
            return estimate_PV(spec, levels[i], eparams, reps_v, v_streams[i],
                               tilt=beta, pool_vectors=pool_vectors,
                               spectral=spectral, u=unit, cones=cones)
        return estimate_PW(spec, *geoms[i - n_v], eparams, reps_w,
                           w_streams[i - n_v], tilt=beta, spectral=spectral,
                           u=unit)

    results = parallel_map(estimate, n_v + len(geoms), threads)
    v_results, w_results = results[:n_v], results[n_v:]

    per_level = []
    v_sum = v_var = walk_var = 0.0
    cap_totals = np.zeros(len(cones.masses))   # sum_l coef_l rate_lj
    for ell, est in zip(levels, v_results):
        coef = en ** (ell - C1) * thin
        v_sum += coef * est.value
        v_var += (coef * est.se) ** 2
        cap_totals += coef * est.cap_rates
        walk_var += (coef * est.weighted_se) ** 2
        if est.flagged:
            flags.append(f"V estimate at level {ell} flagged (ess={est.ess:.1f})")
        per_level.append({"level": ell, "count": coef, "p": est.value,
                          "se": est.se, "hits": est.hits, "ess": est.ess,
                          "method": "tilted", "weighted": est.weighted,
                          "weighted_se": est.weighted_se})
    per_geom = []
    w_sum = w_var = 0.0
    for (p, q, m), est in zip(geoms, w_results):
        coef = en ** (p + q - m - 2 * C1)
        w_sum += coef * est.value
        w_var += (coef * est.se) ** 2
        if est.flagged:
            msg = f"W estimate at (p,q,m)=({p},{q},{m}) flagged (ess={est.ess:.1f})"
            if est.hits == 0:
                msg += f"; no hits, heuristic upper {coef * (est.upper_95 or 0):.3g}"
            flags.append(msg)
        per_geom.append({"p": p, "q": q, "m": m, "count": coef,
                         "prob": est.value, "se": est.se,
                         "hits": est.hits, "ess": est.ess,
                         "method": "tilted", "upper_95": est.upper_95})
    v_term = float(cones.masses @ cap_totals)
    v_term_var = walk_var + float(((cap_totals * cones.masses_se) ** 2).sum())
    bound = v_term - w_sum
    bound_se = math.sqrt(v_term_var + w_var)
    n_flagged = sum(est.flagged for est in v_results + w_results)
    outcome, reason = verdict(levels, bound, bound_se, n_flagged, spec.d >= 3,
                              random_n)
    if reason is not None:
        flags.append(reason)
    n_t = eparams.n_t
    shape_actual = (len(levels) * k_beta ** C1 / math.sqrt(n_t)) if levels else 0.0
    shape_ideal = k_beta ** C1 / (2 * C1)
    t_beta = t ** beta if beta * math.log(t) < 700 else math.inf
    fitted = (t_beta * v_sum / shape_actual if shape_actual > 0
              else float("nan"))
    return CertificateReport(
        t=t, u=u, C0=eparams.C0, delta=eparams.delta, C1=C1, rho=rho,
        beta=beta, n_t=n_t, levels=levels, kappa=cones.kappa,
        kappa_se=cones.kappa_se, eps=cones.eps,
        cap_masses=cones.masses.tolist(), v_sum=v_sum,
        v_sum_se=math.sqrt(v_var), v_term=v_term,
        v_term_se=math.sqrt(v_term_var), w_sum=w_sum,
        w_sum_se=math.sqrt(w_var), bound=bound, bound_se=bound_se,
        verdict=outcome, t_beta_v_term=t_beta * v_term,
        shape_actual=shape_actual, shape_idealized=shape_ideal,
        fitted_D1=fitted, per_level_V=per_level, per_geometry_W=per_geom,
        flags=flags)
