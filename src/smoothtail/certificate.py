"""Monte Carlo tail-positivity certificate.

Estimates every ingredient of the union lower bound for P(<u, X> > t):
cone mass kappa, one-path event probabilities P(V_{n,t}) over the level
window around n_t = ceil(log t / rho), two-path overlap probabilities
P(W) grouped by (p, q, m) geometry, and expected node counts of the sparse
all-ones-suffix subtree.  The assembled statistic

    kappa * sum_{i in W} P(V_{i,t})  -  sum_{pairs} P(W_{i,i',t})

is a statistical lower bound: a negative value is a valid outcome, and
every low-confidence ingredient flags the report rather than stopping it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .branching import BLOCK_ROWS, resampled_sum
from .errors import CoverageError, NondegeneracyError, SpecError
from .model import CLASS_NONNEG, ModelSpec
from .rng import parallel_map, spawn
from .walks import (StepSampler, effective_sample_size, run_walks,
                    tilted_batch, vec_norm, weighted_mean)

MIN_NT_HARD = 4
MIN_NT_RECOMMENDED = 16
ESS_FLOOR = 100            # effective contributing samples per estimate
VERDICT_Z = 2              # a positive bound must clear this many standard errors
SEARCH_C0 = (1.0, 3.0, 10.0, 30.0)        # the (C0, delta) search grid
SEARCH_DELTA = (0.05, 0.1, 0.2, 0.4)
TEST_DIRECTIONS = 720      # cone-coverage check grid: equal angles at d = 2
TEST_DIRECTIONS_SOBOL = 1024   # and Sobol points at d >= 3 (balanced at 2^k)


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
    min_recommended_nt: int = MIN_NT_RECOMMENDED
    flags: list = field(default_factory=list)

    def __post_init__(self):
        if min(self.t, self.C0, self.delta, self.rho) <= 0:
            raise SpecError("t, C0, delta, rho must all be positive")
        if self.n_t < self.min_recommended_nt:
            self.flags.append(
                f"n_t = {self.n_t} below recommended {self.min_recommended_nt}")

    @property
    def n_t(self) -> int:
        # clamp keeps n_t >= 1 for sub-scale t (window may then be empty)
        return max(1, int(math.ceil(math.log(self.t) / self.rho)))

    @property
    def window(self) -> tuple[float, float]:
        r = math.sqrt(self.n_t)
        return self.n_t - r, self.n_t - r / 2

    def window_levels(self) -> list[int]:
        lo, hi = self.window
        return [n for n in range(int(math.ceil(lo)), int(math.floor(hi)) + 1)]

    @property
    def D(self) -> float:
        return 1.0 + self.C0 / (1.0 - math.exp(-self.delta))


@dataclass
class SubtreeParams:
    """Sparsity constant C1 and the level set L_t it induces."""

    C1: int

    def __post_init__(self):
        if self.C1 < 1 or self.C1 != int(self.C1):
            raise SpecError("C1 must be a positive integer")

    def levels(self, eparams: EventParams) -> list[int]:
        lo, hi = eparams.window
        first = int(math.ceil(lo / self.C1))
        out = []
        k = first
        while k * self.C1 < hi:
            if k * self.C1 >= lo:
                out.append(k * self.C1)
            k += 1
        return out


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

def _indicator_V_batch(lhs: np.ndarray, S_final: np.ndarray,
                       params: EventParams) -> np.ndarray:
    """Vectorized V indicator over a batch of paths of length n, given
    lhs = log ||Pi*_k|| + log(|Z_k| v 1) for k < n, shape (R, n)."""
    n = lhs.shape[1]
    ks = np.arange(n)
    rhs = math.log(params.C0 * params.t) - (n - ks) * params.delta
    ok_scale = S_final >= math.log(params.t)
    return ok_scale & (lhs <= rhs[None, :]).all(axis=1)


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


def _summarize(ind: np.ndarray, log_weight: np.ndarray) -> ProbEstimate:
    """Weighted hit rate with its ESS over the hits.  An estimate under
    ESS_FLOOR is flagged (no hits gives ESS 0); with no hits it also gets a
    heuristic one-sided bound of three times the largest weight per rep."""
    hits = int(ind.sum())
    est, se = weighted_mean(ind.astype(float), log_weight)
    ess = effective_sample_size(log_weight[ind]) if hits else 0.0
    upper = None
    if hits == 0:
        upper = 3.0 * float(np.exp(log_weight.max())) / len(ind)
    return ProbEstimate(value=float(est), se=float(se), hits=hits,
                        ess=float(ess), flagged=ess < ESS_FLOOR,
                        upper_95=upper)


def _draw_V(spec: ModelSpec, n: int, reps: int, rng: np.random.Generator,
            tilt: float, spectral, pool_vectors: np.ndarray,
            u: Optional[np.ndarray]):
    """The draws behind a P(V_{n,t}) estimate: reps paths of length n at the
    given tilt with their history, then their n Z-marks each, as the paths'
    (S, log weight) and the (reps, n) left side log ||Pi*_k|| + log(|Z_k| v 1)
    of the indicator, formed in place on the marks.  Only the indicator
    depends on (C0, delta)."""
    batch = tilted_batch(spec, u, n, tilt, spectral, reps, rng,
                         record_hist=True)
    lhs = draw_z_marks(spec, pool_vectors, reps * n, rng).reshape(reps, n)
    np.maximum(lhs, 1.0, out=lhs)
    np.log(lhs, out=lhs)
    lhs += batch.opnorm_log_hist[:, :n]
    return batch.S, batch.log_weight, lhs


def estimate_PV(spec: ModelSpec, n: int, params: EventParams, reps: int,
                rng: np.random.Generator, *, tilt: float,
                pool_vectors: np.ndarray, spectral=None,
                u: Optional[np.ndarray] = None) -> ProbEstimate:
    """P(V_{n,t}) by Monte Carlo at the given tilt (0 is the nominal walk,
    beta the certificate's) with Z-marks from a pool; u defaults to e_1."""
    S, log_weight, lhs = _draw_V(spec, n, reps, rng, tilt, spectral,
                                 pool_vectors, u)
    return _summarize(_indicator_V_batch(lhs, S, params), log_weight)


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
    return _summarize(ok1 & ok2 & meet_ok, logw)


# ---------------------------------------------------------------------------
# cone family
# ---------------------------------------------------------------------------

@dataclass
class ConeFamily:
    """Caps with a common inner-product constant and the mass floor kappa."""

    centers: np.ndarray            # (J, d) unit directions (l2)
    retained: np.ndarray           # (J,) bool
    eps: float                     # inner-product constant for the model norm
    D: float
    masses: np.ndarray             # (J,) exceedance mass per cap
    masses_se: np.ndarray
    kappa: float
    kappa_se: float
    coverage_angle: float


def _cap_centers(spec: ModelSpec, J: int) -> np.ndarray:
    d = spec.d
    if d == 1:
        if spec.geom_class == CLASS_NONNEG:
            return np.array([[1.0]])
        return np.array([[1.0], [-1.0]])
    if d == 2:
        if spec.geom_class == CLASS_NONNEG:
            theta = (np.arange(J) + 0.5) * (math.pi / 2) / J
        else:
            theta = (np.arange(J) + 0.5) * (2 * math.pi) / J
        return np.column_stack([np.cos(theta), np.sin(theta)])
    from .spectral import build_grid
    grid = build_grid(spec, size=J)
    pts = grid.points
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _test_directions(spec: ModelSpec) -> np.ndarray:
    from .spectral import build_grid
    grid = build_grid(spec, size=TEST_DIRECTIONS if spec.d == 2
                      else TEST_DIRECTIONS_SOBOL)
    pts = grid.points
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _angles_to(centers: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    cosangle = np.clip(dirs @ centers.T, -1.0, 1.0)
    return np.arccos(cosangle)          # (n_dirs, J)


def cone_family(pool_vectors: np.ndarray, J: int, eparams: EventParams,
                spec: ModelSpec) -> ConeFamily:
    """Directional caps with per-cap exceedance mass and the floor kappa.

    Pool directions are assigned to their nearest cap center; caps without
    exceedance mass are dropped greedily while the retained set still covers
    every test direction within a quarter turn.  The inner-product constant
    eps = cos(r + phi) / c uses the assignment radius r, the coverage radius
    phi of the retained centers, and the norm-equivalence factor c (= d for
    the l1 cone, 1 for l2).
    """
    pool_vectors = np.atleast_2d(np.asarray(pool_vectors, dtype=float))
    n, d = pool_vectors.shape
    if d != spec.d:
        raise SpecError("pool dimension mismatch")
    centers = _cap_centers(spec, J)
    Jfull = len(centers)
    norms_model = vec_norm(pool_vectors, spec.norm)
    ok = np.empty(n, dtype=bool)
    assign = np.empty(n, dtype=np.intp)
    # nearest center by inner product, BLOCK_ROWS members at a time
    for a in range(0, n, BLOCK_ROWS):
        x = pool_vectors[a:a + BLOCK_ROWS]
        norms_l2 = np.linalg.norm(x, axis=1)
        ok_b = np.greater(norms_l2, 0, out=ok[a:a + BLOCK_ROWS])
        dirs = np.zeros_like(x)
        dirs[ok_b] = x[ok_b] / norms_l2[ok_b, None]
        assign_b = np.argmax(dirs @ centers.T, axis=1,
                             out=assign[a:a + BLOCK_ROWS])
        assign_b[~ok_b] = -1
    test_dirs = _test_directions(spec)
    test_angles = _angles_to(centers, test_dirs)
    r_assign = float(test_angles.min(axis=1).max())
    norm_factor = float(d) if spec.norm == "l1" else 1.0

    def eps_for(retained_mask):
        phi = float(test_angles[:, retained_mask].min(axis=1).max())
        ang = r_assign + phi
        if ang >= math.pi / 2 - 1e-9:
            return None, phi
        return math.cos(ang) / norm_factor, phi

    retained = np.ones(Jfull, dtype=bool)
    eps, phi = eps_for(retained)
    if eps is None:
        raise CoverageError(
            "cap geometry cannot cover the sphere; increase J or widen apertures")

    def masses_for(eps_val):
        thresh = eparams.D / eps_val
        exceed = ok & (norms_model > thresh)
        mass = np.bincount(assign[exceed], minlength=Jfull) / n
        return mass, np.sqrt(np.maximum(mass * (1 - mass), 0.0) / n)

    masses, masses_se = masses_for(eps)
    retained = masses > 0
    if not retained.any():
        raise NondegeneracyError(
            f"no pool mass beyond D/eps = {eparams.D / eps:.6g}: pool degenerate "
            "or D too large")
    eps2, phi = eps_for(retained)
    if eps2 is None:
        raise CoverageError(
            "caps with positive mass cannot cover all directions; increase J "
            "or enlarge the pool")
    eps = eps2
    masses, masses_se = masses_for(eps)
    retained = masses > 0
    if not retained.any():
        raise NondegeneracyError("mass vanished after coverage adjustment")
    # drop unneeded low-mass caps greedily to raise the floor
    order = np.argsort(masses)
    for j in order:
        if not retained[j]:
            continue
        trial = retained.copy()
        trial[j] = False
        if not trial.any():
            break
        eps_t, phi_t = eps_for(trial)
        if eps_t is None:
            continue
        m_t, se_t = masses_for(eps_t)
        if (m_t[trial] > 0).all():
            retained = trial
            eps, phi = eps_t, phi_t
            masses, masses_se = m_t, se_t
    kappa = float(masses[retained].min())
    kappa_se = float(masses_se[retained][np.argmin(masses[retained])])
    return ConeFamily(centers=centers, retained=retained, eps=eps,
                      D=eparams.D, masses=masses, masses_se=masses_se,
                      kappa=kappa, kappa_se=kappa_se, coverage_angle=phi)


# ---------------------------------------------------------------------------
# parameter search and assembly
# ---------------------------------------------------------------------------

def choose_event_params(spec: ModelSpec, t: float, rho: float, k_beta: float,
                        rng: np.random.Generator,
                        pool_vectors: np.ndarray, beta: float,
                        spectral=None, u: Optional[np.ndarray] = None,
                        reps: int = 20_000,
                        min_recommended_nt: int = MIN_NT_RECOMMENDED) -> EventParams:
    """Grid search for (C0, delta) maximizing P(V) stability over the window.

    Score: all window levels must have hits; among those, minimize the range
    of log P(V_n) - n log k(beta) (the rate-shape residual), tie-breaking
    toward larger mean mass.  The window depends on t and rho alone, so
    every cell is scored on the same draws (common random numbers): one
    tilted batch and its Z-marks per window level, drawn level by level.
    The chosen values travel inside EventParams and are recorded in every
    report.
    """
    cells = [EventParams(t=t, C0=C0, delta=delta, rho=rho,
                         min_recommended_nt=min_recommended_nt)
             for C0 in SEARCH_C0 for delta in SEARCH_DELTA]
    levels = cells[0].window_levels()
    draws = [_draw_V(spec, n, reps, rng, beta, spectral, pool_vectors, u)
             for n in levels]
    best = None
    for params in cells:
        centered = []
        for n, (S, log_weight, lhs) in zip(levels, draws):
            est = _summarize(_indicator_V_batch(lhs, S, params), log_weight)
            if est.hits == 0 or est.value <= 0:
                break
            centered.append(math.log(est.value) - n * math.log(k_beta))
        else:
            spread = max(centered) - min(centered)
            mean_level = sum(centered) / len(centered)
            key = (spread, -mean_level)
            if best is None or key < best[0]:
                best = (key, params)
    if best is None:
        raise SpecError(
            "no (C0, delta) combination produced positive V estimates at all "
            "window levels; enlarge the budget")
    return best[1]


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
    kappa: float
    kappa_se: float
    v_sum: float              # sum over the sparse subtree of P(V)
    v_sum_se: float
    w_sum: float
    w_sum_se: float
    bound: float
    bound_se: float
    verdict: str              # "positive" | "not positive at these parameters" | "vacuous"
    t_beta_v_term: float      # t^beta * kappa * v_sum
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
                out[k] = None     # zero kappa, empty L_t, or t^beta overflow
        out["u"] = self.u.tolist()
        return out


def verdict(levels: list, bound: float, bound_se: float,
            n_flagged: int) -> tuple[str, Optional[str]]:
    """The certificate's verdict on a bound summed over the levels L_t, and
    the reason when it is not positive.  Positive needs the bound to clear
    VERDICT_Z standard errors with no V or W estimate under the ESS floor
    (n_flagged counts those)."""
    if not levels:
        # no level to sum over: the bound is 0 by construction, not evidence
        return "vacuous", None
    reasons = []
    if not bound > VERDICT_Z * bound_se:
        reasons.append(f"bound {bound:.3g} not above {VERDICT_Z} x "
                       f"bound_se {bound_se:.3g}")
    if n_flagged:
        reasons.append(f"{n_flagged} V/W estimates below the ESS floor")
    if not reasons:
        return "positive", None
    return ("not positive at these parameters",
            "not positive: " + "; ".join(reasons))


def lower_bound(spec: ModelSpec, u: np.ndarray, t: float, rho: float,
                beta: float, k_beta: float, C1: int,
                pool_vectors: np.ndarray, rng: np.random.Generator,
                spectral=None, C0: Optional[float] = None,
                delta: Optional[float] = None, J: int = 8,
                reps_v: int = 100_000, reps_w: int = 10_000,
                reps_search: int = 20_000,
                min_recommended_nt: int = MIN_NT_RECOMMENDED,
                threads: int = 1,
                force_kappa_zero: bool = False) -> CertificateReport:
    """Evaluate kappa * sum P(V) - sum P(W) over the sparse subtree.

    The sum over the subtree uses expected node counts times per-level
    probabilities (P(V_i) depends only on |i| by exchangeability); pair
    sums are grouped by (p, q, m) with expected ordered-pair counts
    (E N)^{p+q-m-2 C1}.  Every estimate draws from its own pre-derived
    substream, so results do not depend on the worker count.  With
    force_kappa_zero the cone floor is taken as exactly 0 (no standard
    error), which leaves the bound -sum P(W).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if C0 is None or delta is None:
        eparams = choose_event_params(spec, t, rho, k_beta, rng, pool_vectors,
                                      beta, spectral=spectral, u=u,
                                      reps=reps_search,
                                      min_recommended_nt=min_recommended_nt)
    else:
        eparams = EventParams(t=t, C0=C0, delta=delta, rho=rho,
                              min_recommended_nt=min_recommended_nt)
    if eparams.n_t < MIN_NT_HARD:
        raise SpecError(
            f"n_t = {eparams.n_t} < {MIN_NT_HARD}: no usable level window at t={t}")
    sparams = SubtreeParams(C1=C1)
    levels = sparams.levels(eparams)
    flags = list(eparams.flags)
    if not levels:
        flags.append(f"L_t empty for C1={C1} in window {eparams.window}")
    en = spec.mean_children()
    cones = cone_family(pool_vectors, J, eparams, spec)
    geoms = [(p, q, m)
             for p in levels for q in levels if q <= p
             for m in range(0, (q - 1 if q == p else q) + 1)]
    v_streams = spawn(rng, len(levels))
    w_streams = spawn(rng, len(geoms))

    def v_task(i: int) -> ProbEstimate:
        return estimate_PV(spec, levels[i], eparams, reps_v, v_streams[i],
                           tilt=beta, pool_vectors=pool_vectors,
                           spectral=spectral, u=u)

    def w_task(i: int) -> ProbEstimate:
        p, q, m = geoms[i]
        return estimate_PW(spec, p, q, m, eparams, reps_w, w_streams[i],
                           tilt=beta, spectral=spectral, u=u)

    v_results = parallel_map(v_task, len(levels), threads)
    w_results = parallel_map(w_task, len(geoms), threads)

    per_level = []
    v_sum = 0.0
    v_var = 0.0
    for ell, est in zip(levels, v_results):
        coef = en ** (ell - C1)
        v_sum += coef * est.value
        v_var += (coef * est.se) ** 2
        if est.flagged:
            flags.append(f"V estimate at level {ell} flagged (ess={est.ess:.1f})")
        per_level.append({"level": ell, "count": coef, "p": est.value,
                          "se": est.se, "hits": est.hits, "ess": est.ess,
                          "method": "tilted"})
    per_geom = []
    w_sum = 0.0
    w_var = 0.0
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
    if force_kappa_zero:
        kappa, kappa_se = 0.0, 0.0
        flags.append("kappa forced to zero")
    else:
        kappa, kappa_se = cones.kappa, cones.kappa_se
    v_term = kappa * v_sum
    bound = v_term - w_sum
    bound_se = math.sqrt(kappa ** 2 * v_var + w_var
                         + (v_sum * kappa_se) ** 2)
    n_flagged = sum(est.flagged for est in v_results + w_results)
    outcome, reason = verdict(levels, bound, bound_se, n_flagged)
    if reason is not None:
        flags.append(reason)
    n_t = eparams.n_t
    shape_actual = (len(levels) * k_beta ** C1 / math.sqrt(n_t)) if levels else 0.0
    shape_ideal = k_beta ** C1 / (2 * C1)
    t_beta_v = t ** beta * v_term if beta * math.log(t) < 700 else math.inf
    fitted = t_beta_v / (kappa * shape_actual) if kappa > 0 and shape_actual > 0 \
        else float("nan")
    return CertificateReport(
        t=t, u=u, C0=eparams.C0, delta=eparams.delta, C1=C1, rho=rho,
        beta=beta, n_t=n_t, levels=levels, kappa=kappa,
        kappa_se=kappa_se, v_sum=v_sum, v_sum_se=math.sqrt(v_var),
        w_sum=w_sum, w_sum_se=math.sqrt(w_var), bound=bound,
        bound_se=bound_se, verdict=outcome,
        t_beta_v_term=t_beta_v,
        shape_actual=shape_actual, shape_idealized=shape_ideal,
        fitted_D1=fitted, per_level_V=per_level, per_geometry_W=per_geom,
        flags=flags)
