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
from .walks import (StepSampler, effective_sample_size, run_walks,
                    tilted_batch, vec_norm, weighted_mean)

MIN_NT_HARD = 4
MIN_NT_RECOMMENDED = 16
ESS_FLOOR = 100            # effective contributing samples per estimate
VERDICT_Z = 2              # a positive bound must clear this many standard errors
SEARCH_C0 = (1.0, 3.0, 10.0, 30.0)        # the (C0, delta) search grid
SEARCH_DELTA = (0.05, 0.1, 0.2, 0.4)


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
    # a V estimate's cap-weighted term E[1{V} m(U)] (see estimate_PV)
    weighted: Optional[float] = None
    weighted_se: Optional[float] = None
    cap_rates: Optional[np.ndarray] = None


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
    of the indicator, formed in place on the marks, with the paths' final
    directions U between them.  Only the indicator depends on (C0, delta)."""
    batch = tilted_batch(spec, u, n, tilt, spectral, reps, rng,
                         record_hist=True)
    lhs = draw_z_marks(spec, pool_vectors, reps * n, rng).reshape(reps, n)
    np.maximum(lhs, 1.0, out=lhs)
    np.log(lhs, out=lhs)
    lhs += batch.opnorm_log_hist[:, :n]
    return batch.S, batch.log_weight, batch.U, lhs


def estimate_PV(spec: ModelSpec, n: int, params: EventParams, reps: int,
                rng: np.random.Generator, *, tilt: float,
                pool_vectors: np.ndarray, spectral=None,
                u: Optional[np.ndarray] = None,
                cones: Optional[ConeFamily] = None) -> ProbEstimate:
    """P(V_{n,t}) by Monte Carlo at the given tilt (0 is the nominal walk,
    beta the certificate's) with Z-marks from a pool; u defaults to e_1.

    With cones, the same draws also give E[1{V} m(U)], each hit weighed by
    the mass of the cap its final direction U lands in: its rate per cap
    (cap_rates), their sum weighed by the masses (weighted) and that sum's
    walk standard error (weighted_se)."""
    S, log_weight, U, lhs = _draw_V(spec, n, reps, rng, tilt, spectral,
                                    pool_vectors, u)
    ind = _indicator_V_batch(lhs, S, params)
    est = _summarize(ind, log_weight)
    if cones is not None:
        cap = np.full(reps, -1)
        cap[ind] = cones.caps.cell_index(U[ind])
        est.cap_rates = np.array([weighted_mean(cap == j, log_weight)[0]
                                  for j in range(len(cones.masses))])
        est.weighted = float(cones.masses @ est.cap_rates)
        m_U = np.where(ind, cones.masses[cap], 0.0)
        est.weighted_se = float(weighted_mean(m_U, log_weight)[1])
    return est


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


def cone_family(pool_vectors: np.ndarray, J: int, eparams: EventParams,
                spec: ModelSpec) -> ConeFamily:
    """Every cap with its exceedance mass m_j: the share of pool members of
    model norm beyond D / eps whose nearest cap grid point is j.  A member x
    there and a direction U in the same cap have <U, x> > D, so a V path
    ending at U gains m(U), the mass of U's cap."""
    pool_vectors = np.atleast_2d(np.asarray(pool_vectors, dtype=float))
    n, d = pool_vectors.shape
    if d != spec.d:
        raise SpecError("pool dimension mismatch")
    caps, eps = _cap_geometry(spec, J)
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
                        reps: int = 20_000, *, J: int) -> EventParams:
    """Grid search for (C0, delta) maximizing P(V) stability over the window.

    A cell whose cone threshold D / eps lies at or beyond the largest pool
    norm is skipped: the J-cap cone family, with this eps, would find no
    mass beyond it, and finds some in every cell that is kept.
    Score: all window levels must have hits; among those, minimize the range
    of log P(V_n) - n log k(beta) (the rate-shape residual), tie-breaking
    toward larger mean mass.  The window depends on t and rho alone, so
    every cell is scored on the same draws (common random numbers): one
    tilted batch and its Z-marks per window level, drawn level by level.
    The chosen values travel inside EventParams and are recorded in every
    report.
    """
    cells = [EventParams(t=t, C0=C0, delta=delta, rho=rho)
             for C0 in SEARCH_C0 for delta in SEARCH_DELTA]
    _, eps = _cap_geometry(spec, J)
    reach = float(vec_norm(pool_vectors, spec.norm).max())
    cells = [c for c in cells if c.D / eps < reach]
    if not cells:
        raise SpecError(
            f"no (C0, delta) cell at t = {t:.6g} has pool mass beyond its "
            f"cone threshold D/eps (largest pool norm {reach:.6g}); "
            "lower t or enlarge the pool")
    levels = cells[0].window_levels()
    draws = [_draw_V(spec, n, reps, rng, beta, spectral, pool_vectors, u)
             for n in levels]
    best = None
    for params in cells:
        centered = []
        for n, (S, log_weight, _, lhs) in zip(levels, draws):
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
    u = np.atleast_1d(np.asarray(u, dtype=float))
    u_len = float(vec_norm(u, spec.norm))
    if not u_len > 0:
        raise SpecError("u must be nonzero")
    unit, t_unit = u / u_len, t / u_len
    spectral = None
    if spec.ensemble.atoms() is not None:
        spectral = k_grid(OperatorAssembler(spec, build_grid(spec), 0, rng),
                          beta)
    if C0 is None or delta is None:
        eparams = choose_event_params(spec, t_unit, rho, k_beta, rng,
                                      pool_vectors, beta, spectral=spectral,
                                      u=unit, reps=reps_search, J=J)
    else:
        eparams = EventParams(t=t_unit, C0=C0, delta=delta, rho=rho)
    if eparams.n_t < MIN_NT_HARD:
        raise SpecError(
            f"n_t = {eparams.n_t} < {MIN_NT_HARD}: no usable level window at t={t}")
    sparams = SubtreeParams(C1=C1)
    levels = sparams.levels(eparams)
    flags = list(eparams.flags)
    if spec.d >= 3:
        flags.append(f"cap radius sampled over {COVER_TEST_POINTS} directions "
                     "(d >= 3): eps may overstate the cone constant")
    if not levels:
        flags.append(f"L_t empty for C1={C1} in window {eparams.window}")
    en = spec.mean_children()
    thin = spec.branching.p_child() ** C1
    cones = cone_family(pool_vectors, J, eparams, spec)
    geoms = [(p, q, m)
             for p in levels for q in levels if q <= p
             for m in range(0, (q - 1 if q == p else q) + 1)]
    v_streams = spawn(rng, len(levels))
    w_streams = spawn(rng, len(geoms))

    def v_task(i: int) -> ProbEstimate:
        return estimate_PV(spec, levels[i], eparams, reps_v, v_streams[i],
                           tilt=beta, pool_vectors=pool_vectors,
                           spectral=spectral, u=unit, cones=cones)

    def w_task(i: int) -> ProbEstimate:
        p, q, m = geoms[i]
        return estimate_PW(spec, p, q, m, eparams, reps_w, w_streams[i],
                           tilt=beta, spectral=spectral, u=unit)

    v_results = parallel_map(v_task, len(levels), threads)
    w_results = parallel_map(w_task, len(geoms), threads)

    per_level = []
    v_sum = 0.0
    v_var = 0.0
    walk_var = 0.0
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
    v_term = float(cones.masses @ cap_totals)
    v_term_var = walk_var + float(((cap_totals * cones.masses_se) ** 2).sum())
    bound = v_term - w_sum
    bound_se = math.sqrt(v_term_var + w_var)
    n_flagged = sum(est.flagged for est in v_results + w_results)
    outcome, reason = verdict(levels, bound, bound_se, n_flagged)
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
