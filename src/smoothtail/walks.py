"""Matrix products, norms, the projective walk (U_n, S_n), and tilted sampling.

The walk multiplies i.i.d. copies of the transposed edge matrix M = A_1^T,
tracking the direction U_n = M_n ... M_1 . u0 on the unit sphere of the
model's norm and the log scale S_n = log |M_n ... M_1 u0|.  Exponentially
tilted proposals (the h-transform at tilt s, with the eigenfunction read
off a grid) come with exact per-step likelihood ratios, so weighted
averages stay unbiased for nominal expectations no matter how rough the
eigenfunction interpolation is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SingularActionError, SpecError
from .model import CLASS_NONNEG, ModelSpec

UNDERFLOW = 1e-300      # |mx| below this signals structural singularity


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def vec_norm(x: np.ndarray, norm: str) -> np.ndarray:
    """Vector norm along the last axis (l1 or l2)."""
    x = np.asarray(x, dtype=float)
    if norm == "l1":
        out = np.abs(x[..., 0])
        for j in range(1, x.shape[-1]):
            out += np.abs(x[..., j])
        return out
    return np.sqrt((x * x).sum(axis=-1))


def operator_norm(m: np.ndarray, norm: str) -> float:
    """Induced operator norm: max column sum (l1) or top singular value (l2)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if norm == "l1":
        return float(np.abs(m).sum(axis=0).max())
    return float(np.linalg.svd(m, compute_uv=False)[0])


def operator_norms(mats: np.ndarray, norm: str) -> np.ndarray:
    """Batched operator norms for an (n, d, d) stack."""
    mats = np.asarray(mats, dtype=float)
    if norm == "l1":
        cols = np.abs(mats[..., 0, :])
        for i in range(1, mats.shape[-2]):
            cols += np.abs(mats[..., i, :])
        out = cols[..., 0]
        for k in range(1, cols.shape[-1]):
            out = np.maximum(out, cols[..., k])
        return out
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def matvec_sum(mats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_n mats[:, n] @ xs[:, n] for (S, n, d, d) and (S, n, d) stacks.

    Unrolled over the short axes: one vectorised multiply-add per term, the
    inner sum over j left to right, then the outer sum over n, which is the
    order np.einsum("snij,snj->si") adds in for d = 2, and for d = 1 with
    n <= 2.  Elsewhere the two differ in the last few ulps.
    """
    size, n_max, d = xs.shape
    out = np.zeros((size, d))
    if n_max == 0:
        return out
    for i in range(d):
        for n in range(n_max):
            term = mats[:, n, i, 0] * xs[:, n, 0]
            for j in range(1, d):
                term += mats[:, n, i, j] * xs[:, n, j]
            if n == 0:
                acc = term
            else:
                acc += term
        out[:, i] = acc
    return out


def matmul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[r] @ b[r] for two (R, d, d) stacks, summed over j left to right
    like np.einsum("rij,rjk->rik")."""
    out = a[:, :, 0, None] * b[:, None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[:, :, j, None] * b[:, None, j, :]
    return out


def iotas(mats: np.ndarray, norm: str) -> np.ndarray:
    """Batched minimal expansions (min column sum or smallest singular value).

    Non-allowable or singular entries come back as 0; callers decide whether
    that is an error or a diverging moment.
    """
    mats = np.asarray(mats, dtype=float)
    if norm == "l1":
        return mats.sum(axis=-2).min(axis=-1)
    return np.linalg.svd(mats, compute_uv=False)[..., -1]


def iota(m: np.ndarray, norm: str, geom_class: str) -> float:
    """Minimal expansion of m on the sphere.

    Nonnegative/l1: min column sum, which equals min over the positive part
    of the sphere of |m x| and is positive exactly for allowable matrices.
    Invertible/l2: smallest singular value.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if geom_class == CLASS_NONNEG:
        if (m < 0).any():
            raise SpecError("iota under the nonnegative class needs a nonnegative matrix")
        val = float(m.sum(axis=0).min())
        if val <= 0.0:
            raise SpecError("iota is undefined for non-allowable matrices")
        return val
    val = float(np.linalg.svd(m, compute_uv=False)[-1])
    if val <= 0.0:
        raise SpecError("iota is undefined for singular matrices")
    return val


# ---------------------------------------------------------------------------
# projective action and single-path walk
# ---------------------------------------------------------------------------

@dataclass
class PathState:
    """Walk state: direction U (unit), log scale S, step count n."""

    U: np.ndarray
    S: float
    n: int
    norm: str = "l1"


@dataclass
class TiltedSample:
    """Terminal state of one tilted path with its importance weight."""

    state: PathState
    weight: float
    tilt: float
    log_weight: float = 0.0


def act(m: np.ndarray, x: np.ndarray, norm: str = "l1") -> np.ndarray:
    """Projective action m . x = m x / |m x|."""
    y = np.atleast_2d(np.asarray(m, dtype=float)) @ np.asarray(x, dtype=float)
    nrm = float(vec_norm(y, norm))
    if nrm <= UNDERFLOW:
        raise SingularActionError("|m x| underflowed: near-singular or non-allowable draw")
    return y / nrm


def step(state: PathState, m: np.ndarray) -> PathState:
    """One multiplicative step: U' = m . U, S' = S + log|m U|."""
    y = np.atleast_2d(np.asarray(m, dtype=float)) @ state.U
    nrm = float(vec_norm(y, state.norm))
    if nrm <= UNDERFLOW:
        raise SingularActionError("|m U| underflowed at step %d" % (state.n + 1))
    return PathState(U=y / nrm, S=state.S + math.log(nrm), n=state.n + 1,
                     norm=state.norm)


def _unit(u0: np.ndarray, norm: str) -> np.ndarray:
    u0 = np.asarray(u0, dtype=float)
    n = float(vec_norm(u0, norm))
    if n <= 0:
        raise SpecError("u0 must be nonzero")
    return u0 / n


def simulate_walk(spec: ModelSpec, u0: np.ndarray, n: int,
                  rng: np.random.Generator) -> PathState:
    """n nominal steps with M = A_1^T from the model ensemble, P(U_0=u0)=1."""
    if n < 0:
        raise SpecError("walk length must be >= 0")
    state = PathState(U=_unit(u0, spec.norm), S=0.0, n=0, norm=spec.norm)
    if n == 0:
        return state
    mats = spec.ensemble.draw(rng, n)
    for m in mats:
        state = step(state, m.T)
    return state


def walk_trace(spec: ModelSpec, u0: np.ndarray, n: int,
               rng: np.random.Generator) -> list[PathState]:
    """All intermediate states (for CSV path dumps)."""
    states = [PathState(U=_unit(u0, spec.norm), S=0.0, n=0, norm=spec.norm)]
    mats = spec.ensemble.draw(rng, n) if n > 0 else []
    for m in mats:
        states.append(step(states[-1], m.T))
    return states


def trace_table(states: list[PathState]):
    """(columns, rows) for exporting a walk trace as CSV."""
    d = len(states[0].U)
    columns = ["n"] + [f"u{i}" for i in range(d)] + ["S"]
    rows = [(st.n, *st.U.tolist(), st.S) for st in states]
    return columns, rows


# ---------------------------------------------------------------------------
# batched engines
# ---------------------------------------------------------------------------

class StepSampler:
    """Draws walk steps M = A^T, nominally or from a tilted proposal.

    The tilted proposal approximates the h-transform kernel
    q(m | U) ~ |m U|^s e_s(m . U) mu(dm) family by family:

    * finite support: exact enumeration of the tilted probabilities
      (with e_s interpolated from the grid);
    * scalar-times-fixed-matrix: conjugate lognormal tilt of the scalar
      (the direction move is deterministic, so the e_s factor cancels);
    * scaled rotations: conjugate lognormal tilt of the scale, rotation
      part left nominal (e_s is constant for transitive isometries).

    Each draw returns the exact log likelihood ratio
    log f_nominal(m) - log f_proposal(m | U) of the step actually taken.
    """

    def __init__(self, spec: ModelSpec, s: float = 0.0,
                 e_interp: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.spec = spec
        self.s = float(s)
        self.e_interp = e_interp
        self._atoms = spec.ensemble.atoms()
        if self._atoms is not None:
            mats, probs = self._atoms
            self._atoms_T = np.ascontiguousarray(np.swapaxes(mats, -1, -2))
            self._atom_probs = probs
        self._fact = spec.ensemble.scalar_factorization()

    # -- nominal ------------------------------------------------------------

    def nominal(self, rng: np.random.Generator, size: int) -> np.ndarray:
        mats = self.spec.ensemble.draw(rng, size)
        return np.swapaxes(mats, -1, -2)

    # -- tilted -------------------------------------------------------------

    def tilted(self, rng: np.random.Generator, U: np.ndarray):
        """(M (R,d,d), log_ratio (R,)) given current directions U (R,d)."""
        if self.s == 0.0:
            mats = self.nominal(rng, U.shape[0])
            return mats, np.zeros(U.shape[0])
        if self._atoms is not None:
            return self._tilted_atoms(rng, U)
        ens = self.spec.ensemble
        log_mom = ens.log_scalar_moment(self.s)
        if log_mom is None:
            raise SpecError(f"no tilted sampler for family {ens.family!r}")
        if self._fact is not None:
            return self._tilted_scalar_fixed(rng, U, log_mom)
        return self._tilted_rotation(rng, U, log_mom)

    def _tilted_atoms(self, rng, U):
        mats_T, probs = self._atoms_T, self._atom_probs
        R = U.shape[0]
        K = mats_T.shape[0]
        y = np.einsum("kij,rj->rki", mats_T, U)            # (R,K,d)
        nrm = vec_norm(y, self.spec.norm)                  # (R,K)
        np.clip(nrm, UNDERFLOW, None, out=nrm)
        if self.e_interp is not None:
            dirs = y / nrm[:, :, None]
            evals = self.e_interp(dirs.reshape(R * K, -1)).reshape(R, K)
        else:
            evals = np.ones((R, K))
        w = probs[None, :] * nrm ** self.s * evals         # (R,K)
        tot = w.sum(axis=1, keepdims=True)
        q = w / tot
        u = rng.random(R)
        idx = (q.cumsum(axis=1) < u[:, None]).sum(axis=1)
        idx = np.minimum(idx, K - 1)
        picked = mats_T[idx]
        log_ratio = np.log(probs[idx]) - np.log(q[np.arange(R), idx])
        return picked, log_ratio

    def _tilted_scalar_fixed(self, rng, U, log_mom):
        P = self._fact
        R = U.shape[0]
        # conjugate tilt: density w^s f(w) / E W^s, i.e. mean shift in log space
        mu, sigma = self.spec.ensemble.lognormal_params()
        z = rng.standard_normal(R)
        logw = mu + sigma * sigma * self.s + sigma * z
        w = np.exp(logw)
        mats = w[:, None, None] * P.T[None, :, :]
        log_ratio = log_mom - self.s * logw
        return mats, log_ratio

    def _tilted_rotation(self, rng, U, log_mom):
        ens = self.spec.ensemble
        R = U.shape[0]
        z = rng.standard_normal(R)
        logc = ens.mu + ens.sigma * ens.sigma * self.s + ens.sigma * z
        rots = ens._rotations(rng, R)
        mats = np.exp(logc)[:, None, None] * np.swapaxes(rots, -1, -2)
        log_ratio = log_mom - self.s * logc
        return mats, log_ratio


@dataclass
class WalkBatch:
    """Vectorized terminal data for a batch of paths."""

    U: np.ndarray              # (R, d) final directions
    S: np.ndarray              # (R,) final log scales
    log_weight: np.ndarray     # (R,) log importance weights (zeros when nominal)
    opnorm_log_hist: Optional[np.ndarray] = None  # (R, n+1) log ||Pi*_k||
    log_weight_hist: Optional[np.ndarray] = None  # (R, n+1), tilted runs only


def run_walks(spec: ModelSpec, u0: np.ndarray, n: int, reps: int,
              rng: np.random.Generator, sampler: Optional[StepSampler] = None,
              tilted: bool = False, record_hist: bool = False) -> WalkBatch:
    """Run reps independent paths of length n, optionally tilted.

    u0 may be one direction or a (reps, d) array of per-path starting
    directions.  With record_hist the per-step log scales and log operator
    norms of the partial products Pi*_k are kept (needed by the event
    indicators).
    """
    if sampler is None:
        sampler = StepSampler(spec)
    d = spec.d
    u0 = np.asarray(u0, dtype=float)
    if u0.ndim == 2:
        if u0.shape != (reps, d):
            raise SpecError("per-path u0 must have shape (reps, d)")
        U = u0 / np.maximum(vec_norm(u0, spec.norm), UNDERFLOW)[:, None]
    else:
        u = _unit(u0, spec.norm)
        U = np.broadcast_to(u, (reps, d)).copy()
    S = np.zeros(reps)
    logw = np.zeros(reps)
    if record_hist:
        G = np.broadcast_to(np.eye(d), (reps, d, d)).copy()
        g_scale = np.zeros(reps)
        opn_hist = np.zeros((reps, n + 1))
        logw_hist = np.zeros((reps, n + 1)) if tilted else None
    for k in range(n):
        if tilted:
            mats, lr = sampler.tilted(rng, U)
            logw += lr
        else:
            mats = sampler.nominal(rng, reps)
        y = matvec_sum(mats[:, None], U[:, None])
        nrm = vec_norm(y, spec.norm)
        bad = nrm <= UNDERFLOW
        if bad.any():
            raise SingularActionError(
                f"{int(bad.sum())} of {reps} paths hit a singular action at step {k + 1}")
        U = y / nrm[:, None]
        S = S + np.log(nrm)
        if record_hist:
            G = matmul_batch(mats, G)
            gn = operator_norms(G, spec.norm)
            G /= gn[:, None, None]
            g_scale += np.log(gn)
            opn_hist[:, k + 1] = g_scale
            if tilted:
                logw_hist[:, k + 1] = logw
    return WalkBatch(U=U, S=S, log_weight=logw,
                     opnorm_log_hist=opn_hist if record_hist else None,
                     log_weight_hist=logw_hist if record_hist else None)


def tilted_walk(spec: ModelSpec, u0: np.ndarray, n: int, s: float,
                spectral, rng: np.random.Generator) -> TiltedSample:
    """One path from the tilted proposal at tilt s.

    ``spectral`` is the SpectralResult computed at s for this model; its
    eigenfunction drives the proposal and its interpolation error is
    absorbed into the exact weight.
    """
    sampler = StepSampler(spec, s=s,
                          e_interp=None if spectral is None else spectral.e_interp)
    batch = run_walks(spec, u0, n, 1, rng, sampler=sampler, tilted=True)
    lw = float(batch.log_weight[0])
    return TiltedSample(
        state=PathState(U=batch.U[0], S=float(batch.S[0]), n=n, norm=spec.norm),
        weight=math.exp(lw), tilt=s, log_weight=lw)


def tilted_batch(spec: ModelSpec, u0: np.ndarray, n: int, s: float, spectral,
                 reps: int, rng: np.random.Generator,
                 record_hist: bool = False) -> WalkBatch:
    """Vectorized tilted paths (the estimator workhorse)."""
    sampler = StepSampler(spec, s=s,
                          e_interp=None if spectral is None else spectral.e_interp)
    return run_walks(spec, u0, n, reps, rng, sampler=sampler, tilted=True,
                     record_hist=record_hist)


def effective_sample_size(log_weight: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 computed stably in log space."""
    lw = np.asarray(log_weight, dtype=float)
    m = lw.max()
    w = np.exp(lw - m)
    return float(w.sum() ** 2 / (w * w).sum())


def weighted_mean(values: np.ndarray, log_weight: np.ndarray):
    """(mean, se) of values * exp(log_weight) / reps, stable in log space."""
    lw = np.asarray(log_weight, dtype=float)
    v = np.asarray(values, dtype=float)
    m = lw.max() if len(lw) else 0.0
    if not np.isfinite(m):
        m = 0.0
    w = np.exp(lw - m)
    x = v * w
    mean = x.mean()
    se = x.std(ddof=1) / math.sqrt(len(x)) if len(x) > 1 else 0.0
    scale = math.exp(m) if m < 700 else math.inf
    return mean * scale, se * scale


def estimate_Pi_norm_moment(spec: ModelSpec, n: int, s: float, reps: int,
                            rng: np.random.Generator,
                            method: str = "naive", spectral=None):
    """Monte Carlo estimate of E ||Pi_n||^s with its standard error.

    ``naive`` is the plain mean over independent products; ``tilted`` is the
    unbiased importance-sampled version (essential when the summand is
    heavy-tailed, e.g. s near the tail root).
    """
    if reps < 2:
        raise SpecError("need reps >= 2 for a standard error")
    if n == 0 or s == 0.0:
        return 1.0, 0.0
    u0 = np.zeros(spec.d)
    u0[0] = 1.0
    if method == "naive":
        sampler = StepSampler(spec)
        batch = run_walks(spec, u0, n, reps, rng, sampler=sampler,
                          record_hist=True)
        vals = np.exp(s * batch.opnorm_log_hist[:, n])
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps))
    if method == "tilted":
        batch = tilted_batch(spec, u0, n, s, spectral, reps, rng,
                             record_hist=True)
        logvals = s * batch.opnorm_log_hist[:, n] + batch.log_weight
        mean, se = weighted_mean(np.ones(reps), logvals)
        return float(mean), float(se)
    raise SpecError(f"unknown method {method!r}")
