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
from typing import Optional

import numpy as np

from .errors import SingularActionError, SpecError
from .model import ModelSpec

UNDERFLOW = 1e-300      # |mx| below this signals structural singularity


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def vec_norm(x: np.ndarray, norm: str) -> np.ndarray:
    """Vector norm along the last axis (l1 or l2), unrolled over the
    components and added left to right, as np.abs(x).sum(-1) and
    np.sqrt((x * x).sum(-1)) add them for d < 8."""
    x = np.asarray(x, dtype=float)
    if norm == "l1":
        out = np.abs(x[..., 0])
        for j in range(1, x.shape[-1]):
            out += np.abs(x[..., j])
        return out
    out = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j] * x[..., j]
    # a lone vector's sum of squares is a scalar, which has no buffer
    return np.sqrt(out, out=out) if out.ndim else np.sqrt(out)


def operator_norms(mats: np.ndarray, norm: str) -> np.ndarray:
    """Batched operator norms for an (n, d, d) stack."""
    mats = np.asarray(mats, dtype=float)
    if norm == "l1":
        # column sums on length-n views, rows added top to bottom
        d = mats.shape[-1]
        for k in range(d):
            col = np.abs(mats[..., 0, k])
            for i in range(1, d):
                col += np.abs(mats[..., i, k])
            out = col if k == 0 else np.maximum(out, col, out=out)
        return out
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def apply_batch(mats: np.ndarray, xs: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """mats @ xs over broadcast leading axes: (..., d, d) and (..., d) give
    (..., d).

    One vectorised multiply-add per term, summed over j left to right, the
    order np.einsum("...ij,...j->...i") adds in for d <= 2 (elsewhere the two
    can differ in the last few ulps).  With out, each row's sum is formed first
    and then added to out in place.
    """
    d = xs.shape[-1]
    if out is None:
        out = np.empty(np.broadcast_shapes(mats.shape[:-1], xs.shape))
        for i in range(d):
            acc = out[..., i]
            np.multiply(mats[..., i, 0], xs[..., 0], out=acc)
            for j in range(1, d):
                acc += mats[..., i, j] * xs[..., j]
        return out
    for i in range(d):
        term = mats[..., i, 0] * xs[..., 0]
        for j in range(1, d):
            term += mats[..., i, j] * xs[..., j]
        out[..., i] += term
    return out


def norms_and_iotas(mats: np.ndarray, norm: str):
    """Batched operator norms and minimal expansions (min column sum or
    smallest singular value) of an (n, d, d) stack; under l2 both come from
    one singular value decomposition.

    Non-allowable or singular entries have iota 0; callers decide whether
    that is an error or a diverging moment.
    """
    mats = np.asarray(mats, dtype=float)
    if norm == "l1":
        return operator_norms(mats, norm), mats.sum(axis=-2).min(axis=-1)
    sv = np.linalg.svd(mats, compute_uv=False)
    return sv[..., 0], sv[..., -1]


def _unit(u0: np.ndarray, norm: str) -> np.ndarray:
    u0 = np.asarray(u0, dtype=float)
    n = float(vec_norm(u0, norm))
    if n <= 0:
        raise SpecError("u0 must be nonzero")
    return u0 / n


# ---------------------------------------------------------------------------
# batched engines
# ---------------------------------------------------------------------------

class StepSampler:
    """Draws walk steps M = A^T from the tilted proposal at tilt s.

    The proposal approximates the h-transform kernel
    q(m | U) ~ |m U|^s e_s(m . U) mu(dm):

    * s = 0: the nominal law mu itself, with zero log ratios (the nominal
      walk is the tilt-0 walk);
    * finite support: exact enumeration of p_k |M_k U|^s e_s(M_k . U), e_s
      read off spectral (a SpectralResult at s) or 1 without one;
    * lognormal families W * D: conjugate lognormal tilt of the scale W,
      the direction factor D left nominal (for a fixed D the move is
      deterministic, so |D^T U|^s e_s(D^T . U) cancels; for rotations
      |D^T U| = 1 and e_s is constant).

    A step M = W D^T is returned as its two factors, log W and D^T, so
    the walk never multiplies out the W D^T stack; a fixed D comes back
    as one (1, d, d) factor.  Each draw also returns the exact log
    likelihood ratio log f_nominal(m) - log f_proposal(m | U) of the step
    actually taken.
    """

    def __init__(self, spec: ModelSpec, s: float = 0.0, spectral=None):
        self.spec = spec
        self.s = float(s)
        self.spectral = spectral
        self._atoms = spec.ensemble.atoms()
        if self._atoms is not None:
            mats, probs = self._atoms
            self._atoms_T = np.ascontiguousarray(np.swapaxes(mats, -1, -2))
            self._atom_probs = probs

    def tilted(self, rng: np.random.Generator, U: np.ndarray):
        """(log_scale (R,), D^T (R|1,d,d), log_ratio (R,)) given current
        directions U (R,d); the step is M = exp(log_scale) D^T."""
        R = U.shape[0]
        if self.s == 0.0:
            log_w, dirs = self.spec.ensemble.factors(rng, R)
            return log_w, np.swapaxes(dirs, -1, -2), np.zeros(R)
        if self._atoms is not None:
            return self._tilted_atoms(rng, U)
        return self._tilted_scale(rng, R)

    def _tilted_atoms(self, rng, U):
        mats_T, probs = self._atoms_T, self._atom_probs
        R = U.shape[0]
        K = mats_T.shape[0]
        y = np.einsum("kij,rj->rki", mats_T, U)            # (R,K,d)
        nrm = vec_norm(y, self.spec.norm)                  # (R,K)
        np.clip(nrm, UNDERFLOW, None, out=nrm)
        w = probs[None, :] * nrm ** self.s                 # (R,K)
        if self.spectral is not None:
            dirs = y / nrm[:, :, None]
            w *= self.spectral.e_interp(dirs.reshape(R * K, -1)).reshape(R, K)
        tot = w.sum(axis=1, keepdims=True)
        q = w / tot
        u = rng.random(R)
        idx = (q.cumsum(axis=1) < u[:, None]).sum(axis=1)
        idx = np.minimum(idx, K - 1)
        picked = mats_T[idx]
        log_ratio = np.log(probs[idx]) - np.log(q[np.arange(R), idx])
        return np.zeros(R), picked, log_ratio

    def _tilted_scale(self, rng, R):
        # conjugate tilt: density w^s f(w) / E W^s, i.e. mean shift in log space
        ens = self.spec.ensemble
        sigma = ens.sigma
        z = rng.standard_normal(R)
        logw = ens.mu + sigma * sigma * self.s + sigma * z
        dirs_T = np.swapaxes(ens.directions(rng, R), -1, -2)
        log_ratio = ens.log_scalar_moment(self.s) - self.s * logw
        return logw, dirs_T, log_ratio


@dataclass
class WalkBatch:
    """Vectorized terminal data for a batch of paths."""

    U: np.ndarray              # (R, d) final directions (read-only rows of one when shared)
    S: np.ndarray              # (R,) final log scales
    log_weight: np.ndarray     # (R,) log importance weights (zeros at tilt 0)
    opnorm_log_hist: Optional[np.ndarray] = None  # (R, n+1) log ||Pi*_k||


def run_walks(spec: ModelSpec, u0: Optional[np.ndarray], n: int, reps: int,
              rng: np.random.Generator, sampler: Optional[StepSampler] = None,
              record_hist: bool = False) -> WalkBatch:
    """Run reps independent paths of length n with steps from sampler.

    The default sampler is the tilt-0 one, i.e. the nominal walk with zero
    log weights.  u0 may be one direction, a (reps, d) array of per-path
    starting directions, or None for e_1.  With record_hist the per-step
    log operator norms of the partial products Pi*_k are kept (needed by
    the event indicators).

    While every path has the same direction U (one start, or equal rows of
    u0) and the steps share one direction factor D^T (a fixed P, or the
    d = 1 scalar family), U and the normalised partial product G stay a
    single row that serves the whole batch: only the log scales are per
    path.  The first per-path factor (rotations, finite-support atoms)
    expands them to reps rows.  Each row is computed exactly as it would be
    in the expanded batch, so the result does not depend on when that
    happens.
    """
    if sampler is None:
        sampler = StepSampler(spec)
    d = spec.d
    u0 = np.asarray(np.eye(d)[0] if u0 is None else u0, dtype=float)
    if u0.ndim == 2:
        if u0.shape != (reps, d):
            raise SpecError("per-path u0 must have shape (reps, d)")
        U = u0 / np.maximum(vec_norm(u0, spec.norm), UNDERFLOW)[:, None]
        if (U == U[:1]).all():
            U = U[:1]
    else:
        U = _unit(u0, spec.norm)[None]
    S = np.zeros(reps)
    logw = np.zeros(reps)
    if record_hist:
        G_T = np.eye(d)[None]          # G^T: row k is column k of G
        g_scale = np.zeros(reps)
        # one row per step: each write is contiguous
        opn_hist = np.zeros((n + 1, reps))
    for k in range(n):
        # the step W D^T acts on the direction through D^T alone; log W
        # goes straight into the log scales
        log_scale, dirs_T, lr = sampler.tilted(rng, np.broadcast_to(U, (reps, d)))
        logw += lr
        if len(dirs_T) > len(U):
            U = np.broadcast_to(U, (reps, d))
        y = apply_batch(dirs_T, U)
        nrm = vec_norm(y, spec.norm)
        bad = nrm <= UNDERFLOW
        if bad.any():
            n_bad = int(np.broadcast_to(bad, (reps,)).sum())
            raise SingularActionError(
                f"{n_bad} of {reps} paths hit a singular action at step {k + 1}")
        # column by column: a length-d inner axis makes numpy's loops slow
        for j in range(d):
            y[:, j] /= nrm
        U = y
        S += log_scale + np.log(nrm)
        if record_hist:
            G_T = apply_batch(dirs_T[:, None], G_T)
            gn = operator_norms(np.swapaxes(G_T, -1, -2), spec.norm)
            G_T /= gn[:, None, None]
            g_scale += log_scale + np.log(gn)
            opn_hist[k + 1] = g_scale
    return WalkBatch(U=np.broadcast_to(U, (reps, d)), S=S, log_weight=logw,
                     opnorm_log_hist=opn_hist.T if record_hist else None)


def tilted_batch(spec: ModelSpec, u0: Optional[np.ndarray], n: int, s: float,
                 spectral, reps: int, rng: np.random.Generator,
                 record_hist: bool = False) -> WalkBatch:
    """Vectorized paths at tilt s (the estimator workhorse)."""
    return run_walks(spec, u0, n, reps, rng, StepSampler(spec, s, spectral),
                     record_hist)


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
