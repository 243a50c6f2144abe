"""Population dynamics for the attracting fixed point.

The fixed point is sampled by iterating x -> sum_i A_i x_i + Q on an
empirical pool with resampling; independent replicate pools give the
between-replicate error bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng as rng_module
from .errors import SpecError
from .model import ModelSpec
from .walks import apply_batch, vec_norm

BLOCK_ROWS = 1 << 15    # rows of sum A_i X_i + Q formed at a time
DRIFT_TOL = 0.02        # relative decile drift a calm generation stays under


# ---------------------------------------------------------------------------
# population dynamics
# ---------------------------------------------------------------------------

@dataclass
class FixedPointPool:
    """Empirical sample of the attracting fixed point law."""

    vectors: np.ndarray               # (n, d)
    generation: int
    converged: bool = False
    degenerate: bool = False
    replicate_bounds: Optional[list[int]] = None
    history: list = field(default_factory=list)   # per-generation (mean, deciles)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def resampled_sum(spec: ModelSpec, pool: np.ndarray, size: int,
                  rng: np.random.Generator, skip: int = 0,
                  norm: Optional[str] = None,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """size draws of sum_{skip < i <= N} A_i X_i + Q, (size, d), from fresh
    innovations (N, (A_i), Q) with the X_i resampled uniformly with
    replacement from pool; with norm ("l1" or "l2"), the norm of each draw,
    (size,).  The draws are written into out where it is given, an array
    of that shape which must not overlap pool.

    skip = 0 is one population-dynamics step; skip = 1 leaves out the first
    child, which gives the side sums Z of the path decomposition.  Draw
    order: N, the A_i (scales of the slots past N zeroed), Q, then the pool
    indices.

    N, the A_i and Q (as indices into its atoms) are drawn at full size; the
    pool indices are drawn, and the sums formed (and reduced to their
    norms), BLOCK_ROWS rows at a time.  A generator gives the same values
    and ends in the same state whether a draw is taken at once or in
    consecutive pieces, so the result does not depend on the block size,
    and no more than one block of resampled children is ever held.

    Each A_i = W_i D_i is kept as its two factors: the scales multiply the
    resampled X_i, and a fixed D is applied once to their sum,
    sum_i W_i D X_i = D sum_i W_i X_i.
    """
    d = spec.d
    # a fixed N draws nothing and masks nothing
    n = None if spec.branching.mode == "fixed" else spec.branching.sample(rng, size)
    n_max = spec.branching.n if n is None else int(n.max(initial=0))
    slots = max(n_max - skip, 0) if size else 0
    if slots > 0:
        log_w, dirs = spec.ensemble.factors(rng, size * slots)
        w = np.exp(log_w, out=log_w).reshape(size, slots)
        if n is not None and n.min() < skip + slots:
            w *= np.arange(skip + 1, skip + slots + 1)[None, :] <= n[:, None]
        if len(dirs) > 1:
            dirs = dirs.reshape(size, slots, d, d)
    q_idx = spec.q_law.atom_indices(rng, size)
    if out is None:
        out = np.empty((size, d) if norm is None else size)
    for a in range(0, size, BLOCK_ROWS):
        b = min(a + BLOCK_ROWS, size)
        blk = spec.q_law.values(None if q_idx is None else q_idx[a:b], b - a, d)
        if slots > 0:
            _add_children(blk, pool, w[a:b],
                          dirs if dirs.ndim == 3 else dirs[a:b], rng)
        out[a:b] = blk if norm is None else vec_norm(blk, norm)
    return out


def _add_children(out: np.ndarray, pool: np.ndarray, w: np.ndarray,
                  dirs: np.ndarray, rng: np.random.Generator) -> None:
    """out += sum_k w_k D_k X_k over the slots k of each row, with the X_k
    resampled from pool; dirs is one shared (1, d, d) D or (rows, slots,
    d, d)."""
    rows, slots = w.shape
    d = out.shape[1]
    xs = np.take(pool, rng.integers(0, pool.shape[0], size=(rows, slots)),
                 axis=0)
    # column by column: a length-d inner axis makes numpy's loops slow
    for j in range(d):
        xs[:, :, j] *= w                          # w_k x_k, in place
    if dirs.ndim == 3:
        # y = sum_k w_k x_k in child order, summed on the gathered block;
        # then out += D y
        y = xs[:, 0]
        for k in range(1, slots):
            for j in range(d):
                y[:, j] += xs[:, k, j]
        apply_batch(dirs[0], y, out=out)
    else:
        # slot terms summed first, then added to out, which fixes the bits
        acc = apply_batch(dirs[:, 0], xs[:, 0])
        for k in range(1, slots):
            apply_batch(dirs[:, k], xs[:, k], out=acc)
        out += acc


def population_iterate(spec: ModelSpec, pool: np.ndarray,
                       rng: np.random.Generator,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """One generation: each output is sum_i A_i X_i + Q with X_i resampled
    uniformly with replacement from the input pool, written into out (an
    array of the pool's shape apart from it) where it is given."""
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    if pool.shape[0] == 0:
        raise SpecError("pool must be nonempty")
    out = resampled_sum(spec, pool, pool.shape[0], rng, out=out)
    if not np.isfinite(out).all():
        # one retry per flagged sample, then give up
        redo = np.flatnonzero(~np.isfinite(out).all(axis=1))
        out[redo] = resampled_sum(spec, pool, len(redo), rng)
        if not np.isfinite(out).all():
            raise SpecError("numeric overflow persisted after resampling")
    return out


_DECILES = np.arange(0.1, 1.0, 0.1)


def _pool_stats(pool: np.ndarray):
    """(mean, deciles) of the pool's first coordinate (d = 1) or l2 norms."""
    proj = pool[:, 0].copy() if pool.shape[1] == 1 else vec_norm(pool, "l2")
    # the mean comes before the sort, whose order would change the pairwise
    # sum; the deciles follow np.quantile's linear rule on the sorted values:
    # virtual index (n - 1) q and its floor (a lone value is read at index
    # -1 with t = 1), then numpy's _lerp with its t >= 0.5 branch
    mean = float(proj.mean())
    proj.sort()
    n = len(proj)
    vi = (n - 1) * _DECILES
    lo = np.floor(vi) - (n == 1)
    i = lo.astype(np.intp)
    a, b, t = proj[i], proj[i + 1], vi - lo
    diff = b - a
    return mean, np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def sample_fixed_point(spec: ModelSpec, generations: int, pool_size: int,
                       x0: np.ndarray, rng: np.random.Generator,
                       out: Optional[np.ndarray] = None) -> FixedPointPool:
    """Iterate population dynamics from the point mass at x0.

    Convergence is declared when the relative decile drift between
    successive generations stays below DRIFT_TOL for 3 generations in a
    row; a pool that collapses to a point is flagged degenerate.  The last
    generation is written into out, a (pool_size, d) array (a new one
    where it is not given), and the pool's vectors are out itself.
    """
    if generations < 1:
        raise SpecError("need generations >= 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.d,):
        raise SpecError(f"x0 must have shape ({spec.d},)")
    if out is None:
        out = np.empty((pool_size, spec.d))
    if spec.q_law.is_zero() and not x0.any():
        out[...] = 0.0
        return FixedPointPool(vectors=out, generation=0, degenerate=True)
    pool = np.broadcast_to(x0, (pool_size, spec.d)).copy()
    history = []
    prev_dec = None
    calm = 0
    converged = False
    for g in range(1, generations + 1):
        pool = population_iterate(spec, pool, rng,
                                  out=out if g == generations else None)
        mean, dec = _pool_stats(pool)
        history.append((g, mean, dec.tolist()))
        if prev_dec is not None:
            drift = np.max(np.abs(dec - prev_dec) / (1.0 + np.abs(dec)))
            calm = calm + 1 if drift < DRIFT_TOL else 0
            if calm >= 3 and not converged:
                converged = True
        prev_dec = dec
    spread = float(pool.std(axis=0).max())
    center = float(np.abs(pool).mean())
    degenerate = spread <= 1e-12 * (1.0 + center)
    return FixedPointPool(vectors=pool, generation=generations,
                          converged=converged, degenerate=degenerate,
                          history=history)


def sample_fixed_point_replicated(spec: ModelSpec, generations: int,
                                  pool_size: int, x0: np.ndarray,
                                  rngs: list[np.random.Generator],
                                  threads: int = 1) -> FixedPointPool:
    """Independent replicate pools concatenated, for honest standard errors.

    Resampling with replacement correlates members within one pool, so
    between-replicate spread is the only defensible error bar.  Replicate r
    draws only from rngs[r]; the replicates fan out over ``threads`` workers
    and write their last generations into their own row blocks of one
    (pool_size, d) array, so the pool does not depend on the worker count
    and no replicate is copied.
    """
    n_rep = len(rngs)
    if not 1 <= n_rep <= pool_size:
        raise SpecError("need 1 <= replicates <= pool_size")
    per = pool_size // n_rep
    bounds = [per * r for r in range(n_rep)] + [pool_size]
    vectors = np.empty((pool_size, spec.d))

    def task(r: int) -> FixedPointPool:
        a, b = bounds[r], bounds[r + 1]
        return sample_fixed_point(spec, generations, b - a, x0, rngs[r],
                                  out=vectors[a:b])

    # looked up on the rng module at call time, so a wrapper installed there
    # (perfbench's tracer) also sees this fan-out
    parts = rng_module.parallel_map(task, n_rep, threads)
    return FixedPointPool(vectors=vectors,
                          generation=generations,
                          converged=all(p.converged for p in parts),
                          degenerate=any(p.degenerate for p in parts),
                          replicate_bounds=bounds,
                          history=[p.history for p in parts])
