"""Reference engines for the replay tests: the population step with a
y buffer and a full mat-vec, the pool statistics through np.quantile, and
the orbit coverage binned one step at a time.

The engines in src/ must replay these bit for bit from the same generator
state; test_branching.py and test_model.py compare the outputs with
np.array_equal and the final generator states exactly.
"""

from __future__ import annotations

import numpy as np

from smoothtail.model import ModelSpec, check_class
from smoothtail.spectral import build_grid
from smoothtail.walks import act, matvec_sum, vec_norm


def resampled_sum(spec: ModelSpec, pool: np.ndarray, size: int,
                  rng: np.random.Generator, skip: int = 0) -> np.ndarray:
    """size draws of sum_{skip < i <= N} A_i X_i + Q, (size, d), from fresh
    innovations (N, (A_i), Q) with the X_i resampled uniformly with
    replacement from pool.

    skip = 0 is one population-dynamics step; skip = 1 leaves out the first
    child, which gives the side sums Z of the path decomposition.  Draw
    order: N, the A_i (scales of the slots past N zeroed), Q, then the pool
    indices.

    Each A_i = W_i D_i is kept as its two factors: the scales multiply the
    resampled X_i, and a fixed D is applied once to their sum,
    sum_i W_i D X_i = D sum_i W_i X_i.
    """
    d = spec.d
    n = spec.branching.sample(rng, size)
    slots = max(int(n.max()) - skip, 0) if size else 0
    if slots > 0:
        log_w, dirs = spec.ensemble.factors(rng, size * slots)
        check_class(spec, dirs)
        w = np.exp(log_w).reshape(size, slots)
        if n.min() < skip + slots:
            w = w * (np.arange(skip + 1, skip + slots + 1)[None, :] <= n[:, None])
    out = spec.q_law.draw(rng, size, d).astype(float, copy=False)
    if slots > 0:
        xs = np.take(pool, rng.integers(0, pool.shape[0], size=(size, slots)),
                     axis=0)
        if len(dirs) == 1:
            # y = sum_k w_k x_k, one length-size multiply-add per term
            y = np.empty((size, d))
            for j in range(d):
                acc = y[:, j]
                np.multiply(w[:, 0], xs[:, 0, j], out=acc)
                for k in range(1, slots):
                    acc += w[:, k] * xs[:, k, j]
            del xs                    # the mat-vec needs only the sums
            out += matvec_sum(dirs[None], y[:, None])
        else:
            out += matvec_sum(dirs.reshape(size, slots, d, d),
                              w[:, :, None] * xs)
    return out


_DECILES = np.arange(0.1, 1.0, 0.1)


def _pool_stats(pool: np.ndarray):
    """(mean, deciles) of the pool's first coordinate (d = 1) or l2 norms."""
    if pool.shape[1] == 1:
        proj = pool[:, 0].copy()
    else:
        # the row norm unrolled, squares added left to right as
        # np.linalg.norm adds them
        sq = pool[:, 0] * pool[:, 0]
        for j in range(1, pool.shape[1]):
            sq += pool[:, j] * pool[:, j]
        proj = np.sqrt(sq, out=sq)
    # the mean comes before the sort, whose order would change the pairwise
    # sum; on sorted input np.quantile's partition has no work left to do
    mean = float(proj.mean())
    proj.sort()
    return mean, np.quantile(proj, _DECILES)


def _orbit_coverage(spec: ModelSpec, rng: np.random.Generator, steps: int) -> float:
    """Fraction of sphere-grid cells visited by the projective orbit."""
    grid = build_grid(spec, size=64 if spec.d > 1 else 2)
    x = np.zeros(spec.d)
    x[0] = 1.0
    x = x / vec_norm(x, spec.norm)
    visited = np.zeros(len(grid.points), dtype=bool)
    mats = spec.ensemble.draw(rng, steps)
    for m in mats:
        try:
            x = act(m.T, x, spec.norm)
        except Exception:
            continue
        visited[grid.cell_index(x[None, :])[0]] = True
    return float(visited.mean())
