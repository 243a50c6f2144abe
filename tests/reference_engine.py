"""Reference engines for the replay tests: the population step with a
y buffer and a full mat-vec (matvec_sum, the unrolled kernel the package
used before walks.apply_batch), the pool statistics through np.quantile, the
orbit coverage binned one step at a time, the grid operator assembled
from cached direction rows at every tilt, k(s) by one power iteration
on that operator, the proximality search with one eigenvalue call per
matrix, and the draws of Q as atom indices, then their vectors.

The engines in src/ must replay the first three bit for bit from the same
generator state; test_branching.py and test_model.py compare the outputs
with np.array_equal and the final generator states exactly.  The operator
of a norm-preserving family is built once in src/, without the factor
|D^T x|^s = (1 +- 3e-16)^s, so test_spectral.py compares it with the
reference entrywise to rounding, and its factored k(s) with this k_grid
to a relative 1e-9.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from smoothtail.errors import AssemblyError, SpecError
from smoothtail.model import ORBIT_CHUNK, ModelSpec, QLaw
from smoothtail.spectral import (SpectralResult, SphereGrid, build_grid,
                                 power_iteration)
from smoothtail.walks import UNDERFLOW, act, vec_norm


def matvec_sum(mats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_n mats[:, n] @ xs[:, n] for (S, n, d, d) and (S, n, d) stacks.

    Unrolled over the short axes: one vectorised multiply-add per term, the
    inner sum over j left to right, then the outer sum over n, which is the
    order np.einsum("snij,snj->si") adds in for d = 2, and for d = 1 with
    n <= 2.  Elsewhere the two differ in the last few ulps.  A mats stack
    with S = 1 applies one matrix per slot to every row.
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
        w = np.exp(log_w).reshape(size, slots)
        if n.min() < skip + slots:
            w = w * (np.arange(skip + 1, skip + slots + 1)[None, :] <= n[:, None])
    out = draw_q(spec.q_law, rng, size, d).astype(float, copy=False)
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


def _orbit_coverage(spec: ModelSpec, rng: np.random.Generator, steps: int,
                    chunk: int = ORBIT_CHUNK) -> float:
    """Fraction of sphere-grid cells visited by the projective orbit, with
    the matrices drawn chunk at a time until every cell is visited (chunk =
    steps draws them all up front)."""
    grid = build_grid(spec, size=64 if spec.d > 1 else 2)
    x = np.zeros(spec.d)
    x[0] = 1.0
    x = x / vec_norm(x, spec.norm)
    visited = np.zeros(len(grid.points), dtype=bool)
    for a in range(0, steps, chunk):
        if visited.all():
            break
        for m in spec.ensemble.draw(rng, min(chunk, steps - a)):
            try:
                x = act(m.T, x, spec.norm)
            except Exception:
                continue
            visited[grid.cell_index(x[None, :])[0]] = True
    return float(visited.mean())


class OperatorAssembler:
    """The grid operator at any tilt s from one cached draw set: each
    draw's |D^T x_i|, scatter indices and interpolation weights are kept,
    and the exact E W^s times |D^T x_i|^s is scattered at every s."""

    def __init__(self, spec: ModelSpec, grid: SphereGrid, mc_reps: int,
                 rng: np.random.Generator):
        self.spec = spec
        self.grid = grid
        ens = spec.ensemble
        atoms = ens.atoms()
        if atoms is not None:
            mats, self._weights = atoms
        else:
            mats = ens.directions(
                rng, max(1, min(mc_reps // 8, 4_000_000 // len(grid))))
            self._weights = np.full(len(mats), 1.0 / len(mats))
        self._rows = self._direction_rows(np.swapaxes(mats, -1, -2))
        if (self._rows[0] <= UNDERFLOW).any():
            raise AssemblyError(
                "an ensemble atom annihilates part of the sphere grid "
                "(zero row/column); the operator is not defined there")

    def _direction_rows(self, mats: np.ndarray):
        """Per (draw, grid point i): |M x_i|, the flat operator indices
        i*G + j of its two interpolation neighbours j, and their weights."""
        X = self.grid.points                       # (G, d)
        Y = np.einsum("kij,gj->kgi", mats, X)      # (K, G, d)
        norms = vec_norm(Y, self.spec.norm)        # (K, G)
        safe = np.maximum(norms, UNDERFLOW)
        dirs = Y / safe[:, :, None]
        K, G = norms.shape
        idx, w = self.grid.interp_rows(dirs.reshape(K * G, -1))
        flat = np.arange(G)[None, :, None] * G + idx.reshape(K, G, 2)
        return norms, flat, w.reshape(K, G, 2)

    def _scatter(self, norms_s: np.ndarray, flat: np.ndarray, w: np.ndarray,
                 coefs: np.ndarray) -> np.ndarray:
        """op.flat[flat[k, i, :]] += coefs[k] * norms_s[k, i] * w[k, i, :]."""
        G = len(self.grid)
        vals = (coefs[:, None, None] * norms_s[:, :, None] * w)     # (K, G, 2)
        return np.bincount(flat.ravel(), weights=vals.ravel(),
                           minlength=G * G).reshape(G, G)

    def assemble(self, s: float) -> np.ndarray:
        """The grid operator at s: exp(log_scalar_moment(s)) times the
        direction operator scattered from the cached rows."""
        norms, flat, w = self._rows
        base = self._scatter(norms ** s, flat, w, self._weights)
        return math.exp(self.spec.ensemble.log_scalar_moment(s)) * base


def k_grid(spec: ModelSpec, s: float, grid: Optional[SphereGrid] = None,
           mc_reps: int = 200_000,
           rng: Optional[np.random.Generator] = None) -> SpectralResult:
    """Spectral radius at tilt s by operator discretization plus power iteration."""
    if rng is None:
        raise SpecError("k_grid needs an rng")
    assembler = OperatorAssembler(spec, grid or build_grid(spec), mc_reps, rng)
    if not spec.ensemble.moment_finite(s):
        raise AssemblyError(f"family declares E||M||^s infinite at s={s}")
    k, e, nu, iters, residual = power_iteration(assembler.assemble(s))
    return SpectralResult(s=s, k=k, e=e, nu=nu, grid=assembler.grid,
                          residual=residual, iterations=iters,
                          direction_draws=len(assembler._weights))


def proximal_matrix(m: np.ndarray) -> bool:
    """Dominant eigenvalue real, simple, gap >= PROXIMAL_TOL, from one
    eigenvalue call on the matrix; a 1 x 1 matrix is proximal iff nonzero."""
    from smoothtail.model import PROXIMAL_TOL
    if m.shape == (1, 1):
        return m[0, 0] != 0.0
    eig = np.linalg.eigvals(m)
    mods = np.abs(eig)
    order = np.argsort(mods)[::-1]
    lam = eig[order[0]]
    if mods[order[0]] == 0.0:
        return False
    if abs(lam.imag) > PROXIMAL_TOL * mods[order[0]]:
        return False
    gap = (mods[order[0]] - mods[order[1]]) / mods[order[0]]
    return bool(gap >= PROXIMAL_TOL)


def first_proximal(mats: np.ndarray) -> Optional[int]:
    """The first index of a stack whose matrix is proximal, one matrix at a
    time, skipping a matrix the eigenvalue solver fails on."""
    for i, m in enumerate(mats):
        try:
            if proximal_matrix(m):
                return i
        except np.linalg.LinAlgError:
            continue
    return None


def draw_q(q_law: QLaw, rng: np.random.Generator, size: int,
           d: int) -> np.ndarray:
    """size draws of Q, (size, d): the atom indices (none for a zero or
    fixed Q), then their vectors."""
    return q_law.values(q_law.atom_indices(rng, size), size, d)
