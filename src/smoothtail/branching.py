"""Weighted branching: trees, path weights, the Y_l / Z recursions, and pools.

Nodes are tuples of positive integers (the root is the empty tuple); a
materialized tree stores one innovation (N_i, Q_i, (A_ij)) per node.  The
attracting fixed point is sampled by population dynamics: iterate
x -> sum_i A_i x_i + Q on an empirical pool with resampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng as rng_module
from .errors import MemoryCapError, SpecError
from .model import ModelSpec, check_class
from .walks import matvec_sum, vec_norm

NodeId = tuple[int, ...]

ROOT: NodeId = ()
MEMORY_CAP_NODES = 10_000_000


# ---------------------------------------------------------------------------
# node algebra
# ---------------------------------------------------------------------------

def node_prefix(i: NodeId, k: int) -> NodeId:
    """Curtailment i|_k, the first k coordinates."""
    if k > len(i):
        raise SpecError("prefix length exceeds node depth")
    return i[:k]


def node_leq(i: NodeId, j: NodeId) -> bool:
    """i <= j iff i is an ancestor-or-self of j."""
    return len(i) <= len(j) and j[:len(i)] == i


def node_meet(i: NodeId, j: NodeId) -> NodeId:
    """Longest common prefix."""
    k = 0
    for a, b in zip(i, j):
        if a != b:
            break
        k += 1
    return i[:k]


# ---------------------------------------------------------------------------
# materialized trees
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    n_children: int
    q: np.ndarray                    # (d,)
    a: list                          # n_children matrices (d, d)


@dataclass
class WeightedTree:
    """Innovations for all nodes up to a depth, prefix-closed by construction."""

    nodes: dict[NodeId, TreeNode]
    depth: int
    d: int
    mode: str                        # branching mode tag

    def children(self, i: NodeId) -> list[NodeId]:
        return [i + (j,) for j in range(1, self.nodes[i].n_children + 1)]

    def edge_matrix(self, child: NodeId) -> np.ndarray:
        """A_{child}: the weight on the edge from child's parent to child."""
        parent = child[:-1]
        return self.nodes[parent].a[child[-1] - 1]

    def level(self, k: int) -> list[NodeId]:
        return [i for i in self.nodes if len(i) == k]


def expected_total_nodes(spec: ModelSpec, depth: int) -> float:
    en = spec.mean_children()
    return sum(en ** j for j in range(depth + 1))


def grow_tree(spec: ModelSpec, depth: int, rng: np.random.Generator) -> WeightedTree:
    """Materialize all nodes to the given depth with i.i.d. innovations."""
    if depth < 0:
        raise SpecError("depth must be >= 0")
    expect = expected_total_nodes(spec, depth)
    if expect > MEMORY_CAP_NODES:
        raise MemoryCapError(
            f"expected {expect:.3g} nodes exceeds the cap of {MEMORY_CAP_NODES}",
            expected_nodes=expect)
    from .model import sample_family
    nodes: dict[NodeId, TreeNode] = {}
    frontier = [ROOT]
    for lvl in range(depth + 1):
        next_frontier: list[NodeId] = []
        for i in frontier:
            q, a_list, n = sample_family(spec, rng)
            nodes[i] = TreeNode(n_children=n, q=q, a=a_list)
            if lvl < depth:
                next_frontier.extend(i + (j,) for j in range(1, n + 1))
        frontier = next_frontier
        if not frontier:
            break
    return WeightedTree(nodes=nodes, depth=depth, d=spec.d,
                        mode=spec.branching.mode)


def path_weight(tree: WeightedTree, j: NodeId, ji: NodeId) -> np.ndarray:
    """Pi_{j, ji}: the product of edge weights down the unique path j -> ji.

    The empty path gives the identity.
    """
    if not node_leq(j, ji):
        raise SpecError("path_weight requires j <= ji")
    if j not in tree.nodes or (ji not in tree.nodes and len(ji) > 0
                               and ji[:-1] not in tree.nodes):
        raise SpecError("nodes not in tree")
    d = tree.d
    out = np.eye(d)
    for k in range(len(j), len(ji)):
        child = ji[:k + 1]
        out = out @ tree.edge_matrix(child)
    return out


def _subtree_value(tree: WeightedTree, root: NodeId, m: int,
                   leaf_values: dict) -> np.ndarray:
    """[Y_m]_root: the branching sum on the subtree at root, depth m,
    with leaf values looked up by global node id at depth len(root) + m."""
    d = tree.d

    def rec(i: NodeId, rem: int) -> np.ndarray:
        if rem == 0:
            try:
                return np.atleast_1d(np.asarray(leaf_values[i], dtype=float))
            except KeyError:
                raise SpecError(f"missing leaf value for node {i}")
        node = tree.nodes[i]
        acc = node.q.astype(float).copy()
        for j in range(1, node.n_children + 1):
            child = i + (j,)
            acc = acc + node.a[j - 1] @ rec(child, rem - 1)
        return acc

    if m == 0:
        try:
            return np.atleast_1d(np.asarray(leaf_values[root], dtype=float))
        except KeyError:
            raise SpecError(f"missing leaf value for node {root}")
    return rec(root, m)


def evaluate_Yl(tree: WeightedTree, l: int, leaf_values: dict) -> np.ndarray:
    """Y_l = sum_{|i|<l} Pi_i Q_i + sum_{|i|=l} Pi_i X_i (Y_0 = X_root)."""
    if l > tree.depth:
        raise SpecError("tree too shallow for the requested l")
    return _subtree_value(tree, ROOT, l, leaf_values)


def evaluate_Z(tree: WeightedTree, l: int, i: NodeId, k: int,
               leaf_values: dict) -> np.ndarray:
    """Z_{l, ik} = sum_{j <= N_i, j != k} A_{ij} [Y_{l-|i|-1}]_{ij} + Q_i."""
    if l <= len(i):
        raise SpecError("evaluate_Z requires l > |i|")
    node = tree.nodes[i]
    if k < 1 or (node.n_children > 0 and k > node.n_children):
        raise SpecError("child index k must name a child of i")
    acc = node.q.astype(float).copy()
    m = l - len(i) - 1
    for j in range(1, node.n_children + 1):
        if j == k:
            continue
        child = i + (j,)
        acc = acc + node.a[j - 1] @ _subtree_value(tree, child, m, leaf_values)
    return acc


def decompose_check(tree: WeightedTree, i: NodeId, l: int,
                    leaf_values: dict) -> float:
    """Relative residual of the path decomposition identity.

    Y_l equals Pi_i [Y_{l-|i|}]_i + sum_{k <= |i|} Pi_{i|_{k-1}} Z_{l, i|_k}
    algebraically, so the residual is float roundoff only.
    """
    if len(i) > l or l > tree.depth:
        raise SpecError("need |i| <= l <= tree depth")
    left = evaluate_Yl(tree, l, leaf_values)
    head = path_weight(tree, ROOT, i) @ _subtree_value(tree, i, l - len(i),
                                                       leaf_values)
    tail = np.zeros(tree.d)
    for k in range(1, len(i) + 1):
        pref = path_weight(tree, ROOT, i[:k - 1])
        tail = tail + pref @ evaluate_Z(tree, l, i[:k - 1], i[k - 1], leaf_values)
    right = head + tail
    num = float(np.abs(left - right).max())
    den = 1.0 + float(np.abs(left).max())
    return num / den


# ---------------------------------------------------------------------------
# population dynamics
# ---------------------------------------------------------------------------

@dataclass
class FixedPointPool:
    """Empirical sample of the attracting fixed point law."""

    vectors: np.ndarray               # (n, d)
    generation: int
    spec_fingerprint: str = ""
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
    # a fixed N draws nothing and masks nothing
    n = None if spec.branching.mode == "fixed" else spec.branching.sample(rng, size)
    n_max = spec.branching.n if n is None else int(n.max(initial=0))
    slots = max(n_max - skip, 0) if size else 0
    if slots > 0:
        log_w, dirs = spec.ensemble.factors(rng, size * slots)
        check_class(spec, dirs)
        w = np.exp(log_w, out=log_w).reshape(size, slots)
        if n is not None and n.min() < skip + slots:
            w *= np.arange(skip + 1, skip + slots + 1)[None, :] <= n[:, None]
    out = spec.q_law.draw(rng, size, d)
    if slots > 0:
        xs = np.take(pool, rng.integers(0, pool.shape[0], size=(size, slots)),
                     axis=0)
        for j in range(d):
            xs[:, :, j] *= w                      # w_k x_k, in place
        if len(dirs) == 1:
            # y = sum_k w_k x_k in child order, summed on the gathered block;
            # then out_i += sum_j D_ij y_j, left to right as matvec_sum adds
            # (1.0 * y is y, so the 1x1 identity is skipped)
            y = [xs[:, 0, j] for j in range(d)]
            for k in range(1, slots):
                for j in range(d):
                    y[j] += xs[:, k, j]
            P = dirs[0]
            for i in range(d):
                term = y[0] if d == 1 and P[0, 0] == 1.0 else P[i, 0] * y[0]
                for j in range(1, d):
                    term += P[i, j] * y[j]
                out[:, i] += term
        else:
            out += matvec_sum(dirs.reshape(size, slots, d, d), xs)
    return out


def population_iterate(spec: ModelSpec, pool: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """One generation: each output is sum_i A_i X_i + Q with X_i resampled
    uniformly with replacement from the input pool."""
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    if pool.shape[0] == 0:
        raise SpecError("pool must be nonempty")
    out = resampled_sum(spec, pool, pool.shape[0], rng)
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
                       drift_tol: float = 0.02,
                       fingerprint: str = "") -> FixedPointPool:
    """Iterate population dynamics from the point mass at x0.

    Convergence is declared when the relative decile drift between
    successive generations stays below drift_tol for 3 generations in a
    row; a pool that collapses to a point is flagged degenerate.
    """
    if generations < 1:
        raise SpecError("need generations >= 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.d,):
        raise SpecError(f"x0 must have shape ({spec.d},)")
    if spec.q_law.is_zero() and not x0.any():
        pool = np.zeros((pool_size, spec.d))
        return FixedPointPool(vectors=pool, generation=0, degenerate=True,
                              spec_fingerprint=fingerprint)
    pool = np.broadcast_to(x0, (pool_size, spec.d)).copy()
    history = []
    prev_dec = None
    calm = 0
    converged = False
    for g in range(1, generations + 1):
        pool = population_iterate(spec, pool, rng)
        mean, dec = _pool_stats(pool)
        history.append((g, mean, dec.tolist()))
        if prev_dec is not None:
            drift = np.max(np.abs(dec - prev_dec) / (1.0 + np.abs(dec)))
            calm = calm + 1 if drift < drift_tol else 0
            if calm >= 3 and not converged:
                converged = True
        prev_dec = dec
    spread = float(pool.std(axis=0).max())
    center = float(np.abs(pool).mean())
    degenerate = spread <= 1e-12 * (1.0 + center)
    return FixedPointPool(vectors=pool, generation=generations,
                          spec_fingerprint=fingerprint, converged=converged,
                          degenerate=degenerate, history=history)


def sample_fixed_point_replicated(spec: ModelSpec, generations: int,
                                  pool_size: int, x0: np.ndarray,
                                  rngs: list[np.random.Generator],
                                  drift_tol: float = 0.02,
                                  fingerprint: str = "",
                                  threads: int = 1) -> FixedPointPool:
    """Independent replicate pools concatenated, for honest standard errors.

    Resampling with replacement correlates members within one pool, so
    between-replicate spread is the only defensible error bar.  Replicate r
    draws only from rngs[r]; the replicates fan out over ``threads`` workers
    and merge in index order, so the pool does not depend on the worker count.
    """
    n_rep = len(rngs)
    if not 1 <= n_rep <= pool_size:
        raise SpecError("need 1 <= replicates <= pool_size")
    per = pool_size // n_rep
    sizes = [per] * (n_rep - 1) + [pool_size - per * (n_rep - 1)]

    def task(r: int) -> FixedPointPool:
        return sample_fixed_point(spec, generations, sizes[r], x0, rngs[r],
                                  drift_tol=drift_tol, fingerprint=fingerprint)

    # looked up on the rng module at call time, so a wrapper installed there
    # (perfbench's tracer) also sees this fan-out
    parts = rng_module.parallel_map(task, n_rep, threads)
    bounds = [per * r for r in range(n_rep)] + [pool_size]
    return FixedPointPool(vectors=np.vstack([p.vectors for p in parts]),
                          generation=generations, spec_fingerprint=fingerprint,
                          converged=all(p.converged for p in parts),
                          degenerate=any(p.degenerate for p in parts),
                          replicate_bounds=bounds,
                          history=[p.history for p in parts])


def replicate_mean_se(pool: FixedPointPool):
    """(mean, se) of the pool mean using between-replicate variance."""
    if not pool.replicate_bounds or len(pool.replicate_bounds) < 3:
        v = pool.vectors[:, 0] if pool.d == 1 else np.linalg.norm(pool.vectors, axis=1)
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))
    means = []
    b = pool.replicate_bounds
    for a, c in zip(b[:-1], b[1:]):
        block = pool.vectors[a:c]
        v = block[:, 0] if pool.d == 1 else np.linalg.norm(block, axis=1)
        means.append(v.mean())
    means = np.asarray(means)
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(len(means)))
