"""Reference oracles: the proof's tree structure and one-path estimators.

The paper's argument runs on a materialized weighted tree: the node
algebra, the branching sum Y_l, the side sums Z of the path decomposition

    Y_l = Pi_i [Y_{l-|i|}]_i + sum_{k <= |i|} Pi_{i|k-1} Z_{l, i|k},

and the sparse all-ones subtree whose expected counts weight the
certificate's sums.  No command materializes a tree, so these live here,
beside the tests that check the structure against them.  So do two checks
of the package's estimates that no command runs: k(s) from the growth of
E||Pi_n||^s, which cross-checks the grid operator's spectral radius, and
the between-replicate error bar of a pool's mean.  indicator_V and
empirical_survival are the one-path and one-curve twins of
certificate._indicator_V_batch and tails.scaled_tail_flatness; the tests
check the package's batched forms against them.

grow_tree visits the nodes level by level and draws, per node, N, the
A_i, Q, then (fixed N) a uniform permutation of the children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import reference_engine as ref
from smoothtail.branching import FixedPointPool
from smoothtail.certificate import EventParams, HitSummary, ProbEstimate
from smoothtail.errors import AssemblyError, SmoothtailError, SpecError
from smoothtail.model import FiniteSupport, LognormalScalarMatrix, ModelSpec
from smoothtail.tails import MIN_EXCEEDANCES
from smoothtail.walks import StepSampler, run_walks, tilted_batch

NodeId = tuple[int, ...]
ROOT: NodeId = ()

MEMORY_CAP_NODES = 10_000_000


class MemoryCapError(SmoothtailError):
    """Materializing the tree would exceed the node cap."""

    def __init__(self, message, expected_nodes=None):
        super().__init__(message)
        self.expected_nodes = expected_nodes


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
# node innovations
# ---------------------------------------------------------------------------

def exchangeify(mats: list[np.ndarray], q: np.ndarray,
                rng: np.random.Generator) -> tuple[list[np.ndarray], np.ndarray]:
    """Apply a uniform random permutation to the matrix tuple.

    The multiset of matrices is unchanged; this enforces exchangeability of
    fixed-N joint samplers.
    """
    n = len(mats)
    if n <= 1:
        return mats, q
    perm = rng.permutation(n)
    return [mats[i] for i in perm], q


def sample_family(spec: ModelSpec, rng: np.random.Generator):
    """One node innovation: (Q, [A_1..A_N], N)."""
    n = spec.branching.sample(rng, 1)[0]
    if n > 0:
        mats = spec.ensemble.draw(rng, n)
        a_list = [mats[i] for i in range(n)]
    else:
        a_list = []
    q = ref.draw_q(spec.q_law, rng, 1, spec.d)[0]
    if spec.branching.mode == "fixed":
        a_list, q = exchangeify(a_list, q, rng)
    return q, a_list, int(n)


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
# certificate events and the sparse subtree
# ---------------------------------------------------------------------------

def indicator_V(opnorm_log: np.ndarray, pi_u_final: float, z_marks: np.ndarray,
                params: EventParams, n: int) -> bool:
    """One-path event: |Pi*_n u| >= t and
    ||Pi*_k|| (|Z_{k+1}| v 1) <= e^{-(n-k) delta} C0 t for all k < n."""
    opnorm_log = np.asarray(opnorm_log, dtype=float)
    z_marks = np.asarray(z_marks, dtype=float)
    if len(opnorm_log) < n or len(z_marks) < n:
        raise SpecError("need ||Pi*_k|| for k < n and n Z-marks")
    if pi_u_final < params.t:
        return False
    ks = np.arange(n)
    rhs = math.log(params.C0 * params.t) - (n - ks) * params.delta
    lhs = opnorm_log[:n] + np.log(np.maximum(z_marks[:n], 1.0))
    return bool((lhs <= rhs).all())


def estimate_tail_prob(spec: ModelSpec, n: int, t: float, reps: int,
                       rng: np.random.Generator, *, tilt: float, spectral=None,
                       u: Optional[np.ndarray] = None) -> ProbEstimate:
    """P(|Pi*_n u| > t), the one-path scale exceedance alone."""
    batch = tilted_batch(spec, u, n, tilt, spectral, reps, rng)
    return HitSummary().add(batch.log_weight, batch.S > math.log(t)).estimate()


def build_sparse_subtree(tree, C1: int, eparams: EventParams) -> list:
    """All tree nodes whose level lies in L_t and whose last C1 coordinates
    are all 1."""
    levels = set(eparams.levels(C1))
    if levels and max(levels) > tree.depth:
        raise SpecError("tree too shallow for the requested level set")
    ones = (1,) * C1
    out = []
    for i in tree.nodes:
        if len(i) in levels and len(i) >= C1 and i[-C1:] == ones:
            out.append(i)
    return sorted(out)


def expected_count_check(spec: ModelSpec, C1: int, level: int, reps: int,
                         rng: np.random.Generator):
    """(empirical mean count, se, predicted (E N)^{level - C1} P(N >= 1)^{C1}).

    Simulates the exact marginal law of the sparse-subtree count at one
    level: a branching population to level - C1, then C1 thinning steps
    with the probability that the 1-child exists.
    """
    if level < C1:
        raise SpecError("level must be >= C1")
    br = spec.branching
    if br.mode == "fixed":
        support = np.array([br.n])
        probs = np.array([1.0])
    else:
        support = np.asarray(br.support, dtype=np.int64)
        probs = np.asarray(br.probs, dtype=float)
    p_child1 = float(probs[support >= 1].sum())
    counts = np.ones(reps, dtype=np.int64)
    for _ in range(level - C1):
        total = int(counts.sum())
        if total == 0:
            break
        draws = support[rng.choice(len(support), size=total, p=probs)]
        # children per replicate: differences of the running total of draws
        # at the replicates' boundaries (a replicate may have died out)
        running = np.concatenate([[0], np.cumsum(draws)])
        counts = np.diff(running[np.concatenate([[0], np.cumsum(counts)])])
    for _ in range(C1):
        if p_child1 >= 1.0:
            break
        counts = rng.binomial(counts, p_child1)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    predicted = spec.mean_children() ** (level - C1) * p_child1 ** C1
    return mean, se, predicted


# ---------------------------------------------------------------------------
# product-regression estimate of k(s)
# ---------------------------------------------------------------------------

class RecordedRatios:
    """Passes a sampler's steps through and keeps each step's log
    likelihood ratios, (reps,) per step."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.log_ratios = []

    def tilted(self, rng, U):
        step = self.sampler.tilted(rng, U)
        self.log_ratios.append(step[2])
        return step


@dataclass
class ProductsEstimate:
    """k(s) from the growth rate of E||Pi_n||^s over n."""

    k: float
    c_s: float                 # exp(intercept), the prefactor of the moment bound
    slope: float
    per_n: list                # rows (n, log_mean, se_of_log)
    low_confidence: bool


def k_by_products(spec: ModelSpec, s: float, n_list, reps: int,
                  rng: np.random.Generator, tilt: float = 0.0,
                  spectral=None) -> ProductsEstimate:
    """Fit log E||Pi_n||^s against n; the slope exponentiates to k(s).

    The nominal walk (tilt 0) collapses for heavy-tailed summands (relative
    SE grows like a power of k(2s)/k(s)^2 per step); the walk at tilt s
    keeps the same expectation, through the running log weights, with
    exponential variance reduction.  The running log weights are the
    cumulative sums of the recorded step ratios, added in the order
    run_walks adds them.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if len(n_list) < 2:
        raise SpecError("need at least two distinct path lengths")
    n_max = max(n_list)
    sampler = RecordedRatios(StepSampler(spec, tilt, spectral))
    batch = run_walks(spec, None, n_max, reps, rng, sampler=sampler,
                      record_hist=True)
    log_weight = np.cumsum([np.zeros(reps)] + sampler.log_ratios, axis=0)
    rows = []
    low_conf = False
    for n in n_list:
        logvals = s * batch.opnorm_log_hist[:, n] + log_weight[n]
        est = HitSummary().add(logvals, np.ones(reps, dtype=bool)).estimate()
        mean, se = est.value, est.se
        if not (mean > 0) or not np.isfinite(mean):
            raise AssemblyError(f"empirical moment vanished at n={n}")
        rel = se / mean
        if rel > 0.5:
            low_conf = True
        rows.append((n, math.log(mean), rel))
    ns = np.array([r[0] for r in rows], dtype=float)
    ys = np.array([r[1] for r in rows])
    slope, intercept = np.polyfit(ns, ys, 1)
    return ProductsEstimate(k=float(math.exp(slope)), c_s=float(math.exp(intercept)),
                            slope=float(slope), per_n=rows,
                            low_confidence=low_conf)


# ---------------------------------------------------------------------------
# pools and empirical tails
# ---------------------------------------------------------------------------

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


def empirical_survival(pool_vectors: np.ndarray, u: np.ndarray,
                       t_grid: np.ndarray) -> np.ndarray:
    """P_hat(<u, X> > t) for each t in t_grid."""
    proj = np.sort(np.asarray(pool_vectors, dtype=float)
                   @ np.asarray(u, dtype=float))
    n = len(proj)
    if n == 0:
        raise SpecError("pool must be nonempty")
    t_grid = np.asarray(t_grid, dtype=float)
    counts = n - np.searchsorted(proj, t_grid, side="right")
    return counts / n


@dataclass
class DirectionEntry:
    u: np.ndarray
    scaled: float               # t^beta * survival
    se: float
    exceedances: int
    resolvable: bool


def directional_profile(pool_vectors: np.ndarray, u_list, t: float,
                        beta: float,
                        min_exceedances: int = MIN_EXCEEDANCES) -> list[DirectionEntry]:
    """t^beta * P_hat(<u,X> > t) per direction (K r(u) up to common scale).

    Directions whose exceedance count falls under the floor are flagged,
    not fatal.
    """
    out = []
    n = np.atleast_2d(pool_vectors).shape[0]
    for u in u_list:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        proj = np.asarray(pool_vectors, dtype=float) @ u
        cnt = int((proj > t).sum())
        p = cnt / n
        se = math.sqrt(max(p * (1 - p), 0.0) / n)
        out.append(DirectionEntry(u=u, scaled=t ** beta * p,
                                  se=t ** beta * se, exceedances=cnt,
                                  resolvable=cnt >= min_exceedances))
    return out


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------

def model_to_jsonable(spec: ModelSpec) -> dict:
    ens = spec.ensemble
    if isinstance(ens, FiniteSupport):
        e = {"family": "finite_support", "matrices": ens.matrices.tolist(),
             "probs": ens.probs.tolist()}
    elif isinstance(ens, LognormalScalarMatrix):
        if ens.matrix.tolist() == [[1.0]]:    # W times the 1x1 identity
            e = {"family": "scalar_lognormal", "mu": ens.mu, "sigma2": ens.sigma2}
        else:
            e = {"family": "lognormal_fixed_matrix", "mu": ens.mu,
                 "sigma2": ens.sigma2, "matrix": ens.matrix.tolist()}
    else:
        e = {"family": "lognormal_rotation", "mu": ens.mu, "sigma2": ens.sigma2}
    if ens.finite_moment_s_max is not None:
        e["finite_moment_s_max"] = ens.finite_moment_s_max
    br = spec.branching
    b = ({"mode": "fixed", "n": br.n} if br.mode == "fixed" else
         {"mode": "random",
          "pmf": {str(k): p for k, p in zip(br.support, br.probs)}})
    q = spec.q_law
    if q.kind == "zero":
        qd = {"kind": "zero"}
    elif q.kind == "deterministic":
        qd = {"kind": "deterministic", "vector": q.vector.tolist()}
    else:
        qd = {"kind": "finite_support", "vectors": q.vectors.tolist(),
              "probs": q.probs.tolist()}
    return {"dimension": spec.dimension, "branching": b, "ensemble": e,
            "q_law": qd, "class": spec.geom_class, "norm": spec.norm}
