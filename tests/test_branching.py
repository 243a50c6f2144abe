"""Tree algebra, the Y/Z recursions, the decomposition identity, and pools."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import reference_engine as ref
from conftest import (MEAN_D1, d1_lognormal_spec, d1_quarter_spec,
                      d2_finite_pair_spec, d2_lognormal_matrix_spec,
                      d2_rotation_spec, d3_rotation_spec, random13_spec,
                      rng_state)
from reference_oracles import (MemoryCapError, _subtree_value, decompose_check,
                               evaluate_Yl, evaluate_Z, grow_tree,
                               model_to_jsonable, node_leq, node_meet,
                               node_prefix, path_weight, replicate_mean_se)
from smoothtail import branching
from smoothtail.artifacts import read_pool
from smoothtail.branching import (BLOCK_ROWS, _pool_stats,
                                  population_iterate, resampled_sum,
                                  sample_fixed_point,
                                  sample_fixed_point_replicated)
from smoothtail.certificate import draw_z_marks
from smoothtail.cli import main
from smoothtail.errors import SpecError
from smoothtail.model import Branching, FiniteSupport, ModelSpec, QLaw
from smoothtail.rng import substream
from smoothtail.walks import vec_norm


# ---------------------------------------------------------------------------
# node algebra
# ---------------------------------------------------------------------------

def test_node_algebra():
    i = (1, 2, 3)
    j = (1, 2)
    assert node_prefix(i, 2) == (1, 2)
    assert node_leq(j, i) and not node_leq(i, j)
    assert node_meet((1, 2, 3), (1, 2, 5, 1)) == (1, 2)
    assert node_meet((2,), (1, 2)) == ()
    assert len(node_meet(i, j)) <= min(len(i), len(j))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def test_grow_tree_depth_zero():
    tree = grow_tree(d1_lognormal_spec(), 0, substream(1, "t"))
    assert set(tree.nodes) == {()}


def test_grow_tree_binary_counts():
    tree = grow_tree(d1_lognormal_spec(), 3, substream(2, "t"))
    assert len(tree.nodes) == 15
    for k in range(4):
        assert len(tree.level(k)) == 2 ** k


def test_grow_tree_random_n():
    spec = ModelSpec(dimension=1,
                     branching=Branching(mode="random", support=(0, 2, 3),
                                         probs=(0.25, 0.5, 0.25)),
                     ensemble=FiniteSupport(matrices=np.array([[[0.5]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    rng = substream(3, "t")
    sizes = set()
    for _ in range(40):
        tree = grow_tree(spec, 1, rng)
        sizes.add(len(tree.level(1)))
    assert sizes <= {0, 2, 3} and len(sizes) > 1


def test_grow_tree_prefix_closed():
    tree = grow_tree(random13_spec(), 5, substream(4, "t"))
    for i in tree.nodes:
        if i:
            assert i[:-1] in tree.nodes
            assert i[-1] <= tree.nodes[i[:-1]].n_children
    for i in tree.nodes:
        for c in tree.children(i):
            if len(i) < tree.depth:
                assert c in tree.nodes


def test_grow_tree_memory_cap():
    with pytest.raises(MemoryCapError):
        grow_tree(d1_lognormal_spec(), 40, substream(5, "t"))


# ---------------------------------------------------------------------------
# path weights
# ---------------------------------------------------------------------------

def test_path_weight_identity_and_scalars():
    spec = d1_quarter_spec()
    tree = grow_tree(spec, 2, substream(6, "t"))
    assert np.allclose(path_weight(tree, (1,), (1,)), np.eye(1))
    for i in tree.level(2):
        assert path_weight(tree, (), i)[0, 0] == pytest.approx(1 / 16)


def test_path_weight_associativity():
    tree = grow_tree(d2_finite_pair_spec(), 4, substream(7, "t"))
    i = (1, 2, 1, 2)
    full = path_weight(tree, (), i)
    stepwise = np.eye(2)
    for k in range(4):
        stepwise = stepwise @ path_weight(tree, i[:k], i[:k + 1])
    assert np.allclose(full, stepwise, atol=1e-12)


def test_path_weight_non_ancestor_error():
    tree = grow_tree(d1_quarter_spec(), 2, substream(8, "t"))
    with pytest.raises(SpecError):
        path_weight(tree, (2,), (1, 1))


# ---------------------------------------------------------------------------
# Y_l and Z
# ---------------------------------------------------------------------------

def _leaves(tree, l, value=1.0):
    return {i: np.full(tree.d, value) for i in tree.level(l)}


def test_Y0_is_root_value():
    tree = grow_tree(d1_quarter_spec(), 1, substream(9, "t"))
    y0 = evaluate_Yl(tree, 0, {(): np.array([7.0])})
    assert y0[0] == 7.0


def test_Y1_hand_example():
    mats = np.array([[[0.5]], [[0.25]]])
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=mats,
                                            probs=np.array([0.5, 0.5])),
                     q_law=QLaw(kind="deterministic", vector=[1.0]),
                     geom_class="nonnegative-C")
    tree = grow_tree(spec, 1, substream(10, "t"))
    tree.nodes[()].a = [np.array([[0.5]]), np.array([[0.25]])]
    y1 = evaluate_Yl(tree, 1, _leaves(tree, 1))
    assert y1[0] == pytest.approx(1.75)


def test_Yl_zero_when_all_zero():
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=np.array([[[0.5]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    tree = grow_tree(spec, 3, substream(11, "t"))
    y = evaluate_Yl(tree, 3, _leaves(tree, 3, 0.0))
    assert y[0] == 0.0


def test_Yl_recursion_identity():
    # Y_l = sum_i A_i [Y_{l-1}]_i + Q on the materialized tree
    spec = d2_finite_pair_spec()
    tree = grow_tree(spec, 4, substream(12, "t"))
    rng = substream(13, "leaf")
    leaves = {i: rng.random(2) for i in tree.level(4)}
    y4 = evaluate_Yl(tree, 4, leaves)
    root = tree.nodes[()]
    acc = root.q.astype(float).copy()
    for j in range(1, root.n_children + 1):
        acc = acc + root.a[j - 1] @ _subtree_value(tree, (j,), 3, leaves)
    assert np.allclose(y4, acc, atol=1e-12)


def test_Z_empty_sum():
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=np.array([[[0.5]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="deterministic", vector=[3.0]),
                     geom_class="nonnegative-C")
    tree = grow_tree(spec, 2, substream(14, "t"))
    tree.nodes[(1,)].n_children = 1
    tree.nodes[(1,)].a = tree.nodes[(1,)].a[:1]
    z = evaluate_Z(tree, 2, (1,), 1, _leaves(tree, 2))
    assert z[0] == pytest.approx(3.0)


def test_Z_one_level_hand_check():
    spec = d1_quarter_spec()
    tree = grow_tree(spec, 2, substream(15, "t"))
    leaves = {i: np.array([2.0]) for i in tree.level(2)}
    z = evaluate_Z(tree, 2, (1,), 1, leaves)
    # Z = A_{12} X_{12} + Q = 0.25 * 2 + 1
    assert z[0] == pytest.approx(1.5)


def test_decompose_identity_random_instances():
    rng = substream(16, "inst")
    worst = 0.0
    checked = 0
    for trial in range(100):
        d = 1 + (trial % 2)
        spec = d1_lognormal_spec() if d == 1 else d2_finite_pair_spec()
        depth = 2 + int(rng.integers(0, 7))
        tree = grow_tree(spec, depth, substream(17, "tree", trial))
        l = int(rng.integers(1, depth + 1))
        level_nodes = tree.level(l)
        if not level_nodes:
            continue
        node = level_nodes[int(rng.integers(0, len(level_nodes)))]
        i = node[:int(rng.integers(0, l + 1))]
        leaves = {n: rng.random(d) * 2 for n in tree.level(l)}
        res = decompose_check(tree, i, l, leaves)
        worst = max(worst, res)
        checked += 1
    assert checked >= 90
    assert worst < 1e-9


def test_decompose_root_exact_zero():
    tree = grow_tree(d2_finite_pair_spec(), 3, substream(18, "t"))
    leaves = {i: np.ones(2) for i in tree.level(3)}
    assert decompose_check(tree, (), 3, leaves) == 0.0


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def test_population_zero_matrices():
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=np.array([[[0.0]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="deterministic", vector=[5.0]),
                     geom_class="nonnegative-C")
    # all-zero matrices are not allowable, so relax the class check by hand:
    # use a tiny epsilon matrix instead
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=np.array([[[1e-15]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="deterministic", vector=[5.0]),
                     geom_class="nonnegative-C")
    pool = population_iterate(spec, np.ones((100, 1)), substream(19, "p"))
    assert np.allclose(pool, 5.0, atol=1e-12)


def test_population_contraction_fixed_point():
    spec = d1_quarter_spec()
    pool = np.full((1000, 1), 2.0)
    out = population_iterate(spec, pool, substream(20, "p"))
    assert np.allclose(out, 2.0)          # 1/(1 - 2/4) = 2 is invariant


def test_pool_mean_identity():
    spec = d1_lognormal_spec()
    rngs = [substream(21, "p", i) for i in range(6)]
    pool = sample_fixed_point_replicated(spec, 60, 60_000,
                                         np.array([MEAN_D1]), rngs)
    mean, se = replicate_mean_se(pool)
    assert abs(mean - MEAN_D1) < 3 * se


def _random13(spec):
    return replace(spec, branching=Branching(mode="random", support=(1, 3),
                                             probs=(0.5, 0.5)))


@pytest.mark.parametrize("make_spec", [
    d2_lognormal_matrix_spec,
    d2_rotation_spec,
    lambda: _random13(d2_lognormal_matrix_spec()),
    lambda: _random13(d2_rotation_spec()),
], ids=["w-p", "c-r", "w-p-random-n13", "c-r-random-n13"])
@pytest.mark.parametrize("skip", [0, 1], ids=["pool-step", "z-mark"])
def test_resampled_sum_matches_full_stack(make_spec, skip):
    # the factored engine against the full W D stack of the same draws
    # (N, A, Q, indices) contracted by einsum: only roundoff may differ
    spec = make_spec()
    d, size = spec.d, 4000
    pool = np.exp(substream(66, "pool").standard_normal((700, d)))
    got = resampled_sum(spec, pool, size, substream(67, "innov"), skip=skip)
    rng = substream(67, "innov")
    n = spec.branching.sample(rng, size)
    slots = int(n.max()) - skip
    mats = spec.ensemble.draw(rng, size * slots).reshape(size, slots, d, d)
    want = ref.draw_q(spec.q_law, rng, size, d).astype(float)
    idx = rng.integers(0, len(pool), size=(size, slots))
    active = np.arange(skip + 1, skip + slots + 1)[None, :] <= n[:, None]
    want += np.einsum("snij,snj->si", mats * active[:, :, None, None],
                      pool[idx])
    # rotations mix signs, so a component can cancel; its roundoff is set
    # by the magnitude of the terms, which the absolute sum bounds
    scale = np.einsum("snij,snj->si", np.abs(mats) * active[:, :, None, None],
                      pool[idx]) + np.abs(spec.q_law.vector)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-15 * scale)


def _with_q(spec, kind):
    if kind == "zero":
        return replace(spec, q_law=QLaw(kind="zero"))
    if kind == "finite-support":
        vectors = np.arange(1.0, 1.0 + 3 * spec.d).reshape(3, spec.d)
        return replace(spec, q_law=QLaw(kind="finite_support", vectors=vectors,
                                        probs=np.array([0.2, 0.3, 0.5])))
    return spec


@pytest.mark.parametrize("make_spec", [
    d1_lognormal_spec,
    d2_lognormal_matrix_spec,
    d2_rotation_spec,
    d3_rotation_spec,
    d2_finite_pair_spec,
    random13_spec,
    lambda: _random13(d1_lognormal_spec()),
    lambda: _random13(d2_lognormal_matrix_spec()),
], ids=["scalar-d1", "w-p-d2", "c-r-d2", "c-r-d3", "finite-support",
        "finite-support-random-n13", "scalar-random-n13", "w-p-random-n13"])
@pytest.mark.parametrize("q_kind", ["zero", "deterministic", "finite-support"])
@pytest.mark.parametrize("skip", [0, 1], ids=["pool-step", "z-mark"])
def test_resampled_sum_replays_the_reference_engine(make_spec, q_kind, skip):
    # the same draws from the same generator state, bit for bit, and the
    # generator left in the same state
    spec = _with_q(make_spec(), q_kind)
    pool = np.exp(substream(69, "pool").standard_normal((700, spec.d)))
    pool[::3] *= -1.0
    for size in (0, 1, 2, 3000):
        rng, rng_ref = substream(70, "innov", size), substream(70, "innov", size)
        got = resampled_sum(spec, pool, size, rng, skip=skip)
        want = ref.resampled_sum(spec, pool, size, rng_ref, skip=skip)
        assert got.shape == (size, spec.d)
        assert np.array_equal(got, want)
        assert rng_state(rng) == rng_state(rng_ref)


@pytest.mark.parametrize("make_spec", [
    d2_lognormal_matrix_spec,
    d2_rotation_spec,
    d2_finite_pair_spec,
    lambda: _random13(d2_lognormal_matrix_spec()),
    lambda: _with_q(d2_lognormal_matrix_spec(), "finite-support"),
], ids=["w-p", "c-r", "finite-support", "w-p-random-n13", "w-p-finite-q"])
def test_blocked_engine_replays_the_reference_engine(make_spec):
    # a count over several row blocks, not a multiple of the block size: the
    # pool step and the Z-marks (reduced block by block to their norms) are
    # the reference engine's bit for bit, with the generator left as it is
    spec = make_spec()
    pool = np.exp(substream(73, "pool").standard_normal((700, spec.d)))
    size = 2 * BLOCK_ROWS + 1234
    for skip in (0, 1):
        rng, rng_ref = substream(74, "blocks", skip), substream(74, "blocks", skip)
        got = resampled_sum(spec, pool, size, rng, skip=skip)
        assert np.array_equal(got, ref.resampled_sum(spec, pool, size, rng_ref,
                                                     skip=skip))
        assert rng_state(rng) == rng_state(rng_ref)
    rng, rng_ref = substream(75, "z"), substream(75, "z")
    marks = draw_z_marks(spec, pool, size, rng)
    want = vec_norm(ref.resampled_sum(spec, pool, size, rng_ref, skip=1),
                    spec.norm)
    assert np.array_equal(marks, want)
    assert rng_state(rng) == rng_state(rng_ref)


def test_z_marks_working_set_per_mark():
    # the marks are reduced to norms one row block at a time, so the traced
    # peak is the scales and the norms (8 bytes a mark each) plus one block;
    # forming every (count, d) sum first took about 56 bytes a mark
    spec = d2_lognormal_matrix_spec()
    pool = np.exp(substream(76, "pool").standard_normal((20_000, 2)))
    count = 400_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        marks = draw_z_marks(spec, pool, count, substream(77, "z"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert marks.shape == (count,)
    assert peak < 32 * count


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pool_stats_match_norm_and_quantile_exactly(d):
    for n in (1, 2, 3, 9, 10, 11, 101, 25_000):
        pool = np.exp(substream(68, "stats", d).standard_normal((n, d)))
        pool[::3] *= -1.0
        before = pool.copy()
        proj = pool[:, 0] if d == 1 else np.linalg.norm(pool, axis=1)
        mean, dec = _pool_stats(pool)
        assert mean == float(proj.mean())
        assert np.array_equal(dec, np.quantile(proj, np.arange(0.1, 1.0, 0.1)))
        assert np.array_equal(pool, before)        # the pool is not sorted
        ref_mean, ref_dec = ref._pool_stats(pool)
        assert mean == ref_mean and np.array_equal(dec, ref_dec)


def test_pool_stats_single_negative_zero():
    # numpy reads a one-member pool at index -1 with weight 1: b - 0 * 0
    _, dec = _pool_stats(np.array([[-0.0]]))
    assert np.array_equal(np.signbit(dec), np.signbit(
        np.quantile(np.array([-0.0]), np.arange(0.1, 1.0, 0.1))))


@pytest.mark.parametrize("make_spec, x0", [
    (d1_lognormal_spec, [MEAN_D1]),
    (d2_lognormal_matrix_spec, [1.0, 1.0]),
], ids=["scalar-d1", "w-p-d2"])
def test_sample_fixed_point_replays_the_reference_engine(monkeypatch,
                                                         make_spec, x0):
    spec = make_spec()

    def run():
        return sample_fixed_point(spec, 60, 2000, np.array(x0),
                                  substream(72, "sfp"))

    got = run()
    monkeypatch.setattr(branching, "resampled_sum", ref.resampled_sum)
    monkeypatch.setattr(branching, "_pool_stats", ref._pool_stats)
    want = run()
    assert got.history == want.history and len(got.history) == 60
    assert np.array_equal(got.vectors, want.vectors)


def test_replicated_pool_is_the_simulate_engine(tmp_path):
    # one engine for every worker count, and the one `simulate` writes out
    # at --threads 2; each replicate's row block is the pool that
    # sample_fixed_point draws alone
    seed, generations, size = 31, 4, 3001
    for make_spec, x0, reps, bounds in (
            (d1_lognormal_spec, [1.0], 3, [0, 1000, 2000, 3001]),
            (d2_lognormal_matrix_spec, [1.0, 1.0], 8,
             [0, 375, 750, 1125, 1500, 1875, 2250, 2625, 3001])):
        spec = make_spec()

        def build(threads):
            rngs = [substream(seed, "simulate", i) for i in range(reps)]
            return sample_fixed_point_replicated(spec, generations, size,
                                                 np.array(x0), rngs,
                                                 threads=threads)

        one, two = build(1), build(2)
        assert np.array_equal(one.vectors, two.vectors)
        assert one.replicate_bounds == two.replicate_bounds == bounds
        assert one.history == two.history and len(one.history) == reps
        for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
            alone = sample_fixed_point(spec, generations, b - a, np.array(x0),
                                       substream(seed, "simulate", r))
            assert np.array_equal(one.vectors[a:b], alone.vectors)
            assert one.history[r] == alone.history
        work = tmp_path / f"d{spec.d}"
        work.mkdir()
        cfg = {"model": model_to_jsonable(spec), "seed": seed,
               "simulate": {"pool_size": size, "generations": generations,
                            "replicates": reps, "x0": x0}}
        (work / "cfg.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(work / "cfg.json"),
                     "--out", str(work / "out"), "--threads", "2"]) == 0
        assert np.array_equal(read_pool(work / "out/pool.bin").vectors,
                              one.vectors)


def test_pool_convergence_contraction():
    spec = d1_quarter_spec()
    pool = sample_fixed_point(spec, 20, 2000, np.zeros(1), substream(22, "p"))
    assert pool.converged
    assert np.allclose(pool.vectors, 2.0, atol=1e-3)


def test_pool_degenerate_zero():
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=np.array([[[0.25]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    pool = sample_fixed_point(spec, 5, 100, np.zeros(1), substream(23, "p"))
    assert pool.degenerate


def test_pool_nonneg_class_nonneg_coordinates():
    spec = d1_lognormal_spec()
    pool = sample_fixed_point(spec, 10, 5000, np.zeros(1), substream(24, "p"))
    assert (pool.vectors >= 0).all()
    assert np.isfinite(pool.vectors).all()


def test_child_permutation_invariance():
    # reassigning the root's edge-weight tuple across its (i.i.d.) subtrees
    # changes the realization of Y_l but not its law, by exchangeability
    spec = d2_finite_pair_spec()
    rng_leaf = substream(25, "l")
    ys_plain, ys_perm = [], []
    for trial in range(800):
        tree = grow_tree(spec, 3, substream(26, "t", trial))
        leaves = {i: np.abs(rng_leaf.random(2)) for i in tree.level(3)}
        ys_plain.append(evaluate_Yl(tree, 3, leaves)[0])
        root = tree.nodes[()]
        root.a = [root.a[1], root.a[0]]
        ys_perm.append(evaluate_Yl(tree, 3, leaves)[0])
    ks = stats.ks_2samp(ys_plain, ys_perm)
    assert ks.pvalue > 0.01
