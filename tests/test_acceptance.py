"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Reference oracles are closed forms on the two lognormal models: the d = 1
binary model (roots of 0.25 s^2 - s + ln 2, fixed-point mean
1/(1 - 2 e^{-3/4})) and the d = 2 scalar-lognormal times [[1,1],[1,2]]
ensemble (k(1) = e^{-7/8} (3 + sqrt 5)/2).  Run with -s to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (ALPHA_D1, BETA_D1, K1_D2, K_BETA_D1, MEAN_D1, RHO_D1,
                      d1_lognormal_spec, d2_finite_pair_spec,
                      d2_lognormal_matrix_spec, d2_rotation_spec, k_at,
                      random13_spec)
from smoothtail import certificate as cert
from smoothtail import spectral, tails, walks
from smoothtail.branching import (decompose_check, grow_tree,
                                  replicate_mean_se,
                                  sample_fixed_point_replicated)
from smoothtail.cli import main
from smoothtail.rng import substream


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def big_pool():
    """1e6-sample pool of the d=1 reference model (criterion 5)."""
    spec = d1_lognormal_spec()
    rngs = [substream(5001, "pool", i) for i in range(8)]
    t0 = time.monotonic()
    pool = sample_fixed_point_replicated(spec, 120, 1_000_000,
                                         np.array([MEAN_D1]), rngs)
    pool.build_seconds = time.monotonic() - t0
    return pool


def test_criterion_1_tail_index_solver():
    t0 = time.monotonic()
    sol = spectral.solve_alpha_beta(d1_lognormal_spec(), s_max=6.0, tol=1e-8,
                                    rng=substream(1001, "solve"),
                                    mc_reps=1_000_000)
    elapsed = time.monotonic() - t0
    ok = (abs(sol.alpha - ALPHA_D1) <= 0.01 and abs(sol.beta - BETA_D1) <= 0.02
          and elapsed < 60)
    _report(1, ok,
            f"alpha {sol.alpha:.6f} (oracle {ALPHA_D1:.6f}), "
            f"beta {sol.beta:.6f} (oracle {BETA_D1:.6f}), {elapsed:.1f}s")


def test_criterion_2_spectral_vs_products():
    t0 = time.monotonic()
    spec2 = d2_lognormal_matrix_spec()
    grid_k = k_at(spec2, 1.0, 100_000, substream(1002, "grid"))
    prod_k = spectral.k_by_products(spec2, 1.0, [2, 4, 6, 8], 100_000,
                                    substream(1003, "prod"))
    errs = {}
    for name, spec in (("d1-lognormal", d1_lognormal_spec()),
                       ("d2-lognormal-matrix", spec2),
                       ("d2-finite-pair", d2_finite_pair_spec()),
                       ("d2-rotation", d2_rotation_spec())):
        res = k_at(spec, 0.0, 20_000, substream(1004, name))
        errs[name] = abs(res.k - 1.0)
    elapsed = time.monotonic() - t0
    ok = (abs(grid_k.k - K1_D2) / K1_D2 <= 0.02
          and abs(prod_k.k - K1_D2) / K1_D2 <= 0.02
          and max(errs.values()) <= 1e-3 and elapsed < 120)
    _report(2, ok,
            f"k(1) grid {grid_k.k:.5f} / products {prod_k.k:.5f} "
            f"(oracle {K1_D2:.5f}); max |k(0)-1| = {max(errs.values()):.2e}; "
            f"{elapsed:.1f}s")


def test_criterion_3_moment_bound_slope():
    pe = spectral.k_by_products(d1_lognormal_spec(), BETA_D1,
                                list(range(2, 13)), 20_000,
                                substream(1005, "slope"), tilt=BETA_D1)
    rel = abs(pe.slope - (-math.log(2.0))) / math.log(2.0)
    _report(3, rel <= 0.05,
            f"slope {pe.slope:.6f} vs -log2 {-math.log(2):.6f} "
            f"(rel err {rel:.2e}) over n in 2..12")


def test_criterion_4_fixed_point_mean():
    t0 = time.monotonic()
    spec = d1_lognormal_spec()
    rngs = [substream(1006, "pool", i) for i in range(8)]
    pool = sample_fixed_point_replicated(spec, 60, 100_000,
                                         np.array([MEAN_D1]), rngs)
    mean, se = replicate_mean_se(pool)
    elapsed = time.monotonic() - t0
    ok = abs(mean - MEAN_D1) <= 3 * se and elapsed < 300 and pool.converged
    _report(4, ok,
            f"pool mean {mean:.4f} +- {se:.4f} vs oracle {MEAN_D1:.4f} "
            f"(|diff|/se = {abs(mean - MEAN_D1) / se:.2f}), {elapsed:.1f}s")


def test_criterion_5_main_theorem_flatness(big_pool):
    t0 = time.monotonic()
    x = big_pool.vectors[:, 0]
    t_lo, t_hi = np.quantile(x, [0.99, 0.9997])
    flat = tails.scaled_tail_flatness(big_pool.vectors, [1.0], BETA_D1,
                                      float(t_lo), float(t_hi),
                                      rng=substream(1007, "boot"))
    hill_est = tails.hill(x, 0.002, rng=substream(1008, "hill"))
    elapsed = time.monotonic() - t0 + big_pool.build_seconds
    ok = (flat.min_lower_95 > 0 and abs(hill_est.index - BETA_D1) <= 0.4
          and elapsed < 900)
    _report(5, ok,
            f"scaled-min 95% lower bound {flat.min_lower_95:.1f} > 0; "
            f"Hill {hill_est.index:.3f} vs beta {BETA_D1:.3f} "
            f"(|diff| = {abs(hill_est.index - BETA_D1):.3f}); {elapsed:.0f}s")


def test_criterion_6_decomposition_identity():
    rng = substream(1009, "inst")
    worst, checked = 0.0, 0
    for trial in range(100):
        spec = d1_lognormal_spec() if trial % 2 == 0 else d2_finite_pair_spec()
        depth = 2 + int(rng.integers(0, 7))          # depth <= 8
        tree = grow_tree(spec, depth, substream(1010, "tree", trial))
        l = int(rng.integers(1, depth + 1))
        nodes = tree.level(l)
        node = nodes[int(rng.integers(0, len(nodes)))]
        i = node[:int(rng.integers(0, l + 1))]
        leaves = {n: rng.random(spec.d) * 3 for n in tree.level(l)}
        worst = max(worst, decompose_check(tree, i, l, leaves))
        checked += 1
    _report(6, checked == 100 and worst < 1e-9,
            f"{checked} instances, max residual {worst:.2e} < 1e-9")


def test_criterion_7_tilted_sampler():
    spec = d1_lognormal_spec()
    u0 = np.array([1.0])
    n, log_t = 10, -10.0                      # t at the median scale of S_10
    nb = walks.run_walks(spec, u0, n, 200_000, substream(1011, "naive"))
    p_naive = float((nb.S > log_t).mean())
    se_naive = math.sqrt(p_naive * (1 - p_naive) / 200_000)
    tb = walks.tilted_batch(spec, u0, n, 1.0, None, 200_000,
                            substream(1012, "tilt"))
    p_tilt, se_tilt = walks.weighted_mean((tb.S > log_t).astype(float),
                                          tb.log_weight)
    gap = abs(p_tilt - p_naive) / math.hypot(se_naive, se_tilt)
    zb = walks.tilted_batch(spec, u0, n, 0.0, None, 1000,
                            substream(1013, "zero"))
    weights_one = bool((zb.log_weight == 0.0).all())
    ok = gap <= 3 and weights_one
    _report(7, ok,
            f"P(S_10 > log t): naive {p_naive:.5f}, tilted {p_tilt:.5f} "
            f"({gap:.2f} combined SE); zero-tilt weights all 1: {weights_one}")


def test_criterion_8_subtree_counts():
    results = []
    for name, spec in (("binary", d1_lognormal_spec()),
                       ("random-N", random13_spec())):
        for (k, c1) in ((8, 2), (12, 4)):
            mean, se, pred = cert.expected_count_check(
                spec, c1, k, 2000, substream(1014, name, k * 10 + c1))
            ok = abs(mean - pred) <= 3 * se if se > 0 else mean == pred
            results.append((name, k, c1, mean, pred, ok))
    all_ok = all(r[-1] for r in results)
    detail = "; ".join(f"{n}(k={k},C1={c}): {m:.1f} vs {p:.0f}"
                       for n, k, c, m, p, _ in results)
    _report(8, all_ok, detail)


def test_criterion_9_rate_shape():
    spec = d1_lognormal_spec()
    n_t = 25
    t = math.exp(n_t * RHO_D1)
    params = cert.EventParams(t=t, C0=10.0, delta=0.2, rho=RHO_D1)
    assert params.n_t == n_t
    centered = []
    for n in params.window_levels():
        est = cert.estimate_tail_prob(spec, n, t, 200_000,
                                      substream(1015, "rate", n),
                                      tilt=BETA_D1)
        centered.append(math.log(est.value)
                        - (n * math.log(K_BETA_D1) - BETA_D1 * RHO_D1 * n_t
                           - 0.5 * math.log(n_t)))
    spread = max(centered) - min(centered)
    _report(9, spread < 1.5,
            f"centered log P(|Pi_n u| > t) over levels "
            f"{params.window_levels()}: range {spread:.3f} < 1.5")


def test_criterion_10_certificate(d1_pool):
    spec = d1_lognormal_spec()
    x = d1_pool.vectors
    # consistency at the 99.9% pool quantile
    t_emp = float(np.quantile(x[:, 0], 0.999))
    rep = cert.lower_bound(spec, np.array([1.0]), t_emp, RHO_D1, BETA_D1,
                           K_BETA_D1, C1=2, pool_vectors=x,
                           rng=substream(1016, "lb"), reps_v=60_000,
                           reps_w=10_000, reps_search=10_000)
    emp = float((x[:, 0] > t_emp).mean())
    emp_se = math.sqrt(emp * (1 - emp) / len(x))
    consistent = rep.bound <= emp + 3 * emp_se
    # V-term shape across C1 at a scale where every L_t is nonempty
    t_shape = math.exp(49 * RHO_D1)
    fitted, vterms = {}, {}
    for c1 in (2, 4, 6):
        r = cert.lower_bound(spec, np.array([1.0]), t_shape, RHO_D1, BETA_D1,
                             K_BETA_D1, C1=c1, pool_vectors=x,
                             rng=substream(1017, "shape", c1),
                             C0=10.0, delta=0.2, reps_v=60_000, reps_w=6_000)
        fitted[c1] = r.fitted_D1
        vterms[c1] = r.t_beta_v_term
    monotone = vterms[2] > vterms[4] > vterms[6] > 0
    vals = list(fitted.values())
    stable = max(vals) / min(vals) < 2.0
    ok = consistent and monotone and stable
    _report(10, ok,
            f"bound {rep.bound:.3e} <= tail {emp:.3e} + 3se: {consistent}; "
            f"t^b V-term {vterms[2]:.2e}/{vterms[4]:.2e}/{vterms[6]:.2e} "
            f"monotone: {monotone}; fitted D1 spread "
            f"{max(vals) / min(vals):.2f} < 2: {stable}")


def test_criterion_11_determinism(tmp_path):
    model = {
        "dimension": 1,
        "branching": {"mode": "fixed", "n": 2},
        "ensemble": {"family": "scalar_lognormal", "mu": -1.0, "sigma2": 0.5},
        "q_law": {"kind": "deterministic", "vector": [1.0]},
        "class": "nonnegative-C",
    }
    cfg = {"model": model, "seed": 424242,
           "spectrum": {"s_grid": [0.0, 1.0, 2.5], "mc_reps": 50_000},
           "simulate": {"pool_size": 24_000, "generations": 20,
                        "replicates": 8, "x0": [18.0]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = {}
    for threads in (1, 8):
        out = tmp_path / f"w{threads}"
        for command in ("spectrum", "simulate"):
            rc = main([command, "--config", str(cfg_path), "--out", str(out),
                       "--threads", str(threads)])
            assert rc == 0
        blobs[threads] = {name: (out / name).read_bytes()
                          for name in ("spectrum.csv", "pool.bin",
                                       "convergence.csv", "spectral_s0.json")}
    identical = blobs[1] == blobs[8]
    _report(11, identical,
            "spectrum + simulate outputs byte-identical at 1 and 8 workers: "
            f"{identical}")
