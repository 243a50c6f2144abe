"""End-to-end (N-random) pipeline.

With N uniform on {1, 3} and the same lognormal edge weights, E N = 2 and
m(s) matches the fixed-N reference model exactly, so every closed-form
oracle carries over while the tree shape, the Z-marks, and the subtree
counts all run through the random-branching code paths.
"""

import math

import numpy as np
import pytest

from conftest import ALPHA_D1, BETA_D1, K_BETA_D1, MEAN_D1, RHO_D1
from reference_oracles import replicate_mean_se
from smoothtail import certificate as cert
from smoothtail import spectral, tails
from smoothtail.branching import sample_fixed_point_replicated
from smoothtail.model import Branching, LognormalScalarMatrix, ModelSpec, QLaw
from smoothtail.rng import substream


def random_n_lognormal_spec(
        branching=Branching(mode="random", support=(1, 3), probs=(0.5, 0.5))
) -> ModelSpec:
    return ModelSpec(
        dimension=1,
        branching=branching,
        ensemble=LognormalScalarMatrix(mu=-1.0, sigma2=0.5, matrix=[[1.0]]),
        q_law=QLaw(kind="deterministic", vector=[1.0]),
        geom_class="nonnegative-C")


@pytest.fixture(scope="module")
def rn_solution():
    return spectral.solve_alpha_beta(random_n_lognormal_spec(), s_max=6.0,
                                     tol=1e-7, rng=substream(8801, "solve"),
                                     mc_reps=400_000)


@pytest.fixture(scope="module")
def rn_pool():
    # deep enough that the resolvable tail reaches its power-law regime
    rngs = [substream(8802, "pool", i) for i in range(8)]
    return sample_fixed_point_replicated(random_n_lognormal_spec(), 120,
                                         400_000, np.array([MEAN_D1]), rngs)


def test_random_n_roots(rn_solution):
    assert rn_solution.alpha == pytest.approx(ALPHA_D1, abs=0.01)
    assert rn_solution.beta == pytest.approx(BETA_D1, abs=0.02)
    assert rn_solution.rho == pytest.approx(RHO_D1, rel=0.02)


def test_random_n_pool_mean(rn_pool):
    mean, se = replicate_mean_se(rn_pool)
    assert abs(mean - MEAN_D1) < 3 * se


def test_random_n_tails(rn_pool, rn_solution):
    report = tails.tail_report(rn_pool.vectors, np.array([1.0]),
                               rn_solution.beta, rng=substream(8803, "t"),
                               window_quantiles=(0.99, 0.9995))
    assert report.flatness.min_lower_95 > 0
    best = min(report.hill_by_fraction.values(),
               key=lambda h: abs(h.index - rn_solution.beta))
    assert abs(best.index - rn_solution.beta) <= 0.4


def test_random_n_certificate(rn_pool, rn_solution):
    spec = random_n_lognormal_spec()
    x = rn_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    rep = cert.lower_bound(spec, np.array([1.0]), t, rn_solution.rho,
                           rn_solution.beta, rn_solution.k_beta, C1=2,
                           pool_vectors=x, rng=substream(8804, "lb"),
                           C0=10.0, delta=0.2, reps_v=40_000, reps_w=6_000)
    emp = float((x[:, 0] > t).mean())
    emp_se = math.sqrt(emp * (1 - emp) / len(x))
    assert rep.bound <= emp + 3 * emp_se
    assert all(r["hits"] > 0 for r in rep.per_level_V)
    # non-integer expected counts never appear here (E N = 2), but the
    # coefficients must follow the branching mean, not the fixed-N value
    for r in rep.per_level_V:
        assert r["count"] == pytest.approx(2.0 ** (r["level"] - 2))


def test_random_n_certificate_is_flagged_and_never_positive(d1_pool):
    # the Z-marks follow the plain law of N, not the size-biased law of a
    # node on a path, and the pairs are counted by (E N) powers: under a
    # random N both can overstate the bound, so the report names them and
    # the verdict refuses positive; a random law on one value is fixed N
    x = d1_pool.vectors
    t = float(np.quantile(x[:, 0], 0.999))
    laws = {True: Branching(mode="random", support=(1, 3), probs=(0.5, 0.5)),
            False: Branching(mode="random", support=(1, 2), probs=(0.0, 1.0))}
    for random_n, law in laws.items():
        rep = cert.lower_bound(random_n_lognormal_spec(law), np.array([1.0]), t,
                               RHO_D1, BETA_D1, K_BETA_D1, C1=2, pool_vectors=x,
                               rng=substream(8805, "lb"), C0=10.0, delta=0.2,
                               reps_v=2_000, reps_w=500)
        flagged = [f for f in rep.flags if f.startswith("random N: Z-marks")]
        assert len(flagged) == random_n
        reason = [f for f in rep.flags if f.startswith("not positive")]
        assert rep.verdict != "positive"
        assert ("random N" in reason[0]) == random_n
    assert cert.verdict([4], 1.0, 0.01, 0, random_n=True) == (
        "not positive at these parameters",
        "not positive: random N: Z-marks and pair counts not exact")
    assert cert.verdict([4], 1.0, 0.01, 0, random_n=False)[0] == "positive"
