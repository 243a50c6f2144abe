"""End-to-end d = 2 pipeline: roots, pool, tails, and the certificate.

The ensemble is W * [[1,1],[1,2]] with log W ~ N(-1 - log lambda_P, 1/2),
so m(s) = 2 exp(-s + s^2/4) exactly as in the d = 1 reference model:
the same roots and drift, but with genuine matrix products, a quarter-
circle grid, and directional cones in play.
"""

import math

import numpy as np
import pytest

from conftest import ALPHA_D1, BETA_D1, K_BETA_D1, LAMBDA_P, RHO_D1, k_at
from smoothtail import certificate as cert
from smoothtail import spectral, tails
from smoothtail.branching import sample_fixed_point_replicated
from smoothtail.model import Branching, LognormalScalarMatrix, ModelSpec, QLaw
from smoothtail.rng import substream

P = np.array([[1.0, 1.0], [1.0, 2.0]])
MU2 = -1.0 - math.log(LAMBDA_P)


def d2_rooted_spec() -> ModelSpec:
    return ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalScalarMatrix(mu=MU2, sigma2=0.5,
                                                    matrix=P),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
                     geom_class="nonnegative-C")


def mean_oracle() -> np.ndarray:
    ew = math.exp(MU2 + 0.25)
    return np.linalg.solve(np.eye(2) - 2 * ew * P, np.ones(2))


@pytest.fixture(scope="module")
def d2_solution():
    return spectral.solve_alpha_beta(d2_rooted_spec(), s_max=6.0, tol=1e-7,
                                     rng=substream(9001, "solve"),
                                     mc_reps=400_000)


@pytest.fixture(scope="module")
def d2_pool():
    rngs = [substream(9002, "pool", i) for i in range(8)]
    return sample_fixed_point_replicated(d2_rooted_spec(), 60, 200_000,
                                         mean_oracle(), rngs)


def test_d2_roots_match_design(d2_solution):
    assert d2_solution.alpha == pytest.approx(ALPHA_D1, abs=0.01)
    assert d2_solution.beta == pytest.approx(BETA_D1, abs=0.02)
    assert d2_solution.rho == pytest.approx(RHO_D1, rel=0.02)
    assert d2_solution.k_beta == pytest.approx(K_BETA_D1, rel=0.01)


def test_d2_pool_matrix_mean(d2_pool):
    means = np.vstack([d2_pool.vectors[a:c].mean(axis=0)
                       for a, c in zip(d2_pool.replicate_bounds[:-1],
                                       d2_pool.replicate_bounds[1:])])
    se = means.std(axis=0, ddof=1) / math.sqrt(len(means))
    assert (np.abs(means.mean(axis=0) - mean_oracle()) < 3.5 * se).all()
    assert d2_pool.converged
    assert (d2_pool.vectors >= 0).all()


def test_d2_tail_flatness_and_hill(d2_pool, d2_solution):
    report = tails.tail_report(d2_pool.vectors, np.array([1.0, 0.0]),
                               d2_solution.beta, rng=substream(9003, "t"),
                               window_quantiles=(0.99, 0.9995))
    assert report.flatness.min_lower_95 > 0
    best = min(report.hill_by_fraction.values(),
               key=lambda h: abs(h.index - d2_solution.beta))
    assert abs(best.index - d2_solution.beta) <= 0.4


def test_d2_directional_profile_positive(d2_pool, d2_solution):
    # a boundary direction and an interior direction both carry tail mass
    x = d2_pool.vectors
    t = float(np.quantile(x @ np.array([1.0, 0.0]), 0.995))
    us = [np.array([1.0, 0.0]),
          np.array([1.0, 1.0]) / math.sqrt(2.0)]
    entries = tails.directional_profile(x, us, t, d2_solution.beta)
    for e in entries:
        assert e.resolvable and e.scaled > 0


def test_d2_spectral_eigenfunction_at_beta(d2_solution):
    res = k_at(d2_rooted_spec(), d2_solution.beta, 200_000,
               substream(9004, "k"))
    assert res.k == pytest.approx(K_BETA_D1, rel=0.01)
    assert res.e.min() > 0
    assert float(res.nu @ res.e) == pytest.approx(1.0, abs=1e-8)


def test_d2_certificate_consistency(d2_pool, d2_solution):
    spec = d2_rooted_spec()
    u = np.array([1.0, 0.0])
    x = d2_pool.vectors
    proj = x @ u
    t = float(np.quantile(proj, 0.999))
    res_beta = k_at(spec, d2_solution.beta, 100_000, substream(9005, "kb"))
    rep = cert.lower_bound(spec, u, t, d2_solution.rho, d2_solution.beta,
                           d2_solution.k_beta, C1=2, pool_vectors=x,
                           rng=substream(9006, "lb"), spectral=res_beta,
                           C0=10.0, delta=0.2, reps_v=40_000, reps_w=6_000)
    emp = float((proj > t).mean())
    emp_se = math.sqrt(emp * (1 - emp) / len(proj))
    assert rep.bound <= emp + 3 * emp_se
    assert rep.kappa > 0
    assert all(r["hits"] > 0 for r in rep.per_level_V)
