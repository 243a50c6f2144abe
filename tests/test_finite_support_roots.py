"""Dual-route validation on a finite-support ensemble with no closed form.

Two non-commuting triangular atoms at very different scales (0.03 A with
probability 0.9, 2.0 B with probability 0.1) give m(s) a deep dip: roots
near alpha = 0.286 and beta = 2.090.  Nothing here is analytically
available, so the grid-operator route and the product-regression route
must validate each other.
"""

import numpy as np
import pytest

from conftest import k_at
from reference_oracles import k_by_products
from smoothtail import spectral
from smoothtail.model import Branching, FiniteSupport, ModelSpec, QLaw
from smoothtail.rng import substream


def mixed_scale_spec() -> ModelSpec:
    mats = np.array([0.03 * np.array([[1.0, 1.0], [0.0, 1.0]]),
                     2.0 * np.array([[1.0, 0.0], [1.0, 1.0]])])
    return ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=mats,
                                            probs=np.array([0.9, 0.1])),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
                     geom_class="nonnegative-C")


@pytest.fixture(scope="module")
def solution():
    return spectral.solve_alpha_beta(mixed_scale_spec(), s_max=6.0, tol=1e-9,
                                     rng=substream(7701, "solve"), mc_reps=0)


def test_two_root_regime(solution):
    assert 0 < solution.alpha < solution.s_star < solution.beta
    assert solution.m_star < 1.0
    assert solution.m_alpha == pytest.approx(1.0, abs=1e-8)
    assert solution.m_beta == pytest.approx(1.0, abs=1e-8)
    # regression guard against quiet drift of the exact-assembly solver
    assert solution.alpha == pytest.approx(0.285661, abs=2e-3)
    assert solution.beta == pytest.approx(2.090419, abs=5e-3)


def test_alpha_confirmed_by_naive_products(solution):
    spec = mixed_scale_spec()
    pe = k_by_products(spec, solution.alpha, [6, 8, 10, 12],
                       300_000, substream(7702, "pa"))
    rel_se = max(r[2] for r in pe.per_n)
    assert not pe.low_confidence
    assert abs(2 * pe.k - 1.0) < 3 * rel_se + 0.01


def test_beta_confirmed_by_tilted_products(solution):
    spec = mixed_scale_spec()
    res = k_at(spec, solution.beta, 0, substream(7703, "k"))
    # naive products collapse at beta and must say so
    naive = k_by_products(spec, solution.beta, [6, 8, 10, 12],
                          50_000, substream(7704, "pn"))
    assert naive.low_confidence
    # the tilted route at depths past the mixing transient recovers m = 1
    pe = k_by_products(spec, solution.beta, [16, 20, 24, 28],
                       100_000, substream(7705, "pt"),
                       tilt=solution.beta, spectral=res)
    rel_se = max(r[2] for r in pe.per_n)
    assert not pe.low_confidence
    assert abs(2 * pe.k - 1.0) < 3 * rel_se + 0.01


def test_grid_doubling_stability(solution):
    spec = mixed_scale_spec()
    k1 = k_at(spec, solution.beta, 0, substream(7706, "a"),
              grid=spectral.build_grid(spec, 128)).k
    k2 = k_at(spec, solution.beta, 0, substream(7706, "b"),
              grid=spectral.build_grid(spec, 512)).k
    assert abs(k1 - k2) / k2 < 2e-3
