"""Shared reference models and session-scoped pools.

The d=1 lognormal binary model has closed forms for everything the suite
checks: E A^s = exp(-s + s^2/4), m(s) = 2 E A^s, roots
alpha/beta = 2 -/+ 2 sqrt(1 - ln 2), fixed-point mean 1/(1 - 2 e^{-3/4}).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from smoothtail.branching import sample_fixed_point_replicated
from smoothtail.model import (Branching, FiniteSupport, LognormalRotation,
                              LognormalScalarMatrix, ModelSpec, QLaw)
from smoothtail.rng import substream

SQ = math.sqrt(1.0 - math.log(2.0))
ALPHA_D1 = 2.0 - 2.0 * SQ
BETA_D1 = 2.0 + 2.0 * SQ
RHO_D1 = SQ
MEAN_D1 = 1.0 / (1.0 - 2.0 * math.exp(-0.75))
K_BETA_D1 = 0.5
# d2_rotation_spec: m(s) = 2 E c^s = 2 exp(-s + s^2/8)
SQ_ROT = math.sqrt(1.0 - math.log(2.0) / 2.0)
ALPHA_ROT = 4.0 - 4.0 * SQ_ROT
BETA_ROT = 4.0 + 4.0 * SQ_ROT
RHO_ROT = SQ_ROT
LAMBDA_P = (3.0 + math.sqrt(5.0)) / 2.0
K1_D2 = math.exp(-0.875) * LAMBDA_P


def k_at(spec: ModelSpec, s: float, mc_reps: int, rng: np.random.Generator,
         grid=None):
    """spectral.k_grid at s on an assembler of its own, drawn from rng, over
    grid (the model's default grid when None)."""
    from smoothtail.spectral import OperatorAssembler, build_grid, k_grid
    return k_grid(OperatorAssembler(spec, grid or build_grid(spec), mc_reps,
                                    rng), s)


def rng_state(rng: np.random.Generator) -> str:
    """A generator's full state; Philox keeps its counter and key as arrays,
    whose repr is exact."""
    return repr(rng.bit_generator.state)


def d1_lognormal_spec() -> ModelSpec:
    return ModelSpec(
        dimension=1,
        branching=Branching(mode="fixed", n=2),
        ensemble=LognormalScalarMatrix(mu=-1.0, sigma2=0.5, matrix=[[1.0]]),
        q_law=QLaw(kind="deterministic", vector=[1.0]),
        geom_class="nonnegative-C")


def d2_lognormal_matrix_spec() -> ModelSpec:
    return ModelSpec(
        dimension=2,
        branching=Branching(mode="fixed", n=2),
        ensemble=LognormalScalarMatrix(mu=-1.0, sigma2=0.25,
                                       matrix=[[1.0, 1.0], [1.0, 2.0]]),
        q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
        geom_class="nonnegative-C")


def d2_contracting_matrix_spec() -> ModelSpec:
    # W * P with log E W^s = -(1 + log LAMBDA_P) s + s^2/4: k(s) = E W^s
    # LAMBDA_P^s, so m(s) = 2 exp(-s + s^2/4) and the roots are the d=1 ones
    return ModelSpec(
        dimension=2,
        branching=Branching(mode="fixed", n=2),
        ensemble=LognormalScalarMatrix(mu=-1.0 - math.log(LAMBDA_P),
                                       sigma2=0.5,
                                       matrix=[[1.0, 1.0], [1.0, 2.0]]),
        q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
        geom_class="nonnegative-C")


def d2_finite_pair_spec() -> ModelSpec:
    mats = np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    return ModelSpec(
        dimension=2,
        branching=Branching(mode="fixed", n=2),
        ensemble=FiniteSupport(matrices=mats, probs=np.array([0.5, 0.5])),
        q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
        geom_class="nonnegative-C")


def d2_finite_three_spec() -> ModelSpec:
    # three atoms with a non-constant eigenfunction e_beta:
    # alpha = 0.801, beta = 2.577, rho = 0.437
    mats = np.array([[[0.15, 0.15], [0.0, 0.15]], [[0.25, 0.0], [0.25, 0.25]],
                     [[1.2, 0.6], [0.6, 1.2]]])
    return ModelSpec(
        dimension=2,
        branching=Branching(mode="fixed", n=2),
        ensemble=FiniteSupport(matrices=mats,
                               probs=np.array([0.45, 0.45, 0.1])),
        q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
        geom_class="nonnegative-C")


def d2_rotation_spec() -> ModelSpec:
    return ModelSpec(
        dimension=2,
        branching=Branching(mode="fixed", n=2),
        ensemble=LognormalRotation(mu=-1.0, sigma2=0.25, d=2),
        q_law=QLaw(kind="deterministic", vector=[1.0, 0.0]),
        geom_class="invertible-ipo")


def d3_rotation_spec() -> ModelSpec:
    return ModelSpec(
        dimension=3,
        branching=Branching(mode="fixed", n=2),
        ensemble=LognormalRotation(mu=-1.0, sigma2=0.25, d=3),
        q_law=QLaw(kind="deterministic", vector=[1.0, 0.0, 0.0]),
        geom_class="invertible-ipo")


def d1_quarter_spec() -> ModelSpec:
    return ModelSpec(
        dimension=1,
        branching=Branching(mode="fixed", n=2),
        ensemble=FiniteSupport(matrices=np.array([[[0.25]]]),
                               probs=np.array([1.0])),
        q_law=QLaw(kind="deterministic", vector=[1.0]),
        geom_class="nonnegative-C")


def random13_spec() -> ModelSpec:
    # random N in {1, 3} with mean 2, and every node keeps its 1-child
    return ModelSpec(
        dimension=1,
        branching=Branching(mode="random", support=(1, 3), probs=(0.5, 0.5)),
        ensemble=FiniteSupport(matrices=np.array([[[0.25]]]),
                               probs=np.array([1.0])),
        q_law=QLaw(kind="deterministic", vector=[1.0]),
        geom_class="nonnegative-C")


@pytest.fixture(scope="session")
def d1_model():
    return d1_lognormal_spec()


@pytest.fixture(scope="session")
def d2_matrix_model():
    return d2_lognormal_matrix_spec()


@pytest.fixture(scope="session")
def d2_pair_model():
    return d2_finite_pair_spec()


@pytest.fixture(scope="session")
def d2_rotation_model():
    return d2_rotation_spec()


@pytest.fixture(scope="session")
def d1_pool():
    """Converged d=1 pool (2e5 samples, 8 replicates), reused across modules."""
    spec = d1_lognormal_spec()
    rngs = [substream(7100, "pool", i) for i in range(8)]
    return sample_fixed_point_replicated(spec, 60, 200_000,
                                         np.array([MEAN_D1]), rngs)
