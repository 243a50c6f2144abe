"""Model sampling, geometric condition checks, and validation verdicts."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import reference_engine as ref
from conftest import (BETA_D1, d1_lognormal_spec, d2_finite_three_spec,
                      d2_lognormal_matrix_spec, d2_rotation_spec,
                      d3_rotation_spec, rng_state)
from reference_oracles import exchangeify, sample_family
from smoothtail.errors import SpecError
from smoothtail.model import (_orbit_coverage, Branching, FiniteSupport,
                              LognormalRotation, LognormalScalarMatrix,
                              ModelSpec, QLaw,
                              check_allowable, check_proximal,
                              find_positive_product, first_proximal,
                              heuristic_nonarithmetic, perron_data, validate)
from smoothtail.rng import substream
from smoothtail.walks import norms_and_iotas, vec_norm


def _const_spec(value=0.25, n=2):
    return ModelSpec(dimension=1, branching=Branching(mode="fixed", n=n),
                     ensemble=FiniteSupport(matrices=np.array([[[value]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="deterministic", vector=[1.0]),
                     geom_class="nonnegative-C")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_family_deterministic_ensemble():
    q, a_list, n = sample_family(_const_spec(), substream(1, "s"))
    assert n == 2
    assert q == pytest.approx([1.0])
    assert [a[0, 0] for a in a_list] == [0.25, 0.25]


def test_sample_family_lognormal_positive():
    spec = d1_lognormal_spec()
    rng = substream(2, "s")
    for _ in range(50):
        q, a_list, n = sample_family(spec, rng)
        assert n == 2
        assert all(a[0, 0] > 0 for a in a_list)


def test_sample_family_random_n_mean():
    spec = ModelSpec(dimension=1,
                     branching=Branching(mode="random", support=(1, 3),
                                         probs=(0.5, 0.5)),
                     ensemble=FiniteSupport(matrices=np.array([[[0.25]]]),
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"),
                     geom_class="nonnegative-C")
    rng = substream(3, "s")
    ns = spec.branching.sample(rng, 100_000)
    se = ns.std(ddof=1) / math.sqrt(len(ns))
    assert abs(ns.mean() - 2.0) < 3 * se


def test_sampler_determinism():
    spec = d1_lognormal_spec()
    a = [sample_family(spec, substream(9, "det"))[1][0] for _ in range(1)]
    b = [sample_family(spec, substream(9, "det"))[1][0] for _ in range(1)]
    assert np.array_equal(a, b)
    draws1 = spec.ensemble.draw(substream(9, "det"), 1000)
    draws2 = spec.ensemble.draw(substream(9, "det"), 1000)
    assert np.array_equal(draws1, draws2)


def _full_stack_draw(ens, rng, size):
    """The full (size, d, d) draw as it was before the factored draw: the
    lognormal scales first, then the direction factors; or the atoms."""
    if isinstance(ens, FiniteSupport):
        return ens.matrices[rng.choice(len(ens.probs), size=size, p=ens.probs)]
    w = np.exp(ens.mu + ens.sigma * rng.standard_normal(size))
    return w[:, None, None] * ens.directions(rng, size)


@pytest.mark.parametrize("ens", [
    LognormalScalarMatrix(mu=-1.0, sigma2=0.25,
                          matrix=[[1.0, 1.0], [1.0, 2.0]]),
    LognormalRotation(mu=-1.0, sigma2=0.25, d=2),
    LognormalRotation(mu=-1.0, sigma2=0.25, d=3),
    FiniteSupport(matrices=np.array([[[1.0, 1.0], [0.0, 1.0]],
                                     [[1.0, 0.0], [1.0, 1.0]]]),
                  probs=np.array([0.3, 0.7])),
], ids=["w-p", "c-r-d2", "c-r-d3", "finite"])
def test_factors_consume_the_generator_as_the_full_draw(ens):
    old_rng, rng, draw_rng = (substream(10, "fac") for _ in range(3))
    old = _full_stack_draw(ens, old_rng, 400)
    log_w, dirs = ens.factors(rng, 400)
    assert rng_state(rng) == rng_state(old_rng)
    assert log_w.shape == (400,)
    if not isinstance(ens, FiniteSupport):
        z = substream(10, "fac").standard_normal(400)
        assert np.array_equal(log_w, ens.mu + ens.sigma * z)
    assert dirs.shape in ((1,) + old.shape[1:], old.shape)
    assert np.array_equal(ens.draw(draw_rng, 400), old)
    assert rng_state(draw_rng) == rng_state(old_rng)
    # the generator carries on with the same stream afterwards
    assert np.array_equal(rng.standard_normal(5), old_rng.standard_normal(5))


# ---------------------------------------------------------------------------
# exchangeify
# ---------------------------------------------------------------------------

def test_exchangeify_preserves_multiset():
    rng = substream(4, "x")
    mats = [np.array([[float(i)]]) for i in range(5)]
    for _ in range(25):
        out, _q = exchangeify(list(mats), np.zeros(1), rng)
        assert sorted(m[0, 0] for m in out) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_exchangeify_single_element():
    out, _ = exchangeify([np.array([[2.0]])], np.zeros(1), substream(5, "x"))
    assert out[0][0, 0] == 2.0


def test_exchangeify_uniform_permutations():
    rng = substream(6, "x")
    mats = [np.array([[0.0]]), np.array([[1.0]]), np.array([[2.0]])]
    counts = {}
    for _ in range(10_000):
        out, _ = exchangeify(list(mats), np.zeros(1), rng)
        key = tuple(int(m[0, 0]) for m in out)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    chi = stats.chisquare(list(counts.values()))
    assert chi.pvalue > 0.01


# ---------------------------------------------------------------------------
# allowability
# ---------------------------------------------------------------------------

def test_allowable_basics():
    assert check_allowable(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert not check_allowable(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert check_allowable(np.eye(3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_allowable_matches_bruteforce_on_all_patterns(d):
    for bits in itertools.product([0.0, 1.0], repeat=d * d):
        m = np.array(bits).reshape(d, d)
        brute = all(m[i, :].any() for i in range(d)) and \
            all(m[:, j].any() for j in range(d))
        assert check_allowable(m) == brute


# ---------------------------------------------------------------------------
# positive products
# ---------------------------------------------------------------------------

def test_positive_product_immediate():
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(
                         matrices=np.array([[[1.0, 1.0], [1.0, 2.0]]]),
                         probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    witness, log_scale, length, draws = find_positive_product(
        spec, 50, substream(7, "p"))
    assert length == draws == 1
    assert witness.min() > 0 and witness.max() == 1.0
    # the product is exp(log_scale) * witness
    assert np.allclose(math.exp(log_scale) * witness, [[1.0, 1.0], [1.0, 2.0]],
                       rtol=1e-15, atol=0)


def test_positive_product_permutation_only_fails():
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(
                         matrices=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
                         probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    assert find_positive_product(spec, 500, substream(8, "p")) is None


def test_positive_product_word_length_two():
    mats = np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=mats,
                                            probs=np.array([0.5, 0.5])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    # the two generators are triangular: a word is positive from its first
    # letter that differs from letter 0 on (B A^k = [[1, k], [1, k + 1]]),
    # so the length is that letter's index plus 1, read off a replay
    found = find_positive_product(spec, 2000, substream(10, "p"))
    assert found is not None
    witness, _, length, draws = found
    assert witness.min() > 0 and draws == length
    replay = substream(10, "p")
    letters = [spec.ensemble.draw(replay, 1)[0] for _ in range(64)]
    first_change = next(i for i, m in enumerate(letters)
                        if not np.array_equal(m, letters[0]))
    assert length == first_change + 1


def test_positive_product_counts_the_restarts():
    # a zero atom restarts the search: the witness is the first positive
    # letter, a word of one, found after every draw before it
    mats = np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 2.0]]])
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=mats,
                                            probs=np.array([0.5, 0.5])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    _, _, length, draws = find_positive_product(spec, 50, substream(19, "p"))
    replay = substream(19, "p")
    letters = [spec.ensemble.draw(replay, 1)[0] for _ in range(50)]
    first = next(i for i, m in enumerate(letters) if m.any())
    assert length == 1 and draws == first + 1 == 8


# ---------------------------------------------------------------------------
# proximality
# ---------------------------------------------------------------------------

def test_proximal_diagonal():
    assert check_proximal(np.linalg.eigvals(np.diag([2.0, 1.0])))


def test_proximal_rotation_false():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert not check_proximal(np.linalg.eigvals(rot))


def test_proximal_positive_matrix():
    m = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert check_proximal(np.linalg.eigvals(m))
    lam, v = perron_data(m)
    assert lam == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-12)
    assert v.min() > 0


# ---------------------------------------------------------------------------
# non-arithmeticity heuristic
# ---------------------------------------------------------------------------

def test_nonarithmetic_lattice_inconclusive():
    spec = _const_spec(value=2.0)
    out = heuristic_nonarithmetic(spec, 400, substream(11, "na"))
    assert out["verdict"] == "inconclusive"
    assert all(p["margin"] < 1e-3 for p in out["pairs"])


def test_nonarithmetic_two_scales_pass():
    mats = np.array([[[2.0]], [[3.0]]])
    spec = ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=mats,
                                            probs=np.array([0.5, 0.5])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    out = heuristic_nonarithmetic(spec, 400, substream(12, "na"))
    assert out["verdict"] == "heuristic-pass"


def test_nonarithmetic_inapplicable_without_witness():
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(
                         matrices=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
                         probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    out = heuristic_nonarithmetic(spec, 200, substream(13, "na"))
    assert out["verdict"] == "inapplicable"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_d1_lognormal():
    spec = d1_lognormal_spec()
    report = validate(spec, beta_hat=BETA_D1, eps=0.1, reps=4000,
                      rng=substream(14, "v"))
    assert report.conditions["allowable"].verdict == "pass"
    assert report.conditions["positive_product"].verdict == "pass"
    assert report.conditions["nonarithmetic"].verdict == "heuristic-pass"
    assert not report.hard_fail()
    # ||A*||^s iota(A*)^-eps = W^(s - eps) = W^beta_hat, and
    # E W^b = exp(-b + b^2/4)
    exact = math.exp(-BETA_D1 + 0.25 * BETA_D1 ** 2)
    assert report.moments["E||A*||^s iota^-eps"] == pytest.approx(exact,
                                                                  rel=1e-12)
    assert report.moments["E|Q|^s"] == 1.0
    assert report.notes  # boundedness caveat for fixed-N lognormal


def test_validate_permutation_ensemble_hard_fail():
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(
                         matrices=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
                         probs=np.array([1.0])),
                     q_law=QLaw(kind="zero"), geom_class="nonnegative-C")
    report = validate(spec, beta_hat=1.0, eps=0.1, reps=500,
                      rng=substream(15, "v"))
    assert report.conditions["positive_product"].verdict == "fail"
    assert report.hard_fail()


def test_validate_rotation_orbit_coverage():
    spec = d2_rotation_spec()
    report = validate(spec, beta_hat=1.0, eps=0.1, reps=2000,
                      rng=substream(16, "v"))
    cov = report.conditions["strong_irreducibility"].evidence["orbit_coverage"]
    assert cov >= 0.9
    assert report.conditions["strong_irreducibility"].verdict == "declared"
    # scaled rotations are never proximal
    assert report.conditions["proximal"].verdict == "inconclusive"


def _quarter_turn_spec():
    # 0.5 times a quarter turn: the orbit of e1 visits 4 of the 64 cells
    turn = np.array([[[0.0, -0.5], [0.5, 0.0]]])
    return ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=turn,
                                            probs=np.array([1.0])),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 0.0]),
                     geom_class="invertible-ipo")


@pytest.mark.parametrize("make_spec", [
    d2_rotation_spec,
    d3_rotation_spec,
    _quarter_turn_spec,
], ids=["c-r-d2", "c-r-d3", "orbit-misses-cells"])
def test_orbit_coverage_replays_the_per_step_loop(make_spec):
    spec = make_spec()
    for steps in (1, 256, 1000):
        rng, rng_ref = substream(18, "o", steps), substream(18, "o", steps)
        cov = _orbit_coverage(spec, rng, steps)
        assert cov == ref._orbit_coverage(spec, rng_ref, steps)
        assert rng_state(rng) == rng_state(rng_ref)
    if make_spec is _quarter_turn_spec:
        assert cov == 4 / 64


@pytest.mark.parametrize("make_spec, verdict", [
    (d2_rotation_spec, "declared"),
    (lambda: _invertible_wp_spec(), "inconclusive"),
], ids=["c-r", "w-p"])
def test_chunked_orbit_keeps_coverage_and_verdict(monkeypatch, make_spec,
                                                  verdict):
    # c*R visits every cell within a few chunks and stops drawing there; the
    # orbit of W*P is P^T's, whatever W, and never covers the circle.  Either
    # way the coverage is the one of all 20,000 matrices drawn up front.
    spec = make_spec()
    cov = _orbit_coverage(spec, substream(47, "o"), 20_000)
    assert cov == ref._orbit_coverage(spec, substream(47, "o"), 20_000,
                                      chunk=20_000)
    drawn = []
    factors = type(spec.ensemble).factors

    def counted(self, rng, size):
        drawn.append(size)
        return factors(self, rng, size)

    monkeypatch.setattr(type(spec.ensemble), "factors", counted)
    report = validate(spec, beta_hat=1.0, eps=0.1, reps=20_000,
                      rng=substream(48, "v"))
    for name in ("strong_irreducibility", "no_invariant_cone"):
        assert report.conditions[name].verdict == verdict
    # the 256 support draws, then the orbit's
    orbit = sum(drawn) - 256
    if verdict == "declared":
        assert report.conditions["strong_irreducibility"].evidence[
            "orbit_coverage"] == 1.0
        assert orbit <= 4 * 256
    else:
        assert orbit == 20_000


def _wp_spec(mu):
    # P = [[0, 1], [1, 1]] is allowable and P^2 = [[1, 1], [1, 2]] > 0
    return ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalScalarMatrix(
                         mu=mu, sigma2=0.25, matrix=[[0.0, 1.0], [1.0, 1.0]]),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 1.0]),
                     geom_class="nonnegative-C")


@pytest.mark.parametrize("mu", [-1.0, -400.0, -800.0, 300.0])
def test_validate_verdicts_do_not_depend_on_the_scale(mu):
    # e^mu leaves the entries of W * P far below ZERO_TOL, or overflows
    # e^600 in a word of two; the checks read P and carry log W apart
    spec, reps = _wp_spec(mu), 2000
    report = validate(spec, beta_hat=1.0, eps=0.1, reps=reps,
                      rng=substream(49, "v"))
    base = validate(_wp_spec(-1.0), beta_hat=1.0, eps=0.1, reps=reps,
                    rng=substream(49, "v"))
    verdicts = {k: c.verdict for k, c in report.conditions.items()}
    assert verdicts == {k: c.verdict for k, c in base.conditions.items()}
    assert verdicts == {"allowable": "pass", "positive_product": "pass",
                        "nonarithmetic": "heuristic-pass"}
    assert report.conditions["allowable"].evidence == {"checked": 1}
    assert report.positive_product_word_length == 2
    assert np.array_equal(report.positive_product_witness,
                          base.positive_product_witness)
    # every positive product is a word of two: its log lambda is
    # log lambda(P^2) plus the word's two log W, replayed after the support
    # draws and the first search's word
    replay = substream(49, "v")
    spec.ensemble.factors(replay, min(reps, 256))
    log_w = [spec.ensemble.factors(replay, 1)[0][0] for _ in range(2 + 48)]
    log_lam = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    logs = [log_lam + log_w[2 + 2 * i] + log_w[3 + 2 * i] for i in range(24)]
    pairs = report.nonarithmetic_pairs
    assert len(pairs) == 24 * 23 // 2
    want = [(logs[i], logs[j]) for i in range(24) for j in range(i + 1, 24)]
    for pair, (log_a, log_b) in zip(pairs, want):
        assert pair["log_a"] == pytest.approx(log_a, rel=1e-13, abs=1e-13)
        assert pair["log_b"] == pytest.approx(log_b, rel=1e-13, abs=1e-13)


def test_nonarithmetic_charges_the_draws_each_search_made():
    # every positive word of W * P is two letters long: the 24 searches
    # take 48 of the 256 draws at reps 256, where a charge of 64 per
    # search stopped after 4 of them (6 pairs)
    report = validate(_wp_spec(-1.0), beta_hat=1.0, eps=0.1, reps=256,
                      rng=substream(49, "v"))
    assert len(report.nonarithmetic_pairs) == 24 * 23 // 2 == 276
    assert report.conditions["nonarithmetic"].evidence == {"n_pairs": 276}


def test_validate_requires_positive_beta():
    with pytest.raises(SpecError):
        validate(d1_lognormal_spec(), beta_hat=0.0, eps=0.1, reps=10,
                 rng=substream(17, "v"))


# ---------------------------------------------------------------------------
# validate on stacks: batched proximality and factor moments
# ---------------------------------------------------------------------------

def _invertible_wp_spec(matrix=((1.0, 1.0), (1.0, 2.0))):
    return ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=LognormalScalarMatrix(mu=-1.0, sigma2=0.25,
                                                    matrix=matrix),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 0.0]),
                     geom_class="invertible-ipo")


def _turns_then_diagonal_spec():
    # two scaled rotations, never proximal, then a proximal diagonal atom
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    mats = np.array([turn, 0.5 * turn, np.diag([2.0, 1.0])])
    return ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=mats,
                                            probs=np.full(3, 1.0 / 3.0)),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 0.0]),
                     geom_class="invertible-ipo")


def _rotations_then_wp():
    rot = d2_rotation_spec().ensemble.draw(substream(40, "r"), 5)
    wp = _invertible_wp_spec().ensemble.draw(substream(40, "wp"), 20)
    return np.concatenate([rot, wp])


@pytest.mark.parametrize("make_stack, want", [
    (lambda: d2_rotation_spec().ensemble.draw(substream(41, "r"), 256), None),
    (_rotations_then_wp, 5),
    (lambda: _turns_then_diagonal_spec().ensemble.atoms()[0], 2),
], ids=["c-r-none", "w-p-after-five-rotations", "finite-support-atom-2"])
def test_batched_proximal_witness_is_the_per_matrix_loops(make_stack, want):
    mats = make_stack()
    assert first_proximal(mats) == ref.first_proximal(mats) == want
    verdicts = check_proximal(np.linalg.eigvals(mats))
    assert verdicts.tolist() == [ref.proximal_matrix(m) for m in mats]


def test_validate_witness_is_the_first_proximal_draw():
    spec = _turns_then_diagonal_spec()
    report = validate(spec, beta_hat=1.0, eps=0.1, reps=500,
                      rng=substream(42, "v"))
    assert report.conditions["proximal"].verdict == "pass"
    assert np.array_equal(report.proximality_witness, np.diag([2.0, 1.0]))
    spec = _invertible_wp_spec()
    report = validate(spec, beta_hat=1.0, eps=0.1, reps=500,
                      rng=substream(43, "v"))
    # the first draw's direction factor: P, whatever its scale W
    first = spec.ensemble.factors(substream(43, "v"), 1)[1][0]
    assert np.array_equal(report.proximality_witness, first)
    assert np.array_equal(first, spec.ensemble.matrix)


def test_validate_witness_from_products_is_the_loops():
    # neither swap is proximal (eigenvalues +-1 and +-sqrt 2); their product
    # diag(2, 1) is, and the loop's running product rescaled to a largest
    # entry of 1 after each step is the witness
    mats = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [1.0, 0.0]]])
    spec = ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                     ensemble=FiniteSupport(matrices=mats,
                                            probs=np.array([0.5, 0.5])),
                     q_law=QLaw(kind="deterministic", vector=[1.0, 0.0]),
                     geom_class="invertible-ipo")
    report = validate(spec, beta_hat=1.0, eps=0.1, reps=500,
                      rng=substream(46, "v"))
    assert report.conditions["proximal"].verdict == "pass"
    prod = np.eye(2)
    for m in mats:
        prod = m @ prod
        prod = prod / np.abs(prod).max()
    assert np.allclose(report.proximality_witness, prod, rtol=1e-15, atol=0)
    assert np.array_equal(prod, np.diag([1.0, 0.5]))


def test_batched_proximal_falls_back_to_the_loop(monkeypatch):
    eigvals = np.linalg.eigvals
    calls = []

    def stack_fails(a):
        calls.append(np.ndim(a))
        if np.ndim(a) > 2:
            raise np.linalg.LinAlgError("stack refused")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", stack_fails)
    mats = _rotations_then_wp()
    assert first_proximal(mats) == 5
    # one refused stack call, then one call per matrix up to the witness
    assert calls == [3] + [2] * 6

    def every_call_fails(a):
        raise np.linalg.LinAlgError("no eigenvalues")

    monkeypatch.setattr(np.linalg, "eigvals", every_call_fails)
    assert first_proximal(mats) is None
    report = validate(_turns_then_diagonal_spec(), beta_hat=1.0, eps=0.1,
                      reps=500, rng=substream(44, "v"))
    assert report.conditions["proximal"].verdict == "inconclusive"


@pytest.mark.parametrize("make_spec, q_law", [
    (d1_lognormal_spec, None),
    (d2_lognormal_matrix_spec, QLaw(kind="zero")),
    (d2_finite_three_spec,
     QLaw(kind="finite_support", vectors=[[1.0, 0.5], [0.0, 2.0]],
          probs=[0.3, 0.7])),
    (d2_rotation_spec, None),
    (d3_rotation_spec,
     QLaw(kind="finite_support",
          vectors=[[1.0, 2.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 0.0]],
          probs=[0.2, 0.5, 0.3])),
    (lambda: _invertible_wp_spec(((1.0, 0.3), (0.2, 0.9))), None),
], ids=["d1-scalar", "w-p-l1", "finite-support", "c-r-d2", "c-r-d3",
        "w-p-l2"])
def test_exact_moments_match_the_multiplied_out_draws(make_spec, q_law):
    # validate's closed forms against a long Monte Carlo over the draws
    # A = W D, multiplied out, and Q, within 4 standard errors
    spec = make_spec()
    if q_law is not None:
        spec = replace(spec, q_law=q_law)
    eps, n = 0.1, 200_000
    s = 1.0 + eps
    rng = substream(45, "m")
    opn, io = norms_and_iotas(
        np.swapaxes(spec.ensemble.draw(rng, n), -1, -2), spec.norm)
    q = ref.draw_q(spec.q_law, rng, n, spec.d)
    for exact, vals in (
            (spec.ensemble.cone_moment(s, eps, spec.norm),
             opn ** s * io ** -eps),
            (spec.q_law.moment(s, spec.norm), vec_norm(q, spec.norm) ** s)):
        se = vals.std(ddof=1) / math.sqrt(n)
        # a constant summand has se 0 and a mean off by rounding
        assert abs(vals.mean() - exact) <= 4 * se + 1e-12 * exact


def test_cone_moment_is_infinite_only_on_a_held_atom_with_iota_zero():
    # the zero row of the first atom gives iota(A*) = 0 under l1
    mats = np.array([[[0.3, 0.3], [0.0, 0.0]], [[0.5, 0.2], [0.2, 0.5]]])
    held = FiniteSupport(matrices=mats, probs=np.array([0.5, 0.5]))
    assert held.cone_moment(1.1, 0.1, "l1") == math.inf
    dropped = FiniteSupport(matrices=mats, probs=np.array([0.0, 1.0]))
    assert dropped.cone_moment(1.1, 0.1, "l1") == pytest.approx(
        0.7 ** 1.1 * 0.7 ** -0.1, rel=1e-12)


def test_validate_rotation_takes_no_svd_and_two_eigvals_calls(monkeypatch):
    counts = {"svd": 0, "eigvals": 0}
    for name in counts:
        def counting(*args, _fn=getattr(np.linalg, name), _name=name,
                     **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    report = validate(d2_rotation_spec(), beta_hat=1.0, eps=0.1, reps=2000,
                      rng=substream(46, "v"))
    assert report.proximality_witness is None
    assert counts == {"svd": 0, "eigvals": 2}


def test_allowable_checks_a_stack_in_one_call():
    mats = np.array([np.eye(2), [[1.0, 1.0], [1.0, 0.0]]])
    assert check_allowable(mats)
    bad = np.concatenate([mats, [[[0.3, 0.3], [0.0, 0.0]]]])
    assert not check_allowable(bad)
    assert check_allowable(bad) == all(check_allowable(m) for m in bad)


# ---------------------------------------------------------------------------
# spec invariants
# ---------------------------------------------------------------------------

def test_class_mismatch_rejected():
    with pytest.raises(SpecError):
        ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                  ensemble=FiniteSupport(
                      matrices=np.array([[[1.0, -1.0], [0.0, 1.0]]]),
                      probs=np.array([1.0])),
                  q_law=QLaw(kind="zero"), geom_class="nonnegative-C")


def test_singular_matrix_rejected_for_invertible_class():
    with pytest.raises(SpecError):
        ModelSpec(dimension=2, branching=Branching(mode="fixed", n=2),
                  ensemble=FiniteSupport(
                      matrices=np.array([[[1.0, 0.0], [0.0, 0.0]]]),
                      probs=np.array([1.0])),
                  q_law=QLaw(kind="zero"), geom_class="invertible-ipo")


def test_branching_invariants():
    with pytest.raises(SpecError):
        Branching(mode="fixed", n=1)
    with pytest.raises(SpecError):
        Branching(mode="random", support=(0, 1), probs=(0.5, 0.5))  # mean 0.5
    with pytest.raises(SpecError):
        Branching(mode="random", support=(2, 3), probs=(0.7, 0.7))


def test_norm_tied_to_class():
    spec = d1_lognormal_spec()
    assert spec.norm == "l1"
    assert d2_rotation_spec().norm == "l2"
    with pytest.raises(SpecError):
        ModelSpec(dimension=1, branching=Branching(mode="fixed", n=2),
                  ensemble=LognormalScalarMatrix(mu=0.0, sigma2=1.0,
                                                 matrix=[[1.0]]),
                  q_law=QLaw(kind="zero"), geom_class="nonnegative-C",
                  norm="l2")
