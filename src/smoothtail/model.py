"""Model specification and validation for the random input (Q, (A_i), N).

A model describes one smoothing transform: the branching law N, the matrix
ensemble generating the A_i, the law of the additive term Q, and the
geometric class of the ensemble (nonnegative with a positive product, or
invertible).  Ensembles are restricted to parametric families with
oracle-checkable spectral behavior.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import EigenDiagnosticError, SpecError

CLASS_NONNEG = "nonnegative-C"
CLASS_IPO = "invertible-ipo"
CLASS_ID = "invertible-id"
GEOM_CLASSES = (CLASS_NONNEG, CLASS_IPO, CLASS_ID)

ZERO_TOL = 1e-12        # entries below this count as structural zeros
PROXIMAL_TOL = 1e-8     # dominant-eigenvalue gap and imaginary-part margin
RATIONAL_QMAX = 50      # largest denominator of the non-arithmeticity margin
DET_TOL = 1e-10         # invertibility margin for declared invertible classes
ORBIT_CHUNK = 256       # orbit-coverage steps drawn and binned at a time


# ---------------------------------------------------------------------------
# branching law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branching:
    """Number of children per node: fixed N >= 2 or a finite integer law."""

    mode: str                                   # "fixed" | "random"
    n: Optional[int] = None                     # fixed mode
    support: Optional[tuple[int, ...]] = None   # random mode
    probs: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.mode == "fixed":
            if self.n is None or self.n < 2:
                raise SpecError("fixed-N branching requires integer N >= 2")
        elif self.mode == "random":
            if not self.support or self.probs is None:
                raise SpecError("random-N branching requires support and probs")
            if len(self.support) != len(self.probs):
                raise SpecError("branching support/probs length mismatch")
            if any(k < 0 or k != int(k) for k in self.support):
                raise SpecError("branching support must be nonnegative integers")
            if any(p < 0 for p in self.probs):
                raise SpecError("branching probabilities must be nonnegative")
            total = sum(self.probs)
            if abs(total - 1.0) > 1e-9:
                raise SpecError(f"branching probabilities sum to {total}, not 1")
            if self.mean() <= 1.0:
                raise SpecError("random-N branching requires mean > 1")
        else:
            raise SpecError(f"unknown branching mode {self.mode!r}")

    def mean(self) -> float:
        if self.mode == "fixed":
            return float(self.n)
        return float(sum(k * p for k, p in zip(self.support, self.probs)))

    def p_child(self) -> float:
        """P(N >= 1): the chance that a node has a first child."""
        if self.mode == "fixed":
            return 1.0
        return 1.0 - sum(p for k, p in zip(self.support, self.probs) if k == 0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.mode == "fixed":
            return np.full(size, self.n, dtype=np.int64)
        ks = np.asarray(self.support, dtype=np.int64)
        return ks[rng.choice(len(ks), size=size, p=np.asarray(self.probs))]


# ---------------------------------------------------------------------------
# matrix ensembles
# ---------------------------------------------------------------------------

class MatrixEnsemble:
    """Common interface of the parametric matrix families."""

    d: int
    bounded_support: bool = True
    finite_moment_s_max: Optional[float] = None

    def factors(self, rng: np.random.Generator,
                size: int) -> tuple[np.ndarray, np.ndarray]:
        """i.i.d. draws as a scale times a direction factor, returned as
        (log w (size,), D (size, d, d)), or D of shape (1, d, d) when it is
        one fixed matrix."""
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """i.i.d. draws w * D, shape (size, d, d), consuming rng as factors
        does.  No engine multiplies them out: each reads factors."""
        log_w, dirs = self.factors(rng, size)
        return np.exp(log_w)[:, None, None] * dirs

    def log_scalar_moment(self, s: float) -> float:
        """log E W^s: 0 for a family that draws no scale (W = 1)."""
        return 0.0

    def cone_moment(self, s: float, eps: float, norm: str) -> float:
        """E ||A*||^s iota(A*)^-eps in the given norm, from the law; inf
        where an atom of positive probability has iota = 0 or it overflows."""
        raise NotImplementedError

    def atoms(self):
        """(matrices, probs) for finite-support families, else None."""
        return None

    def support_nonnegative(self) -> bool:
        raise NotImplementedError

    def support_invertible(self) -> bool:
        raise NotImplementedError

    def preserves_norm(self, norm: str) -> bool:
        """Whether |D x| = |x| for every direction factor D and vector x."""
        return False

    def moment_finite(self, s: float) -> bool:
        """Whether E ||M||^s is finite (all named families: yes below cap)."""
        return self.finite_moment_s_max is None or s <= self.finite_moment_s_max


@dataclass(frozen=True)
class FiniteSupport(MatrixEnsemble):
    """Finitely many matrices with probabilities."""

    matrices: np.ndarray          # (K, d, d)
    probs: np.ndarray             # (K,)
    finite_moment_s_max: Optional[float] = None

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise SpecError("finite-support matrices must be a (K, d, d) array")
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (mats.shape[0],) or (p < 0).any():
            raise SpecError("finite-support probs must be nonnegative, one per matrix")
        if abs(p.sum() - 1.0) > 1e-9:
            raise SpecError("finite-support probs must sum to 1")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "d", mats.shape[1])

    def factors(self, rng, size):
        idx = rng.choice(len(self.probs), size=size, p=self.probs)
        return np.zeros(size), self.matrices[idx]

    def atoms(self):
        return self.matrices, self.probs

    def cone_moment(self, s, eps, norm):
        from .walks import norms_and_iotas

        held = self.probs > 0
        opn, io = norms_and_iotas(np.swapaxes(self.matrices[held], -1, -2),
                                  norm)
        if (io <= 0).any():
            return math.inf
        return float(self.probs[held] @ (opn ** s * io ** -eps))

    def support_nonnegative(self):
        return bool((self.matrices >= -ZERO_TOL).all())

    def support_invertible(self):
        dets = np.abs(np.linalg.det(self.matrices))
        scale = np.abs(self.matrices).sum(axis=(1, 2)) + 1.0
        return bool((dets > DET_TOL * scale ** self.d).all())


@dataclass(frozen=True)
class LognormalFamily(MatrixEnsemble):
    """W * D for a scale W ~ LogNormal(mu, sigma2) independent of a direction
    factor D; each family supplies only the law of D (``directions``)."""

    mu: float
    sigma2: float
    bounded_support = False

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise SpecError("lognormal family requires sigma2 > 0")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def directions(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """i.i.d. direction factors D, shape (size, d, d), or (1, d, d) when
        D is a fixed matrix."""
        raise NotImplementedError

    def factors(self, rng, size):
        log_w = rng.standard_normal(size)
        log_w *= self.sigma           # mu + sigma z, bit for bit
        log_w += self.mu
        return log_w, self.directions(rng, size)

    def log_scalar_moment(self, s: float) -> float:
        """log E W^s."""
        return self.mu * s + 0.5 * self.sigma2 * s * s


@dataclass(frozen=True)
class LognormalScalarMatrix(LognormalFamily):
    """W * P for W ~ LogNormal(mu, sigma2) and a fixed matrix P.

    With P the 1x1 identity this is the plain scalar-lognormal family.
    """

    matrix: np.ndarray
    family: str = "lognormal_fixed_matrix"   # callers pass it; unread
    finite_moment_s_max: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        P = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if P.shape[0] != P.shape[1]:
            raise SpecError("fixed matrix must be square")
        object.__setattr__(self, "matrix", P)
        object.__setattr__(self, "d", P.shape[0])

    def directions(self, rng, size):
        return self.matrix[None, :, :]

    def cone_moment(self, s, eps, norm):
        # A = W P has ||A*|| = W ||P*|| and iota(A*) = W iota(P*)
        fixed = FiniteSupport(matrices=self.matrix[None], probs=np.ones(1))
        return (float(np.exp(self.log_scalar_moment(s - eps)))
                * fixed.cone_moment(s, eps, norm))

    def support_nonnegative(self):
        return bool((self.matrix >= -ZERO_TOL).all())

    def support_invertible(self):
        det = abs(np.linalg.det(self.matrix))
        scale = np.abs(self.matrix).sum() + 1.0
        return det > DET_TOL * scale ** self.d


@dataclass(frozen=True)
class LognormalRotation(LognormalFamily):
    """c * R for c ~ LogNormal(mu, sigma2) and R a Haar rotation of R^d."""

    d: int = 2
    finite_moment_s_max: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        if self.d < 2:
            raise SpecError("rotation family requires d >= 2")

    def directions(self, rng, size):
        if self.d == 2:
            theta = rng.uniform(0.0, 2.0 * np.pi, size)
            c, s = np.cos(theta), np.sin(theta)
            return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        g = rng.standard_normal((size, self.d, self.d))
        q, r = np.linalg.qr(g)
        sign = np.sign(np.einsum("nii->ni", r))
        sign[sign == 0] = 1.0
        q = q * sign[:, None, :]
        det = np.linalg.det(q)
        q[det < 0, :, 0] *= -1.0
        return q

    def support_nonnegative(self):
        return False

    def support_invertible(self):
        return True

    def preserves_norm(self, norm):
        return norm == "l2"

    def cone_moment(self, s, eps, norm):
        # ||R*|| = iota(R*) = 1 under l2, the only norm of its classes
        return float(np.exp(self.log_scalar_moment(s - eps)))


# ---------------------------------------------------------------------------
# Q laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QLaw:
    """Law of the additive innovation Q: zero, a point, or finite support."""

    kind: str                                   # "zero" | "deterministic" | "finite_support"
    vector: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None
    probs: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "zero":
            return
        if self.kind == "deterministic":
            v = np.atleast_1d(np.asarray(self.vector, dtype=float))
            object.__setattr__(self, "vector", v)
        elif self.kind == "finite_support":
            vs = np.atleast_2d(np.asarray(self.vectors, dtype=float))
            p = np.asarray(self.probs, dtype=float)
            if p.shape != (vs.shape[0],) or (p < 0).any() or abs(p.sum() - 1) > 1e-9:
                raise SpecError("finite-support Q needs probs summing to 1")
            object.__setattr__(self, "vectors", vs)
            object.__setattr__(self, "probs", p)
        else:
            raise SpecError(f"unknown Q law {self.kind!r}")

    def dim(self) -> Optional[int]:
        if self.kind == "deterministic":
            return self.vector.shape[0]
        if self.kind == "finite_support":
            return self.vectors.shape[1]
        return None

    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "deterministic":
            return bool((self.vector == 0).all())
        return bool((self.vectors == 0).all())

    def atom_indices(self, rng: np.random.Generator,
                     size: int) -> Optional[np.ndarray]:
        """size draws as indices into vectors; None for a zero or fixed Q,
        which draws nothing."""
        if self.kind != "finite_support":
            return None
        return rng.choice(len(self.probs), size=size, p=self.probs)

    def values(self, idx: Optional[np.ndarray], size: int,
               d: int) -> np.ndarray:
        """The (size, d) draws whose atom indices are idx."""
        if self.kind == "zero":
            return np.zeros((size, d))
        if self.kind == "deterministic":
            return np.tile(self.vector, (size, 1))
        return self.vectors[idx]

    def moment(self, s: float, norm: str) -> float:
        """E|Q|^s in the given norm; inf where it overflows."""
        from .walks import vec_norm

        if self.kind == "zero":
            return 0.0
        if self.kind == "deterministic":
            return float(vec_norm(self.vector, norm) ** s)
        held = self.probs > 0
        return float(self.probs[held] @ vec_norm(self.vectors[held], norm) ** s)


# ---------------------------------------------------------------------------
# the full model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Full description of the law of (Q, (A_i), N) plus geometric class.

    The norm convention is tied to the class: l1 on the positive cone for
    nonnegative ensembles, l2 for the invertible classes.
    """

    dimension: int
    branching: Branching
    ensemble: MatrixEnsemble
    q_law: QLaw
    geom_class: str
    norm: str = field(default="")

    def __post_init__(self):
        if self.dimension < 1:
            raise SpecError("dimension must be a positive integer")
        if self.geom_class not in GEOM_CLASSES:
            raise SpecError(f"unknown geometric class {self.geom_class!r}")
        expected_norm = "l1" if self.geom_class == CLASS_NONNEG else "l2"
        if not self.norm:
            object.__setattr__(self, "norm", expected_norm)
        elif self.norm != expected_norm:
            raise SpecError(
                f"class {self.geom_class} uses norm {expected_norm!r}, got {self.norm!r}")
        if self.ensemble.d != self.dimension:
            raise SpecError("ensemble dimension does not match model dimension")
        qd = self.q_law.dim()
        if qd is not None and qd != self.dimension:
            raise SpecError("Q dimension does not match model dimension")
        if self.geom_class == CLASS_NONNEG:
            if not self.ensemble.support_nonnegative():
                raise SpecError("nonnegative class requires nonnegative ensemble support")
        else:
            if not self.ensemble.support_invertible():
                raise SpecError("invertible class requires invertible ensemble support")

    @property
    def d(self) -> int:
        return self.dimension

    def mean_children(self) -> float:
        return self.branching.mean()


# ---------------------------------------------------------------------------
# geometric condition checks
# ---------------------------------------------------------------------------

def check_allowable(mats: np.ndarray) -> bool:
    """No zero row or column in a matrix, or in any matrix of a (..., d, d)
    stack; entries below ZERO_TOL count as zero."""
    nz = np.abs(np.atleast_2d(np.asarray(mats, dtype=float))) > ZERO_TOL
    return bool(nz.any(axis=-1).all() and nz.any(axis=-2).all())


def check_proximal(eig: np.ndarray):
    """Dominant eigenvalue real, algebraically simple, gap >= PROXIMAL_TOL,
    read off one matrix's eigenvalues along the last axis (a stack's give
    one verdict per matrix).  For d = 1 the test is eig != 0."""
    eig = np.asarray(eig)
    if eig.shape[-1] == 1:
        return eig[..., 0] != 0.0
    mods = np.abs(eig)
    top = np.argmax(mods, axis=-1)[..., None]
    lam = np.take_along_axis(eig, top, axis=-1)[..., 0]
    ranked = np.sort(mods, axis=-1)
    first, second = ranked[..., -1], ranked[..., -2]
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = (first - second) / first
    return ((first != 0.0) & (np.abs(lam.imag) <= PROXIMAL_TOL * first)
            & (gap >= PROXIMAL_TOL))


def _eigvals(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenDiagnosticError(f"eigenvalue solver failed: {exc}") from exc


def first_proximal(mats: np.ndarray) -> Optional[int]:
    """Index of the first proximal matrix of an (n, d, d) stack, or None.

    The eigenvalues come from one batched call.  If the solver fails on the
    stack, each matrix is tried alone and one it fails on is skipped.
    """
    if mats.shape[-1] == 1:
        eigs = mats[:, 0]                # a 1 x 1 matrix is its eigenvalue
    else:
        try:
            eigs = _eigvals(mats)
        except EigenDiagnosticError:
            for i, m in enumerate(mats):
                try:
                    if check_proximal(_eigvals(m)):
                        return i
                except EigenDiagnosticError:
                    continue
            return None
    hits = np.flatnonzero(check_proximal(eigs))
    return int(hits[0]) if len(hits) else None


def perron_data(m: np.ndarray):
    """(lambda, v) for a matrix with a real dominant eigenvalue, v normalized l1."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    eig, vecs = np.linalg.eig(m)
    i = int(np.argmax(np.abs(eig)))
    lam = float(eig[i].real)
    v = vecs[:, i].real
    v = v / np.abs(v).sum()
    if v.sum() < 0:
        v = -v
    return lam, v


def find_positive_product(spec: ModelSpec, budget: int,
                          rng: np.random.Generator):
    """Search for a strictly positive product of sampled ensemble matrices.

    Multiplies the direction factors of fresh draws, rescaled to a largest
    entry of 1 after each, and carries sum log W plus the rescalings as one
    log scale; restarts when the word gets long.  Returns (witness,
    log_scale, word_length, draws), the product being exp(log_scale) *
    witness and draws the matrices drawn, restarts included, or None if
    the budget is exhausted.  Absence is a value, not an error.
    """
    if spec.geom_class != CLASS_NONNEG:
        raise SpecError("positive-product search applies to the nonnegative class")
    max_word = 64
    word = 0
    prod = np.eye(spec.d)
    log_scale = 0.0
    for draws in range(1, budget + 1):
        log_w, dirs = spec.ensemble.factors(rng, 1)
        prod = dirs[0] @ prod
        word += 1
        nrm = np.abs(prod).max()
        if nrm == 0.0:
            prod, word, log_scale = np.eye(spec.d), 0, 0.0
            continue
        prod = prod / nrm
        log_scale += float(log_w[0]) + math.log(nrm)
        if (prod > ZERO_TOL).all():
            return prod, log_scale, word, draws
        if word >= max_word:
            prod, word, log_scale = np.eye(spec.d), 0, 0.0
    return None


def _rational_margin(r: float) -> float:
    """min over q <= RATIONAL_QMAX of q^2 |r - p/q| (irrationality margin)."""
    best = math.inf
    for q in range(1, RATIONAL_QMAX + 1):
        p = round(r * q)
        best = min(best, q * q * abs(r - p / q))
    return best


def heuristic_nonarithmetic(spec: ModelSpec, budget: int,
                            rng: np.random.Generator):
    """Evidence for non-arithmeticity of log spectral radii of positive products.

    Samples positive products, collects log(lambda), and reports pairwise
    ratios with their irrationality margins against p/q, q <= RATIONAL_QMAX.
    Verdict: "heuristic-pass" if some margin >= 1e-3, "inconclusive" if all
    sampled ratios sit essentially on rationals, "inapplicable" when no
    positive product is found.  Never a definite fail.  log(lambda) is
    log lambda(witness) plus the witness's log scale, so W never overflows.
    """
    if spec.geom_class != CLASS_NONNEG:
        raise SpecError("non-arithmeticity heuristic applies to the nonnegative class")
    logs: list[float] = []
    seen = 0
    while seen < budget and len(logs) < 24:
        found = find_positive_product(spec, budget=min(64, budget - seen), rng=rng)
        if found is None:
            seen += min(64, budget - seen)
            continue
        witness, log_scale, _, draws = found
        seen += draws
        lam, _v = perron_data(witness)
        if lam > 0:
            logs.append(math.log(lam) + log_scale)
    if len(logs) < 2:
        return {"verdict": "inapplicable", "pairs": []}
    pairs = []
    passed = False
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            if logs[j] == 0.0:
                continue
            r = logs[i] / logs[j]
            margin = _rational_margin(abs(r))
            pairs.append({"log_a": logs[i], "log_b": logs[j],
                          "ratio": r, "margin": margin})
            if margin >= 1e-3:
                passed = True
    verdict = "heuristic-pass" if passed else "inconclusive"
    return {"verdict": verdict, "pairs": pairs}


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

@dataclass
class ConditionVerdict:
    verdict: str                  # pass | fail | heuristic-pass | inapplicable | declared
    evidence: dict = field(default_factory=dict)


@dataclass
class ValidationReport:
    """Per-condition verdicts with witnesses and the exact moment bounds."""

    conditions: dict[str, ConditionVerdict]
    positive_product_witness: Optional[np.ndarray]
    positive_product_word_length: Optional[int]
    proximality_witness: Optional[np.ndarray]
    nonarithmetic_pairs: list
    moments: dict
    notes: list[str]

    def hard_fail(self) -> bool:
        return any(c.verdict == "fail" for c in self.conditions.values())

    def to_jsonable(self) -> dict:
        return asdict(self)


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """Running products M_k ... M_1 of an (n, d, d) stack of invertible
    matrices, formed in log2(n) doubling passes and rescaled by their
    largest entry after each."""
    prods = mats / np.abs(mats).max(axis=(1, 2), keepdims=True)
    shift = 1
    while shift < len(prods):
        prods[shift:] = prods[shift:] @ prods[:-shift]
        prods /= np.abs(prods).max(axis=(1, 2), keepdims=True)
        shift *= 2
    return prods


def _orbit_coverage(spec: ModelSpec, rng: np.random.Generator, steps: int) -> float:
    """Fraction of sphere-grid cells visited by the projective orbit
    x_k = D_k^T . x_(k-1) of the direction factors, drawn and binned
    ORBIT_CHUNK steps at a time until every cell is visited."""
    from .spectral import build_grid
    from .walks import apply_batch, vec_norm

    grid = build_grid(spec, size=64)
    x = np.zeros(spec.d)
    x[0] = 1.0                          # unit under l1 and l2
    visited = np.zeros(len(grid.points), dtype=bool)
    for a in range(0, steps, ORBIT_CHUNK):
        n = min(ORBIT_CHUNK, steps - a)
        dirs_t = np.swapaxes(spec.ensemble.factors(rng, n)[1], 1, 2)
        orbit = apply_batch(
            _prefix_products(np.broadcast_to(dirs_t, (n, spec.d, spec.d))), x)
        orbit /= vec_norm(orbit, spec.norm)[:, None]
        visited[grid.cell_index(orbit)] = True
        x = orbit[-1]
        if visited.all():
            break
    return float(visited.mean())


def validate(spec: ModelSpec, beta_hat: float, eps: float, reps: int,
             rng: np.random.Generator) -> ValidationReport:
    """Run every class-applicable condition check and compute the moment bounds.

    Strong irreducibility, cone absence, and the density condition cannot be
    decided from samples; they are reported as declared-by-user with orbit
    coverage evidence.  reps sizes the support, positive-product and orbit
    draws.  Every check but non-arithmeticity reads the direction factors D
    of the draws W * D alone (a fixed D is one matrix): a positive scale
    changes neither a sign pattern nor the action on directions.  The
    moment conditions E|Q|^s and E||A*||^s iota(A*)^-eps, s = beta_hat +
    eps, are exact and draw nothing; each is None where the family declares
    E||M||^s infinite, an atom has iota = 0, or it overflows.
    """
    if beta_hat <= 0:
        raise SpecError("validate requires beta_hat > 0")

    conditions: dict[str, ConditionVerdict] = {}
    notes: list[str] = []
    pos_witness = pos_len = prox_witness = None
    na_pairs: list = []

    atoms = spec.ensemble.atoms()
    dirs = (spec.ensemble.factors(rng, min(reps, 256))[1] if atoms is None
            else atoms[0])
    if spec.geom_class == CLASS_NONNEG:
        conditions["allowable"] = ConditionVerdict(
            "pass" if check_allowable(dirs) else "fail",
            {"checked": int(len(dirs))})
        found = find_positive_product(spec, budget=max(reps, 256), rng=rng)
        if found is not None:
            pos_witness, _, pos_len, _ = found
            conditions["positive_product"] = ConditionVerdict(
                "pass", {"word_length": pos_len})
        else:
            conditions["positive_product"] = ConditionVerdict(
                "fail", {"budget": max(reps, 256)})
        na = heuristic_nonarithmetic(spec, budget=max(reps, 256), rng=rng)
        na_pairs = na["pairs"]
        conditions["nonarithmetic"] = ConditionVerdict(
            na["verdict"], {"n_pairs": len(na_pairs)})
    else:
        inv_ok = spec.ensemble.support_invertible()
        conditions["invertible"] = ConditionVerdict("pass" if inv_ok else "fail")
        i = first_proximal(dirs)
        if i is not None:
            prox_witness = dirs[i]
        else:
            # products may be proximal even if single draws are not
            prods = _prefix_products(dirs[:64])
            i = first_proximal(prods)
            if i is not None:
                prox_witness = prods[i]
        conditions["proximal"] = ConditionVerdict(
            "pass" if prox_witness is not None else "inconclusive",
            {"witness_found": prox_witness is not None})
        cov = _orbit_coverage(spec, rng, steps=max(512, reps))
        ev = {"orbit_coverage": cov, "threshold": 0.9}
        verdict = "declared" if cov >= 0.9 else "inconclusive"
        conditions["strong_irreducibility"] = ConditionVerdict(verdict, ev)
        if spec.geom_class == CLASS_IPO:
            conditions["no_invariant_cone"] = ConditionVerdict(verdict, ev)
        else:
            conditions["density"] = ConditionVerdict("declared", ev)

    if spec.branching.mode == "fixed" and not spec.ensemble.bounded_support:
        notes.append(
            "fixed-N with unbounded ensemble support: boundedness caveat, "
            "results rely on random-N-style independence of the innovations")

    s = beta_hat + eps
    moments = {"s": s, "eps": eps}
    with np.errstate(over="ignore"):
        for key, value in (
                ("E|Q|^s", spec.q_law.moment(s, spec.norm)),
                ("E||A*||^s iota^-eps",
                 spec.ensemble.cone_moment(s, eps, spec.norm)
                 if spec.ensemble.moment_finite(s) else math.inf)):
            moments[key] = value if math.isfinite(value) else None
    return ValidationReport(conditions, pos_witness, pos_len, prox_witness,
                            na_pairs, moments, notes)
