"""Transfer-operator numerics: k(s), the eigenpair (e_s, nu_s), and tail roots.

The operator P_s f(x) = E[|M x|^s f(M . x)] (M the transposed edge matrix)
is discretized on a sphere grid.  Its spectral radius k(s) times the mean
offspring count gives m(s); the roots alpha < beta of m(s) = 1 carry the
tail index, and rho = m'(beta) sets the level scale n_t = ceil(log t / rho)
used downstream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AssemblyError, ConvergenceError, NoRootError, NoSecondRootError, SpecError
from .model import CLASS_NONNEG, ModelSpec
from .walks import UNDERFLOW, apply_batch, vec_norm
from .walks import run_walks  # noqa: F401  (the benchmark tracer looks it up here)

DEFAULT_GRID_D2 = 256
DEFAULT_GRID_HIGH = 512
POWER_TOL = 1e-10
POWER_MAX_ITER = 20000
COVER_TEST_POINTS = 1024    # d >= 3 covering-radius directions (Sobol, 2^k)


# ---------------------------------------------------------------------------
# sphere grids
# ---------------------------------------------------------------------------

@dataclass
class SphereGrid:
    """Unit vectors (under the model norm) and the geometry that fixes how
    directions are interpolated and binned between them."""

    points: np.ndarray          # (G, d)
    geometry: str               # halfline | pm1 | quarter_circle | circle | sphere | orthant

    def __len__(self) -> int:
        return len(self.points)

    # -- interpolation --------------------------------------------------------

    def _cell_coords(self, dirs: np.ndarray) -> np.ndarray:
        """Each d = 2 direction's angle in grid steps from the first point
        (the quarter circle's points sit mid-step, the circle's start at 0)."""
        G = len(self.points)
        if self.geometry == "quarter_circle":
            step = (math.pi / 2) / G
            return np.arctan2(abs(dirs[:, 1]), abs(dirs[:, 0])) / step - 0.5
        step = 2 * math.pi / G
        return np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * math.pi) / step

    def interp_rows(self, dirs: np.ndarray):
        """(idx (n,2), w (n,2)): sparse interpolation rows for directions.

        Linear in angle for d = 2 (clamped on the quarter circle, periodic on
        the full circle), nearest neighbor otherwise.
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        n = dirs.shape[0]
        G = len(self.points)
        if self.geometry == "quarter_circle":
            t = np.clip(self._cell_coords(dirs), 0.0, G - 1.0)
            j0 = np.minimum(np.floor(t).astype(np.int64), G - 2)
            frac = t - j0
            return (np.column_stack([j0, j0 + 1]),
                    np.column_stack([1.0 - frac, frac]))
        if self.geometry == "circle":
            t = self._cell_coords(dirs)
            j0 = np.floor(t).astype(np.int64) % G
            frac = t - np.floor(t)
            return (np.column_stack([j0, (j0 + 1) % G]),
                    np.column_stack([1.0 - frac, frac]))
        # nearest neighbor on the d = 1 and high-dimensional grids
        j = self.cell_index(dirs)
        return np.column_stack([j, j]), np.column_stack([np.ones(n), np.zeros(n)])

    def interp_values(self, values: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        idx, w = self.interp_rows(dirs)
        return (values[idx] * w).sum(axis=1)

    def cell_index(self, dirs: np.ndarray) -> np.ndarray:
        """Nearest grid point per direction, the one of largest inner product
        with the direction (orbit coverage counts, the certificate's caps)."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        G = len(self.points)
        if self.geometry == "quarter_circle":
            t = np.rint(self._cell_coords(dirs))
            return np.clip(t, 0, G - 1).astype(np.int64)
        if self.geometry == "circle":
            return np.rint(self._cell_coords(dirs)).astype(np.int64) % G
        # chunked max-inner-product search
        out = np.empty(dirs.shape[0], dtype=np.int64)
        unit = dirs / np.maximum(
            np.linalg.norm(dirs, axis=1, keepdims=True), UNDERFLOW)
        pts = self.points / np.maximum(
            np.linalg.norm(self.points, axis=1, keepdims=True), UNDERFLOW)
        chunk = max(1, 2_000_000 // max(len(self.points), 1))
        for a in range(0, dirs.shape[0], chunk):
            b = min(a + chunk, dirs.shape[0])
            out[a:b] = np.argmax(unit[a:b] @ pts.T, axis=1)
        return out

    def covering_radius(self) -> float:
        """r: the largest angle from a direction of the grid's part of the
        sphere to its nearest grid point.  Exact at d <= 2: 0 on the d = 1
        grids, half a step pi / (4G) on the quarter circle and pi / G on the
        circle.  At d >= 3 the largest angle over COVER_TEST_POINTS
        fixed-seed Sobol directions, which can fall short of the true r."""
        G = len(self.points)
        if self.geometry in ("halfline", "pm1"):
            return 0.0
        if self.geometry == "quarter_circle":
            return math.pi / (4 * G)
        if self.geometry == "circle":
            return math.pi / G
        test = _sobol_normals(self.points.shape[1], COVER_TEST_POINTS,
                              self.geometry == "orthant")
        test /= np.linalg.norm(test, axis=1, keepdims=True)
        pts = self.points / np.linalg.norm(self.points, axis=1, keepdims=True)
        cos_nearest = (test @ pts.T).max(axis=1)
        return float(np.arccos(np.clip(cos_nearest, -1.0, 1.0)).max())


def _sobol_normals(d: int, G: int, nonneg: bool) -> np.ndarray:
    """G fixed-seed scrambled Sobol points pushed through the normal quantile
    map, folded onto the orthant for the nonnegative class: directions once
    normalized."""
    from scipy.special import ndtri
    from scipy.stats import qmc
    sob = qmc.Sobol(d, scramble=True, seed=20240 + d)
    z = ndtri(np.clip(sob.random(G), 1e-12, 1 - 1e-12))
    return np.abs(z) if nonneg else z


def build_grid(spec: ModelSpec, size: Optional[int] = None) -> SphereGrid:
    """Deterministic grid on the sphere of the model norm.

    d = 2 uses equally spaced angles (quarter circle for the nonnegative
    class); d >= 3 a fixed-seed scrambled Sobol point set pushed through the
    normal quantile map.
    """
    d, norm, geom_class = spec.d, spec.norm, spec.geom_class
    nonneg = geom_class == CLASS_NONNEG
    if d == 1:
        if nonneg:
            return SphereGrid(np.array([[1.0]]), "halfline")
        return SphereGrid(np.array([[1.0], [-1.0]]), "pm1")
    if d == 2:
        G = size or DEFAULT_GRID_D2
        if nonneg:
            theta = (np.arange(G) + 0.5) * (math.pi / 2) / G
        else:
            theta = np.arange(G) * 2 * math.pi / G
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        pts /= vec_norm(pts, norm)[:, None]
        geometry = "quarter_circle" if nonneg else "circle"
        return SphereGrid(pts, geometry)
    z = _sobol_normals(d, size or DEFAULT_GRID_HIGH, nonneg)
    pts = z / np.maximum(vec_norm(z, norm)[:, None], UNDERFLOW)
    geometry = "orthant" if nonneg else "sphere"
    return SphereGrid(pts, geometry)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

class OperatorAssembler:
    """Assembles the grid operator at any tilt s from one cached draw set,
    without forming a G x G array.

    Every ensemble is a law of direction factors D scaled by an independent
    scalar W: the operator at tilt s is the exact moment E W^s
    (``log_scalar_moment``, 0 for finite support) times one direction
    operator, so k(s) is E W^s times one spectral radius.

    * K atoms of D (finite support, or a fixed D with K = 1): grid point i
      holds 2K pairs (p_k |D_k^T x_i|^s w, j), one per atom and
      interpolation neighbour j of D_k^T . x_i, so a power-iteration step
      costs O(G 2K) against O(G^2) for a dense matrix.
    * Haar rotations, the one family that preserves the model norm: the
      operator is rank one, each row the cell law r of a uniform
      direction, so k = E W^s, e = 1 and nu = r exactly.  r = 1/G on the
      evenly spaced circle, where nothing is drawn; at d >= 3 it is the
      cell mass of every grid point turned by K = min(mc_reps // 8,
      4e6 // G) drawn rotations.

    mc_reps is read for every family; only rotations at d >= 3 draw with
    it.  ``direction_draws`` is the K used, 0 on the circle.  All that does
    not depend on s is computed here once, so the root finder sees a
    smooth deterministic function of s.
    """

    def __init__(self, spec: ModelSpec, grid: SphereGrid, mc_reps: int,
                 rng: np.random.Generator):
        self.spec = spec
        self.grid = grid
        ens, G = spec.ensemble, len(grid)
        # // 8: the configs' mc_reps were sized for 8 moment groups
        draws = max(1, min(mc_reps // 8, 4_000_000 // G))
        self._rows = self._cell_law = None
        if ens.preserves_norm(spec.norm) and grid.geometry == "circle":
            self.direction_draws, self._cell_law = 0, np.full(G, 1.0 / G)
            return
        atoms = ens.atoms()
        if atoms is None:
            mats = ens.directions(rng, draws)
            atoms = mats, np.full(len(mats), 1.0 / len(mats))
        mats, weights = np.swapaxes(atoms[0], -1, -2), atoms[1]
        K = self.direction_draws = len(mats)
        if ens.preserves_norm(spec.norm):
            # every grid point turned by every draw, one point at a time
            counts = sum(np.bincount(grid.cell_index(apply_batch(mats, x)),
                                     minlength=G) for x in grid.points)
            self._cell_law = counts / counts.sum()
            return
        Y = apply_batch(mats[:, None], grid.points[None])   # (K, G, d)
        norms = vec_norm(Y, spec.norm)                      # (K, G)
        if (norms <= UNDERFLOW).any():
            raise AssemblyError(
                "an ensemble atom annihilates part of the sphere grid "
                "(zero row/column); the operator is not defined there")
        for j in range(spec.d):      # Y becomes the directions
            Y[..., j] /= norms
        cols, w = grid.interp_rows(Y.reshape(K * G, -1))
        # (K, G, 2) -> (2K, G): column i lists its atoms' two interpolation
        # neighbours in turn, so a step sums 2K contiguous rows of length G
        self._rows = tuple(
            np.swapaxes(a.reshape(K, G, 2), 1, 2).reshape(-1, G) for a in (
                np.repeat(norms, 2, axis=1),
                weights[:, None] * w.reshape(K, -1), cols))

    def assemble_groups(self, s: float):
        """(moment, op): the exact E W^s and the direction operator at s,
        shared and read-only: the rows (vals, cols), each (2K, G), or the
        cell law r that is every row.  The benchmark tracer wraps it by
        this name."""
        op = self._cell_law
        if op is None:
            norms, base, cols = self._rows
            op = (base * norms ** s, cols)
        log_moment = self.spec.ensemble.log_scalar_moment(s)
        try:
            return math.exp(log_moment), op
        except OverflowError:
            raise AssemblyError(
                f"E W^s overflows at s={s:.6g} (log E W^s = {log_moment:.6g}); "
                "lower s_max, h or the s_grid") from None


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------

def _dominant_pair(apply: Callable[[np.ndarray], np.ndarray], G: int):
    """(lam, v, iterations): v <- apply(v) / sum from the uniform vector,
    until successive eigenvalue iterates agree to POWER_TOL relative."""
    v = np.full(G, 1.0 / G)
    lam_prev = None
    lam_hist = []
    for it in range(1, POWER_MAX_ITER + 1):
        w = apply(v)
        total = w.sum()
        lam = float(total / v.sum())
        if lam <= 0 or not np.isfinite(lam):
            raise ConvergenceError(f"nonpositive eigenvalue iterate {lam}")
        v = w / total
        lam_hist.append(lam)
        if lam_prev is not None and abs(lam - lam_prev) <= POWER_TOL * abs(lam):
            return lam, v, it
        if (it > 20 and len(lam_hist) > 4
                and abs(lam - lam_hist[-3]) <= 1e-3 * POWER_TOL * abs(lam)
                and abs(lam - lam_prev) > 100 * POWER_TOL * abs(lam)):
            raise ConvergenceError("period-2 oscillation in power iteration")
        lam_prev = lam
    raise ConvergenceError(
        f"power iteration did not converge in {POWER_MAX_ITER} steps")


def _right_pair(op):
    """(k, e, iterations) of the right iteration alone on an operator from
    ``assemble_groups``; the rank-one operator's k = 1 and e = 1 are exact
    and take no iteration."""
    if not isinstance(op, tuple):
        return 1.0, np.ones(len(op)), 0
    vals, cols = op
    if vals.shape[1] == 1:
        return float(vals.sum()), np.array([1.0]), 1
    if (vals < -1e-14 * max(1.0, np.abs(vals).max())).any():
        raise ConvergenceError("operator has negative entries")
    return _dominant_pair(lambda v: (vals * v[cols]).sum(axis=0),
                          vals.shape[1])


def power_iteration(op):
    """(k, e, nu, iterations, residual) for a nonnegative grid operator
    from ``assemble_groups``, iterated until successive eigenvalues agree
    to POWER_TOL relative: P v through the rows, nu P by one bincount.

    e is the right eigenvector (strictly positive for primitive operators),
    nu the left probability eigenvector, normalized so sum(nu * e) = 1.
    """
    k, e, it_e = _right_pair(op)
    if it_e < 2:            # no iteration: the rank-one law, or one point
        return k, e, (e if it_e else op).copy(), it_e, 0.0
    (vals, cols), G = op, len(e)
    k2, nu, it_n = _dominant_pair(
        lambda v: np.bincount(cols.ravel(), weights=(vals * v).ravel(),
                              minlength=G), G)
    k = 0.5 * (k + k2)
    nu = nu / nu.sum()
    inner = float(nu @ e)
    if inner <= 0:
        raise ConvergenceError("left/right eigenvector normalization failed")
    e = e / inner
    residual = float(np.max(np.abs((vals * e[cols]).sum(axis=0) - k * e)) / k)
    return k, e, nu, it_e + it_n, residual


@dataclass
class SpectralResult:
    """k(s) with the grid eigenpair and assembly diagnostics."""

    s: float
    k: float
    e: np.ndarray
    nu: np.ndarray
    grid: SphereGrid
    residual: float
    iterations: int
    direction_draws: int     # K of the direction law; 0 on the circle

    def e_interp(self, dirs: np.ndarray) -> np.ndarray:
        return self.grid.interp_values(self.e, dirs)

    def to_jsonable(self) -> dict:
        return {
            "s": self.s, "k": self.k,
            "residual": self.residual, "iterations": self.iterations,
            "direction_draws": self.direction_draws,
            "grid_geometry": self.grid.geometry,
            "grid_size": len(self.grid),
            "e": self.e.tolist(), "nu": self.nu.tolist(),
            "points": self.grid.points.tolist(),
        }


def k_grid(assembler: OperatorAssembler, s: float) -> SpectralResult:
    """k(s): the exact E W^s times the direction operator's spectral radius."""
    if not assembler.spec.ensemble.moment_finite(s):
        raise AssemblyError(f"family declares E||M||^s infinite at s={s}")
    moment, op = assembler.assemble_groups(s)
    k_op, e, nu, iters, residual = power_iteration(op)
    return SpectralResult(s=s, k=moment * k_op, e=e, nu=nu,
                          grid=assembler.grid, residual=residual,
                          iterations=iters,
                          direction_draws=assembler.direction_draws)


# ---------------------------------------------------------------------------
# m(s) and the tail roots
# ---------------------------------------------------------------------------

@dataclass
class TailIndexSolution:
    """Roots alpha < beta of m(s) = 1 with the drift rho = m'(beta)."""

    alpha: float
    beta: float
    s_star: float
    m_alpha: float
    m_beta: float
    m_star: float
    rho: float
    k_beta: float
    k_drift: float             # k'(beta)/k(beta)
    tol: float
    bracket_history: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return asdict(self)


_EPS = np.finfo(float).eps
_SQRT_EPS = math.sqrt(_EPS)


def _brent_min(f: Callable[[float], float], lo: float, hi: float,
               tol: float, history: list) -> float:
    """Minimizer of f on [lo, hi] by Brent's method (golden section with
    parabolic steps; Brent 1973, ch. 5).

    Stops when the best point x lies within 2*(sqrt(eps)*|x| + tol/3) of both
    ends of the bracket: for tol above sqrt(eps)*|x| the bracket is then
    about tol wide, as a golden-section search to tol leaves it.  A minimum
    on the boundary is approached to within that distance; the ends
    themselves are never evaluated.
    """
    cgold = (3.0 - math.sqrt(5.0)) / 2
    a, b = lo, hi
    x = w = v = a + cgold * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x
        step = "golden"
        if abs(e) > tol1:
            # parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                step = "parabolic"
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
        if step == "golden":
            e = (a - x) if x >= xm else (b - x)
            d = cgold * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        history.append((step, a, b))


def _brent_root(f: Callable[[float], float], lo: float, hi: float,
                tol: float, history: list) -> float:
    """Root of f on [lo, hi] by Brent's zeroin (bisection safeguarding secant
    and inverse quadratic steps; Brent 1973, ch. 4).

    Returns an evaluated point within tol + 4*eps*|root| of a sign change of
    f.  Raises NoRootError when f has the same sign at both ends.
    """
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoRootError(f"no sign change on [{lo}, {hi}]")
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        step = "bisect"
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            r3 = fb / fa
            if a == c:
                kind = "secant"
                p = 2.0 * xm * r3
                q = 1.0 - r3
            else:
                kind = "inverse-quadratic"
                q, r = fa / fc, fb / fc
                p = r3 * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (r3 - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
                step = kind
        if step == "bisect":
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        if (fb > 0) == (fc > 0):
            # the sign change now lies between the last two iterates
            c, fc = a, fa
            d = e = b - a
        history.append((step, min(b, c), max(b, c)))


def solve_alpha_beta(spec: ModelSpec, s_max: float, tol: float = 1e-6,
                     rng: Optional[np.random.Generator] = None,
                     grid: Optional[SphereGrid] = None,
                     mc_reps: int = 1_000_000,
                     h: float = 1e-2) -> TailIndexSolution:
    """Locate the two roots of m(s) = 1 on [0, min(s_max, finite_moment_s_max)].

    Brent's minimizer (golden section with parabolic steps) finds the
    minimizer s* of log m (m is log-convex) to about
    gs_tol = min(tol, 1e-6) * max(1, s_max); Brent's root finder then
    locates alpha on (0, s*) and beta on (s*, s_max) to within tol.  All m
    evaluations reuse one cached draw set, so the solver sees a smooth
    deterministic function; each distinct s is assembled and iterated once,
    on the right only, since m reads k alone.  The last 20 solver steps, as (kind, bracket low, bracket high), are kept in
    ``bracket_history``.  Raises NoRootError when m(s*) >= 1 and
    NoSecondRootError when the minimizer sits on the s_max boundary.
    """
    edge, cap = "s_max", spec.ensemble.finite_moment_s_max
    if cap is not None and cap < s_max:
        # E||M||^s is infinite past the cap: no root is sought there
        edge, s_max = "finite_moment_s_max", cap
    if s_max <= 0:
        raise SpecError(f"{edge} must be positive")
    if rng is None:
        raise SpecError("solve_alpha_beta needs an rng")
    grid = grid or build_grid(spec)
    assembler = OperatorAssembler(spec, grid, mc_reps, rng)
    en = spec.mean_children()
    cache: dict[float, float] = {}

    def m(s: float) -> float:
        if s not in cache:
            moment, op = assembler.assemble_groups(s)
            cache[s] = en * moment * _right_pair(op)[0]
        return cache[s]

    history: list = []
    gs_tol = min(tol, 1e-6) * max(1.0, s_max)
    s_star = _brent_min(lambda s: math.log(m(s)), 0.0, s_max, gs_tol, history)
    m_star = m(s_star)
    # the minimizer stops within 2*(sqrt(eps)*s_max + gs_tol/3) of s_max
    # when m is still decreasing there
    if s_star >= s_max - 10 * (gs_tol + _SQRT_EPS * s_max):
        raise NoSecondRootError(
            f"m is still decreasing at {edge}={s_max} (m={m(s_max):.6g})"
            + ("; widen s_max" if edge == "s_max" else ""))
    if m_star >= 1.0:
        raise NoRootError(f"min m = {m_star:.6g} >= 1 at s* = {s_star:.6g}: no roots")
    if m(s_max) <= 1.0:
        raise NoSecondRootError(
            f"m({edge}={s_max}) = {m(s_max):.6g} <= 1: no second root below {edge}")

    g = lambda s: m(s) - 1.0
    lo_alpha = max(1e-12, 1e-9 * s_max)
    alpha = _brent_root(g, lo_alpha, s_star, tol, history)
    beta = _brent_root(g, s_star, s_max, tol, history)
    k_beta = m(beta) / en
    # centered differences on the cached smooth surrogate
    m_plus, m_minus = m(beta + h), m(beta - h)
    rho = (m_plus - m_minus) / (2 * h)
    k_drift = (math.log(m_plus) - math.log(m_minus)) / (2 * h)
    return TailIndexSolution(alpha=alpha, beta=beta, s_star=s_star,
                             m_alpha=m(alpha), m_beta=m(beta), m_star=m_star,
                             rho=rho, k_beta=k_beta, k_drift=k_drift, tol=tol,
                             bracket_history=history[-20:])
