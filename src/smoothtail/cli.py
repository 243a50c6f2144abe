"""Configuration-driven command line.

Commands: validate | spectrum | solve-index | simulate | tails | certificate.
Global flags: --config PATH, --seed U64, --threads N, --out DIR.  Exit codes:
0 ok, 2 config error, 3 validation fail, 4 spectral failure, 5 no second
root, 6 degenerate pool, 7 unresolvable tail window.

Parallelism is replicate-level fan-out over substreams keyed by
(master seed, task kind, task index), merged in index order, so outputs are
byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import artifacts, branching, certificate, spectral, tails
from .errors import ConfigError, DegeneratePoolError, SmoothtailError
from .model import (Branching, FiniteSupport, LognormalRotation,
                    LognormalScalarMatrix, ModelSpec, QLaw, validate)
from .rng import parallel_map  # noqa: F401  (the benchmark tracer looks it up here)
from .rng import substream

EXIT_OK = 0
EXIT_VALIDATION = 3


# ---------------------------------------------------------------------------
# model (de)serialization
# ---------------------------------------------------------------------------

def _reject_non_finite(value, where: str) -> None:
    """Refuse NaN or Infinity (json reads both) anywhere in a JSON value,
    naming the innermost key that holds it."""
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}")
        return
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        raise ConfigError(f"{where}: need finite values, got {value!r}") from None


def _object(value, where: str) -> dict:
    """value, which the schema requires to be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: need a JSON object, got {value!r}")
    return value


def model_from_jsonable(doc: dict) -> ModelSpec:
    """Build a ModelSpec from the documented JSON schema."""
    _reject_non_finite(doc, "model")
    try:
        dim = int(doc["dimension"])
        br = _object(doc["branching"], "model.branching")
        if br.get("mode") == "fixed":
            branch = Branching(mode="fixed", n=int(br["n"]))
        else:
            pmf = _object(br.get("pmf", {}), "model.branching.pmf")
            support = tuple(int(k) for k in pmf.keys())
            probs = tuple(float(v) for v in pmf.values())
            branch = Branching(mode="random", support=support, probs=probs)
        ens = _object(doc["ensemble"], "model.ensemble")
        fam = ens.get("family")
        cap = ens.get("finite_moment_s_max")
        if cap is not None:
            cap = float(cap)
            if not cap > 0:
                raise ConfigError(
                    f"finite_moment_s_max: need a positive cap, got {cap!r}")
        if fam == "finite_support":
            ensemble = FiniteSupport(matrices=np.asarray(ens["matrices"], float),
                                     probs=np.asarray(ens["probs"], float),
                                     finite_moment_s_max=cap)
        elif fam == "scalar_lognormal":
            if dim != 1:
                raise ConfigError("scalar_lognormal requires dimension 1")
            ensemble = LognormalScalarMatrix(mu=float(ens["mu"]),
                                             sigma2=float(ens["sigma2"]),
                                             matrix=[[1.0]],
                                             finite_moment_s_max=cap)
        elif fam == "lognormal_fixed_matrix":
            ensemble = LognormalScalarMatrix(mu=float(ens["mu"]),
                                             sigma2=float(ens["sigma2"]),
                                             matrix=np.asarray(ens["matrix"], float),
                                             finite_moment_s_max=cap)
        elif fam == "lognormal_rotation":
            ensemble = LognormalRotation(mu=float(ens["mu"]),
                                         sigma2=float(ens["sigma2"]), d=dim,
                                         finite_moment_s_max=cap)
        else:
            raise ConfigError(f"unknown ensemble family {fam!r}")
        q = _object(doc.get("q_law", {"kind": "zero"}), "model.q_law")
        kind = q.get("kind")
        if kind == "zero":
            q_law = QLaw(kind="zero")
        elif kind == "deterministic":
            q_law = QLaw(kind="deterministic", vector=np.asarray(q["vector"], float))
        elif kind == "finite_support":
            q_law = QLaw(kind="finite_support",
                         vectors=np.asarray(q["vectors"], float),
                         probs=np.asarray(q["probs"], float))
        else:
            raise ConfigError(f"unknown q_law kind {kind!r}")
        return ModelSpec(dimension=dim, branching=branch, ensemble=ensemble,
                         q_law=q_law, geom_class=doc["class"],
                         norm=doc.get("norm", ""))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"model document: {exc}") from exc


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _floats(values) -> list[float]:
    """A JSON number or list of numbers as floats (a Section.num converter)."""
    if not isinstance(values, (list, tuple)):
        values = [values]
    return [float(v) for v in values]


class Section(dict):
    """One config section, named in the errors its values raise, with the
    keys a command has read from it."""

    def __init__(self, name: str, values: dict):
        super().__init__(values)
        self.name = name
        self.read: set = set()

    def __getitem__(self, key: str):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key: str, default=None):
        self.read.add(key)
        return super().get(key, default)

    def reject_unread(self) -> None:
        """Refuse the first key no read so far has asked for: a typo, a key
        of another command, or the second of two alternatives such as
        beta and solution."""
        for key in self:
            if key not in self.read:
                raise ConfigError(f"{self.name}.{key}: unknown key")

    def num(self, key: str, default=None, kind=float):
        """self[key] (default when absent) as kind; None stays None.  An
        int key takes an integral float such as 1e5, and no other; a float,
        or each float of a list, must be finite."""
        value = self.get(key, default)
        if value is None:
            return None
        if (kind is int and isinstance(value, float) and math.isfinite(value)
                and not value.is_integer()):
            raise ConfigError(
                f"{self.name}.{key}: need an integer, got {value!r}")
        try:
            out = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                f"{self.name}.{key}: non-numeric value {value!r}") from None
        if kind is not int:
            # json reads NaN and Infinity, which no key takes
            self.require(key, np.isfinite(out).all(), "finite values")
        return out

    def typed(self, key: str, kind: type, need: str, default=None):
        """self[key] (default when absent), refused unless a kind: a path
        is a str and a switch a bool."""
        value = self.get(key, default)
        self.require(key, isinstance(value, kind), need)
        return value

    def require(self, key: str, ok: bool, need: str) -> None:
        """Reject self[key] unless ok, naming what the key needs."""
        if not ok:
            raise ConfigError(
                f"{self.name}.{key}: need {need}, got {self.get(key)!r}")

    def direction(self, key: str, d: int) -> np.ndarray:
        """self[key] as a d-vector, e_1 when absent."""
        u = np.asarray(self.num(key, [1.0] + [0.0] * (d - 1), _floats))
        if u.shape != (d,):
            raise ConfigError(
                f"{self.name}.{key}: length {u.size}, the model dimension is {d}")
        self.require(key, u.any(), "a nonzero direction")
        return u


class RunConfig:
    """Parsed configuration plus derived fingerprint per command."""

    def __init__(self, raw: dict, base: Path, seed=None, threads=None, out=None):
        self.raw = raw
        self.base = base
        root = Section("config", raw)
        self.seed = int(seed) if seed is not None else root.num("seed", 0, int)
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed: need 0 <= seed < 2**64, got {self.seed}")
        self.threads = (int(threads) if threads is not None
                        else root.num("threads", 1, int))
        self.out = Path(out if out is not None
                        else root.typed("out", str, "a path string", "."))
        model_doc = raw.get("model")
        if model_doc is None:
            raise ConfigError("config field 'model' is required")
        if isinstance(model_doc, str):
            model_doc = artifacts.read_json(self.resolve(model_doc))
        self.model_doc = model_doc
        self.spec = model_from_jsonable(model_doc)

    def section(self, name: str) -> Section:
        sec = self.raw.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        return Section(name, sec)

    def fingerprint(self, command: str) -> str:
        return artifacts.fingerprint({
            "command": command, "model": self.model_doc,
            "params": self.section(command.replace("-", "_")),
            "seed": self.seed})

    def resolve(self, path_str: str) -> Path:
        p = Path(path_str)
        return p if p.is_absolute() else self.base / p


def load_config(path: str, seed=None, threads=None, out=None) -> RunConfig:
    raw = artifacts.read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig(raw, Path(path).parent, seed=seed, threads=threads,
                     out=out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig) -> int:
    sec = cfg.section("validate")
    fp = cfg.fingerprint("validate")
    rng = substream(cfg.seed, "validate")
    eps, reps = sec.num("eps", 0.1), sec.num("reps", 20_000, int)
    sec.require("eps", eps > 0, "eps > 0")
    sec.require("reps", reps >= 1, "reps >= 1")
    beta_hat = sec.num("beta_hat", 1.0)
    sec.reject_unread()
    report = validate(cfg.spec, beta_hat=beta_hat, eps=eps, reps=reps, rng=rng)
    artifacts.write_json(cfg.out / "validation.json", report.to_jsonable(), fp)
    return EXIT_VALIDATION if report.hard_fail() else EXIT_OK


def _spectral_settings(sec: Section, mc_reps_default: int):
    """(grid_size, mc_reps) of a spectrum or solve_index section, checked."""
    grid_size = sec.num("grid_size", None, int)
    mc_reps = sec.num("mc_reps", mc_reps_default, int)
    sec.require("grid_size", grid_size is None or grid_size >= 2,
                "grid_size >= 2")
    sec.require("mc_reps", mc_reps >= 1, "mc_reps >= 1")
    return grid_size, mc_reps


def cmd_spectrum(cfg: RunConfig) -> int:
    sec = cfg.section("spectrum")
    fp = cfg.fingerprint("spectrum")
    s_grid = sec.num("s_grid", [0.0, 0.5, 1.0], _floats)
    json_s = sec.num("json_s", s_grid, _floats)
    grid_size, mc_reps = _spectral_settings(sec, 200_000)
    sec.reject_unread()
    grid = spectral.build_grid(cfg.spec, size=grid_size)
    # one draw set for every s: k(s) does not depend on the rest of s_grid
    assembler = spectral.OperatorAssembler(cfg.spec, grid, mc_reps,
                                           substream(cfg.seed, "spectrum"))
    en = cfg.spec.mean_children()

    # a plain loop: one thread ran the rows faster than two (README,
    # "Determinism")
    results = [spectral.k_grid(assembler, s)
               if cfg.spec.ensemble.moment_finite(s) else None
               for s in s_grid]
    rows = []
    for s, res in zip(s_grid, results):
        if res is None:
            rows.append((s, "NA", "NA"))
        else:
            rows.append((s, res.k, en * res.k))
    artifacts.write_csv(cfg.out / "spectrum.csv", ["s", "k", "m"], rows, fp)
    for i, (s, res) in enumerate(zip(s_grid, results)):
        if res is None or s not in json_s:
            continue
        doc = res.to_jsonable()
        doc["norm"] = cfg.spec.norm
        artifacts.write_json(cfg.out / f"spectral_s{i}.json", doc, fp)
    return EXIT_OK


def cmd_solve_index(cfg: RunConfig) -> int:
    sec = cfg.section("solve_index")
    fp = cfg.fingerprint("solve-index")
    rng = substream(cfg.seed, "solve-index")
    grid_size, mc_reps = _spectral_settings(sec, 1_000_000)
    tol, h = sec.num("tol", 1e-6), sec.num("h", 1e-2)
    sec.require("tol", tol > 0, "tol > 0")
    sec.require("h", h > 0, "h > 0")
    s_max = sec.num("s_max", 8.0)
    sec.reject_unread()
    grid = spectral.build_grid(cfg.spec, size=grid_size)
    sol = spectral.solve_alpha_beta(cfg.spec, s_max=s_max, tol=tol, rng=rng,
                                    grid=grid, mc_reps=mc_reps, h=h)
    artifacts.write_json(cfg.out / "tail_indices.json", sol.to_jsonable(), fp)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    sec = cfg.section("simulate")
    fp = cfg.fingerprint("simulate")
    pool_size = sec.num("pool_size", 100_000, int)
    generations = sec.num("generations", 60, int)
    replicates = sec.num("replicates", 8, int)
    x0 = np.asarray(sec.num("x0", [0.0] * cfg.spec.d, _floats))
    write_csv = sec.typed("write_csv", bool, "true or false", False)
    sec.reject_unread()
    rngs = [substream(cfg.seed, "simulate", i) for i in range(replicates)]
    pool = branching.sample_fixed_point_replicated(
        cfg.spec, generations, pool_size, x0, rngs, threads=cfg.threads)
    artifacts.write_pool(cfg.out / "pool.bin", pool, fp)
    if write_csv:
        artifacts.write_pool_csv(cfg.out / "pool.csv", pool, fp)
    rows = []
    for r, hist in enumerate(pool.history):
        for (g, mean, dec) in hist:
            rows.append((r, g, mean, *dec))
    cols = ["replicate", "generation", "mean"] + [f"q{10 * i}" for i in range(1, 10)]
    artifacts.write_csv(cfg.out / "convergence.csv", cols, rows, fp)
    if pool.degenerate:
        raise DegeneratePoolError("simulated pool is degenerate (point mass)")
    return EXIT_OK


def _load_beta(cfg: RunConfig, sec: Section) -> tuple[float, float, float]:
    """(beta, rho, k_beta) from explicit config values or a solution file;
    a value the config or the file leaves out is None.  beta must be
    positive, and so must k_beta where it is given."""
    if "beta" in sec:
        where = f"{sec.name}."
        values = {"beta": sec.num("beta"), "rho": sec.num("rho", 0.0) or None,
                  "k_beta": sec.num("k_beta", 0.0) or None}
    elif "solution" in sec:
        path = cfg.resolve(sec.typed("solution", str, "a path string"))
        where = f"{path}: "
        doc = artifacts.read_json(path)
        try:
            values = {"beta": float(doc["beta"])}
            values.update((k, None if doc.get(k) is None else float(doc[k]))
                          for k in ("rho", "k_beta"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: not a solve-index solution "
                              f"({type(exc).__name__}: {exc})")
    else:
        raise ConfigError("need 'beta' or 'solution' in the command section")
    for key in ("beta", "k_beta"):
        value = values[key]
        if (key == "beta" or value is not None) and not (value or 0) > 0:
            raise ConfigError(f"{where}{key}: need {key} > 0, got {value!r}")
    return values["beta"], values["rho"], values["k_beta"]


def _load_pool(cfg: RunConfig, sec: Section) -> branching.FixedPointPool:
    """The pool file named in sec, checked against the model's dimension."""
    if "pool" not in sec:
        raise ConfigError(f"{sec.name} needs a 'pool' file path")
    path = cfg.resolve(sec.typed("pool", str, "a path string"))
    pool = artifacts.read_pool(path)
    if pool.d != cfg.spec.d:
        raise ConfigError(f"{path}: pool dimension {pool.d}, the model "
                          f"dimension is {cfg.spec.d}")
    return pool


def cmd_tails(cfg: RunConfig) -> int:
    sec = cfg.section("tails")
    fp = cfg.fingerprint("tails")
    pool = _load_pool(cfg, sec)
    window = sec.num("window_quantiles", (0.99, 0.9999), _floats)
    k_fracs = sec.num("k_fracs", (0.01, 0.005, 0.002), _floats)
    n_points = sec.num("n_points", 25, int)
    n_boot = sec.num("n_boot", 200, int)
    ratio_max = sec.num("ratio_max", tails.FLATNESS_RATIO_MAX)
    sec.require("window_quantiles",
                len(window) == 2 and 0 < window[0] < window[1] < 1,
                "two quantiles 0 < q0 < q1 < 1")
    sec.require("k_fracs", all(0 < kf < 1 for kf in k_fracs),
                "each k_frac in (0, 1)")
    sec.require("n_points", n_points >= 2, "n_points >= 2")
    sec.require("n_boot", n_boot >= 1, "n_boot >= 1")
    # max/min of the scaled tail is at least 1, so no smaller cap can pass
    sec.require("ratio_max", ratio_max > 1, "ratio_max > 1")
    beta = _load_beta(cfg, sec)[0]
    u = sec.direction("u", cfg.spec.d)
    sec.reject_unread()
    rng = substream(cfg.seed, "tails")
    report = tails.tail_report(
        pool.vectors, u, beta, rng=rng, window_quantiles=tuple(window),
        k_fracs=tuple(k_fracs), n_points=n_points, n_boot=n_boot,
        ratio_max=ratio_max)
    doc = report.to_jsonable()
    doc["verdict"] = ("positivity supported" if report.flatness.supported
                      else "positivity not supported at this window")
    artifacts.write_json(cfg.out / "tail_report.json", doc, fp)
    flat = report.flatness
    rows = list(zip(flat.t_grid, flat.survival, flat.scaled,
                    report.survival_se))
    artifacts.write_csv(cfg.out / "tail_report.csv",
                        ["t", "survival", "scaled", "se"], rows, fp)
    return EXIT_OK


def cmd_certificate(cfg: RunConfig) -> int:
    sec = cfg.section("certificate")
    fp = cfg.fingerprint("certificate")
    pool = _load_pool(cfg, sec)
    beta, rho, k_beta = _load_beta(cfg, sec)
    if rho is None or k_beta is None:
        raise ConfigError("certificate needs rho and k_beta (or a solution file)")
    u = sec.direction("u", cfg.spec.d)
    C0, delta = sec.num("C0"), sec.num("delta")
    sec.require("delta" if C0 is None else "C0",
                (C0 is None) == (delta is None),
                "C0 and delta together, or neither")
    reps = {key: sec.num(key, default, int) for key, default in
            (("reps_v", 100_000), ("reps_w", 10_000), ("reps_search", 20_000))}
    for key, n in reps.items():
        sec.require(key, n >= 1, f"{key} >= 1")
    J = sec.num("J", 8, int)
    sec.require("J", J >= 1, "J >= 1")
    C1 = sec.num("C1", 2, int)
    if "t" in sec:
        t = sec.num("t")
    elif "t_quantile" in sec:
        q = sec.num("t_quantile")
        sec.require("t_quantile", 0 < q < 1, "0 < t_quantile < 1")
        t = float(np.quantile(pool.vectors @ u, q))
    else:
        raise ConfigError("certificate needs 't' or 't_quantile'")
    sec.reject_unread()
    rng = substream(cfg.seed, "certificate")
    report = certificate.lower_bound(
        cfg.spec, u, t, rho, beta, k_beta, C1=C1, pool_vectors=pool.vectors,
        rng=rng, C0=C0, delta=delta, J=J, **reps, threads=cfg.threads)
    artifacts.write_json(cfg.out / "certificate.json", report.to_jsonable(), fp)
    artifacts.write_csv(cfg.out / "v_estimates.csv",
                        ["level", "count", "estimate", "se", "hits", "ess",
                         "method", "weighted", "weighted_se"],
                        [(r["level"], r["count"], r["p"], r["se"], r["hits"],
                          r["ess"], r["method"], r["weighted"],
                          r["weighted_se"]) for r in report.per_level_V],
                        fp)
    artifacts.write_csv(cfg.out / "w_estimates.csv",
                        ["p", "q", "m", "count", "estimate", "se", "hits",
                         "ess", "method"],
                        [(r["p"], r["q"], r["m"], r["count"], r["prob"],
                          r["se"], r["hits"], r["ess"], r["method"])
                         for r in report.per_geometry_W],
                        fp)
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "solve-index": cmd_solve_index,
    "simulate": cmd_simulate,
    "tails": cmd_tails,
    "certificate": cmd_certificate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smoothtail",
        description="Fixed points of multivariate smoothing transforms: "
                    "spectral tail indices, pool simulation, and tail "
                    "positivity certificates.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run config JSON")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--threads", type=int, default=None, help="worker count")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, threads=args.threads,
                          out=args.out)
        return COMMANDS[args.command](cfg)
    except SmoothtailError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
