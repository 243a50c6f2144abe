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
import sys
from pathlib import Path

import numpy as np

from . import artifacts, branching, certificate, spectral, tails
from .errors import (AssemblyError, ConfigError, ConvergenceError,
                     DegeneratePoolError, NoRootError, NoSecondRootError,
                     SmoothtailError, SpecError, WindowError)
from .model import (Branching, FiniteSupport, LognormalRotation,
                    LognormalScalarMatrix, ModelSpec, QLaw, validate)
from .rng import parallel_map, substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_SPECTRAL = 4
EXIT_NO_SECOND_ROOT = 5
EXIT_DEGENERATE = 6
EXIT_WINDOW = 7


# ---------------------------------------------------------------------------
# model (de)serialization
# ---------------------------------------------------------------------------

def model_from_jsonable(doc: dict) -> ModelSpec:
    """Build a ModelSpec from the documented JSON schema."""
    try:
        dim = int(doc["dimension"])
        br = doc["branching"]
        if br.get("mode") == "fixed":
            branch = Branching(mode="fixed", n=int(br["n"]))
        else:
            pmf = br.get("pmf", {})
            support = tuple(int(k) for k in pmf.keys())
            probs = tuple(float(v) for v in pmf.values())
            branch = Branching(mode="random", support=support, probs=probs)
        ens = doc["ensemble"]
        fam = ens.get("family")
        cap = ens.get("finite_moment_s_max")
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
                                             family="scalar_lognormal",
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
        q = doc.get("q_law", {"kind": "zero"})
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


def model_to_jsonable(spec: ModelSpec) -> dict:
    ens = spec.ensemble
    if isinstance(ens, FiniteSupport):
        e = {"family": "finite_support", "matrices": ens.matrices.tolist(),
             "probs": ens.probs.tolist()}
    elif isinstance(ens, LognormalScalarMatrix):
        if ens.family == "scalar_lognormal":
            e = {"family": "scalar_lognormal", "mu": ens.mu, "sigma2": ens.sigma2}
        else:
            e = {"family": "lognormal_fixed_matrix", "mu": ens.mu,
                 "sigma2": ens.sigma2, "matrix": ens.matrix.tolist()}
    else:
        e = {"family": "lognormal_rotation", "mu": ens.mu, "sigma2": ens.sigma2}
    if ens.finite_moment_s_max is not None:
        e["finite_moment_s_max"] = ens.finite_moment_s_max
    br = spec.branching
    b = ({"mode": "fixed", "n": br.n} if br.mode == "fixed" else
         {"mode": "random",
          "pmf": {str(k): p for k, p in zip(br.support, br.probs)}})
    q = spec.q_law
    if q.kind == "zero":
        qd = {"kind": "zero"}
    elif q.kind == "deterministic":
        qd = {"kind": "deterministic", "vector": q.vector.tolist()}
    else:
        qd = {"kind": "finite_support", "vectors": q.vectors.tolist(),
              "probs": q.probs.tolist()}
    return {"dimension": spec.dimension, "branching": b, "ensemble": e,
            "q_law": qd, "class": spec.geom_class, "norm": spec.norm}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

class RunConfig:
    """Parsed configuration plus derived fingerprint per command."""

    def __init__(self, raw: dict, base: Path, seed=None, threads=None, out=None):
        self.raw = raw
        self.base = base
        self.seed = int(seed if seed is not None else raw.get("seed", 0))
        self.threads = int(threads if threads is not None else raw.get("threads", 1))
        self.out = Path(out if out is not None else raw.get("out", "."))
        model_doc = raw.get("model")
        if model_doc is None:
            raise ConfigError("config field 'model' is required")
        if isinstance(model_doc, str):
            path = (base / model_doc) if not Path(model_doc).is_absolute() \
                else Path(model_doc)
            try:
                model_doc = json.loads(path.read_text())
            except FileNotFoundError:
                raise ConfigError(f"model file not found: {path}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}")
        self.model_doc = model_doc
        self.spec = model_from_jsonable(model_doc)

    def section(self, name: str) -> dict:
        sec = self.raw.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        return sec

    def fingerprint(self, command: str) -> str:
        return artifacts.fingerprint({
            "command": command, "model": self.model_doc,
            "params": self.section(command.replace("-", "_")),
            "seed": self.seed})

    def resolve(self, path_str: str) -> Path:
        p = Path(path_str)
        return p if p.is_absolute() else self.base / p


def load_config(path: str, seed=None, threads=None, out=None) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig(raw, p.parent, seed=seed, threads=threads, out=out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig) -> int:
    sec = cfg.section("validate")
    fp = cfg.fingerprint("validate")
    rng = substream(cfg.seed, "validate")
    report = validate(cfg.spec, beta_hat=float(sec.get("beta_hat", 1.0)),
                      eps=float(sec.get("eps", 0.1)),
                      reps=int(sec.get("reps", 20_000)), rng=rng)
    cfg.out.mkdir(parents=True, exist_ok=True)
    artifacts.write_json(cfg.out / "validation.json", report.to_jsonable(), fp)
    return EXIT_VALIDATION if report.hard_fail() else EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    sec = cfg.section("spectrum")
    fp = cfg.fingerprint("spectrum")
    s_grid = [float(s) for s in sec.get("s_grid", [0.0, 0.5, 1.0])]
    mc_reps = int(sec.get("mc_reps", 200_000))
    grid_size = sec.get("grid_size")
    grid = spectral.build_grid(cfg.spec, size=grid_size)
    en = cfg.spec.mean_children()

    def task(i: int):
        s = s_grid[i]
        if not cfg.spec.ensemble.moment_finite(s):
            return None
        rng = substream(cfg.seed, "spectrum", i)
        return spectral.k_grid(cfg.spec, s, grid=grid, mc_reps=mc_reps, rng=rng)

    results = parallel_map(task, len(s_grid), cfg.threads)
    rows = []
    for s, res in zip(s_grid, results):
        if res is None:
            rows.append((s, "NA", "NA", "NA"))
        else:
            rows.append((s, res.k, en * res.k, res.k_se))
    cfg.out.mkdir(parents=True, exist_ok=True)
    artifacts.write_csv(cfg.out / "spectrum.csv", ["s", "k", "m", "se"], rows, fp)
    json_s = sec.get("json_s", s_grid)
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
    grid = spectral.build_grid(cfg.spec, size=sec.get("grid_size"))
    sol = spectral.solve_alpha_beta(
        cfg.spec, s_max=float(sec.get("s_max", 8.0)),
        tol=float(sec.get("tol", 1e-6)), rng=rng, grid=grid,
        mc_reps=int(sec.get("mc_reps", 1_000_000)),
        h=float(sec.get("h", 1e-2)))
    cfg.out.mkdir(parents=True, exist_ok=True)
    artifacts.write_json(cfg.out / "tail_indices.json", sol.to_jsonable(), fp)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    sec = cfg.section("simulate")
    fp = cfg.fingerprint("simulate")
    pool_size = int(sec.get("pool_size", 100_000))
    generations = int(sec.get("generations", 60))
    replicates = int(sec.get("replicates", 8))
    drift_tol = float(sec.get("drift_tol", 0.02))
    x0 = np.asarray(sec.get("x0", [0.0] * cfg.spec.d), dtype=float)
    rngs = [substream(cfg.seed, "simulate", i) for i in range(replicates)]
    pool = branching.sample_fixed_point_replicated(
        cfg.spec, generations, pool_size, x0, rngs, drift_tol=drift_tol,
        fingerprint=fp, threads=cfg.threads)
    cfg.out.mkdir(parents=True, exist_ok=True)
    artifacts.write_pool(cfg.out / "pool.bin", pool, fp)
    if sec.get("write_csv"):
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


def _load_beta(cfg: RunConfig, sec: dict) -> tuple[float, float, float]:
    """(beta, rho, k_beta) from explicit config values or a solution file."""
    if "beta" in sec:
        beta = float(sec["beta"])
        rho = float(sec.get("rho", 0.0)) or None
        k_beta = float(sec.get("k_beta", 0.0)) or None
        return beta, rho, k_beta
    if "solution" in sec:
        path = cfg.resolve(sec["solution"])
        doc = artifacts.read_json(path)
        try:
            return float(doc["beta"]), float(doc["rho"]), float(doc["k_beta"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: not a solve-index solution "
                              f"({type(exc).__name__}: {exc})")
    raise ConfigError("need 'beta' or 'solution' in the command section")


def cmd_tails(cfg: RunConfig) -> int:
    sec = cfg.section("tails")
    fp = cfg.fingerprint("tails")
    if "pool" not in sec:
        raise ConfigError("tails needs a 'pool' file path")
    pool_path = cfg.resolve(sec["pool"])
    if not pool_path.exists():
        raise ConfigError(f"pool file not found: {pool_path}")
    pool = artifacts.read_pool(pool_path)
    beta, _, _ = _load_beta(cfg, sec)
    u = np.asarray(sec.get("u", [1.0] + [0.0] * (cfg.spec.d - 1)), dtype=float)
    rng = substream(cfg.seed, "tails")
    report = tails.tail_report(
        pool.vectors, u, beta, rng=rng,
        window_quantiles=tuple(sec.get("window_quantiles", (0.99, 0.9999))),
        k_fracs=tuple(sec.get("k_fracs", (0.01, 0.005, 0.002))),
        n_points=int(sec.get("n_points", 25)),
        n_boot=int(sec.get("n_boot", 200)),
        ratio_max=float(sec.get("ratio_max", tails.FLATNESS_RATIO_MAX)))
    cfg.out.mkdir(parents=True, exist_ok=True)
    doc = report.to_jsonable()
    doc["verdict"] = ("positivity supported" if report.flatness.supported
                      else "positivity not supported at this window")
    artifacts.write_json(cfg.out / "tail_report.json", doc, fp)
    rows = list(zip(report.t_grid, report.survival, report.scaled,
                    report.survival_se))
    artifacts.write_csv(cfg.out / "tail_report.csv",
                        ["t", "survival", "scaled", "se"], rows, fp)
    return EXIT_OK


def _load_spectral(cfg: RunConfig, sec: dict):
    if "spectral" not in sec:
        return None
    path = cfg.resolve(sec["spectral"])
    doc = artifacts.read_json(path)
    try:
        grid = spectral.SphereGrid(points=np.asarray(doc["points"], float),
                                   geometry=doc["grid_geometry"],
                                   norm=doc.get("norm", cfg.spec.norm))
        return spectral.SpectralResult(
            s=doc["s"], k=doc["k"], e=np.asarray(doc["e"], float),
            nu=np.asarray(doc["nu"], float), grid=grid,
            residual=doc["residual"], iterations=doc["iterations"],
            mc_reps=doc["mc_reps"], k_se=doc.get("k_se", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a spectrum artifact "
                          f"({type(exc).__name__}: {exc})")


def cmd_certificate(cfg: RunConfig) -> int:
    sec = cfg.section("certificate")
    fp = cfg.fingerprint("certificate")
    if "pool" not in sec:
        raise ConfigError("certificate needs a 'pool' file path")
    pool_path = cfg.resolve(sec["pool"])
    if not pool_path.exists():
        raise ConfigError(f"pool file not found: {pool_path}")
    pool = artifacts.read_pool(pool_path)
    beta, rho, k_beta = _load_beta(cfg, sec)
    if rho is None or k_beta is None:
        raise ConfigError("certificate needs rho and k_beta (or a solution file)")
    u = np.asarray(sec.get("u", [1.0] + [0.0] * (cfg.spec.d - 1)), dtype=float)
    if "t" in sec:
        t = float(sec["t"])
    elif "t_quantile" in sec:
        proj = pool.vectors @ u
        t = float(np.quantile(proj, float(sec["t_quantile"])))
    else:
        raise ConfigError("certificate needs 't' or 't_quantile'")
    kappa_zero = bool(sec.get("force_kappa_zero", False))
    rng = substream(cfg.seed, "certificate")
    report = certificate.lower_bound(
        cfg.spec, u, t, rho, beta, k_beta,
        C1=int(sec.get("C1", 2)), pool_vectors=pool.vectors, rng=rng,
        spectral=_load_spectral(cfg, sec),
        C0=sec.get("C0"), delta=sec.get("delta"), J=int(sec.get("J", 8)),
        reps_v=int(sec.get("reps_v", 100_000)),
        reps_w=int(sec.get("reps_w", 10_000)),
        reps_search=int(sec.get("reps_search", 20_000)),
        min_recommended_nt=int(sec.get("min_recommended_nt",
                                       certificate.MIN_NT_RECOMMENDED)),
        m_stride=int(sec.get("m_stride", 1)), threads=cfg.threads)
    if kappa_zero:
        report.kappa = 0.0
        report.bound = -report.w_sum
        report.verdict = "not positive at these parameters"
        report.flags.append("kappa forced to zero by config")
    cfg.out.mkdir(parents=True, exist_ok=True)
    artifacts.write_json(cfg.out / "certificate.json", report.to_jsonable(), fp)
    artifacts.write_csv(cfg.out / "v_estimates.csv",
                        ["level", "count", "estimate", "se", "hits", "ess",
                         "method"],
                        [(r["level"], r["count"], r["p"], r["se"], r["hits"],
                          r["ess"], r["method"]) for r in report.per_level_V],
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
    except (ConfigError, SpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssemblyError, ConvergenceError) as exc:
        print(f"spectral failure: {exc}", file=sys.stderr)
        return EXIT_SPECTRAL
    except (NoRootError, NoSecondRootError) as exc:
        print(f"root finding: {exc}", file=sys.stderr)
        return EXIT_NO_SECOND_ROOT
    except DegeneratePoolError as exc:
        print(f"degenerate pool: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except WindowError as exc:
        print(f"tail window: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except SmoothtailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
