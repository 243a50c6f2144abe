"""Output checks: which artifacts each command must leave, whether a command
failed, the oracle errors read back from the artifacts, and sha256
provenance.  Files are parsed here independently of the package's readers.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# artifacts each command must write (spectrum also writes spectral_s{i}.json)
EXPECTED = {
    "validate": ("validation.json",),
    "spectrum": ("spectrum.csv",),
    "solve-index": ("tail_indices.json",),
    "simulate": ("pool.bin", "convergence.csv"),
    "tails": ("tail_report.json", "tail_report.csv"),
    "certificate": ("certificate.json", "v_estimates.csv", "w_estimates.csv"),
}
# JSON artifacts in which a non-finite number counts as a failure
FINITE_JSON = ("tail_indices.json", "certificate.json")

# gates for the workloads whose solver is expected to hit its oracle: the
# tolerances of tests/test_multivariate.py, plus 5% on the pool mean
ORACLE_TOL = {"alpha_abs_err": 0.01, "beta_abs_err": 0.02,
              "rho_rel_err": 0.02, "pool_mean_rel_err": 0.05}

_POOL_HEADER = struct.Struct("<8sIIQIBBH16s24s")


def artifact_paths(out: Path, command: str) -> list[Path]:
    paths = [out / name for name in EXPECTED[command]]
    if command == "spectrum":
        paths += sorted(out.glob("spectral_s*.json"))
    return paths


def sha256_of(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths if p.is_file()}


def _all_finite(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    return True


def read_pool(path: Path) -> np.ndarray:
    """Pool vectors from pool.bin, by the layout documented in the README."""
    raw = path.read_bytes()
    if len(raw) < _POOL_HEADER.size:
        raise ValueError(f"{path.name}: shorter than its header")
    magic, _fmt, d, count, *_ = _POOL_HEADER.unpack_from(raw)
    if magic != b"STPOOL01":
        raise ValueError(f"{path.name}: bad magic {magic!r}")
    if len(raw) != _POOL_HEADER.size + 8 * d * count:
        raise ValueError(f"{path.name}: size does not match {count} x {d}")
    return np.frombuffer(raw, dtype="<f8", offset=_POOL_HEADER.size).reshape(
        count, d)


def command_problem(out: Path, command: str, exit_code) -> str | None:
    """Why the command failed, or None.  A command fails if it exits nonzero
    (or raises), leaves an artifact missing or unparseable, or writes a
    non-finite value into tail_indices.json or certificate.json."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    for path in artifact_paths(out, command):
        if not path.is_file():
            return f"missing {path.name}"
        try:
            if path.suffix == ".json":
                doc = json.loads(path.read_text())
                if path.name in FINITE_JSON and not _all_finite(doc):
                    return f"non-finite value in {path.name}"
            elif path.suffix == ".bin":
                read_pool(path)
            else:
                lines = path.read_text().splitlines()
                if len(lines) < 2 or not lines[0].startswith("# "):
                    return f"{path.name}: no header"
        except (ValueError, UnicodeDecodeError) as exc:
            return f"unparseable {path.name}: {exc}"
    return None


def accuracy(out: Path, oracle, commands) -> dict[str, float]:
    """Oracle errors and certificate ESS read from the artifacts in out."""
    metrics = {}
    sol = json.loads((out / "tail_indices.json").read_text())
    metrics["alpha_abs_err"] = abs(sol["alpha"] - oracle.alpha)
    metrics["beta_abs_err"] = abs(sol["beta"] - oracle.beta)
    metrics["rho_rel_err"] = abs(sol["rho"] - oracle.rho) / oracle.rho
    if "simulate" in commands and oracle.pool_mean is not None:
        mean = read_pool(out / "pool.bin").mean(axis=0)
        target = np.asarray(oracle.pool_mean)
        metrics["pool_mean_rel_err"] = float(
            np.max(np.abs(mean - target) / np.abs(target)))
    if "certificate" in commands:
        doc = json.loads((out / "certificate.json").read_text())
        ess = [r["ess"] for r in doc["per_level_V"] + doc["per_geometry_W"]]
        metrics["cert_min_ess"] = float(min(ess))
    return metrics


def invariant_problems(out: Path, workload) -> list[str]:
    """Checks that need no oracle: root ordering, m = 1 at the roots, pool
    shape and finiteness."""
    problems = []
    sol = json.loads((out / "tail_indices.json").read_text())
    if not 0.0 < sol["alpha"] < sol["s_star"] < sol["beta"]:
        problems.append("roots not ordered 0 < alpha < s* < beta")
    for key in ("m_alpha", "m_beta"):
        if abs(sol[key] - 1.0) > 1e-4:
            problems.append(f"{key} = {sol[key]!r} is not 1")
    if "simulate" in workload.commands:
        pool = read_pool(out / "pool.bin")
        sec = workload.sections["simulate"]
        if pool.shape != (sec["pool_size"], workload.model["dimension"]):
            problems.append(f"pool shape {pool.shape}")
        if not np.isfinite(pool).all():
            problems.append("non-finite pool values")
    return problems


def oracle_problems(metrics: dict, workload) -> list[str]:
    if not workload.gate_oracle:
        return []
    return [f"{name} = {metrics[name]:.3g} above {tol}"
            for name, tol in ORACLE_TOL.items()
            if name in metrics and metrics[name] > tol]
