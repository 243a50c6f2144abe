"""CLI exit codes, file artifacts, and byte-level determinism."""

import hashlib
import json
import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (ALPHA_D1, BETA_D1, RHO_D1, d2_finite_three_spec,
                      d2_lognormal_matrix_spec, d3_rotation_spec)
from reference_oracles import model_to_jsonable
from smoothtail import artifacts
from smoothtail.branching import FixedPointPool
from smoothtail.cli import Section, main, model_from_jsonable
from smoothtail.errors import ConfigError

D1_MODEL = {
    "dimension": 1,
    "branching": {"mode": "fixed", "n": 2},
    "ensemble": {"family": "scalar_lognormal", "mu": -1.0, "sigma2": 0.5},
    "q_law": {"kind": "deterministic", "vector": [1.0]},
    "class": "nonnegative-C",
}


def _write(tmp: Path, name: str, doc) -> Path:
    p = tmp / name
    p.write_text(json.dumps(doc))
    return p


def _run(tmp: Path, command: str, config: dict, out="out", **kw) -> int:
    cfg = _write(tmp, f"cfg_{command}.json", config)
    argv = [command, "--config", str(cfg), "--out", str(tmp / out)]
    for k, v in kw.items():
        argv += [f"--{k}", str(v)]
    return main(argv)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_malformed_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    rc = main(["validate", "--config", str(p)])
    assert rc == 2
    assert "line" in capsys.readouterr().err


def test_negative_dimension_exit_2(tmp_path):
    model = dict(D1_MODEL, dimension=-1)
    rc = _run(tmp_path, "validate", {"model": model, "seed": 1})
    assert rc == 2


@pytest.mark.parametrize("cap, named", [
    ("x", "could not convert string to float: 'x'"),
    (0, "finite_moment_s_max: need a positive cap, got 0.0"),
    (-1.5, "finite_moment_s_max: need a positive cap, got -1.5"),
], ids=["non-numeric", "zero", "negative"])
def test_bad_finite_moment_cap_exit_2(tmp_path, capsys, cap, named):
    model = dict(D1_MODEL)
    model["ensemble"] = dict(model["ensemble"], finite_moment_s_max=cap)
    cfg = {"model": model, "seed": 1, "spectrum": {"s_grid": [1.0]}}
    assert _run(tmp_path, "spectrum", cfg) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_missing_pool_exit_2(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 1,
           "tails": {"pool": "nope.bin", "beta": 3.0}}
    assert _run(tmp_path, "tails", cfg) == 2


def test_truncated_pool_exit_2(tmp_path, capsys):
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    path = tmp_path / "pool.bin"
    artifacts.write_pool(path, pool, "0" * 16)
    raw = path.read_bytes()
    header = len(raw) - 2000 * 8
    path.write_bytes(raw[:header + 1000 * 8])
    cfg = {"model": D1_MODEL, "seed": 1,
           "tails": {"pool": "pool.bin", "beta": 3.0}}
    assert _run(tmp_path, "tails", cfg) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", [0, 2, 2 ** 32 - 1])
def test_pool_of_another_format_exit_2(tmp_path, capsys, fmt):
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    path = tmp_path / "pool.bin"
    artifacts.write_pool(path, pool, "0" * 16)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", fmt)       # the u32 after the magic
    path.write_bytes(bytes(raw))
    cfg = {"model": D1_MODEL, "seed": 1,
           "tails": {"pool": "pool.bin", "beta": 3.0}}
    assert _run(tmp_path, "tails", cfg) == 2
    err = capsys.readouterr().err
    assert f"{path}: pool format {fmt}; this version reads format 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


SOLUTION = {"beta": BETA_D1, "rho": RHO_D1, "k_beta": 0.5}


@pytest.mark.parametrize("command, files, section, named", [
    ("tails", {}, {"solution": "sol.json"}, "sol.json"),
    ("certificate", {}, {"solution": "sol.json"}, "sol.json"),
    ("tails", {"sol.json": "{ not json"}, {"solution": "sol.json"}, "sol.json"),
    ("certificate", {"sol.json": {"beta": BETA_D1}}, {"solution": "sol.json"},
     "certificate needs rho and k_beta"),
    ("tails", {}, {"beta": 3.0, "pool": "pool_d2.bin"},
     "pool dimension 2, the model dimension is 1"),
    ("certificate", {"sol.json": SOLUTION},
     {"solution": "sol.json", "pool": "pool_d2.bin"},
     "pool dimension 2, the model dimension is 1"),
    ("tails", {"sol.json": dict(SOLUTION, beta=-1.0)},
     {"solution": "sol.json"}, "sol.json: beta: need beta > 0, got -1.0"),
    ("certificate", {"sol.json": dict(SOLUTION, beta=0.0)},
     {"solution": "sol.json"}, "sol.json: beta: need beta > 0, got 0.0"),
    ("certificate", {"sol.json": dict(SOLUTION, k_beta=-0.5)},
     {"solution": "sol.json"}, "sol.json: k_beta: need k_beta > 0, got -0.5"),
], ids=["tails-missing-solution", "certificate-missing-solution",
        "solution-bad-json", "solution-without-rho", "tails-pool-of-d2",
        "certificate-pool-of-d2", "tails-solution-negative-beta",
        "certificate-solution-zero-beta",
        "certificate-solution-negative-k_beta"])
def test_bad_artifact_file_exit_2(tmp_path, capsys, command, files, section,
                                  named):
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    pool_d2 = FixedPointPool(vectors=np.ones((100, 2)), generation=1,
                             converged=True)
    artifacts.write_pool(tmp_path / "pool_d2.bin", pool_d2, "0" * 16)
    for name, doc in files.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (tmp_path / name).write_text(text)
    sec = {"pool": "pool.bin", **section}
    if command == "certificate":
        sec["t"] = 10.0
    cfg = {"model": D1_MODEL, "seed": 1, command: sec}
    assert _run(tmp_path, command, cfg) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("replicates", [0, -1, 1001])
def test_simulate_bad_replicates_exit_2(tmp_path, capsys, replicates):
    cfg = {"model": D1_MODEL, "seed": 2,
           "simulate": {"pool_size": 1000, "generations": 2,
                        "replicates": replicates, "x0": [1.0]}}
    assert _run(tmp_path, "simulate", cfg) == 2
    assert "need 1 <= replicates <= pool_size" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, need", [
    ("n_boot", 0, "n_boot >= 1"),
    ("n_boot", -5, "n_boot >= 1"),
    ("n_points", 1, "n_points >= 2"),
    ("window_quantiles", [0.99, 1.5], "two quantiles 0 < q0 < q1 < 1"),
    ("window_quantiles", [0.0, 0.9], "two quantiles 0 < q0 < q1 < 1"),
    ("window_quantiles", [0.9, 0.5], "two quantiles 0 < q0 < q1 < 1"),
    ("window_quantiles", [0.5, 0.9, 0.99], "two quantiles 0 < q0 < q1 < 1"),
    ("window_quantiles", 0.9, "two quantiles 0 < q0 < q1 < 1"),
    ("k_fracs", [0.01, 1.0], "each k_frac in (0, 1)"),
    ("k_fracs", [0.0], "each k_frac in (0, 1)"),
    ("ratio_max", 1.0, "ratio_max > 1"),
])
def test_tails_out_of_range_value_exit_2(tmp_path, capsys, key, value, need):
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    sec = {"pool": "pool.bin", "beta": 3.0, "window_quantiles": [0.5, 0.9],
           "n_boot": 20, key: value}
    assert _run(tmp_path, "tails", {"model": D1_MODEL, "seed": 1,
                                    "tails": sec}) == 2
    err = capsys.readouterr().err
    assert f"tails.{key}: need {need}, got {value!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out/tail_report.json").exists()


def test_model_roundtrip():
    spec = model_from_jsonable(D1_MODEL)
    doc = model_to_jsonable(spec)
    spec2 = model_from_jsonable(doc)
    assert model_to_jsonable(spec2) == doc


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 3,
           "validate": {"beta_hat": 3.1, "eps": 0.1, "reps": 2000}}
    assert _run(tmp_path, "validate", cfg) == 0
    doc = json.loads((tmp_path / "out/validation.json").read_text())
    assert doc["conditions"]["positive_product"]["verdict"] == "pass"
    assert doc["meta"]["version"].startswith("smoothtail-")


def test_validate_reads_the_direction_factors_of_a_small_scale(tmp_path):
    # m(s) = 2 exp(-25 s + 10 s^2) has the roots 0.0280 and 2.4720; about
    # 28% of the draws have W < ZERO_TOL, which a structural zero is not
    model = dict(D1_MODEL, ensemble={"family": "scalar_lognormal",
                                     "mu": -25.0, "sigma2": 20.0})
    cfg = {"model": model, "seed": 3,
           "validate": {"beta_hat": 2.472, "eps": 0.1, "reps": 2000}}
    assert _run(tmp_path, "validate", cfg) == 0
    doc = json.loads((tmp_path / "out/validation.json").read_text())
    assert doc["conditions"]["allowable"] == {"verdict": "pass",
                                              "evidence": {"checked": 1}}
    assert doc["conditions"]["positive_product"]["verdict"] == "pass"
    assert doc["positive_product_witness"] == [[1.0]]


def test_validate_hard_fail_exit_3(tmp_path):
    model = {
        "dimension": 2,
        "branching": {"mode": "fixed", "n": 2},
        "ensemble": {"family": "finite_support",
                     "matrices": [[[0.0, 1.0], [1.0, 0.0]]], "probs": [1.0]},
        "q_law": {"kind": "zero"},
        "class": "nonnegative-C",
    }
    cfg = {"model": model, "seed": 3, "validate": {"reps": 500}}
    assert _run(tmp_path, "validate", cfg) == 3


def _strict_json(path: Path) -> dict:
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_validate_infinite_moment_is_written_null(tmp_path):
    # the zero row of the first atom, held with probability 1/2, makes
    # iota(A*) = 0: the moment is infinite and written null
    model = {
        "dimension": 2,
        "branching": {"mode": "fixed", "n": 2},
        "ensemble": {"family": "finite_support",
                     "matrices": [[[0.3, 0.3], [0.0, 0.0]],
                                  [[0.5, 0.2], [0.2, 0.5]]],
                     "probs": [0.5, 0.5]},
        "q_law": {"kind": "deterministic", "vector": [1.0, 1.0]},
        "class": "nonnegative-C",
    }
    cfg = {"model": model, "seed": 3, "validate": {"reps": 2000}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, "validate", cfg) == 3
    doc = _strict_json(tmp_path / "out/validation.json")
    assert doc["conditions"]["allowable"]["verdict"] == "fail"
    moments = doc["moments"]
    assert moments["E||A*||^s iota^-eps"] is None
    assert math.isfinite(moments["E|Q|^s"])
    assert not any(key.endswith("_se") for key in moments)


@pytest.mark.parametrize("model, section, nulls", [
    # E W^s and |Q|^s = 2^s both overflow at s = 2000.1
    (model_to_jsonable(d2_lognormal_matrix_spec()), {"beta_hat": 2000},
     {"E|Q|^s", "E||A*||^s iota^-eps"}),
    # the family declares E||M||^s infinite past s = 2, and s = 3.2
    ({"dimension": 1, "branching": {"mode": "fixed", "n": 2},
      "ensemble": {"family": "scalar_lognormal", "mu": -1.0, "sigma2": 0.5,
                   "finite_moment_s_max": 2.0},
      "q_law": {"kind": "deterministic", "vector": [1.0]},
      "class": "nonnegative-C"},
     {"beta_hat": 3.1}, {"E||A*||^s iota^-eps"}),
], ids=["overflow", "declared-cap"])
def test_validate_unbounded_moments_are_written_null(tmp_path, model,
                                                     section, nulls):
    cfg = {"model": model, "seed": 3, "validate": dict(section, reps=500)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, "validate", cfg) == 0
    moments = _strict_json(tmp_path / "out/validation.json")["moments"]
    for key in ("E|Q|^s", "E||A*||^s iota^-eps"):
        assert (moments[key] is None) == (key in nulls)


@pytest.mark.parametrize("value", [math.inf, np.float64("nan"),
                                   np.array([1.5, -np.inf]),
                                   [{"x": (0.1, float("-inf"))}]],
                         ids=["inf", "np-nan", "array", "nested"])
def test_json_reports_refuse_non_finite_floats(tmp_path, value):
    # a non-finite value no report nulls itself is a fault: no file is left
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        artifacts.write_json(path, {"value": value}, "0" * 16)
    assert not path.exists()


@pytest.mark.parametrize("key, value, named", [
    ("branching", {"mode": "random", "pmf": [[2, 1.0]]},
     "model.branching.pmf: need a JSON object"),
    ("ensemble", "scalar_lognormal", "model.ensemble: need a JSON object"),
    ("q_law", [], "model.q_law: need a JSON object"),
], ids=["branching.pmf", "ensemble", "q_law"])
def test_model_sub_document_of_wrong_type_exit_2(tmp_path, capsys, key, value,
                                                 named):
    model = dict(D1_MODEL, **{key: value})
    assert _run(tmp_path, "validate", {"model": model, "seed": 1}) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# spectrum / solve-index
# ---------------------------------------------------------------------------

def test_spectrum_values_and_na(tmp_path):
    model = dict(D1_MODEL)
    model["ensemble"] = dict(model["ensemble"], finite_moment_s_max=2.0)
    cfg = {"model": model, "seed": 5,
           "spectrum": {"s_grid": [0.0, 1.0, 3.0], "mc_reps": 100_000}}
    assert _run(tmp_path, "spectrum", cfg) == 0
    lines = (tmp_path / "out/spectrum.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# smoothtail-")
    assert lines[1] == "s,k,m"
    row0 = lines[2].split(",")
    assert float(row0[1]) == pytest.approx(1.0, abs=1e-3)
    row1 = lines[3].split(",")
    assert float(row1[1]) == pytest.approx(math.exp(-0.75), rel=1e-3)
    assert lines[4].split(",")[1] == "NA"          # beyond the declared cap


def test_spectrum_k_at_beta(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 5,
           "spectrum": {"s_grid": [BETA_D1], "mc_reps": 400_000}}
    assert _run(tmp_path, "spectrum", cfg) == 0
    lines = (tmp_path / "out/spectrum.csv").read_text().strip().splitlines()
    k_beta = float(lines[2].split(",")[1])
    assert k_beta == pytest.approx(0.5, rel=5e-3)


ROT_MODEL = {
    "dimension": 2,
    "branching": {"mode": "fixed", "n": 2},
    "ensemble": {"family": "lognormal_rotation", "mu": -1.0, "sigma2": 0.25},
    "q_law": {"kind": "deterministic", "vector": [1.0, 0.0]},
    "class": "invertible-ipo",
    "norm": "l2",
}


@pytest.mark.parametrize("model", [D1_MODEL, ROT_MODEL], ids=["d1", "c*R"])
def test_spectrum_builds_one_assembler(tmp_path, monkeypatch, model):
    from smoothtail import spectral
    inits = []
    init = spectral.OperatorAssembler.__init__

    def counted(self, *args, **kw):
        inits.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(spectral.OperatorAssembler, "__init__", counted)
    cfg = {"model": model, "seed": 8,
           "spectrum": {"s_grid": [0.0, 1.0, 2.0, 4.0], "mc_reps": 8_000,
                        "grid_size": 32}}
    assert _run(tmp_path, "spectrum", cfg, threads=2) == 0
    assert len(inits) == 1


@pytest.mark.parametrize("model", [D1_MODEL, ROT_MODEL], ids=["d1", "c*R"])
def test_spectrum_k_independent_of_grid_order(tmp_path, model):
    rows = []
    for out, s_grid in (("a", [1.0, 2.0]), ("b", [2.0, 1.0])):
        cfg = {"model": model, "seed": 8,
               "spectrum": {"s_grid": s_grid, "mc_reps": 8_000,
                            "grid_size": 32}}
        assert _run(tmp_path, "spectrum", cfg, out=out) == 0
        lines = (tmp_path / out / "spectrum.csv").read_text().splitlines()
        rows.append(next(r for r in lines[2:] if r.startswith("2.0,")))
    assert rows[0] == rows[1]


def test_spectrum_json_s_scalar(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 8,
           "spectrum": {"s_grid": [0.0, 1.0, 2.0], "mc_reps": 8_000,
                        "json_s": 1.0}}
    assert _run(tmp_path, "spectrum", cfg) == 0
    assert sorted(p.name for p in (tmp_path / "out").glob("spectral_s*")) \
        == ["spectral_s1.json"]


@pytest.mark.parametrize("model, mc_reps, draws", [
    (D1_MODEL, 200_000, 1),
    (model_to_jsonable(d2_finite_three_spec()), 200_000, 3),
    (ROT_MODEL, 8_000, 0),
    (model_to_jsonable(d3_rotation_spec()), 8_000, 1_000),
], ids=["fixed-D", "finite-support", "c*R", "c*R-d3"])
def test_spectral_json_records_the_direction_draws(tmp_path, model, mc_reps,
                                                   draws):
    # a fixed D draws nothing whatever mc_reps says, finite support reads
    # its atoms, rotations on the circle have the closed-form cell law 1/G
    # and draw nothing, and at d = 3 they draw mc_reps // 8
    cfg = {"model": model, "seed": 8,
           "spectrum": {"s_grid": [1.0], "mc_reps": mc_reps,
                        "grid_size": 32}}
    assert _run(tmp_path, "spectrum", cfg) == 0
    doc = json.loads((tmp_path / "out/spectral_s0.json").read_text())
    assert doc["direction_draws"] == draws and "mc_reps" not in doc


def test_solve_index_reference(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 7,
           "solve_index": {"s_max": 6.0, "tol": 1e-7, "mc_reps": 400_000}}
    assert _run(tmp_path, "solve-index", cfg) == 0
    doc = json.loads((tmp_path / "out/tail_indices.json").read_text())
    assert doc["alpha"] == pytest.approx(ALPHA_D1, abs=0.01)
    assert doc["beta"] == pytest.approx(BETA_D1, abs=0.02)
    assert doc["rho"] == pytest.approx(RHO_D1, rel=0.02)
    # round trip: load and re-serialize unchanged
    blob1 = json.dumps(doc, sort_keys=True)
    blob2 = json.dumps(json.loads((tmp_path / "out/tail_indices.json")
                                  .read_text()), sort_keys=True)
    assert blob1 == blob2


def test_solve_index_no_second_root_exit_5(tmp_path):
    model = {
        "dimension": 1,
        "branching": {"mode": "fixed", "n": 2},
        "ensemble": {"family": "finite_support", "matrices": [[[0.25]]],
                     "probs": [1.0]},
        "q_law": {"kind": "deterministic", "vector": [1.0]},
        "class": "nonnegative-C",
    }
    cfg = {"model": model, "seed": 7, "solve_index": {"s_max": 4.0,
                                                      "mc_reps": 1000}}
    assert _run(tmp_path, "solve-index", cfg) == 5


@pytest.mark.parametrize("command, section, s_first", [
    ("spectrum", {"s_grid": [60.0]}, "s=60 "),
    ("solve-index", {"s_max": 100.0}, "s=61.8034 "),
    ("solve-index", {"s_max": 6.0, "h": 1e3}, "s=1003.11 "),
], ids=["spectrum-s60", "solve-s_max100", "solve-h1e3"])
def test_overflowing_scalar_moment_exit_4(tmp_path, capsys, command, section,
                                          s_first):
    # log E W^s = -s + s^2/4 for D1_MODEL passes the float range (709.78)
    # at s = 55.3
    cfg = {"model": D1_MODEL, "seed": 1,
           command.replace("-", "_"): dict(section, mc_reps=1000)}
    assert _run(tmp_path, command, cfg) == 4
    err = capsys.readouterr().err
    assert err.startswith("spectral failure: E W^s overflows at " + s_first)
    assert "lower s_max, h or the s_grid" in err and "Traceback" not in err


@pytest.mark.parametrize("cap", [3.0, 4.0])
def test_solve_index_stops_at_finite_moment_cap(tmp_path, capsys, cap):
    # m(s) = 1 at beta = 3.108 for D1_MODEL: past a cap of 3 the moment is
    # infinite and there is no second root; below a cap of 4 the root stays
    model = dict(D1_MODEL)
    model["ensemble"] = dict(model["ensemble"], finite_moment_s_max=cap)
    sec = {"s_max": 6.0, "tol": 1e-7, "mc_reps": 100_000}
    rc = _run(tmp_path, "solve-index", {"model": model, "seed": 7,
                                        "solve_index": sec})
    if cap < BETA_D1:
        assert rc == 5
        err = capsys.readouterr().err
        assert "m(finite_moment_s_max=3.0)" in err and "Traceback" not in err
        assert not (tmp_path / "out/tail_indices.json").exists()
        return
    assert rc == 0
    assert _run(tmp_path, "solve-index", {"model": D1_MODEL, "seed": 7,
                                          "solve_index": sec}, out="free") == 0
    got, want = (json.loads((tmp_path / out / "tail_indices.json").read_text())
                 for out in ("out", "free"))
    for key in ("alpha", "beta", "rho"):
        assert got[key] == pytest.approx(want[key], abs=1e-6)


NUMERIC_BASE = {
    "tails": {"pool": "pool.bin", "beta": 3.0},
    "certificate": {"pool": "pool.bin", "beta": 3.0, "rho": 0.5,
                    "k_beta": 0.5, "t": 10.0},
}


RANGE_BASE = {
    "validate": {"beta_hat": 3.1, "reps": 2000},
    "spectrum": {"s_grid": [1.0], "mc_reps": 1000},
    "solve_index": {"s_max": 6.0, "mc_reps": 1000},
    "simulate": {"pool_size": 1000, "generations": 2, "replicates": 1,
                 "x0": [1.0]},
    "tails": {"pool": "pool.bin", "beta": 3.0},
    "certificate": {"pool": "pool.bin", "beta": 3.0, "rho": 0.5,
                    "k_beta": 0.5, "t_quantile": 0.99},
}


# the model each "model." row edits, where D1_MODEL lacks the key
RANGE_MODEL = {
    "model.ensemble.matrix": dict(D1_MODEL, ensemble={
        "family": "lognormal_fixed_matrix", "mu": -1.0, "sigma2": 0.5,
        "matrix": [[1.0]]}),
    "model.ensemble.probs": dict(D1_MODEL, ensemble={
        "family": "finite_support", "matrices": [[[0.5]]], "probs": [1.0]}),
}


@pytest.mark.parametrize("command, key, value, need", [
    ("validate", "reps", 0, "reps >= 1"),
    ("validate", "reps", -3, "reps >= 1"),
    ("validate", "eps", 0.0, "eps > 0"),
    ("validate", "eps", -1.0, "eps > 0"),
    ("spectrum", "mc_reps", 0, "mc_reps >= 1"),
    ("spectrum", "grid_size", 1, "grid_size >= 2"),
    ("solve-index", "tol", -1e-3, "tol > 0"),
    ("solve-index", "tol", 0.0, "tol > 0"),
    ("solve-index", "h", 0, "h > 0"),
    ("solve-index", "mc_reps", -5, "mc_reps >= 1"),
    ("solve-index", "grid_size", 0, "grid_size >= 2"),
    ("certificate", "t_quantile", 1.5, "0 < t_quantile < 1"),
    ("certificate", "t_quantile", 0.0, "0 < t_quantile < 1"),
    ("certificate", "reps_v", 0, "reps_v >= 1"),
    ("certificate", "reps_w", -1, "reps_w >= 1"),
    ("certificate", "reps_search", 0, "reps_search >= 1"),
    ("certificate", "C0", 10.0, "C0 and delta together, or neither"),
    ("certificate", "delta", 0.2, "C0 and delta together, or neither"),
    ("certificate", "J", 0, "J >= 1"),
    ("certificate", "J", -2, "J >= 1"),
    ("certificate", "C1", 2.7, "an integer"),
    ("simulate", "generations", 2.5, "an integer"),
    ("spectrum", "mc_reps", 1000.5, "an integer"),
    ("tails", "beta", -1.0, "beta > 0"),
    ("tails", "beta", 0.0, "beta > 0"),
    ("tails", "beta", None, "beta > 0"),
    ("tails", "k_beta", -0.5, "k_beta > 0"),
    ("certificate", "beta", -3.0, "beta > 0"),
    ("certificate", "k_beta", -0.5, "k_beta > 0"),
    ("tails", "u", [0.0], "a nonzero direction"),
    ("certificate", "u", [0.0], "a nonzero direction"),
    # json reads NaN and Infinity
    ("tails", "u", [math.nan], "finite values"),
    ("certificate", "u", [math.nan], "finite values"),
    ("certificate", "t", math.nan, "finite values"),
    ("certificate", "t", math.inf, "finite values"),
    ("certificate", "C0", math.nan, "finite values"),
    # a "model." key is a path into the model document
    ("spectrum", "model.ensemble.mu", math.nan, "finite values"),
    ("validate", "model.ensemble.sigma2", math.inf, "finite values"),
    ("validate", "model.ensemble.matrix", [[math.nan]], "finite values"),
    ("spectrum", "model.q_law.vector", [math.nan], "finite values"),
    ("spectrum", "model.ensemble.probs", [math.nan], "finite values"),
    # a path is a string and a switch a bool
    ("tails", "pool", 5, "a path string"),
    ("certificate", "pool", 5, "a path string"),
    ("tails", "solution", 5, "a path string"),
    ("certificate", "solution", 5, "a path string"),
    ("simulate", "write_csv", "no", "true or false"),
    ("simulate", "write_csv", 1, "true or false"),
])
def test_out_of_range_value_exit_2(tmp_path, capsys, command, key, value,
                                   need):
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    sec = command.replace("-", "_")
    cfg = {"model": json.loads(json.dumps(RANGE_MODEL.get(key, D1_MODEL))),
           "seed": 1, sec: dict(RANGE_BASE[sec])}
    if key == "t":
        del cfg[sec]["t_quantile"]      # the certificate reads one of the two
    if key == "solution":
        for name in ("beta", "rho", "k_beta"):
            cfg[sec].pop(name, None)    # it takes the place of these
    where = key if key.startswith("model.") else f"{sec}.{key}"
    *path, last = where.split(".")
    target = cfg
    for part in path:
        target = target[part]
    target[last] = value
    assert _run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert f"{where}: need {need}, got {value!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_root_out_of_wrong_type_exit_2(tmp_path, capsys, monkeypatch):
    # without --out the config's out names the output directory
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "cfg.json", {"model": D1_MODEL, "seed": 1, "out": 5})
    assert main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config.out: need a path string, got 5" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_integer_key_takes_integral_float():
    sec = Section("simulate", {"pool_size": 1e5, "generations": 2.0})
    assert sec.num("pool_size", None, int) == 100_000
    assert sec.num("generations", None, int) == 2
    with pytest.raises(ConfigError, match=r"^simulate.x0: need an integer, got 0.5$"):
        Section("simulate", {"x0": 0.5}).num("x0", None, int)


@pytest.mark.parametrize("command, where, key, value", [
    ("validate", "config", "seed", "x"),
    ("validate", "config", "threads", "two"),
    ("validate", "validate", "reps", "many"),
    ("spectrum", "spectrum", "mc_reps", "lots"),
    ("spectrum", "spectrum", "s_grid", [0.0, "x"]),
    ("solve-index", "solve_index", "s_max", "x"),
    ("solve-index", "solve_index", "grid_size", "big"),
    ("simulate", "simulate", "generations", "two"),
    ("tails", "tails", "beta", "abc"),
    ("tails", "tails", "n_boot", 1e400),
    ("certificate", "certificate", "C0", "big"),
    ("certificate", "certificate", "delta", [0.2]),
    ("simulate", "simulate", "x0", ["a", 0]),
    ("tails", "tails", "window_quantiles", ["x", 0.999]),
    ("tails", "tails", "k_fracs", [None]),
    ("tails", "tails", "u", ["x"]),
    ("certificate", "certificate", "u", "e1"),
])
def test_non_numeric_config_value_exit_2(tmp_path, capsys, command, where,
                                         key, value):
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    sec = command.replace("-", "_")
    cfg = {"model": D1_MODEL, "seed": 1, sec: dict(NUMERIC_BASE.get(sec, {}))}
    (cfg if where == "config" else cfg[sec])[key] = value
    assert _run(tmp_path, command, cfg) == 2
    assert f"{where}.{key}: non-numeric value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tails", "certificate"])
def test_direction_of_wrong_length_exit_2(tmp_path, capsys, command):
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    sec = dict(NUMERIC_BASE[command], u=[1.0, 0.0, 0.0])
    assert _run(tmp_path, command, {"model": D1_MODEL, "seed": 1,
                                    command: sec}) == 2
    assert (f"{command}.u: length 3, the model dimension is 1"
            in capsys.readouterr().err)


def test_scalar_for_one_entry_list_on_d1(tmp_path):
    # on a d=1 model a bare number stands for the one-entry x0 and u
    cfg = {"model": D1_MODEL, "seed": 2,
           "simulate": {"pool_size": 1000, "generations": 2,
                        "replicates": 1, "x0": 18.094},
           "tails": {"pool": "out/pool.bin", "beta": BETA_D1, "u": 1.0,
                     "window_quantiles": [0.5, 0.9], "n_boot": 20}}
    assert _run(tmp_path, "simulate", cfg) == 0
    assert _run(tmp_path, "tails", cfg) == 0


def test_tails_reads_only_beta_from_solution(tmp_path):
    # rho and k_beta are the certificate's; tails runs on beta alone
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    _write(tmp_path, "sol.json", {"beta": BETA_D1})
    cfg = {"model": D1_MODEL, "seed": 1,
           "tails": {"pool": "pool.bin", "solution": "sol.json",
                     "window_quantiles": [0.5, 0.9], "n_boot": 20}}
    assert _run(tmp_path, "tails", cfg) == 0
    doc = json.loads((tmp_path / "out/tail_report.json").read_text())
    assert doc["beta"] == pytest.approx(BETA_D1)


# ---------------------------------------------------------------------------
# simulate / tails / certificate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = {
        "model": D1_MODEL, "seed": 11,
        "solve_index": {"s_max": 6.0, "tol": 1e-7, "mc_reps": 400_000},
        "simulate": {"pool_size": 120_000, "generations": 60,
                     "replicates": 8, "x0": [18.094]},
    }
    assert _run(tmp, "solve-index", cfg) == 0
    assert _run(tmp, "simulate", cfg) == 0
    return tmp


def test_simulate_artifacts(pipeline):
    pool = artifacts.read_pool(pipeline / "out/pool.bin")
    assert pool.size == 120_000 and pool.d == 1
    assert pool.converged and not pool.degenerate
    lines = (pipeline / "out/convergence.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "replicate"
    assert len(lines) == 2 + 8 * 60


def test_simulate_degenerate_exit_6(tmp_path):
    model = dict(D1_MODEL, q_law={"kind": "zero"})
    cfg = {"model": model, "seed": 2,
           "simulate": {"pool_size": 1000, "generations": 3,
                        "replicates": 2, "x0": [0.0]}}
    assert _run(tmp_path, "simulate", cfg) == 6


def test_tails_pipeline(pipeline):
    cfg = {
        "model": D1_MODEL, "seed": 11,
        "tails": {"pool": "out/pool.bin", "solution": "out/tail_indices.json",
                  "window_quantiles": [0.99, 0.9995]},
    }
    cfg_path = pipeline / "cfg_tails.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["tails", "--config", str(cfg_path),
                 "--out", str(pipeline / "out")]) == 0
    doc = json.loads((pipeline / "out/tail_report.json").read_text())
    assert doc["verdict"] == "positivity supported"
    lines = (pipeline / "out/tail_report.csv").read_text().splitlines()
    assert lines[1] == "t,survival,scaled,se"
    surv = [float(r.split(",")[1]) for r in lines[2:]]
    assert all(a >= b for a, b in zip(surv, surv[1:]))


def test_tails_window_error_exit_7(pipeline):
    cfg = {
        "model": D1_MODEL, "seed": 11,
        "tails": {"pool": "out/pool.bin", "beta": BETA_D1,
                  "window_quantiles": [0.999999, 0.9999999]},
    }
    cfg_path = pipeline / "cfg_tails_bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["tails", "--config", str(cfg_path),
                 "--out", str(pipeline / "out")]) == 7


def test_certificate_pipeline(pipeline):
    cfg = {
        "model": D1_MODEL, "seed": 11,
        "certificate": {"pool": "out/pool.bin",
                        "solution": "out/tail_indices.json",
                        "t_quantile": 0.999, "C1": 2,
                        "C0": 10.0, "delta": 0.2,
                        "reps_v": 30_000, "reps_w": 5_000},
    }
    cfg_path = pipeline / "cfg_cert.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["certificate", "--config", str(cfg_path),
                 "--out", str(pipeline / "out")]) == 0
    doc = json.loads((pipeline / "out/certificate.json").read_text())
    assert {"C0", "delta", "C1", "kappa", "bound", "verdict"} <= set(doc)
    assert doc["C0"] == 10.0 and doc["delta"] == 0.2 and doc["C1"] == 2
    pool = artifacts.read_pool(pipeline / "out/pool.bin")
    emp = float((pool.vectors[:, 0] >
                 np.quantile(pool.vectors[:, 0], 0.999)).mean())
    assert doc["bound"] <= emp + 3 * math.sqrt(emp / pool.size)
    v_lines = (pipeline / "out/v_estimates.csv").read_text().splitlines()
    assert v_lines[1].startswith("level,")


def test_certificate_kappa_zero(pipeline):
    # kappa is the smallest mass over the cones that hold any, so it is
    # never zero: every kappa-dependent field of the report follows the
    # cones' kappa, and a config that still asks to force it exits 2
    cert = {"pool": "out/pool.bin", "solution": "out/tail_indices.json",
            "t_quantile": 0.999, "C1": 2, "C0": 10.0, "delta": 0.2,
            "reps_v": 10_000, "reps_w": 2_000}
    cfg_path = pipeline / "cfg_cert0.json"
    cfg_path.write_text(json.dumps({"model": D1_MODEL, "seed": 11,
                                    "certificate": cert}))
    assert main(["certificate", "--config", str(cfg_path),
                 "--out", str(pipeline / "outk0")]) == 0
    text = (pipeline / "outk0/certificate.json").read_text()

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(text, parse_constant=reject)
    sol = json.loads((pipeline / "out/tail_indices.json").read_text())
    assert doc["kappa"] > 0 and doc["levels"]
    assert doc["bound"] == doc["kappa"] * doc["v_sum"] - doc["w_sum"]
    assert doc["bound_se"] == pytest.approx(math.sqrt(
        (doc["kappa"] * doc["v_sum_se"]) ** 2 + doc["w_sum_se"] ** 2
        + (doc["v_sum"] * doc["kappa_se"]) ** 2), rel=1e-12)
    assert doc["t_beta_v_term"] == pytest.approx(
        doc["t"] ** sol["beta"] * doc["kappa"] * doc["v_sum"], rel=1e-12)
    assert math.isfinite(doc["fitted_D1"])
    cfg_path.write_text(json.dumps({
        "model": D1_MODEL, "seed": 11,
        "certificate": dict(cert, force_kappa_zero=True)}))
    assert main(["certificate", "--config", str(cfg_path),
                 "--out", str(pipeline / "outk0_forced")]) == 2
    assert not (pipeline / "outk0_forced").exists()


def test_certificate_kappa_zero_keeps_vacuous(pipeline):
    # no multiple of C1 = 9 lies in the level window at this t, so L_t is
    # empty: the verdict stays "vacuous" with the cones' kappa > 0, and
    # fitted_D1 (0/0) is written null, not NaN
    cfg = {
        "model": D1_MODEL, "seed": 11,
        "certificate": {"pool": "out/pool.bin",
                        "solution": "out/tail_indices.json",
                        "t_quantile": 0.999, "C1": 9, "C0": 10.0,
                        "delta": 0.2, "reps_v": 1_000, "reps_w": 1_000},
    }
    cfg_path = pipeline / "cfg_cert_vacuous.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["certificate", "--config", str(cfg_path),
                 "--out", str(pipeline / "outv")]) == 0
    text = (pipeline / "outv/certificate.json").read_text()

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(text, parse_constant=reject)
    assert doc["levels"] == [] and doc["verdict"] == "vacuous"
    assert doc["fitted_D1"] is None and doc["kappa"] > 0
    # +0.0, as lower_bound wrote it, not -0.0
    assert math.copysign(1.0, doc["bound"]) == 1.0 and doc["bound"] == 0.0


@pytest.mark.parametrize("command, extra, refused", [
    ("certificate", {"spectral": "spectral_s0.json"}, "spectral"),
    ("certificate", {"force_kappa_zero": True}, "force_kappa_zero"),
    ("certificate", {"min_recommended_nt": 4}, "min_recommended_nt"),
    ("spectrum", {"mc_repz": 1000}, "mc_repz"),
    ("simulate", {"beta": 3.0}, "beta"),
    ("simulate", {"drift_tol": 0.05}, "drift_tol"),         # a constant now
    ("tails", {"t": 10.0}, "t"),
    ("tails", {"solution": "sol.json"}, "solution"),        # beta is read
    ("certificate", {"t": 10.0}, "t_quantile"),             # t is read
], ids=["spectral", "force_kappa_zero", "min_recommended_nt", "typo",
        "key-of-tails", "drift_tol", "key-of-certificate", "beta-and-solution",
        "t-and-t_quantile"])
def test_unread_key_exit_2(tmp_path, capsys, command, extra, refused):
    pool = FixedPointPool(vectors=np.linspace(1.0, 50.0, 2000)[:, None],
                          generation=1, converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    _write(tmp_path, "sol.json", SOLUTION)
    sec = command.replace("-", "_")
    cfg = {"model": D1_MODEL, "seed": 1, sec: dict(RANGE_BASE[sec], **extra)}
    assert _run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert f"{sec}.{refused}: unknown key" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_determinism_across_workers(tmp_path):
    cfg = {
        "model": D1_MODEL, "seed": 99,
        "spectrum": {"s_grid": [0.0, 0.7, 1.9], "mc_reps": 40_000},
        "simulate": {"pool_size": 16_000, "generations": 15,
                     "replicates": 8, "x0": [18.0]},
    }
    blobs = {}
    for threads in (1, 8):
        out = f"o{threads}"
        assert _run(tmp_path, "spectrum", cfg, out=out, threads=threads) == 0
        assert _run(tmp_path, "simulate", cfg, out=out, threads=threads) == 0
        blobs[threads] = [(tmp_path / out / n).read_bytes()
                          for n in ("spectrum.csv", "pool.bin",
                                    "convergence.csv")]
    assert blobs[1] == blobs[8]


def test_rerun_identical_bytes(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 123,
           "spectrum": {"s_grid": [0.0, 1.0], "mc_reps": 20_000}}
    assert _run(tmp_path, "spectrum", cfg, out="a") == 0
    assert _run(tmp_path, "spectrum", cfg, out="b") == 0
    assert (tmp_path / "a/spectrum.csv").read_bytes() == \
        (tmp_path / "b/spectrum.csv").read_bytes()


_WRITERS = {
    "json": lambda path, x: artifacts.write_json(path, {"x": x}, "fp"),
    "csv": lambda path, x: artifacts.write_csv(path, ["x"], [(x,)], "fp"),
    "pool": lambda path, x: artifacts.write_pool(
        path, FixedPointPool(vectors=np.full((3, 1), x), generation=1,
                             converged=True), "fp"),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_artifact_write_makes_a_new_file(tmp_path, kind):
    # a write unlinks the old name and creates a new file: a hard link to
    # the old file keeps its bytes, and a symlink is replaced, not followed
    write = _WRITERS[kind]
    path = tmp_path / "artifact"
    write(path, 1.0)
    first = path.read_bytes()
    os.link(path, tmp_path / "link")
    write(path, 2.0)
    assert (tmp_path / "link").read_bytes() == first
    write(tmp_path / "fresh", 2.0)
    assert path.read_bytes() == (tmp_path / "fresh").read_bytes() != first
    target = tmp_path / "target"
    target.write_bytes(b"left alone")
    path.unlink()
    path.symlink_to(target)
    write(path, 2.0)
    assert not path.is_symlink() and path.is_file()
    assert path.read_bytes() == (tmp_path / "fresh").read_bytes()
    assert target.read_bytes() == b"left alone"


def test_rerun_writes_each_artifact_as_a_new_file(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 123,
           "solve_index": {"s_max": 6.0, "mc_reps": 100_000},
           "simulate": {"pool_size": 2000, "generations": 5, "replicates": 2,
                        "x0": [1.0]}}
    out, keep = tmp_path / "out", tmp_path / "keep"
    runs = []
    for rerun in range(2):
        for command in ("solve-index", "simulate"):
            assert _run(tmp_path, command, cfg) == 0
        runs.append({p.name: (hashlib.sha256(p.read_bytes()).hexdigest(),
                              p.stat().st_ino) for p in out.iterdir()})
        if not rerun:
            # the links keep the first files' inodes from being reused
            keep.mkdir()
            for name in runs[0]:
                os.link(out / name, keep / name)
    assert sorted(runs[0]) == ["convergence.csv", "pool.bin",
                               "tail_indices.json"]
    for name, (digest, ino) in runs[0].items():
        assert runs[1][name][0] == digest, name
        assert runs[1][name][1] != ino, name
        assert (keep / name).stat().st_ino == ino, name


def test_pool_file_roundtrip(tmp_path):
    vec = np.arange(12.0).reshape(6, 2)
    pool = FixedPointPool(vectors=vec, generation=4, converged=True)
    artifacts.write_pool(tmp_path / "p.bin", pool, "abcd1234deadbeef")
    back = artifacts.read_pool(tmp_path / "p.bin")
    assert np.array_equal(back.vectors, vec)
    assert back.generation == 4 and back.converged
    with pytest.raises(ConfigError):
        (tmp_path / "junk.bin").write_bytes(b"nope")
        artifacts.read_pool(tmp_path / "junk.bin")


def test_simulate_pool_csv_export(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 5,
           "simulate": {"pool_size": 2000, "generations": 5, "replicates": 2,
                        "x0": [1.0], "write_csv": True}}
    assert _run(tmp_path, "simulate", cfg) == 0
    lines = (tmp_path / "out/pool.csv").read_text().splitlines()
    assert lines[1] == "x0"
    assert len(lines) == 2 + 2000


def test_tails_exponential_pool_not_supported(tmp_path):
    # a synthetic exponential pool cannot support a power-tail verdict
    from smoothtail.rng import substream
    z = -np.log(substream(77, "exp").random((400_000, 1)))
    pool = FixedPointPool(vectors=z, generation=1, converged=True)
    (tmp_path / "out").mkdir()
    artifacts.write_pool(tmp_path / "out/exp_pool.bin", pool, "0" * 16)
    cfg = {"model": D1_MODEL, "seed": 3,
           "tails": {"pool": "out/exp_pool.bin", "beta": 3.0,
                     "window_quantiles": [0.99, 0.9999]}}
    assert _run(tmp_path, "tails", cfg) == 0
    doc = json.loads((tmp_path / "out/tail_report.json").read_text())
    assert doc["verdict"] == "positivity not supported at this window"


def test_certificate_finite_support_determinism_across_workers(tmp_path):
    # the certificate works out e_beta from the model; the walks tilted by
    # it give the same bytes at any worker count
    cfg = {
        "model": model_to_jsonable(d2_finite_three_spec()), "seed": 6,
        "simulate": {"pool_size": 20_000, "generations": 25,
                     "replicates": 2, "x0": [1.0, 1.0]},
        "certificate": {"pool": "out/pool.bin", "beta": 2.577, "rho": 0.437,
                        "k_beta": 0.5, "t": math.exp(8 * 0.437), "C1": 2,
                        "C0": 10.0, "delta": 0.2, "reps_v": 4_000,
                        "reps_w": 1_000},
    }
    assert _run(tmp_path, "simulate", cfg) == 0
    blobs = {}
    for threads in (1, 2):
        out = f"cert_w{threads}"
        assert _run(tmp_path, "certificate", cfg, out=out,
                    threads=threads) == 0
        blobs[threads] = [(tmp_path / out / n).read_bytes()
                          for n in ("certificate.json", "v_estimates.csv",
                                    "w_estimates.csv")]
    assert blobs[1] == blobs[2]
    doc = json.loads(blobs[1][0])
    assert doc["levels"] == [6] and all(r["hits"] > 0 for r in doc["per_level_V"])


def test_certificate_search_skips_cells_without_pool_mass(tmp_path):
    # at this t the largest cells' cone threshold D/eps lies beyond every
    # pool norm; the search used to pick (C0, delta) = (30, 0.05), whose
    # D/eps = 1256 no member reaches, and the cone family then failed
    cfg = {
        "model": model_to_jsonable(d2_finite_three_spec()), "seed": 6101,
        "simulate": {"pool_size": 100_000, "generations": 40,
                     "replicates": 4},
        "solve_index": {},
        "certificate": {"pool": "out/pool.bin",
                        "solution": "out/tail_indices.json",
                        "t_quantile": 0.999, "u": [1.0, 0.0],
                        "reps_v": 4_000, "reps_w": 1_000},
    }
    assert _run(tmp_path, "solve-index", cfg) == 0
    assert _run(tmp_path, "simulate", cfg) == 0
    assert _run(tmp_path, "certificate", cfg, out="cert") == 0
    doc = json.loads((tmp_path / "cert/certificate.json").read_text())
    assert (doc["C0"], doc["delta"]) == (30.0, 0.1)
    assert doc["kappa"] > 0


def test_certificate_search_without_feasible_cells_exit_2(tmp_path, capsys):
    # every pool member has l1 norm 2, below the smallest cell's D/eps
    pool = FixedPointPool(vectors=np.ones((1000, 2)), generation=1,
                          converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    cfg = {"model": model_to_jsonable(d2_finite_three_spec()), "seed": 1,
           "certificate": {"pool": "pool.bin", "beta": 2.577, "rho": 0.437,
                           "k_beta": 0.5, "t": 40.0}}
    assert _run(tmp_path, "certificate", cfg) == 2
    err = capsys.readouterr().err
    assert "no (C0, delta) cell at t = 40" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("geom_class, top, C0, named", [
    ("nonnegative-C", 2.0, 10.0, "no pool mass beyond D/eps"),
], ids=["no-mass-beyond-threshold"])
def test_certificate_cone_failure_exit_6(tmp_path, capsys, geom_class, top,
                                         C0, named):
    # at C0 = 10 every member lies below D/eps = 56
    pool = FixedPointPool(vectors=np.linspace(1.0, top, 1000)[:, None],
                          generation=1, converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    cfg = {"model": dict(D1_MODEL, **{"class": geom_class}), "seed": 1,
           "certificate": {"pool": "pool.bin", "beta": 3.66, "rho": 0.55,
                           "k_beta": 0.5, "t": 100.0, "C0": C0,
                           "delta": 0.2, "reps_v": 100, "reps_w": 100}}
    assert _run(tmp_path, "certificate", cfg) == 6
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_certificate_cap_geometry_failure_exit_6(tmp_path, capsys):
    # three caps around the circle: a direction and a member in one cap can
    # lie 120 degrees apart, so no eps > 0 exists
    pool = FixedPointPool(vectors=np.full((1000, 2), 50.0), generation=1,
                          converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    cfg = {"model": ROT_MODEL, "seed": 1,
           "certificate": {"pool": "pool.bin", "beta": 7.24, "rho": 0.81,
                           "k_beta": 0.5, "t": 100.0, "J": 3, "C0": 1.0,
                           "delta": 0.2, "reps_v": 100, "reps_w": 100}}
    assert _run(tmp_path, "certificate", cfg) == 6
    err = capsys.readouterr().err
    assert "cap geometry cannot cover" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _three_atom_cfg(seed):
    return {"model": model_to_jsonable(d2_finite_three_spec()), "seed": seed,
            "simulate": {"pool_size": 20_000, "replicates": 2,
                         "generations": 25, "x0": [1.0, 1.0]},
            "certificate": {"pool": "out/pool.bin", "beta": 2.577,
                            "rho": 0.437, "k_beta": 0.5, "t_quantile": 0.999,
                            "u": [1.0, 0.0], "reps_search": 4_000}}


@pytest.mark.parametrize("seed", [6, 6102])
def test_certificate_keeps_every_cap_on_the_three_atom_pool(tmp_path, seed):
    # the search keeps only cells with a member beyond D/eps, and the cone
    # family keeps every cap with that same eps, so the chosen cell has
    # mass (dropping the empty caps shrank eps until none was left)
    cfg = _three_atom_cfg(seed)
    assert _run(tmp_path, "simulate", cfg) == 0
    assert _run(tmp_path, "certificate", cfg) == 0
    doc = _strict_json(tmp_path / "out/certificate.json")
    assert len(doc["cap_masses"]) == 8 and doc["kappa"] > 0
    assert doc["bound"] == doc["v_term"] - doc["w_sum"]


def test_three_atom_search_without_v_hits_exits_2(tmp_path, capsys):
    # at seed 6101 no search cell has a V hit at the first window level (nor
    # at reps_search 16,000): the search stops with a config error and
    # writes no certificate
    cfg = _three_atom_cfg(6101)
    assert _run(tmp_path, "simulate", cfg) == 0
    capsys.readouterr()
    assert _run(tmp_path, "certificate", cfg) == 2
    err = capsys.readouterr().err
    assert ("no (C0, delta) combination produced positive V estimates at "
            "all window levels") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out/certificate.json").exists()


@pytest.mark.parametrize("command", ["spectrum", "certificate"])
def test_atoms_that_break_the_grid_operator_exit_4(tmp_path, capsys, command):
    # a zero atom annihilates the whole grid: no operator, so no e_beta
    model = {"dimension": 2, "branching": {"mode": "fixed", "n": 2},
             "ensemble": {"family": "finite_support",
                          "matrices": [[[0.0, 0.0], [0.0, 0.0]],
                                       [[2.0, 1.0], [1.0, 2.0]]],
                          "probs": [0.5, 0.5]},
             "q_law": {"kind": "deterministic", "vector": [1.0, 1.0]},
             "class": "nonnegative-C"}
    pool = FixedPointPool(vectors=np.ones((100, 2)), generation=1,
                          converged=True)
    artifacts.write_pool(tmp_path / "pool.bin", pool, "0" * 16)
    cfg = {"model": model, "seed": 1, "spectrum": {"s_grid": [1.0]},
           "certificate": {"pool": "pool.bin", "beta": 1.5, "rho": 0.5,
                           "k_beta": 0.5, "t": 100.0}}
    assert _run(tmp_path, command, cfg) == 4
    assert "annihilates part of the sphere grid" in capsys.readouterr().err


def test_every_artifact_carries_fingerprint_and_version(tmp_path):
    cfg = {
        "model": D1_MODEL, "seed": 55,
        "validate": {"beta_hat": 3.1, "eps": 0.1, "reps": 1000},
        "spectrum": {"s_grid": [0.0, 1.0], "mc_reps": 20_000},
        "solve_index": {"s_max": 6.0, "mc_reps": 100_000},
        "simulate": {"pool_size": 30_000, "generations": 40,
                     "replicates": 4, "x0": [18.094], "write_csv": True},
        "tails": {"pool": "out/pool.bin", "solution": "out/tail_indices.json",
                  "window_quantiles": [0.99, 0.998]},
        "certificate": {"pool": "out/pool.bin",
                        "solution": "out/tail_indices.json",
                        "t_quantile": 0.998, "C1": 2, "C0": 10.0,
                        "delta": 0.2, "reps_v": 10_000, "reps_w": 2_000},
    }
    for command in ("validate", "spectrum", "solve-index", "simulate",
                    "tails", "certificate"):
        assert _run(tmp_path, command, cfg) == 0
    out = tmp_path / "out"
    files = sorted(p for p in out.iterdir())
    assert len(files) >= 12
    for p in files:
        blob = p.read_bytes()
        assert b"smoothtail-" in blob, p.name
        if p.suffix == ".json":
            doc = json.loads(blob)
            assert len(doc["meta"]["fingerprint"]) == 16
        elif p.suffix == ".csv":
            assert blob.splitlines()[0].split(b"fingerprint=")[1]


def test_seed_flag_overrides_config(tmp_path):
    cfg = {"model": D1_MODEL, "seed": 1,
           "simulate": {"pool_size": 4000, "generations": 5,
                        "replicates": 2, "x0": [18.0]}}
    assert _run(tmp_path, "simulate", cfg, out="a") == 0
    assert _run(tmp_path, "simulate", cfg, out="b", seed=2) == 0
    assert _run(tmp_path, "simulate", cfg, out="c", seed=2) == 0
    a = (tmp_path / "a/pool.bin").read_bytes()
    b = (tmp_path / "b/pool.bin").read_bytes()
    c = (tmp_path / "c/pool.bin").read_bytes()
    assert a != b and b == c


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_u64_exit_2(tmp_path, capsys, where, seed):
    cfg = {"model": D1_MODEL, "seed": seed if where == "config" else 1}
    kw = {"seed": seed} if where == "flag" else {}
    assert _run(tmp_path, "validate", cfg, **kw) == 2
    err = capsys.readouterr().err
    assert f"seed: need 0 <= seed < 2**64, got {seed}" in err
    assert "Traceback" not in err


def test_certificate_determinism_across_workers(pipeline):
    cfg = {
        "model": D1_MODEL, "seed": 11,
        "certificate": {"pool": "out/pool.bin",
                        "solution": "out/tail_indices.json",
                        "t_quantile": 0.999, "C1": 2, "C0": 10.0,
                        "delta": 0.2, "reps_v": 20_000, "reps_w": 4_000},
    }
    cfg_path = pipeline / "cfg_cert_det.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = {}
    for threads in (1, 8):
        out = pipeline / f"cert_w{threads}"
        assert main(["certificate", "--config", str(cfg_path), "--out",
                     str(out), "--threads", str(threads)]) == 0
        blobs[threads] = [(out / n).read_bytes()
                          for n in ("certificate.json", "v_estimates.csv",
                                    "w_estimates.csv")]
    assert blobs[1] == blobs[8]


D2_MODEL = {
    "dimension": 2,
    "branching": {"mode": "fixed", "n": 2},
    "ensemble": {"family": "lognormal_fixed_matrix", "mu": -1.9624364904,
                 "sigma2": 0.5, "matrix": [[1.0, 1.0], [1.0, 2.0]]},
    "q_law": {"kind": "deterministic", "vector": [1.0, 1.0]},
    "class": "nonnegative-C",
}


def test_d2_model_through_cli(tmp_path):
    # mu = -1 - log lambda_P gives the same roots as the scalar reference
    cfg = {"model": D2_MODEL, "seed": 17,
           "validate": {"beta_hat": 3.1, "eps": 0.1, "reps": 2000},
           "solve_index": {"s_max": 6.0, "tol": 1e-6, "mc_reps": 300_000,
                           "grid_size": 128}}
    assert _run(tmp_path, "validate", cfg) == 0
    doc = json.loads((tmp_path / "out/validation.json").read_text())
    assert doc["conditions"]["positive_product"]["verdict"] == "pass"
    assert doc["positive_product_word_length"] == 1
    assert _run(tmp_path, "solve-index", cfg) == 0
    sol = json.loads((tmp_path / "out/tail_indices.json").read_text())
    assert sol["alpha"] == pytest.approx(ALPHA_D1, abs=0.01)
    assert sol["beta"] == pytest.approx(BETA_D1, abs=0.02)


# ---------------------------------------------------------------------------
# import footprint
# ---------------------------------------------------------------------------

_IMPORT_PROBE = """
import json, sys
import smoothtail
bare = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from smoothtail.cli import main
codes = [main([c, "--config", sys.argv[1], "--out", sys.argv[2]])
         for c in ("validate", "spectrum", "solve-index")]
after = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"bare": bare, "codes": codes, "after": after}))
"""


def test_spectral_commands_skip_scipy_optimize_and_stats(tmp_path):
    # scipy.optimize and scipy.stats each cost tens of MB and a few tenths
    # of a second to import; the d=1 reference path needs neither
    import os
    import subprocess
    import sys

    import smoothtail
    cfg = _write(tmp_path, "cfg.json", {
        "model": D1_MODEL, "seed": 11,
        "validate": {"beta_hat": 3.1, "eps": 0.1, "reps": 2000},
        "spectrum": {"s_grid": [0.0, 1.0], "mc_reps": 20_000},
        "solve_index": {"s_max": 6.0, "tol": 1e-7, "mc_reps": 20_000}})
    src = str(Path(smoothtail.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["bare"] == []
    assert doc["codes"] == [0, 0, 0]
    assert "scipy.optimize" not in doc["after"]
    assert "scipy.stats" not in doc["after"]
