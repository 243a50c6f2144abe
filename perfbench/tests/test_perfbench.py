"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from pipeline import run_pipeline  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from smoothtail import (artifacts, branching, certificate, cli, model,  # noqa: E402
                        rng, spectral, tails, walks)

MODULES = (artifacts, branching, certificate, cli, model, rng, spectral,
           tails, walks)


def _span(sid, parent, name, start, end):
    return Span(id=sid, parent=parent, name=name, workload="w", pipeline=0,
                command="c", start=start, end=end)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(1, None, "cli.solve_index", 0.0, 10.0),
        # overlapping children cover [1, 5]; the third is clipped to [8, 10]
        _span(2, 1, "spectral.assemble", 1.0, 3.0),
        _span(3, 1, "spectral.assemble", 2.0, 5.0),
        _span(4, 1, "walks.run_walks", 8.0, 12.0),
        _span(5, 2, "model.draw", 1.5, 2.0),
    ]
    got = self_times(spans)
    assert got["cli"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got["spectral"] == pytest.approx((2.0 - 0.5) + 3.0)
    assert got["model"] == pytest.approx(0.5)
    assert got["walks"] == pytest.approx(4.0)
    assert got["tails"] == 0.0


def _bindings():
    """Every attribute of the package's modules and of their classes."""
    out = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("smoothtail"):
                for attr, member in vars(value).items():
                    out[(value.__qualname__, attr)] = member
    return out


def _tiny_workload():
    """d1-quickstart cut down to a few seconds."""
    base = WORKLOADS["d1-quickstart"]
    sections = json.loads(json.dumps(base.sections))
    sections["validate"]["reps"] = 2000
    sections["spectrum"]["mc_reps"] = 4000
    sections["solve_index"]["mc_reps"] = 40000
    sections["simulate"].update(pool_size=20000, generations=20, replicates=2)
    sections["tails"].update(window_quantiles=[0.99, 0.999], n_boot=20)
    sections["certificate"].update(reps_v=2000, reps_w=500, reps_search=2000)
    return dataclasses.replace(base, name="tiny", sections=sections)


@pytest.fixture(scope="module")
def traced_pipeline(tmp_path_factory):
    """Untraced, traced, then untraced again, in separate directories."""
    workload = _tiny_workload()
    before = _bindings()
    first = run_pipeline(workload, 5, tmp_path_factory.mktemp("first"))
    tracer = Tracer(workload.name)
    with tracer:
        wrapped = _bindings()
        traced = run_pipeline(workload, 5, tmp_path_factory.mktemp("traced"),
                              tracer)
    after = _bindings()
    again = run_pipeline(workload, 5, tmp_path_factory.mktemp("again"))
    return dict(first=first, traced=traced, again=again, tracer=tracer,
                before=before, wrapped=wrapped, after=after)


def test_tiny_pipeline_runs_clean(traced_pipeline):
    for key in ("first", "traced", "again"):
        assert traced_pipeline[key].failed == 0, traced_pipeline[key]


def test_every_wrapped_function_is_the_original_again(traced_pipeline):
    before, wrapped = traced_pipeline["before"], traced_pipeline["wrapped"]
    changed = [k for k in before if wrapped.get(k) is not before[k]]
    assert ("smoothtail.walks", "run_walks") in changed
    assert ("OperatorAssembler", "assemble_groups") in changed
    after = traced_pipeline["after"]
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_run_after_a_traced_run_is_byte_identical(traced_pipeline):
    first = traced_pipeline["first"].digests()
    assert traced_pipeline["again"].digests() == first
    # tracing itself leaves the artifacts alone
    assert traced_pipeline["traced"].digests() == first


def test_traced_run_reports_every_layer_metric(traced_pipeline):
    tracer = traced_pipeline["tracer"]
    metrics = layer_metrics(tracer.spans, 1)
    listed = [n for n in run.PER_LAYER if not n.startswith("trace.")]
    assert sorted(metrics) == sorted(listed)
    assert metrics["spectral.assemble_calls"] > 0
    assert metrics["walks.steps"] > 0
    assert metrics["branching.generations"] == 2 * 20
    assert {sp.command for sp in tracer.spans} == set(WORKLOADS["d1-quickstart"].commands)


def test_walk_steps_are_counted_once():
    spec = model.ModelSpec(
        dimension=1, branching=model.Branching(mode="fixed", n=2),
        ensemble=model.LognormalScalarMatrix(mu=-1.0, sigma2=0.5,
                                             matrix=[[1.0]],
                                             family="scalar_lognormal"),
        q_law=model.QLaw(kind="deterministic", vector=[1.0]),
        geom_class="nonnegative-C")
    tracer = Tracer("steps")
    with tracer:
        # certificate's own binding -> walks.tilted_batch -> walks.run_walks
        certificate.tilted_batch(spec, np.array([1.0]), 7, 3.0, None, 50,
                                 rng.substream(1, "steps"))
    names = sorted(sp.name for sp in tracer.spans)
    assert names == ["walks.run_walks", "walks.tilted_batch"]
    assert layer_metrics(tracer.spans, 1)["walks.steps"] == 7 * 50


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.GATED)
    for m in doc["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
    for m in doc["per_layer"]:
        assert (m["unit"], m["better"]) == (run.layer_unit(m["name"]),
                                            run.layer_better(m["name"]))
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
    assert set(tracing.LAYERS) == {n.split(".")[0] for n in run.PER_LAYER} - {"trace"}
