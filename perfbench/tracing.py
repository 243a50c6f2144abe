"""Span tracing of the package's layers, installed from outside the package.

A Tracer replaces public functions of smoothtail's modules with wrappers
that record one span per call: name, start, end, the parent span (from a
per-thread stack) and the workload and command ids.  Each wrapper is put
where the caller looks the name up (a module global, a name another module
imported, or a class attribute), and ``restore`` puts every original back.
Spans stay in memory until the run writes them out.

Layer metrics and self times are computed from the finished spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "model", "rng", "spectral", "walks", "branching", "tails",
          "certificate", "artifacts")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    workload: str
    pipeline: int
    command: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.pipeline = 0
        self.command: str | None = None
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        sp = self._open(name, attrs)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        sp = Span(id=sid, parent=stack[-1] if stack else None, name=name,
                  workload=self.workload, pipeline=self.pipeline,
                  command=self.command,
                  start=time.perf_counter(), attrs=dict(attrs))
        stack.append(sid)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(sp)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, record=None) -> None:
        """Replace owner.attr by a spanning wrapper.  ``record(args, result)``
        returns extra span attributes from the bound call arguments."""
        original = getattr(owner, attr)
        sig = inspect.signature(original) if record else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sp = tracer._open(name, {})
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sp)
            if record is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                sp.attrs.update(record(bound.arguments, result))
            return result

        self._install(owner, attr, wrapper)

    def wrap_parallel_map(self, owner, attr: str = "parallel_map") -> None:
        """parallel_map gets a span, and each task a child span of it that
        also runs in worker threads, so fan-out busy time is measured."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(fn, n_tasks, threads):
            workers = max(1, min(int(threads), int(n_tasks)))
            sp = tracer._open("rng.parallel_map",
                              {"tasks": n_tasks, "workers": workers})

            def task(i):
                local = tracer._local
                saved = getattr(local, "stack", None)
                local.stack = [sp.id]
                try:
                    child = tracer._open("rng.task", {})
                    try:
                        return fn(i)
                    finally:
                        tracer._close(child)
                finally:
                    local.stack = saved if saved is not None else []

            try:
                return original(task, n_tasks, threads)
            finally:
                tracer._close(sp)

        self._install(owner, attr, wrapper)

    def _install(self, owner, attr: str, wrapper) -> None:
        own = vars(owner)
        self._saved.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original, newest wrapper first."""
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install_package(self) -> "Tracer":
        """Wrap the layer functions the pipeline reaches, where they are
        looked up."""
        from smoothtail import (artifacts, branching, certificate, cli, model,
                                rng, spectral, tails, walks)

        self.wrap(cli, "load_config", "cli.load_config")
        self.wrap(cli, "validate", "model.validate")
        for cls in (model.LognormalScalarMatrix, model.LognormalRotation,
                    model.FiniteSupport):
            self.wrap(cls, "draw", "model.draw",
                      lambda a, r: {"draws": int(a["size"])})
        # cli and certificate bound the name at import; lower_bound
        # re-imports it from rng on every call
        for owner in (rng, cli, certificate):
            self.wrap_parallel_map(owner)

        asm = spectral.OperatorAssembler
        self.wrap(asm, "__init__", "spectral.assembler_init")
        self.wrap(asm, "assemble_groups", "spectral.assemble")
        self.wrap(spectral, "power_iteration", "spectral.power_iteration",
                  lambda a, r: {"iterations": int(r[3])})
        self.wrap(spectral, "k_grid", "spectral.k_grid")
        self.wrap(spectral, "solve_alpha_beta", "spectral.solve_alpha_beta")

        # steps are counted on run_walks only: tilted_batch calls it
        steps = lambda a, r: {"steps": int(a["n"]) * int(a["reps"])}
        for owner in (walks, certificate, spectral):
            self.wrap(owner, "run_walks", "walks.run_walks", steps)
        for owner in (walks, certificate):
            self.wrap(owner, "tilted_batch", "walks.tilted_batch")

        self.wrap(branching, "sample_fixed_point",
                  "branching.sample_fixed_point")
        self.wrap(branching, "population_iterate",
                  "branching.population_iterate",
                  lambda a, r: {"samples": int(len(r))})

        resamples = lambda a, r: {"resamples": int(a["n_boot"])}
        self.wrap(tails, "tail_report", "tails.tail_report")
        self.wrap(tails, "hill", "tails.hill", resamples)
        self.wrap(tails, "scaled_tail_flatness", "tails.flatness", resamples)

        estimate = lambda a, r: {"reps": int(a["reps"]), "ess": float(r.ess),
                                 "flagged": bool(r.flagged)}
        self.wrap(certificate, "lower_bound", "certificate.lower_bound")
        self.wrap(certificate, "choose_event_params", "certificate.search")
        self.wrap(certificate, "estimate_PV", "certificate.pv", estimate)
        self.wrap(certificate, "estimate_PW", "certificate.pw", estimate)
        self.wrap(certificate, "draw_z_marks", "certificate.z_marks")
        self.wrap(certificate, "cone_family", "certificate.cone")

        written = lambda a, r: {"bytes": os.path.getsize(a["path"])}
        for fn in ("write_json", "write_csv", "write_pool"):
            self.wrap(artifacts, fn, "artifacts." + fn, written)
        for fn in ("read_json", "read_pool"):
            self.wrap(artifacts, fn, "artifacts." + fn)
        return self

    def __enter__(self) -> "Tracer":
        return self.install_package()

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, fh) -> None:
        """One JSON object per span, in start order."""
        for sp in sorted(self.spans, key=lambda s: s.start):
            fh.write(json.dumps(asdict(sp)) + "\n")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that children cover."""
    ivs = sorted((max(c.start, span.start), min(c.end, span.end))
                 for c in children)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in ivs:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: the sum over its spans of duration minus child coverage."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = dict.fromkeys(LAYERS, 0.0)
    for sp in spans:
        own = sp.duration - _covered(sp, children.get(sp.id, []))
        out[sp.layer] = out.get(sp.layer, 0.0) + own
    return out


def _ancestors(span: Span, by_id: dict[int, Span]):
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
        yield span


def layer_metrics(spans: list[Span], pipelines: int) -> dict[str, float]:
    """Per-layer counts, busy times and ratios, per pipeline run."""
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def busy(name):
        return sum(sp.duration for sp in by_name.get(name, ())) / pipelines

    def total(name, key):
        return sum(sp.attrs.get(key, 0) for sp in by_name.get(name, ())) / pipelines

    def count(name):
        return len(by_name.get(name, ())) / pipelines

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {}
    m["spectral.assembler_inits"] = count("spectral.assembler_init")
    m["spectral.assembler_init_s"] = busy("spectral.assembler_init")
    m["spectral.assemble_calls"] = count("spectral.assemble")
    m["spectral.assemble_s"] = busy("spectral.assemble")
    m["spectral.power_iterations"] = total("spectral.power_iteration",
                                           "iterations")
    m["spectral.power_iteration_s"] = busy("spectral.power_iteration")

    m["walks.run_walks_s"] = busy("walks.run_walks")
    m["walks.steps"] = total("walks.run_walks", "steps")
    m["walks.steps_per_s"] = rate(m["walks.steps"], m["walks.run_walks_s"])

    m["branching.population_iterate_s"] = busy("branching.population_iterate")
    m["branching.generations"] = count("branching.population_iterate")
    m["branching.samples_per_s"] = rate(
        total("branching.population_iterate", "samples"),
        m["branching.population_iterate_s"])
    m["branching.stats_s"] = (busy("branching.sample_fixed_point")
                              - m["branching.population_iterate_s"])

    m["tails.hill_s"] = busy("tails.hill")
    m["tails.flatness_s"] = busy("tails.flatness")
    m["tails.bootstrap_resamples"] = (total("tails.hill", "resamples")
                                      + total("tails.flatness", "resamples"))
    m["tails.resamples_per_s"] = rate(m["tails.bootstrap_resamples"],
                                      m["tails.hill_s"] + m["tails.flatness_s"])

    by_id = {sp.id: sp for sp in spans}
    estimates = by_name.get("certificate.pv", []) + by_name.get("certificate.pw", [])
    final = [sp for sp in estimates
             if not any(a.name == "certificate.search"
                        for a in _ancestors(sp, by_id))]
    m["certificate.search_s"] = busy("certificate.search")
    m["certificate.pv_calls"] = count("certificate.pv")
    m["certificate.pv_s"] = busy("certificate.pv")
    m["certificate.pw_calls"] = count("certificate.pw")
    m["certificate.pw_s"] = busy("certificate.pw")
    m["certificate.z_marks_s"] = busy("certificate.z_marks")
    m["certificate.cone_s"] = busy("certificate.cone")
    reps = sum(sp.attrs["reps"] for sp in final)
    m["certificate.ess_ratio"] = rate(sum(sp.attrs["ess"] for sp in final), reps)
    m["certificate.flagged_frac"] = (
        sum(sp.attrs["flagged"] for sp in final) / len(final) if final else 0.0)

    m["model.draws"] = total("model.draw", "draws")
    m["model.draw_s"] = busy("model.draw")

    pmaps = by_name.get("rng.parallel_map", [])
    m["rng.parallel_map_s"] = busy("rng.parallel_map")
    capacity = sum(sp.duration * sp.attrs["workers"] for sp in pmaps)
    m["rng.fanout_efficiency"] = rate(
        sum(sp.duration for sp in by_name.get("rng.task", ())), capacity)

    m["artifacts.write_pool_s"] = busy("artifacts.write_pool")
    m["artifacts.read_pool_s"] = busy("artifacts.read_pool")
    m["artifacts.bytes_written"] = sum(
        total(f"artifacts.{fn}", "bytes")
        for fn in ("write_json", "write_csv", "write_pool"))

    m["cli.load_config_s"] = busy("cli.load_config")
    m["cli.load_configs"] = count("cli.load_config")

    for layer, secs in self_times(spans).items():
        m[f"{layer}.self_s"] = secs / pipelines
    return m
