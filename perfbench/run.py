"""Benchmark of the smoothtail pipeline on three reference workloads.

    python3 perfbench/run.py --workload d1-quickstart --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs the workload as a closed loop with a single
client: the commands run in order through ``smoothtail.cli.main``, and the
whole pipeline repeats at the same seed until the workload's number of
passes is done and ``--seconds`` have passed.  A command's time is the
median of its runs over the passes, and ``pipeline_s`` is the sum of those.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead.

The output is a table of every metric with its unit, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
Run records (inputs, artifacts, sha256 digests, spans) stay under
``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 2    # fresh interpreters timed before each pass and after the last
REPEAT_S = 0.5      # commands shorter than this repeat within a pass

# name -> (unit, better); the per-command times exist only for commands the
# workload runs, the accuracy metrics only where an artifact carries them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pipeline_s": ("s", "lower"),
    "spectrum_s": ("s", "lower"),
    "solve_index_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "tails_s": ("s", "lower"),
    "certificate_s": ("s", "lower"),
    "alpha_abs_err": ("1", "lower"),
    "beta_abs_err": ("1", "lower"),
    "rho_rel_err": ("1", "lower"),
    "pool_mean_rel_err": ("1", "lower"),
    "cert_min_ess": ("samples", "higher"),
    "failed_frac": ("1", "lower"),
}
# the end-to-end metrics in BENCHMARK.json: every workload has them
GATED = ("setup_s", "peak_rss_mb", "pipeline_s", "solve_index_s")

# per-layer metrics of a traced run (units by suffix)
PER_LAYER = (
    "spectral.assembler_inits", "spectral.assembler_init_s",
    "spectral.assemble_calls", "spectral.assemble_s",
    "spectral.power_iterations", "spectral.power_iteration_s",
    "walks.run_walks_s", "walks.steps", "walks.steps_per_s",
    "branching.population_iterate_s", "branching.generations",
    "branching.samples_per_s", "branching.stats_s",
    "tails.hill_s", "tails.flatness_s", "tails.bootstrap_resamples",
    "tails.resamples_per_s",
    "certificate.search_s", "certificate.pv_calls", "certificate.pv_s",
    "certificate.pw_calls", "certificate.pw_s", "certificate.z_marks_s",
    "certificate.cone_s", "certificate.ess_ratio",
    "certificate.flagged_frac",
    "model.draws", "model.draw_s",
    "rng.parallel_map_s", "rng.fanout_efficiency",
    "artifacts.write_pool_s", "artifacts.read_pool_s",
    "artifacts.bytes_written",
    "cli.load_config_s", "cli.load_configs",
    "cli.self_s", "model.self_s", "rng.self_s", "spectral.self_s",
    "walks.self_s", "branching.self_s", "tails.self_s",
    "certificate.self_s", "artifacts.self_s",
    "trace.overhead_s", "trace.spans",
)


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_ratio", "_frac", "_efficiency")):
        return "1"
    return "count"


def layer_better(name: str) -> str:
    if name.endswith(("_per_s", "_ratio", "_efficiency")):
        return "higher"
    return "lower"


# time from the first import of the package to a loaded config
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import smoothtail
from smoothtail import cli
cli.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def measure_setup(config: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment(workload) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "workload_threads": workload.threads}


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, config: Path):
    """Repeat the pipeline until the workload's passes are done and
    ``seconds`` have passed.  The first pass pays lazy imports and
    first-touch memory, as each command of a fresh CLI process does; it is
    timed like the others, one sample in each command's median against
    the warm ones of the later passes.  Set-up is timed between passes, so
    that its samples, like the passes, spread over the whole run.

    A traced run starts with an untimed warm-up pass, then alternates
    untraced and traced passes, at least one of each, so that their
    difference is the tracing overhead.

    Returns (passes, tracer or None, set-up samples)."""
    from pipeline import run_pipeline
    from tracing import Tracer

    tracer = Tracer(workload.name) if trace else None
    runs = [run_pipeline(workload, seed, workdir, kind="warmup")] if trace else []
    needed = 2 if trace else workload.passes
    setup = []
    start = time.perf_counter()
    while True:
        setup += measure_setup(config)
        if trace and len(runs) % 2 == 0:
            tracer.pipeline = len(runs)
            with tracer:
                runs.append(run_pipeline(workload, seed, workdir, tracer))
        else:
            runs.append(run_pipeline(workload, seed, workdir,
                                     repeat_s=0.0 if trace else REPEAT_S))
        timed = [r for r in runs if r.kind != "warmup"]
        if len(timed) >= needed and time.perf_counter() - start >= seconds:
            return runs, tracer, setup + measure_setup(config)


def main(argv=None) -> int:
    # numpy here links OpenBLAS, whose own pool would stack on --threads;
    # set before anything imports numpy
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args = parse_args(argv)
    if not (SRC / "smoothtail" / "cli.py").is_file():
        print(f"perfbench: no smoothtail sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    config = workload.write_inputs(workdir, args.seed)

    runs, tracer, setup = run_workload(workload, args.seed, args.seconds,
                                       bool(args.trace), workdir, config)
    metrics, layer, problems = summarize(workload, setup, runs, tracer,
                                         workdir)
    env = environment(workload)
    print_report(workload, args.seed, runs, metrics, layer, problems, env)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setup_s_samples": setup,
              "pipelines": [{"kind": r.kind,
                             "commands": [vars(c) for c in r.commands]}
                            for r in runs],
              "metrics": metrics, "per_layer": layer, "problems": problems}
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    if layer:
        shown = {n: {"value": layer[n], "unit": layer_unit(n)}
                 for n in PER_LAYER}
    else:
        shown = {n: {"value": metrics[n], "unit": END_TO_END[n][0]}
                 for n in GATED}
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.attempted for r in runs),
                      "failed": sum(r.failed for r in runs),
                      "metrics": shown}))
    return 0


def command_times(runs, commands) -> dict[str, float]:
    """Each command's median run over the given passes.  Taken per command,
    a slow stretch of the host spoils one sample of the commands it hits,
    not a whole pass."""
    return {c: statistics.median(t for r in runs for t in r.samples_of(c))
            for c in commands}


def summarize(workload, setup, runs, tracer, workdir: Path):
    """(end-to-end metrics, per-layer metrics, problems) of one run."""
    import checks
    import tracing

    plain = [r for r in runs if r.kind == "plain"]
    traced = [r for r in runs if r.kind == "traced"]
    out = workdir / "out"
    failed = sum(r.failed for r in runs)
    problems = [f"{c.command}: {c.problem}" for r in runs for c in r.commands
                if c.problem]
    if any(r.digests() != runs[0].digests() for r in runs[1:]):
        problems.append("artifacts differ between passes at the same seed")
    metrics = {}
    if not failed:
        metrics.update(checks.accuracy(out, workload.oracle, workload.commands))
        problems += checks.invariant_problems(out, workload)
        problems += checks.oracle_problems(metrics, workload)

    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = peak_rss_mb()
    times = command_times(plain, workload.commands)
    metrics["pipeline_s"] = sum(times.values())
    for command in workload.commands:
        if command != "validate":
            metrics[command.replace("-", "_") + "_s"] = times[command]
    metrics["failed_frac"] = failed / sum(r.attempted for r in runs)

    layer = {}
    if tracer is not None:
        layer = tracing.layer_metrics(tracer.spans, len(traced))
        layer["trace.overhead_s"] = (
            sum(command_times(traced, workload.commands).values())
            - metrics["pipeline_s"])
        layer["trace.spans"] = len(tracer.spans) / len(traced)
        with open(workdir / "spans.jsonl", "w") as fh:
            tracer.write(fh)
    return metrics, layer, problems


def print_report(workload, seed, runs, metrics, layer, problems, env):
    kinds = [r.kind for r in runs]
    print(f"workload {workload.name}  seed {seed}  threads {workload.threads}  "
          f"passes: {kinds.count('plain')} untraced, {kinds.count('traced')} "
          f"traced, {kinds.count('warmup')} warm-up")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (unit, better) in END_TO_END.items():
        value = metrics.get(name)
        shown = "n/a (not produced by this workload)" if value is None \
            else f"{value:.6g} {unit}"
        print(f"  {name:<20} {shown:<40} [{better} is better]")
    for name in PER_LAYER if layer else ():
        print(f"  {name:<34} {layer[name]:.6g} {layer_unit(name)}")
    for command, digests in runs[-1].digests().items():
        for artifact, digest in digests.items():
            print(f"  sha256 {command:<12} {artifact:<20} {digest}")
    for problem in problems:
        print(f"  PROBLEM {problem}")


if __name__ == "__main__":
    sys.exit(main())
