"""One closed-loop pass over a workload's commands: each command starts only
when the one before it has finished, all through ``smoothtail.cli.main``
in this process.

A command shorter than ``repeat_s`` runs again, back to back, until its runs
add up to ``repeat_s``, so that commands of a few milliseconds still give
enough samples.
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks


@dataclass
class CommandRun:
    command: str
    samples: list[float]        # wall seconds of each run of the command
    problem: str | None         # why the command counts as failed
    sha256: dict[str, str]      # artifact name -> digest


@dataclass
class PipelineRun:
    commands: list[CommandRun]
    kind: str                   # "warmup", "plain" or "traced"

    @property
    def attempted(self) -> int:
        return sum(len(c.samples) for c in self.commands)

    @property
    def failed(self) -> int:
        return sum(c.problem is not None for c in self.commands)

    def samples_of(self, command: str) -> list[float]:
        return next(c.samples for c in self.commands if c.command == command)

    def digests(self) -> dict[str, dict[str, str]]:
        return {c.command: c.sha256 for c in self.commands}


def _call(argv: list[str], tracer, command: str):
    from smoothtail import cli
    try:
        if tracer is None:
            return cli.main(argv)
        tracer.command = command
        with tracer.span("cli." + command.replace("-", "_")):
            return cli.main(argv)
    except Exception:
        # a crash is a failed command, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return None


def _run_command(argv, tracer, command: str, out: Path,
                 repeat_s: float) -> CommandRun:
    samples, first = [], None
    while True:
        t0 = time.perf_counter()
        code = _call(argv, tracer, command)
        samples.append(time.perf_counter() - t0)
        problem = checks.command_problem(out, command, code)
        digests = checks.sha256_of(checks.artifact_paths(out, command))
        if first is None:
            first = digests
        elif problem is None and digests != first:
            problem = "artifacts differ between back-to-back runs"
        if problem or sum(samples) >= repeat_s:
            return CommandRun(command, samples, problem, first)


def run_pipeline(workload, seed: int, workdir: Path, tracer=None,
                 kind: str = "plain", repeat_s: float = 0.0) -> PipelineRun:
    """Write the workload's inputs into workdir and run its commands into
    workdir/out, which is emptied first."""
    config = workload.write_inputs(workdir, seed)
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    runs = []
    for command in workload.commands:
        argv = [command, "--config", str(config), "--out", str(out),
                "--threads", str(workload.threads)]
        runs.append(_run_command(argv, tracer, command, out, repeat_s))
    return PipelineRun(commands=runs,
                       kind="traced" if tracer is not None else kind)
