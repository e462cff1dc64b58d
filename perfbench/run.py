"""Whole-CLI benchmark of hlnet.

    python3 perfbench/run.py --workload cut-cube18 --seed 1 --seconds 50 --trace 0

Runs one workload (see ``workloads.py``) from the root of a checkout, with
the package taken from the checkout's own ``src/``.  Every command is a
fresh ``python -m hlnet`` process, as a user runs it.  The loop is closed,
with one client: the next op starts when the previous one has ended, so at
most one child process is alive at a time.

A run does, in order:

1. a host-speed probe (a fixed pure-Python loop; a diagnostic only);
2. untimed warm-up: one ``eg --g 1`` process and one op at the workload's
   tiny size, so that bytecode caches exist;
3. the timed phase: ops while one more still fits in ``--seconds``, at
   least one.  With ``--trace 0``, three fresh ``hlnet eg --g 1``
   processes run before each op; ``setup_s`` is their median wall time,
   and the time they take is not part of the timed phase.
   With ``--trace 1`` every op runs twice, untraced and through
   ``trace_launch.py``, in alternating order;
4. the host-speed probe again.

Every op's outputs are checked by the benchmark itself.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Diagnostics and
every op's record go to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SETUP_COMMAND, WORKLOADS, Op, check_setup

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCHER = BENCH / "trace_launch.py"
OUT = ROOT / ".perfbench"

#: A run must end within 180 s; children still running at this point are killed.
HARD_LIMIT_S = 165.0
SETUP_PER_OP = 3
HOST_PROBE_LOOPS = 400_000

#: Per-layer counts recorded by the launcher (other than calls and self time).
LAYER_COUNTS = ("self_s", "failed", "bytes_written", "bytes_read")
EXTRA_COUNTS = (
    "recipes.materialize.vertices",
    "construction.cut_edges",
    "formulas.suite_cases",
    "oracles.incomplete",
)
RUN_LEVEL = (
    "cli.startup_s",
    "oracles.complete_ratio",
    "tracing.op_p50_s",
    "tracing.overhead_s",
)


class BenchError(Exception):
    """The run cannot produce a result (no package, a failed warm-up, ...)."""


@dataclass
class OpResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_kib: int = 0
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    traced: bool = False


class Runner:
    """Starts hlnet processes one at a time in a private work directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""),
        )

    def command(self, args: tuple[str, ...], spans: "Path | None" = None):
        """Run one command; return (exit code, wall s, cpu s, max rss KiB)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run exceeded its hard time limit")
        if spans is None:
            argv = [sys.executable, "-m", "hlnet", *args]
        else:
            argv = [sys.executable, str(LAUNCHER), str(spans), str(time.monotonic_ns()), *args]
        start = time.perf_counter()
        with open(self.work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def setup(self) -> float:
        """Wall seconds of one checked SETUP_COMMAND process."""
        self.clear()
        code, wall, _, _ = self.command(SETUP_COMMAND)
        problems = check_setup(self.work)
        if code != 0 or problems:
            raise BenchError(f"setup command failed: exit {code}, {problems}")
        return wall

    def op(self, op: Op, trace_dir: "Path | None" = None) -> OpResult:
        self.clear()
        result = OpResult(traced=trace_dir is not None)
        for i, args in enumerate(op.commands):
            spans = None if trace_dir is None else trace_dir / f"{i}.json"
            code, wall, cpu, rss = self.command(args, spans)
            result.wall_s += wall
            result.cpu_s += cpu
            result.rss_kib = max(result.rss_kib, rss)
            if code != 0:
                tail = (self.work / "stderr.txt").read_text(errors="replace").strip()
                result.problems.append(f"{args[0]} exited {code}: {tail[-300:]}")
                return result
            if spans is not None:
                try:
                    result.traces.append(json.loads(spans.read_text()))
                except (OSError, ValueError) as exc:
                    result.problems.append(f"{args[0]}: no span file ({exc})")
        result.problems += op.check(self.work)
        return result

    def clear(self) -> None:
        for path in self.work.iterdir():
            if path.is_file():
                path.unlink()


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; shows a slow host, scales nothing."""
    start = time.perf_counter()
    x = 0
    for i in range(HOST_PROBE_LOOPS):
        x = (x + i * i) % 1_000_003
    return time.perf_counter() - start


def git_commit() -> str:
    """The checkout's commit read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# metrics


def span_totals(traces: list[dict]) -> Counter:
    """Calls, self time, failures and counts of one op, summed over its processes.

    A span's self time is its duration minus the durations of its child spans;
    spans of one process nest strictly, so the children never overlap.
    """
    totals: Counter = Counter()
    for trace in traces:
        spans = trace["spans"]
        covered = [0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end_ns"] - span["start_ns"]
        for span, child_ns in zip(spans, covered):
            self_s = (span["end_ns"] - span["start_ns"] - child_ns) / 1e9
            layer = span["name"].split(".", 1)[0]
            totals[span["name"] + ".calls"] += 1
            totals[span["name"] + ".self_s"] += self_s
            totals[layer + ".self_s"] += self_s
            totals[layer + ".failed"] += not span["ok"]
            totals.update(span.get("counts", {}))
    return totals


def known_layer_metrics(traces: list[dict]) -> set[str]:
    """Every per-layer name the traced program can report, found from its bindings."""
    targets = {"cli.main"} | {b.split(" -> ")[1] for t in traces for b in t["bindings"]}
    names = set(EXTRA_COUNTS) | set(RUN_LEVEL)
    for target in targets:
        layer = target.split(".", 1)[0]
        names |= {target + ".calls", target + ".self_s"}
        names |= {f"{layer}.{count}" for count in LAYER_COUNTS}
    return names


def end_to_end(ops: list[OpResult], elapsed: float, setup: list[float]) -> dict:
    ok = [o for o in ops if not o.problems]
    return {
        "ops_per_s": len(ok) / elapsed,
        "op_p50_s": statistics.median(o.wall_s for o in ops),
        "op_cpu_s": statistics.median(o.cpu_s for o in ops),
        "peak_rss_mib": max(o.rss_kib for o in ops) / 1024,
        "setup_s": statistics.median(setup),
        "ok_ratio": len(ok) / len(ops),
    }


def per_layer(ops: list[OpResult]) -> tuple[dict, set[str]]:
    traced = [o for o in ops if o.traced]
    untraced = [o for o in ops if not o.traced]
    traces = [t for o in traced for t in o.traces]
    names = known_layer_metrics(traces)
    totals = [span_totals(o.traces) for o in traced]
    metrics = {
        name: statistics.median(t.get(name, 0) for t in totals)
        for name in names
        if name not in RUN_LEVEL
    }
    metrics["cli.startup_s"] = statistics.median(t["startup_s"] for t in traces)
    complete = sum(t.get("oracles.complete", 0) for t in totals)
    calls = complete + sum(t.get("oracles.incomplete", 0) for t in totals)
    metrics["oracles.complete_ratio"] = complete / calls if calls else 0.0
    metrics["tracing.op_p50_s"] = statistics.median(o.wall_s for o in traced)
    metrics["tracing.overhead_s"] = (
        metrics["tracing.op_p50_s"] - statistics.median(o.wall_s for o in untraced)
    )
    return metrics, names


# ---------------------------------------------------------------------------
# one run


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its record: metrics, op records, diagnostics.

    ``tiny`` runs the timed ops at the workload's self-test size.
    """
    if not (SRC / "hlnet" / "cli.py").is_file():
        raise BenchError(f"no hlnet package under {SRC}")
    workload = WORKLOADS[name]
    started = time.perf_counter()
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, started + HARD_LIMIT_S)
        probe_before = host_probe()

        runner.setup()
        warm = runner.op(workload.make(random.Random(f"warm-up/{name}"), tiny=True))
        if warm.problems:
            raise BenchError(f"warm-up op failed: {warm.problems}")

        rng = random.Random(f"{name}/{seed}")
        ops: list[OpResult] = []
        setup: list[float] = []
        elapsed = 0.0  # the timed phase, without the setup samples
        while True:
            if not trace:
                # Spread over the run, setup samples see the same host speed as the ops.
                setup += [runner.setup() for _ in range(SETUP_PER_OP)]
            start = time.perf_counter()
            op = workload.make(rng, tiny)
            if trace:
                order = (False, True) if len(ops) % 4 == 0 else (True, False)
                for traced in order:
                    trace_dir = work / "trace" / str(len(ops))
                    if traced:
                        trace_dir.mkdir(parents=True)
                    ops.append(runner.op(op, trace_dir if traced else None))
            else:
                ops.append(runner.op(op))
            elapsed += time.perf_counter() - start
            # Start another op only if a typical one still fits in --seconds.
            typical = statistics.median(o.wall_s for o in ops) * (2 if trace else 1)
            if elapsed + typical > seconds or time.perf_counter() >= runner.deadline:
                break
        probe_after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [p for o in ops for p in o.problems]
    if trace:
        metrics, known = per_layer(ops)
    else:
        metrics, known = end_to_end(ops, elapsed, setup), set()
    return {
        "workload": name,
        "sizes": [p.tiny_n if tiny else p.n for p in workload.parts],
        "seed": seed,
        "trace": trace,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o.problems),
        "failures": failures,
        "metrics": metrics,
        "known_metrics": sorted(known),
        "setup_samples_s": setup,
        "ops": [
            {"wall_s": o.wall_s, "cpu_s": o.cpu_s, "rss_kib": o.rss_kib,
             "traced": o.traced, "problems": o.problems, "traces": o.traces}
            for o in ops
        ],
        "diagnostics": {
            "host_probe_s": [probe_before, probe_after],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "workload_seed": seed,
            "timed_s": elapsed,
            "run_s": time.perf_counter() - started,
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    side = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perfbench: diagnostics {json.dumps(record['diagnostics'])}", file=sys.stderr)
    for problem in record["failures"][:20]:
        print(f"perfbench: failed check: {problem}", file=sys.stderr)

    # A per-layer metric of a function that no longer exists reads 0.
    values = Counter(record["metrics"]) if args.trace else record["metrics"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
