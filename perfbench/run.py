"""Benchmark for matprod: one workload, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed sequence of ``matprod`` CLI calls (see workloads.py).
One round runs the sequence at ``--threads 1`` and then at ``--threads 2``,
each call in its own child process, one at a time; rounds repeat while
another one fits in ``--seconds`` (at least one runs).  Every output is
checked, the two thread counts must print the same bytes, and so must every
round.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.

The program is taken from ``src/`` of the checkout; without it the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import layer_metrics  # noqa: E402

THREADS = (1, 2)
# fewest set-up probes per run
SETUP_PROBES = 7
# a child still running this long after the benchmark started is killed
# and counts as failed, so that a run ends within 180 s
DEADLINE_S = 170.0
STARTED = time.perf_counter()

# What a user runs: the console script ``matprod`` is this entry point.
CLI = ("-c", "import sys; from matprod.cli import main; sys.exit(main())")

# Set-up probe: the cheapest subcommand, so a call is all start-up.
SETUP_ARGV = ("beta", "--widths", "8x5", "--p", "0.5")


@dataclass
class Call:
    """One finished child process."""

    op: str
    threads: int
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    trace: dict | None = None


class Launcher:
    """The small process that starts every measured child (see launcher.py)."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def spawn(self, cmd, op: str, threads: int = 0) -> Call:
        """Run ``cmd`` to its end; wall time, CPU and peak RSS from ``wait4``."""
        tag = f"{op}-t{threads}"
        out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))
        request = {"cmd": cmd, "out": str(out_path), "err": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher process ended")
        result = json.loads(answer)
        return Call(op=op, threads=threads, stdout=out_path.read_bytes(),
                    stderr=err_path.read_bytes(), **result)

    def close(self) -> None:
        """Ends the launcher; one still running a child is told to kill it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


def run_op(launcher: Launcher, op: workloads.Op, threads: int, trace: bool) -> Call:
    argv = list(op.argv) + ["--threads", str(threads)]
    trace_path = OUT / f"{op.name}-t{threads}.trace.json"
    if trace:
        cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_path)] + argv
    else:
        cmd = [sys.executable, *CLI] + argv
    call = launcher.spawn(cmd, op.name, threads)
    if trace and trace_path.exists():
        call.trace = json.loads(trace_path.read_text())
        trace_path.unlink()
    return call


def check_call(op: workloads.Op, call: Call) -> list[str]:
    try:
        return op.check(workloads.parse_csv(call.stdout.decode()))
    except (ValueError, KeyError, ArithmeticError) as exc:
        return [f"unreadable output: {exc!r}"]


def last_line(data: bytes) -> str:
    lines = data.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def median_of(rounds, fn) -> float:
    return statistics.median(fn(r) for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "matprod" / "cli.py").is_file():
        print(f"perfbench: no program sources at {src / 'matprod'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    # children cache bytecode under src/ as an installed package would, so
    # set-up time does not depend on the caller's environment
    for name in ("MATPROD_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)

    ops = workloads.WORKLOADS[args.workload](args.seed, OUT)
    launcher = Launcher(env)
    try:
        return measure(args, ops, launcher)
    finally:
        launcher.close()


def measure(args, ops, launcher: Launcher) -> int:
    trace = bool(args.trace)
    setup: list[float] = []

    def probe() -> bool:
        call = launcher.spawn([sys.executable, *CLI, *SETUP_ARGV], "setup")
        if call.code != 0:
            print(f"perfbench: set-up probe failed: {last_line(call.stderr)}", file=sys.stderr)
            return False
        setup.append(call.wall_s)
        return True

    problems: list[str] = []
    failures: dict[str, str] = {}
    first_bytes: dict[str, bytes] = {}
    rounds: list[dict[int, list[Call]]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes = {}
        for t in THREADS:
            # set-up probes are spread over the run, one before each pass
            if not trace and not probe():
                return 1
            passes[t] = [run_op(launcher, op, t, trace) for op in ops]
        rounds.append(passes)
        for t, calls in passes.items():
            for op, call in zip(ops, calls):
                attempted += 1
                if call.code != 0:
                    failed += 1
                    failures[op.name] = f"exit {call.code}: {last_line(call.stderr)}"
                    continue
                problems += [f"{op.name} t{t}: {p}" for p in check_call(op, call)]
                seen = first_bytes.setdefault(op.name, call.stdout)
                if seen != call.stdout:
                    problems.append(f"{op.name} t{t}: output differs from the first call")
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    while not trace and len(setup) < SETUP_PROBES:
        if not probe():
            return 1

    for r, passes in enumerate(rounds):
        for t, calls in passes.items():
            for call in calls:
                status = "ok" if call.code == 0 else f"FAILED exit {call.code}"
                print(f"round {r} t{t} {call.op}: {call.wall_s:.3f} s wall, "
                      f"{call.cpu_s:.3f} s cpu, {call.rss_mb:.1f} MB, {status}")
    for name, why in failures.items():
        print(f"failed: {name}: {why}")
    for p in problems[:20]:
        print(f"WRONG: {p}")

    wall = {t: median_of(rounds, lambda r, t=t: sum(c.wall_s for c in r[t])) for t in THREADS}
    if trace:
        metrics = layer_metrics(rounds)
        print(f"traced pass wall time, median of {len(rounds)} rounds: "
              f"{wall[2]:.3f} s at 2 threads, {wall[1]:.3f} s at 1 thread")
        write_trace(args, rounds, metrics)
    else:
        metrics = {
            "wall_s": (wall[2], "s"),
            "wall_1t_s": (wall[1], "s"),
            "cpu_s": (median_of(rounds, lambda r: sum(c.cpu_s for c in r[2])), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(c.rss_mb for r in rounds for c in r[2]), "MB"),
        }
    print(f"workload {args.workload}: {len(rounds)} rounds, {attempted} calls attempted, "
          f"{failed} failed")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_trace(args, rounds, metrics) -> None:
    """Spans and counts of the first round's calls, plus the per-layer metrics."""
    calls = [
        {"op": c.op, "threads": c.threads, "exit": c.code, "wall_s": c.wall_s, **(c.trace or {})}
        for t in THREADS
        for c in rounds[0][t]
    ]
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "per_layer": metrics, "calls": calls}))


if __name__ == "__main__":
    sys.exit(main())
