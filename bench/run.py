"""gammalat benchmark: fresh-process CLI workloads with checked outputs.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed under ``.bench_work/``, then
runs its command list as ``gammalat`` CLI invocations, one fresh process at
a time (a closed loop with one client), over and over until S seconds have
passed, always finishing the pass in progress.  Every output is checked.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced passes with passes run under ``bench/tracer.py`` and
reports the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

import workloads

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
WORKDIR = ".bench_work"
CLI = "import sys; from gammalat.cli import main; sys.exit(main())"
SETUP = "import sys, gammalat; from gammalat.workspace import load_workspace; load_workspace(sys.argv[1])"
SETUP_REPEATS = 7
TERM_GRACE_S = 3.0


@dataclass
class Outcome:
    key: str
    wall_s: float
    rss_kb: int
    ok: bool
    # The program reported success but the answer is wrong.
    wrong: bool
    known_defect: bool
    reason: Optional[str]
    trace: Optional[dict] = None


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, deadline_s: float, stdout_path: str) -> tuple[int, float, int, bool]:
    """Run one process to completion; returns (exit code, wall seconds,
    max RSS in KiB, timed out).  Past the deadline it gets SIGTERM, then
    SIGKILL.  The exit is observed without reaping first, so a signal can
    never reach a recycled pid."""
    lock = threading.Lock()
    state = {"done": False, "timed_out": False}

    def send(sig: int) -> None:
        with lock:
            if not state["done"]:
                state["timed_out"] = True
                os.kill(proc.pid, sig)

    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env)
        timers = [
            threading.Timer(deadline_s, send, (signal.SIGTERM,)),
            threading.Timer(deadline_s + TERM_GRACE_S, send, (signal.SIGKILL,)),
        ]
        for t in timers:
            t.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["done"] = True
        finally:
            for t in timers:
                t.cancel()
                t.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, state["timed_out"]


def run_command(cmd: workloads.Command, env: dict, traced: bool, workdir: str) -> Outcome:
    stdout_path = os.path.join(workdir, "stdout")
    trace_path = os.path.join(workdir, "trace.json")
    if traced:
        argv = [sys.executable, TRACER, trace_path, *cmd.args]
    else:
        argv = [sys.executable, "-c", CLI, *cmd.args]
    rc, wall, rss, timed_out = spawn(argv, env, cmd.deadline_s, stdout_path)
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    trace = None
    if traced:
        try:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            os.remove(trace_path)
        except (OSError, json.JSONDecodeError):
            pass
    known = cmd.known_defect is not None
    if timed_out:
        return Outcome(cmd.key, wall, rss, False, False, known, f"missed the {cmd.deadline_s:g} s deadline", trace)
    reason = cmd.verify(rc, stdout)
    return Outcome(cmd.key, wall, rss, reason is None, reason is not None and rc == 0, known, reason, trace)


def measure_setup(workspace: str, env: dict, workdir: str) -> float:
    """Median wall time of a fresh process that imports gammalat and loads
    the workload's workspace; one untimed warm-up run first."""
    argv = [sys.executable, "-c", SETUP, workspace]
    times = []
    for i in range(SETUP_REPEATS + 1):
        rc, wall, _, _ = spawn(argv, env, workloads.DEFAULT_DEADLINE_S, os.path.join(workdir, "stdout"))
        if rc != 0:
            raise RuntimeError(f"set-up run exited with {rc}")
        if i:
            times.append(wall)
    return statistics.median(times)


def run_passes(wl: workloads.Workload, env: dict, seconds: float, trace: bool, workdir: str):
    """Whole passes until ``seconds`` have elapsed; with ``trace`` they
    alternate untraced and traced, starting untraced, and end on a traced
    one."""
    passes: list[tuple[bool, list[Outcome]]] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, [run_command(cmd, env, traced, workdir) for cmd in wl.commands]))
        if time.perf_counter() - start >= seconds and (not trace or traced):
            return passes


def _per_command_medians(passes: list[list[Outcome]]) -> list[float]:
    return [statistics.median(p[i].wall_s for p in passes) for i in range(len(passes[0]))]


def end_to_end(passes: list[list[Outcome]], setup_s: float) -> dict:
    medians = _per_command_medians(passes)
    outcomes = [o for p in passes for o in p]
    return {
        "setup_s": setup_s,
        "pass_s": sum(medians),
        "cmd_max_s": max(medians),
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024.0,
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
    }


def _is_maximum(metric: str) -> bool:
    return "max" in metric.rsplit(".", 1)[1]


def _pass_layers(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer totals (or maxima) over one traced pass."""
    out: dict[str, float] = {}
    for t in (o.trace for o in outcomes if o.trace is not None):
        items = [(f"{name}.calls", calls) for name, (calls, _, _) in t["spans"].items()]
        items += [(f"{name}.self_s", self_s) for name, (_, _, self_s) in t["spans"].items()]
        for name, value in items + list(t["counters"].items()):
            out[name] = max(out.get(name, 0), value) if _is_maximum(name) else out.get(name, 0) + value
    calls = out["lattices.recognize.calls"]
    decided = out["lattices.recognize.yes"] + out["lattices.recognize.no"]
    out["lattices.recognize.decided_ratio"] = decided / calls if calls else 0.0
    return out


def _median_pass_s(passes: list[list[Outcome]]) -> float:
    return statistics.median(sum(o.wall_s for o in p) for p in passes)


def per_layer(passes: list[tuple[bool, list[Outcome]]]) -> dict:
    traced = [p for is_traced, p in passes if is_traced]
    untraced = [p for is_traced, p in passes if not is_traced]
    layers = [_pass_layers(p) for p in traced]
    values = {name: statistics.median(t[name] for t in layers) for name in layers[0]}
    values["trace.overhead_frac"] = _median_pass_s(traced) / _median_pass_s(untraced) - 1.0
    # The median command is mostly process start-up, whose run-to-run spread
    # on a shared VM exceeds any regression bound, so it is reported without one.
    values["cmd_p50_s"] = statistics.median(_per_command_medians(untraced))
    return values


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gammalat", "cli.py")):
        print("bench: run from the root of a gammalat checkout (src/gammalat is missing)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    env = _env()
    workdir = os.path.join(WORKDIR, args.workload)
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    setup_s = measure_setup(wl.workspace, env, workdir)
    passes = run_passes(wl, env, args.seconds, bool(args.trace), workdir)
    outcomes = [o for _, p in passes for o in p]
    untraced = [p for is_traced, p in passes if not is_traced]
    values = per_layer(passes) if args.trace else end_to_end(untraced, setup_s)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}

    totals = ", ".join(f"{sum(o.wall_s for o in p):.3f}" for _, p in passes)
    print(f"{args.workload}: {len(passes)} passes of {len(wl.commands)} commands, wall s: {totals}")
    print("median wall time per command over the untraced passes:")
    for cmd, median in zip(wl.commands, _per_command_medians(untraced)):
        print(f"  {median:8.3f} s  {cmd.key}")
    for o in outcomes:
        if not o.ok:
            tag = "known defect" if o.known_defect else ("WRONG" if o.wrong else "FAILED")
            print(f"  {tag}: {o.key}: {o.reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    failed = sum(1 for o in outcomes if not o.ok and not o.known_defect)
    result = {
        "correct": failed == 0 and not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
