"""The benchmark: time to verdict and share decided within a time limit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: family, random_moduli,
irreducibility, oracle (see config.json for why each was chosen, every
pinned budget and each per-input time limit).

With ``--trace 0`` it starts one fresh worker that sets up and runs the
workload, plus ``setup_samples - 1`` workers that only set up, half
before and half after it; set-up time is taken from each spawn to the
worker's ``ready`` line and reported as the median.  With ``--trace 1`` it makes the same untraced
run and then replays exactly the inputs that run attempted in a second,
traced worker, and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong verdict, a worker
that fails, or a traced verdict that differs from its untraced twin
makes the command exit 1 without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; return (seconds from spawn to 'ready', last line)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        if first.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            raise BenchError(f"worker failed during set-up: {argv}")
        rest, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran past the deadline: {argv}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {argv}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile (exclusive method, as statistics.quantiles)."""
    return statistics.quantiles(values, n=10)[q - 1]


def _summary(run: dict) -> dict:
    status = run["status"]
    n = len(status)
    failed = sum(s in ("timeout", "crash") for s in status)
    decided = sum(s == "decided" for s in status)
    finished = sorted((t, label) for t, label, s in
                      zip(run["times"], run["labels"], status)
                      if s not in ("timeout", "crash"))
    return {
        "attempted": n,
        "failed": failed,
        "timed_out": status.count("timeout"),
        "crashed": status.count("crash"),
        "decided": decided,
        "slowest_finished": [
            {"input": label, "ms": round(t * 1e3, 3),
             "share_of_limit": round(t / run["limit_s"], 4)}
            for t, label in finished[-3:]],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    cfg = json.loads((HERE / "config.json").read_text())
    if args.workload not in cfg["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        # Set-up samples are taken before and after the workload run, so
        # that their median spans the run rather than one moment of the
        # host's speed.
        before = cfg["setup_samples"] // 2
        setups = [_spawn(common + ["--setup-only"], deadline)[0]
                  for _ in range(before)]
        ready, line = _spawn(common, deadline)
        setups.append(ready)
        setups += [_spawn(common + ["--setup-only"], deadline)[0]
                   for _ in range(cfg["setup_samples"] - before - 1)]
        run = json.loads(line)
        traced = None
        if args.trace:
            _, tline = _spawn(common + ["--trace", "1", "--max-inputs",
                                        str(len(run["status"]))], deadline)
            traced = json.loads(tline)
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = run["wrong"] + (traced["wrong"] if traced else [])
    if traced:
        problems += [
            f"traced verdict differs for {label}: {a} / {b}"
            for label, a, b in zip(run["labels"], run["verdicts"],
                                   traced["verdicts"])
            if a != b and "timeout" not in (a, b)]
        if traced["subtree_mismatch_s"] > 1e-6:
            problems.append("span self times do not sum to their roots: "
                            f"{traced['subtree_mismatch_s']}")
    for crash in run["crashed"]:
        print(f"undocumented exception: {crash}", file=sys.stderr)
    if problems:
        for p in problems:
            print(f"WRONG: {p}", file=sys.stderr)
        return 1

    summary = _summary(run)
    n = summary["attempted"]
    times_ms = [t * 1e3 for t in run["times"]]
    p90 = _quantile(times_ms, 9)
    info = {
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "limit_s": run["limit_s"], "passes": run["passes"],
        "verdict_samples": n, "beyond_p90": sum(t > p90 for t in times_ms),
        "setup_samples_s": [round(s, 4) for s in setups],
        **summary,
    }
    if traced:
        flips = sum((a == "timeout") != (b == "timeout") for a, b in
                    zip(run["verdicts"], traced["verdicts"]))
        info["trace_file"] = traced["trace_file"]
        info["timeout_flips_under_trace"] = flips
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in traced["layers"].items()}
        # Over the inputs that finished in both runs: an input cut by the
        # limit takes the limit either way, which would hide the overhead.
        both = [(a, b) for a, b, sa, sb in zip(
            run["times"], traced["times"], run["status"], traced["status"])
            if "timeout" not in (sa, sb)]
        metrics["trace.overhead_s"] = {
            "value": sum(b - a for a, b in both), "unit": "s"}
    else:
        completed = n - summary["failed"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "inputs_per_s": (completed / run["window_s"], "1/s"),
            "verdict_ms.p50": (statistics.median(times_ms), "ms"),
            "verdict_ms.p90": (p90, "ms"),
            "decided_frac": (summary["decided"] / n, "fraction"),
            "answered_frac": (completed / n, "fraction"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(info))
    print(json.dumps({"correct": True, "attempted": n,
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("witness_rate"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
