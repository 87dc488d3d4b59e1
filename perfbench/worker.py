"""One workload run in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only] [--max-inputs N]

Imports the package from ``src/`` of the checkout, builds the seeded
inputs and prints ``ready`` (run.py times set-up up to that line).  It
then runs whole passes until ``--seconds`` have gone by and at least
``min_inputs`` inputs were attempted (or exactly ``--max-inputs``
inputs, to replay an untraced run under tracing).  Each input runs
under the workload's time limit, enforced with this process's own
interval timer.  After the timed window every result is judged against
the references, and one JSON line with the raw per-input data is
printed last.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench_out"


class InputTimeout(BaseException):
    """Raised by the interval timer when an input reaches its limit.

    A BaseException, so that no ``except Exception`` on the way can
    swallow it."""


def _on_alarm(signum, frame):
    raise InputTimeout()


def timed_call(wl, inp, limit_s: float):
    """Run one input under the limit: (result, seconds, status).

    status is "ok", "timeout" (cut by the limit; result None) or "crash"
    (an undocumented exception: a failed operation; result is its
    traceback).  The caller installs ``_on_alarm`` for SIGALRM.
    """
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            result = wl.call(inp)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InputTimeout:
        return None, time.perf_counter() - t0, "timeout"
    except Exception:
        return (traceback.format_exc(limit=-3), time.perf_counter() - t0,
                "crash")
    return result, time.perf_counter() - t0, "ok"


def _load_package():
    if not (SRC / "semidomain_atoms" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import semidomain_atoms as sa
    if Path(sa.__file__).resolve().parent != SRC / "semidomain_atoms":
        raise SystemExit(f"error: imported {sa.__file__}, not {SRC}")
    return sa


def run(args) -> dict:
    sa = _load_package()
    sys.path.insert(0, str(HERE))
    import workloads
    cfg = json.loads((HERE / "config.json").read_text())
    wl = workloads.WORKLOADS[args.workload](sa, cfg, args.seed)
    passes = wl.passes()
    first = next(passes)
    print("ready", flush=True)
    if args.setup_only:
        return {}

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(sa, InputTimeout)
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    inputs, results, times, pass_walls = [], [], [], []
    cut: set[int] = set()
    crashed: dict[int, str] = {}
    window_start = time.perf_counter()
    todo = first
    while True:
        pass_start = time.perf_counter()
        for inp in todo:
            i = len(inputs)
            inputs.append(inp)
            if tracer:
                tracer.begin_input(i)
            result, seconds, status = timed_call(wl, inp, wl.limit_s)
            if tracer:
                tracer.end_input()
            if status == "timeout":
                cut.add(i)
            elif status == "crash":
                crashed[i] = result
                result = None
            times.append(seconds)
            results.append(result)
            if args.max_inputs and len(inputs) >= args.max_inputs:
                break
        pass_walls.append(time.perf_counter() - pass_start)
        if args.max_inputs:
            if len(inputs) >= args.max_inputs:
                break
        elif (time.perf_counter() - window_start >= args.seconds
              and len(inputs) >= cfg["min_inputs"]):
            break
        todo = next(passes)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    if tracer:
        tracer.uninstall()

    statuses, verdicts, wrong = [], [], []
    for i, (inp, result) in enumerate(zip(inputs, results)):
        if i in cut:
            statuses.append("timeout")
            verdicts.append("timeout")
            continue
        if i in crashed:
            statuses.append("crash")
            verdicts.append("crash")
            continue
        verdicts.append(repr(result))
        try:
            statuses.append(wl.judge(inp, result))
        except workloads.WrongVerdict as exc:
            statuses.append("wrong")
            wrong.append(str(exc))

    out = {
        "labels": [inp.label for inp in inputs],
        "times": times,
        "status": statuses,
        "verdicts": verdicts,
        "wrong": wrong,
        "crashed": [f"{inputs[i].label}: {tb}" for i, tb in crashed.items()],
        "limit_s": wl.limit_s,
        "window_s": sum(pass_walls),
        "passes": len(pass_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer:
        out["layers"] = tracer.metrics(cut)
        out["subtree_mismatch_s"] = tracer.subtree_mismatch()
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "labels": out["labels"], "cut": sorted(cut)})
        out["trace_file"] = str(path.relative_to(HERE.parent))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-inputs", type=int, default=0)
    args = ap.parse_args()
    out = run(args)
    if not args.setup_only:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
