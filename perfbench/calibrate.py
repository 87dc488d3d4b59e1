"""Evidence for a workload's per-input time limit L (config.json).

    python3 perfbench/calibrate.py --workload NAME [--seed N] [--seconds S]

Runs the workload's inputs for the default seed (or --seed), whole
passes for at least --seconds and at least min_inputs inputs, each
under a limit of 2L instead of L.  Every input must either finish
within L/2 or still be running at 2L, so that no input finishes within
a factor of two of the limit.  Prints the inputs nearest to the limit
from both sides and exits 1 if any input lands inside (L/2, 2L).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import worker


def main() -> int:
    cfg = json.loads((worker.HERE / "config.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=cfg["workloads"])
    ap.add_argument("--seed", type=int, default=cfg["default_seed"])
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()

    sa = worker._load_package()
    import workloads
    wl = workloads.WORKLOADS[args.workload](sa, cfg, args.seed)
    limit = wl.limit_s
    signal.signal(signal.SIGALRM, worker._on_alarm)
    finished, beyond = [], []
    start = time.perf_counter()
    for todo in wl.passes():
        for inp in todo:
            _, seconds, status = worker.timed_call(wl, inp, 2 * limit)
            if status == "timeout":
                beyond.append(inp.label)
            else:
                finished.append((seconds, inp.label))
        n = len(finished) + len(beyond)
        if (time.perf_counter() - start >= args.seconds
                and n >= cfg["min_inputs"]):
            break

    finished.sort()
    inside = [(t, label) for t, label in finished if t > limit / 2]
    print(f"{args.workload} seed {args.seed}: limit {limit} s, {n} inputs, "
          f"{len(finished)} finished within 2L, {len(beyond)} still running "
          "at 2L")
    print("slowest finished:")
    for t, label in finished[-5:]:
        print(f"  {t * 1e3:9.3f} ms  ({t / limit:.3f} L)  {label}")
    print("still running at 2L:")
    for label in beyond[:5]:
        print(f"  {label}")
    if inside:
        print(f"FAIL: {len(inside)} inputs finished within a factor of two "
              "of the limit:")
        for t, label in inside:
            print(f"  {t * 1e3:9.3f} ms  ({t / limit:.3f} L)  {label}")
        return 1
    print("ok: no input finished in (L/2, 2L)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
