"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks, on the package in ``src/``:

* tracing changes no verdict: for every workload, a short untraced run
  and a traced replay of exactly the same inputs give equal verdicts;
* every span closes, a child lies inside its parent, and the self times
  in each root's subtree sum to the root span's duration, also when the
  time limit cuts an input in the middle of a call, and when it lands
  at any point of the tracer's own bookkeeping (hundreds of inputs cut
  after a random fraction of a millisecond to a few milliseconds);
* uninstalling the tracer puts every original function back;
* the metric names the benchmark prints are the ones BENCHMARK.json
  declares.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys

import worker

ROOT = worker.HERE.parent


def _worker(*argv: str) -> dict:
    out = subprocess.run([sys.executable, str(worker.HERE / "worker.py"),
                          *argv], capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_traced_equals_untraced() -> None:
    for name in ("family", "random_moduli", "irreducibility", "oracle"):
        common = ["--workload", name, "--seed", "7", "--seconds", "1"]
        plain = _worker(*common)
        traced = _worker(*common, "--trace", "1", "--max-inputs",
                         str(len(plain["verdicts"])))
        assert plain["verdicts"] == traced["verdicts"], name
        assert not plain["wrong"] and not traced["wrong"], name
        assert traced["subtree_mismatch_s"] < 1e-6, name
        print(f"ok  {name}: {len(plain['verdicts'])} traced verdicts equal "
              "the untraced ones")


def check_spans(sa) -> None:
    import spans
    originals = {name: getattr(sa, name) for name in
                 ("analyze", "divmod_rat", "certify_irreducible")}
    tracer = spans.Tracer(sa, worker.InputTimeout)
    tracer.install()
    signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        tracer.begin_input(0)
        spec = sa.AlgebraicNumberSpec.from_polynomial(
            sa.IntPoly((-2, 4, -8, 1)))
        assert sa.analyze(spec).pair == (sa.Finite(4), sa.Finite(5))
        tracer.end_input()
        # 3x^2 - x - 1 runs far longer than the limit inside the engine.
        tracer.begin_input(1)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            spec = sa.AlgebraicNumberSpec.from_polynomial(
                sa.IntPoly((-1, -1, 3)))
            sa.analyze(spec)
            raise AssertionError("3x^2 - x - 1 was expected to hang")
        except worker.InputTimeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        tracer.end_input()
    finally:
        tracer.uninstall()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    for name, fn in originals.items():
        assert getattr(sa, name) is fn, f"{name} not restored"
    assert sa.AlgebraicNumberSpec.from_polynomial.__func__.__module__ \
        == "semidomain_atoms.monoid"

    cut = _assert_nested(spans, tracer)
    assert cut and all(tracer.column(spans.INPUT)[i] == 1 for i in cut)
    metrics = tracer.metrics({1})
    assert metrics["monoid.analyze.calls"] == 2
    assert metrics["monoid.decided_by.engine"] == 1
    assert metrics["signsearch.timeout_self_s"] \
        + metrics["exactlp.timeout_self_s"] > 0
    print(f"ok  spans: {len(tracer)} spans closed and nested, {len(cut)} cut "
          "by the limit, originals restored")


def _assert_nested(spans, tracer) -> list[int]:
    """Every span closed, each child inside its parent and of the same
    input, self times summing to each root; returns the cut spans."""
    n = len(tracer)
    assert n > 0
    flag, parent = tracer.column(spans.FLAG), tracer.column(spans.PARENT)
    input_of = tracer.column(spans.INPUT)
    start, end = tracer.column(spans.START), tracer.column(spans.END)
    assert all(f != spans.OPEN for f in flag), "a span stayed open"
    for i in range(n):
        p = parent[i]
        assert start[i] <= end[i]
        if p >= 0:
            assert p < i and input_of[p] == input_of[i]
            assert start[p] <= start[i]
            assert end[i] <= end[p]
    assert tracer.subtree_mismatch() < 1e-9
    return [i for i in range(n) if flag[i] == spans.TIMEOUT]


def check_interrupts(sa) -> None:
    """Cut hundreds of inputs after random short times, so that the
    limit also lands inside the tracer's bookkeeping, and check that no
    span record is torn."""
    import spans
    import workloads
    cfg = json.loads((worker.HERE / "config.json").read_text())
    wl = workloads.WORKLOADS["irreducibility"](sa, cfg, 7)
    inputs = next(wl.passes())
    rng = random.Random(7)
    tracer = spans.Tracer(sa, worker.InputTimeout)
    tracer.install()
    signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        for i in range(600):
            tracer.begin_input(i)
            worker.timed_call(wl, inputs[i % len(inputs)],
                              rng.uniform(0.0002, 0.005))
            tracer.end_input()
    finally:
        tracer.uninstall()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    cut = _assert_nested(spans, tracer)
    assert cut
    tracer.metrics(set(range(600)))
    print(f"ok  interrupts: {len(tracer)} spans intact, {len(cut)} cut at "
          "random points")


def check_metric_names(sa) -> None:
    import spans
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    printed = spans.metric_names(spans.traced_functions(sa))
    tracer = spans.Tracer(sa, worker.InputTimeout)
    produced = list(tracer.metrics(set())) + ["trace.overhead_s"]
    assert sorted(printed) == sorted(produced), \
        set(printed) ^ set(produced)
    assert declared == printed, set(declared) ^ set(printed)
    run = subprocess.run(
        [sys.executable, str(worker.HERE / "run.py"), "--workload", "oracle",
         "--seed", "7", "--seconds", "0.5"], capture_output=True, text=True,
        check=True, timeout=300)
    e2e = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
    assert list(e2e) == [m["name"] for m in bench["end_to_end"]]
    for m in bench["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"], m["name"]
    print(f"ok  names: {len(declared)} per-layer and {len(e2e)} end-to-end "
          "metrics match BENCHMARK.json")


def main() -> int:
    sa = worker._load_package()
    try:
        check_metric_names(sa)
        check_spans(sa)
        check_interrupts(sa)
        check_traced_equals_untraced()
    except (AssertionError, subprocess.CalledProcessError) as exc:
        print(f"FAIL: {exc!r}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
