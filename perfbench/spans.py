"""Per-layer call tracing, installed from outside the package.

The package's modules import each other's functions by name
(``from .polycore import divmod_rat``), so a traced function has to be
replaced in every ``semidomain_atoms.*`` namespace that binds it, not
only in its home module.  ``Tracer.install`` does that and
``Tracer.uninstall`` puts the originals back.

Every call of a traced function becomes a span: function, parent span,
input index, start, end, a flag (closed, cut by the time limit, or
raised) and an outcome code.  Spans are records of ``FIELDS`` numbers in
one flat array in memory, written out once, by ``write``, when the run
ends.  A span's self time is its duration minus the durations of its
direct children.

The time limit interrupts with an exception raised by a signal handler,
which Python runs between any two bytecodes.  A span is therefore added
with a single ``array.extend`` call, which no handler can split, so an
interrupt never leaves a half-written record; a span it leaves open is
closed by ``end_input``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

LAYERS = ("polycore", "rootcount", "irreducibility", "exactlp", "signsearch",
          "monoid", "transforms", "oracle")

OPEN, CLOSED, TIMEOUT, RAISED = 0, 1, 2, 3

# Fields of one span record, in order.
FN, PARENT, INPUT, START, END, FLAG, OUTCOME = range(7)
FIELDS = 7

_SEARCH_OUTCOMES = ("witness", "infeasible", "exhausted")


def _search_outcome(sa, result) -> int:
    if isinstance(result, sa.Witness):
        return 0
    if isinstance(result, sa.InfeasibleProven):
        return 1
    return 2


def _decided_by(sa, result) -> int:
    """0: a detector decided it, 1: the engine did, 2: undecided.

    The engine decided a pair when a multiplier witness that is not part
    of a degree-2 table entry backs it.
    """
    if not result.decided:
        return 2
    certs = result.certificates
    if (any(isinstance(c, sa.MultiplierWitness) for c in certs)
            and not any(isinstance(c, sa.Degree2Case) for c in certs)):
        return 1
    return 0


@dataclass(frozen=True)
class Traced:
    """One traced public function and the metrics its calls feed."""

    label: str  # "<layer>.<function>"
    module: str  # home module under semidomain_atoms
    attr: str  # attribute there; "Class.method" for a classmethod
    outcomes: tuple = ()  # metric names, indexed by classify(result)
    classify: Optional[Callable] = None  # result -> index or None
    counters: tuple = ()  # metric names that on_call/on_return add to
    on_call: Optional[Callable] = None  # (counts, args), before the call
    on_return: Optional[Callable] = None  # (counts, result), after it


def traced_functions(sa) -> list[Traced]:
    from semidomain_atoms import _exactlp

    cutover = _exactlp.FM_CUTOVER

    def lp_size(label):
        def on_call(counts, args):
            rows, n = args[0], args[1]
            counts["exactlp.rows_x_vars"] += len(rows) * n
            if n > cutover:
                counts[f"{label}.simplex_calls"] += 1
        return on_call

    def found(counts, result):
        counts["oracle.enumerate_factorizations.found"] += len(result)

    irr = "irreducibility.certify_irreducible"
    fp = "exactlp.feasible_point"
    vr = "exactlp.variable_range"
    iws = "signsearch.integer_witness_search"
    rf = "signsearch.rational_feasibility"
    dp = "signsearch.descartes_prune"
    ef = "oracle.enumerate_factorizations"
    return [
        Traced(irr, "irreducibility", "certify_irreducible",
               (f"{irr}.irreducible", f"{irr}.reducible", f"{irr}.unknown"),
               lambda r: (0 if isinstance(r, sa.Irreducible)
                          else 1 if isinstance(r, sa.Reducible) else 2)),
        Traced("polycore.divmod_rat", "polycore", "divmod_rat"),
        Traced("polycore.gcd_rat", "polycore", "gcd_rat"),
        Traced("rootcount.positive_root_count", "rootcount",
               "positive_root_count"),
        Traced("rootcount.isolate_positive_roots", "rootcount",
               "isolate_positive_roots"),
        Traced(fp, "_exactlp", "feasible_point", (f"{fp}.infeasible",),
               lambda r: 0 if r is None else None,
               (f"{fp}.simplex_calls",), lp_size(fp)),
        Traced(vr, "_exactlp", "variable_range",
               counters=(f"{vr}.simplex_calls",), on_call=lp_size(vr)),
        Traced(iws, "signsearch", "integer_witness_search",
               tuple(f"{iws}.{o}" for o in _SEARCH_OUTCOMES),
               lambda r: _search_outcome(sa, r)),
        Traced(rf, "signsearch", "rational_feasibility",
               tuple(f"{rf}.{o}" for o in _SEARCH_OUTCOMES),
               lambda r: _search_outcome(sa, r)),
        Traced(dp, "signsearch", "descartes_prune", (f"{dp}.pruned",),
               lambda r: None if r is None else 0),
        Traced("monoid.from_polynomial", "monoid",
               "AlgebraicNumberSpec.from_polynomial"),
        Traced("monoid.analyze", "monoid", "analyze",
               ("monoid.decided_by.detector", "monoid.decided_by.engine",
                "monoid.undecided"), lambda r: _decided_by(sa, r)),
        Traced("monoid.atomicity_check", "monoid", "atomicity_check"),
        Traced("monoid.count_atoms", "monoid", "count_atoms"),
        Traced("monoid.count_strong_atoms", "monoid", "count_strong_atoms"),
        Traced("transforms.transform_scale", "transforms", "transform_scale"),
        Traced(ef, "oracle", "enumerate_factorizations",
               counters=(f"{ef}.found",), on_return=found),
        Traced("oracle.strong_check_oracle", "oracle", "strong_check_oracle"),
    ]


def metric_names(specs: list[Traced]) -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for t in specs:
        names += [f"{t.label}.calls", f"{t.label}.self_s", *t.outcomes,
                  *t.counters]
    names += ["exactlp.rows_x_vars", "signsearch.witness_rate"]
    names += [f"{layer}.timeout_self_s" for layer in LAYERS]
    names.append("trace.overhead_s")
    return names


class Tracer:
    def __init__(self, sa, timeout_type: type) -> None:
        self.timeout_type = timeout_type
        self.specs = traced_functions(sa)
        self.labels = [t.label for t in self.specs]
        self.rec = array("d")  # span records, FIELDS numbers each
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.current_input = -1
        self._first_span = 0
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "semidomain_atoms"
                   or name.startswith("semidomain_atoms.")]
        for index, t in enumerate(self.specs):
            home = sys.modules[f"semidomain_atoms.{t.module}"]
            if "." in t.attr:  # a classmethod
                cls_name, meth = t.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth,
                        classmethod(self._wrap(index, original.__func__)))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(home, t.attr)
            wrapped = self._wrap(index, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, index, fn):
        rec, stack, counts = self.rec, self.stack, self.counts
        clock = time.perf_counter
        timeout_type = self.timeout_type
        spec = self.specs[index]
        classify, on_call, on_return = (spec.classify, spec.on_call,
                                        spec.on_return)

        def traced(*args, **kwargs):
            base = len(rec)
            rec.extend((index, stack[-1] if stack else -1,
                        self.current_input, clock(), 0.0, OPEN, -1))
            sid = base // FIELDS
            stack.append(sid)
            try:
                if on_call is not None:
                    on_call(counts, args)
                result = fn(*args, **kwargs)
            except timeout_type:
                rec[base + FLAG] = TIMEOUT  # end_input sets its end
                raise
            except BaseException:
                rec[base + END] = clock()
                rec[base + FLAG] = RAISED
                raise
            finally:
                if stack and stack[-1] == sid:
                    stack.pop()
            rec[base + END] = clock()
            rec[base + FLAG] = CLOSED
            if classify is not None:
                code = classify(result)
                if code is not None:
                    rec[base + OUTCOME] = code
            if on_return is not None:
                on_return(counts, result)
            return result

        return traced

    # -- per-input bookkeeping -------------------------------------------

    def begin_input(self, i: int) -> None:
        self.current_input = i
        self._first_span = len(self.rec) // FIELDS
        self.stack.clear()

    def end_input(self) -> None:
        """Close the spans the limit cut, and any an interrupt left open
        (it can land between a span's bookkeeping steps), at one time,
        so that each still lies inside its parent; tag them as cut."""
        now = time.perf_counter()
        rec = self.rec
        for base in range(self._first_span * FIELDS, len(rec), FIELDS):
            if rec[base + FLAG] in (OPEN, TIMEOUT):
                rec[base + END] = now
                rec[base + FLAG] = TIMEOUT
        self.stack.clear()
        self.current_input = -1

    def __len__(self) -> int:
        return len(self.rec) // FIELDS

    def column(self, field: int) -> list:
        """One field of every span, in span order (ints except times)."""
        values = self.rec[field::FIELDS]
        if field in (START, END):
            return values.tolist()
        return [int(v) for v in values]

    # -- results -----------------------------------------------------------

    def _durations(self) -> list[float]:
        return [e - s for s, e in zip(self.column(START), self.column(END))]

    def self_times(self) -> list[float]:
        dur = self._durations()
        own = list(dur)
        for i, p in enumerate(self.column(PARENT)):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def subtree_mismatch(self) -> float:
        """Largest |sum of self times in a root's subtree - root span|.

        Zero up to rounding when every span was attributed to the right
        parent and closed."""
        dur = self._durations()
        parent = self.column(PARENT)
        acc = self.self_times()
        worst = 0.0
        for i in range(len(acc) - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                acc[p] += acc[i]
            else:
                worst = max(worst, abs(acc[i] - dur[i]))
        return worst

    def metrics(self, cut_inputs: set[int]) -> dict[str, float]:
        own = self.self_times()
        out: dict[str, float] = {}
        calls = [0] * len(self.labels)
        self_s = [0.0] * len(self.labels)
        tallies: dict[tuple[int, int], int] = defaultdict(int)
        timeout_self: dict[str, float] = defaultdict(float)
        search = {self.labels.index("signsearch.integer_witness_search"),
                  self.labels.index("signsearch.rational_feasibility")}
        searches = witnesses = 0
        fn, parent = self.column(FN), self.column(PARENT)
        input_of, flag = self.column(INPUT), self.column(FLAG)
        outcome = self.column(OUTCOME)
        for i, f in enumerate(fn):
            calls[f] += 1
            self_s[f] += own[i]
            if outcome[i] >= 0:
                tallies[f, outcome[i]] += 1
            if input_of[i] in cut_inputs:
                timeout_self[self.labels[f].split(".")[0]] += own[i]
            p = parent[i]
            if f in search and flag[i] == CLOSED and (
                    p < 0 or fn[p] not in search):
                searches += 1
                witnesses += outcome[i] == 0
        for f, t in enumerate(self.specs):
            out[f"{t.label}.calls"] = calls[f]
            out[f"{t.label}.self_s"] = self_s[f]
            for code, name in enumerate(t.outcomes):
                out[name] = tallies[f, code]
            for name in t.counters:
                out[name] = self.counts[name]
        out["exactlp.rows_x_vars"] = self.counts["exactlp.rows_x_vars"]
        out["signsearch.witness_rate"] = (witnesses / searches
                                          if searches else 0.0)
        for layer in LAYERS:
            out[f"{layer}.timeout_self_s"] = timeout_self[layer]
        return out

    def write(self, path, extra: dict) -> None:
        """All spans, columnar, times in microseconds from the first span."""
        start, end = self.column(START), self.column(END)
        t0 = start[0] if start else 0.0
        doc = {
            "functions": self.labels,
            "flags": {"open": OPEN, "closed": CLOSED, "timeout": TIMEOUT,
                      "raised": RAISED},
            "fn": self.column(FN),
            "parent": self.column(PARENT),
            "input": self.column(INPUT),
            "start_us": [round((t - t0) * 1e6) for t in start],
            "end_us": [round((t - t0) * 1e6) for t in end],
            "flag": self.column(FLAG),
            "outcome": self.column(OUTCOME),
            **extra,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
