"""Per-layer tracing from outside the program.

Every public function listed in ``LAYERS`` is replaced by a timing wrapper
wherever a ``triplaq`` module binds it: as a module global (the modules
import each other's functions by name, so patching only the defining
module would miss the call sites in ``cli_io`` and ``qst_analysis``) or as
a value of a module-level dict.  Nothing inside ``src/`` is instrumented.

Each call records a span (function, start, end, parent) in memory; self
time is the span minus its child spans.  A few observers count the work a
layer repeats or refuses, so waste is measured where it happens; their own
cost is excluded from every self time.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = {
    "spin_core": ("build_hamiltonian", "embed_single_excitation", "norm_error",
                  "sector_leak"),
    "dynamics": ("amplitudes_closed_form", "closed_form_state",
                 "hermitian_eigendecompose", "evolve_numeric",
                 "phase_aligned_distance", "oracle_equivalence_report"),
    "entanglement": ("state_concurrence", "partial_trace_pair",
                     "wootters_concurrence", "gap_from_state", "concurrence_gap",
                     "closed_form_c12", "closed_form_c34", "closed_form_c13"),
    "qst_analysis": ("locate_events_2d", "forbidden_J_scan", "periodicity_report",
                     "find_qst_J", "sequence_table", "wstate_candidate_from_state"),
    "cli_io": ("cmd_report", "cmd_surface", "cmd_events", "cmd_evolve",
               "resolve_geometry", "write_csv", "write_json"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# (name, unit, better) of every per-layer metric, in output order.
METRICS = (
    *((f"{f}.{kind}", unit, "lower") for f in FUNCTIONS
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    *((f"{mod}.{kind}", unit, "lower") for mod in LAYERS
      for kind, unit in (("self_s", "s"), ("share", "ratio"))),
    ("cli_io.bytes_written", "bytes", "lower"),
    ("entanglement.pair_reuse_ratio", "ratio", "higher"),
    ("spin_core.hamiltonian_reuse_ratio", "ratio", "higher"),
    ("entanglement.concurrence_gap.elements_per_call", "count", "higher"),
    ("qst_analysis.events_reported", "count", "higher"),
    ("qst_analysis.confirmed_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class CommandTrace:
    """Per-function calls and self time, and the waste counters, of one command."""

    calls: dict
    self_s: dict
    counters: dict
    spans: list = field(default_factory=list)   # (function, start, end, parent)


class Tracer:
    """Wraps the listed functions of ``triplaq`` while a command is traced.

    ``begin`` patches every binding and ``end`` restores the originals, so
    untraced commands run the program untouched.  While tracing, each call
    appends (function, clock) on entry and (EXIT, clock) on return to one
    flat log; spans, parents and self times are rebuilt from it in ``end``,
    which keeps the per-call cost low.
    """

    EXIT, OBSERVED = -1, -2

    def __init__(self):
        self._log: list = []
        self._pairs: set = set()
        self._hamiltonians: set = set()
        self._counters: dict = {}
        self._bindings = self._find_bindings()
        self._reset()

    def _reset(self):
        self._log.clear()
        self._pairs.clear()
        self._hamiltonians.clear()
        self._counters = dict.fromkeys(
            ("state_concurrence_calls", "build_hamiltonian_calls", "gap_calls",
             "gap_elements", "events_reported", "events_confirmed",
             "bytes_written"), 0)

    # -- observers: count waste where it happens -----------------------------

    def _observe_pair(self, args, kwargs, result):
        psi = args[0] if args else kwargs["psi"]
        pair = args[1] if len(args) > 1 else kwargs["pair"]
        self._pairs.add(hash((np.asarray(psi).tobytes(), tuple(pair))))
        self._counters["state_concurrence_calls"] += 1

    def _observe_hamiltonian(self, args, kwargs, result):
        geom = args[0] if args else kwargs["geom"]
        self._hamiltonians.add((geom.bonds, geom.J, geom.D))
        self._counters["build_hamiltonian_calls"] += 1

    def _observe_gap(self, args, kwargs, result):
        self._counters["gap_calls"] += 1
        self._counters["gap_elements"] += getattr(result, "size", 1)

    def _observe_events(self, args, kwargs, result):
        self._counters["events_reported"] += len(result)
        self._counters["events_confirmed"] += sum(1 for e in result if e.confirmed)

    def _observe_write(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self._counters["bytes_written"] += os.path.getsize(path)

    # -- patching -------------------------------------------------------------

    def _find_bindings(self) -> list:
        """(namespace, key, original, wrapper) for every place a triplaq
        module binds a listed function: its globals or a dict in them."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "triplaq"
                                           or name.startswith("triplaq."))}
        observers = {
            "entanglement.state_concurrence": self._observe_pair,
            "spin_core.build_hamiltonian": self._observe_hamiltonian,
            "entanglement.concurrence_gap": self._observe_gap,
            "qst_analysis.locate_events_2d": self._observe_events,
            "cli_io.write_csv": self._observe_write,
            "cli_io.write_json": self._observe_write,
        }
        wrappers = {}
        for fid, name in enumerate(FUNCTIONS):
            mod, fn = name.split(".")
            original = getattr(modules[f"triplaq.{mod}"], fn)
            wrappers[id(original)] = (original,
                                      self._wrap(fid, original, observers.get(name)))
        bindings = []
        for mod in modules.values():
            namespace = vars(mod)
            for space in (namespace, *(v for v in namespace.values()
                                       if isinstance(v, dict))):
                for key, value in space.items():
                    if id(value) in wrappers:
                        bindings.append((space, key, *wrappers[id(value)]))
        return bindings

    def _wrap(self, fid, fn, observe):
        append, clock, EXIT, OBSERVED = (self._log.append, time.perf_counter,
                                         self.EXIT, self.OBSERVED)
        if observe is None:
            def traced(*args, **kwargs):
                append(fid)
                append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    append(EXIT)
                    append(end)
        else:
            def traced(*args, **kwargs):
                append(fid)
                append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    append(EXIT)
                    append(end)
                observe(args, kwargs, result)
                append(OBSERVED)       # the observer's time is nobody's self time
                append(clock())
                return result
        traced.__wrapped__ = fn
        return traced

    # -- per command ----------------------------------------------------------

    def begin(self) -> None:
        self._reset()
        for space, key, _, wrapper in self._bindings:
            space[key] = wrapper

    def end(self, keep_spans: bool = False) -> CommandTrace:
        for space, key, original, _ in self._bindings:
            space[key] = original
        log, n = self._log, len(self._log)
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        spans, stack = [], []          # stack entries: [fid, start, child_s, span]
        i = 0
        while i < n:
            tag, t = log[i], log[i + 1]
            i += 2
            if tag >= 0:
                stack.append([tag, t, 0.0, len(spans)])
                if keep_spans:
                    spans.append([FUNCTIONS[tag], t, t,
                                  stack[-2][3] if len(stack) > 1 else -1])
                continue
            fid, start, child_s, span = stack.pop()
            outer_end = t              # tag is EXIT
            if i < n and log[i] == self.OBSERVED:
                outer_end = log[i + 1]
                i += 2
            calls[fid] += 1
            self_s[fid] += t - start - child_s
            if stack:
                stack[-1][2] += outer_end - start
            if keep_spans:
                spans[span][2] = outer_end
        counters = dict(self._counters,
                        distinct_pairs=len(self._pairs),
                        distinct_hamiltonians=len(self._hamiltonians))
        trace = CommandTrace(dict(zip(FUNCTIONS, calls)),
                             dict(zip(FUNCTIONS, self_s)), counters,
                             [tuple(s) for s in spans])
        self._reset()
        return trace


def _ratio(num: float, den: float) -> float:
    """A ratio whose base was zero reads 0; its base is reported beside it."""
    return num / den if den else 0.0


def layer_metrics(traces: list[CommandTrace], traced_wall_s: list[float],
                  untraced_wall_s: list[float]) -> dict:
    """Per-command per-layer metrics: calls from the first traced command
    (they must not drift), times averaged over traced commands."""
    n = len(traces)
    wall = sum(traced_wall_s) / n
    out = {}
    for f in FUNCTIONS:
        out[f"{f}.calls"] = traces[0].calls[f]
        out[f"{f}.self_s"] = sum(t.self_s[f] for t in traces) / n
    for mod, fns in LAYERS.items():
        module_self = sum(out[f"{mod}.{fn}.self_s"] for fn in fns)
        out[f"{mod}.self_s"] = module_self
        out[f"{mod}.share"] = _ratio(module_self, wall)
    c = {k: sum(t.counters[k] for t in traces) / n for k in traces[0].counters}
    out["cli_io.bytes_written"] = c["bytes_written"]
    out["entanglement.pair_reuse_ratio"] = _ratio(c["distinct_pairs"],
                                                  c["state_concurrence_calls"])
    out["spin_core.hamiltonian_reuse_ratio"] = _ratio(c["distinct_hamiltonians"],
                                                      c["build_hamiltonian_calls"])
    out["entanglement.concurrence_gap.elements_per_call"] = _ratio(
        c["gap_elements"], c["gap_calls"])
    out["qst_analysis.events_reported"] = c["events_reported"]
    out["qst_analysis.confirmed_ratio"] = _ratio(c["events_confirmed"],
                                                 c["events_reported"])
    out["trace.overhead_s"] = (statistics.median(traced_wall_s)
                               - statistics.median(untraced_wall_s))
    return out


def call_drift(traces: list[CommandTrace]) -> list[str]:
    """Functions whose call count differs between traced commands of one input."""
    first = traces[0].calls
    return sorted({f for t in traces[1:] for f in FUNCTIONS if t.calls[f] != first[f]})
