"""Span tracing from outside the library, for the benchmark's traced run.

``installed(tracer)`` replaces the library functions at the names their
callers look them up by (``nosreg.polesearch.modal_coeffs``,
``nosreg.cli.simulate_nonlinear``, ...) with wrappers that record a span per
call, and restores the originals on exit.  Nothing under ``src/`` changes.

A span is ``[name, parent, request, start, end, raised, note]`` kept in
memory: ``raised`` is the class name of the exception the call raised, if
any, and ``note`` a number the site extracts from the call (trials used,
certificate passed, RK4 steps, bytes written).  The plant callables run ~500 000 times per simulation, so
they are aggregated per (name, parent span) into a call count and total time
instead of one span each; they have no children, so self times stay exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import os
import time

from nosreg.errors import SearchExhausted
from nosreg.sim import SimConfig

NAME, PARENT, REQUEST, START, END, RAISED, NOTE = range(7)


# Note extractors get (args, kwargs, result, exc); exc is None on return.

def _trials(args, kwargs, result, exc):
    if isinstance(exc, SearchExhausted):
        return exc.max_trials
    return None if exc else result[2]


def _passed(args, kwargs, result, exc):
    return None if exc else int(result.passed)


def _rk4_steps(args, kwargs, result, exc):
    cfg = args[4] if len(args) > 4 else kwargs.get("cfg", SimConfig())
    return int(round(cfg.horizon / cfg.step))


def _bytes_written(args, kwargs, result, exc):
    return None if exc else os.path.getsize(args[1])


# (module, attribute, span name, note extractor)
SITES = (
    ("nosreg.modal", "lu_solve", "linalg.lu_solve", None),
    ("nosreg.regulation", "lu_solve", "linalg.lu_solve", None),
    ("nosreg.polesearch", "modal_coeffs", "modal.modal_coeffs", None),
    ("nosreg.regulation", "modal_coeffs", "modal.modal_coeffs", None),
    ("nosreg.regulation", "moore_feedback", "modal.moore_feedback", None),
    ("nosreg.polesearch", "certify", "certificates.certify", _passed),
    ("nosreg.regulation", "certify", "certificates.certify", _passed),
    ("nosreg.regulation", "solve_sylvester", "regulation.solve_sylvester", None),
    ("nosreg.regulation", "nominal_ic", "regulation.nominal_ic", None),
    ("nosreg.regulation", "synthesize", "regulation.synthesize", None),
    ("nosreg.polesearch", "search", "polesearch.search", _trials),
    ("nosreg.sim", "detect_overshoot", "sim.detect_overshoot", None),
    ("nosreg.cli", "solve_sylvester", "regulation.solve_sylvester", None),
    ("nosreg.cli", "search", "polesearch.search", _trials),
    ("nosreg.cli", "synthesize", "regulation.synthesize", None),
    ("nosreg.cli", "simulate_nonlinear", "sim.simulate_nonlinear", _rk4_steps),
    ("nosreg.cli", "write_csv", "sim.write_csv", _bytes_written),
    ("nosreg.cli", "load_config", "cli.load_config", None),
    ("nosreg.cli", "load_gains", "cli.load_gains", None),
    ("nosreg.cli", "write_gains", "cli.write_gains", None),
    ("nosreg.cli", "cmd_search", "cli.cmd_search", None),
    ("nosreg.cli", "cmd_simulate", "cli.cmd_simulate", None),
)

PLANT_CALLABLES = ("dynamics", "normal_map", "linearizing_feedback")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[str, int], list] = {}   # (name, parent) -> [calls, seconds]
        self.stack = [-1]
        self.request = -1

    def wrap(self, fn, name: str, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1], self.request, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[RAISED] = type(exc).__name__
                if note is not None:
                    span[NOTE] = note(args, kwargs, None, exc)
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if note is not None:
                span[NOTE] = note(args, kwargs, result, None)
            return result

        return traced

    def wrap_leaf(self, fn, name: str):
        leaves, stack, clock = self.leaves, self.stack, time.perf_counter

        def traced(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            acc = leaves.get((name, stack[-1]))
            if acc is None:
                leaves[(name, stack[-1])] = [1, dt]
            else:
                acc[0] += 1
                acc[1] += dt
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans and leaf calls cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        for (_, parent), (_, seconds) in self.leaves.items():
            if parent >= 0:
                own[parent] -= seconds
        return own

    def write(self, path, header: str) -> None:
        """Dump spans and leaf aggregates as tab-separated text (times in microseconds)."""
        selfs = self.self_times()
        t_ref = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(f"# {header}\n")
            fh.write("kind\tid\tname\tparent\trequest\tstart_us\tend_us\tself_us"
                     "\tcalls\traised\tnote\n")
            for i, s in enumerate(self.spans):
                fh.write(f"span\t{i}\t{s[NAME]}\t{s[PARENT]}\t{s[REQUEST]}\t"
                         f"{(s[START] - t_ref) * 1e6:.3f}\t{(s[END] - t_ref) * 1e6:.3f}\t"
                         f"{selfs[i] * 1e6:.3f}\t1\t{s[RAISED] or ''}\t"
                         f"{'' if s[NOTE] is None else s[NOTE]}\n")
            for (name, parent), (calls, seconds) in self.leaves.items():
                req = self.spans[parent][REQUEST] if parent >= 0 else -1
                fh.write(f"leaf\t-\t{name}\t{parent}\t{req}\t\t\t"
                         f"{seconds * 1e6:.3f}\t{calls}\t\t\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call site in SITES and the built-in plant's callables through ``tracer``."""
    from nosreg import plants

    factory = plants.BUILTIN_PLANTS["benchmark"]
    undo = []
    try:
        for module_name, attr, name, note in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            undo.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, note))

        def traced_plant():
            plant = factory()
            return dataclasses.replace(plant, **{
                attr: tracer.wrap_leaf(getattr(plant, attr), f"plants.{attr}")
                for attr in PLANT_CALLABLES})

        plants.BUILTIN_PLANTS["benchmark"] = traced_plant
        yield tracer
    finally:
        plants.BUILTIN_PLANTS["benchmark"] = factory
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


# Per-layer metrics of the traced run: (name, unit).  BENCHMARK.json lists the same.
PER_LAYER = (
    ("linalg.lu_solve.calls", "count"),
    ("linalg.lu_solve.self_ms", "ms"),
    ("linalg.lu_solve.singular", "count"),
    ("modal.modal_coeffs.calls", "count"),
    ("modal.modal_coeffs.self_ms", "ms"),
    ("modal.moore_feedback.self_ms", "ms"),
    ("certificates.certify.calls", "count"),
    ("certificates.certify.self_ms", "ms"),
    ("certificates.pass_ratio", "ratio"),
    ("polesearch.search.calls", "count"),
    ("polesearch.search.self_ms", "ms"),
    ("polesearch.trials", "count"),
    ("polesearch.trials_per_request", "count"),
    ("polesearch.exhausted", "count"),
    ("regulation.solve_sylvester.calls", "count"),
    ("regulation.solve_sylvester.self_ms", "ms"),
    ("regulation.synthesize.calls", "count"),
    ("regulation.synthesize.self_ms", "ms"),
    ("sim.simulate_nonlinear.self_ms", "ms"),
    ("sim.rk4_steps", "count"),
    ("plants.dynamics.calls", "count"),
    ("plants.dynamics.self_ms", "ms"),
    ("plants.normal_map.calls", "count"),
    ("plants.normal_map.self_ms", "ms"),
    ("plants.linearizing_feedback.calls", "count"),
    ("plants.linearizing_feedback.self_ms", "ms"),
    ("sim.detect_overshoot.self_ms", "ms"),
    ("sim.write_csv.self_ms", "ms"),
    ("sim.write_csv.bytes", "B"),
    ("cli.load_config.self_ms", "ms"),
    ("cli.load_gains.self_ms", "ms"),
    ("cli.write_gains.self_ms", "ms"),
    ("cli.cmd_search.self_ms", "ms"),
    ("cli.cmd_simulate.self_ms", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

REQUEST_SPAN = "request"


def layer_totals(tracer: Tracer) -> dict[str, float]:
    """Sum calls, self time and notes per layer over every traced request.

    Besides ``<layer>.calls`` and ``<layer>.self_ms`` this gives the counts
    derived from span notes, ``trace.unattributed_frac`` (request time no
    layer span covers, over traced request time) and ``requests``.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    selfs = tracer.self_times()
    request_time = 0.0
    for s, own in zip(tracer.spans, selfs):
        name, note = s[NAME], s[NOTE]
        if name == REQUEST_SPAN:
            add("requests", 1)
            request_time += s[END] - s[START]
            add("trace.unattributed_s", own)
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.self_ms", own * 1e3)
        if s[RAISED]:
            add(f"{name}.raised.{s[RAISED]}", 1)
        if note is not None:
            add(f"{name}.note", note)
    for (name, _), (calls, seconds) in tracer.leaves.items():
        add(f"{name}.calls", calls)
        add(f"{name}.self_ms", seconds * 1e3)

    calls = out.get("certificates.certify.calls", 0)
    out["certificates.pass_ratio"] = out.get("certificates.certify.note", 0) / calls if calls else 0.0
    out["linalg.lu_solve.singular"] = out.get("linalg.lu_solve.raised.SingularMatrix", 0)
    out["polesearch.exhausted"] = out.get("polesearch.search.raised.SearchExhausted", 0)
    out["polesearch.trials"] = out.get("polesearch.search.note", 0)
    out["sim.rk4_steps"] = out.get("sim.simulate_nonlinear.note", 0)
    out["sim.write_csv.bytes"] = out.get("sim.write_csv.note", 0)
    requests = out.get("requests", 0)
    out["polesearch.trials_per_request"] = out["polesearch.trials"] / requests if requests else 0.0
    out["trace.unattributed_frac"] = (out.get("trace.unattributed_s", 0.0) / request_time
                                      if request_time else 0.0)
    return out
