"""Spans around dephasim's cross-module calls, recorded from outside.

Each wrapped entry point is patched where the caller looks it up (the
caller's module namespace), so the program itself is unchanged.  A span
records its name, layer, thread, parent span, start and end (wall clock)
and the thread's CPU time (time.thread_time) over the call: busy time is
that CPU time and waiting is wall time minus it, which is where a pool's
contention for the interpreter lock shows.  Spans stay in memory until
the run ends.  A target that no longer exists is listed as absent.
"""

from dataclasses import dataclass
import functools
import importlib
import itertools
import threading
import time

import numpy as np


def _states(args, kwargs, out):
    return {"states": int(np.shape(out)[0])}


def _concurrence(args, kwargs, out):
    return {"states": int(np.size(out)), "entangled": int(np.count_nonzero(np.asarray(out) > 0))}


class _GammaLog:
    """Keeps every (t, Gamma) pair the program computed, for accuracy checks."""

    def __init__(self):
        self.calls = []

    def __call__(self, args, kwargs, out):
        t = np.atleast_1d(np.asarray(args[0], dtype=float))
        self.calls.append((t, np.atleast_1d(out)))
        return {"points": int(t.size)}


# (where the caller looks the callee up, span name, layer, extra counters)
SPANS = (
    ("experiments.sweep_eta", "experiments.sweep_eta", "experiments", None),
    ("experiments.grid_pv", "experiments.grid_pv", "experiments", None),
    ("cli.main", "cli.main", "cli", None),
    ("cli.parse_args", "cli.parse_args", "cli", None),
    ("cli.emit", "cli.emit", "cli", None),
    ("cli.time_series", "experiments.time_series", "experiments", None),
    ("experiments.time_series", "experiments.time_series", "experiments", None),
    ("experiments.peak_concurrence", "experiments.peak_concurrence", "experiments", None),
    ("experiments.collapse_time", "experiments.collapse_time", "experiments", None),
    ("experiments.dephasing_grid", "bath.dephasing_grid", "bath", None),
    ("bath.decay_Gamma", "bath.decay_Gamma", "bath", "gamma"),
    ("bath.phase_S", "bath.phase_S", "bath", None),
    ("experiments.evolve_series", "dynamics.evolve_series", "dynamics", _states),
    ("experiments._factor_series_cached", "dynamics.factor_series", "dynamics", _states),
    ("experiments._background_from_S", "dynamics.background_from_S", "dynamics", None),
    ("dynamics._background_from_S", "dynamics.background_from_S", "dynamics", None),
    ("experiments.concurrence_series", "entanglement.concurrence_series", "entanglement", _concurrence),
)
# counted per thread, not spanned: about 5000 calls per configuration
COUNTED = ("bath.integrate.quad", "bath.quad_calls")


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    layer: str
    thread: int
    parent: object
    start: float
    end: float
    cpu: float
    extra: object

    @property
    def wall(self):
        return self.end - self.start


def _resolve(path):
    """(owner object, attribute) for 'module.attr[.attr]' under dephasim."""
    head, *rest = path.split(".")
    owner = importlib.import_module("dephasim." + head)
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1]


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.gamma = _GammaLog()
        self.counts = {}
        self._stacks = {}
        self._root = threading.get_ident()
        self._next = itertools.count(1).__next__
        self._patched = []

    def __enter__(self):
        for path, name, layer, extra in SPANS:
            measure = self.gamma if extra == "gamma" else extra
            self._patch(path, lambda fn, n=name, l=layer, m=measure: self._span(fn, n, l, m))
        path, name = COUNTED
        self._patch(path, lambda fn: self._count(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, path, make):
        try:
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(path)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _parent(self, tid):
        stack = self._stacks.get(tid)
        if stack:
            return stack[-1]
        # a pool worker's outermost span belongs to the span that started the pool
        root = self._stacks.get(self._root)
        return root[-1] if tid != self._root and root else None

    def _span(self, fn, name, layer, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            parent = self._parent(tid)
            stack = self._stacks.setdefault(tid, [])
            sid = self._next()
            stack.append(sid)
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                stack.pop()
            extra = measure(args, kwargs, out) if measure else None
            self.spans.append(Span(sid, name, layer, tid, parent, t0, t1, c1 - c0, extra))
            return out

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # each thread writes only its own key
            key = (name, threading.get_ident())
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name):
        return sum(v for (n, _), v in self.counts.items() if n == name)


def _covered(span, children):
    """Length of the part of span's interval that its children cover."""
    edges = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in edges:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer):
    """Per-layer busy, waiting and self time, and the counters, from the spans."""
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def outermost(layer):
        # the layer's spans not nested in another span of the same layer
        return [s for s in spans if s.layer == layer and (s.parent is None or by_id[s.parent].layer != layer)]

    def named(name):
        return [s for s in spans if s.name == name]

    def extra_sum(name, key):
        return sum(s.extra[key] for s in named(name) if s.extra)

    roots = [s for s in spans if s.parent is None]
    wall = sum(s.wall for s in roots)
    # busy time of each thread's outermost spans, over the run's wall time
    thread_tops = [s for s in spans if s.parent is None or by_id[s.parent].thread != s.thread]

    m = {}
    bath = outermost("bath")
    m["bath.busy_s"] = sum(s.cpu for s in bath)
    m["bath.wait_s"] = sum(max(0.0, s.wall - s.cpu) for s in bath)
    points = extra_sum("bath.decay_Gamma", "points")
    m["bath.gamma_points"] = points
    m["bath.quad_calls"] = tracer.count("bath.quad_calls")
    gamma_cpu = sum(s.cpu for s in named("bath.decay_Gamma"))
    m["bath.us_per_gamma_point"] = 1e6 * gamma_cpu / points if points else 0.0
    m["dynamics.busy_s"] = sum(s.cpu for s in outermost("dynamics"))
    m["dynamics.states"] = extra_sum("dynamics.evolve_series", "states") + extra_sum("dynamics.factor_series", "states")
    m["dynamics.pn_evals"] = len(named("dynamics.background_from_S"))
    ent = named("entanglement.concurrence_series")
    states = extra_sum("entanglement.concurrence_series", "states")
    m["entanglement.busy_s"] = sum(s.cpu for s in outermost("entanglement"))
    m["entanglement.states"] = states
    m["entanglement.us_per_state"] = 1e6 * sum(s.cpu for s in ent) / states if states else 0.0
    m["entanglement.entangled_share"] = (
        extra_sum("entanglement.concurrence_series", "entangled") / states if states else 0.0
    )
    m["experiments.self_s"] = sum(
        s.wall - _covered(s, children.get(s.sid, [])) for s in spans if s.layer == "experiments"
    )
    m["experiments.configs"] = len(named("experiments.time_series"))
    m["experiments.parallelism"] = sum(s.cpu for s in thread_tops) / wall if wall else 0.0
    m["cli.parse_s"] = sum(s.wall for s in named("cli.parse_args"))
    m["cli.emit_s"] = sum(s.wall for s in named("cli.emit"))
    return m, wall


def span_records(tracer):
    """The spans as plain lists, for the trace file."""
    return [
        [s.sid, s.name, s.thread, s.parent, s.start, s.end, s.cpu, s.extra]
        for s in sorted(tracer.spans, key=lambda s: s.start)
    ]
