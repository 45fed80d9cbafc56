"""In-memory span tracing of fvqsd's layer boundaries, from outside the package.

`Tracer.installed(fvqsd)` swaps wrappers onto the names that callers look
up at call time (``fvqsd.estimators.simulate``, ``fvqsd._kernels.run_events``,
``ReplicaSeed.generator``, the CLI's runner table, ...) and restores the
originals on exit.  The package's code is never edited.  A span is the
tuple ``(id, name, start, end, parent, thread, count)``; spans are appended
to a list as they end and are only written out by the caller.  ``count``
carries what the call returned that is worth adding up (events simulated,
QSD iterations, ...).

Helpers that run once per event (``_pick_particle``, ``_pick_move``) are
deliberately left alone: a wrapper there would cost more than the event.
"""
from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# fvqsd's modules.  Each is one layer, named after its module without the
# leading underscore; a span belongs to the layer named before the first
# dot of its name.
MODULES = (
    "_kernels", "seeding", "simulator", "measures", "parallel", "graphical",
    "semigroup", "chain", "estimators", "cli", "svgplot",
)
LAYERS = tuple(m.lstrip("_") for m in MODULES)


def _events(args, kwargs, result):
    return float(result)


def _particle_time(args, kwargs, result):
    # run_recorded(gen, positions, site_rate, cum_move, record_times, out)
    return float(len(args[1]) * args[4][-1])


def _mark_events(args, kwargs, result):
    return float(result.n_events)


def _qsd(args, kwargs, result):
    return (result.iterations, result.converged)


# (module the caller looks the name up in, attribute, span name, count).
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("cli", "run", "cli.run", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "validate_chain", "chain.validate_chain", None),
    ("cli", "qsd", "semigroup.qsd", _qsd),
    ("cli", "decay_rate_estimate", "semigroup.decay_rate_estimate", None),
    ("cli", "convergence_experiment", "estimators.convergence_experiment", None),
    ("cli", "correlation_experiment", "estimators.correlation_experiment", None),
    ("cli", "qsd_profile_experiment", "estimators.qsd_profile_experiment", None),
    ("cli", "product_moment_experiment", "estimators.product_moment_experiment", None),
    ("cli", "influence_experiment", "graphical.influence_experiment", None),
    ("cli", "simulate_trajectory", "simulator.simulate_trajectory", None),
    ("cli", "empirical_measure", "measures.empirical_measure", None),
    ("svgplot", "line_plot", "svgplot.line_plot", None),
    ("estimators", "simulate", "simulator.simulate", None),
    ("estimators", "stationary_sampler", "simulator.stationary_sampler", None),
    ("estimators", "conditioned_law", "semigroup.conditioned_law", None),
    ("estimators", "qsd", "semigroup.qsd", _qsd),
    ("estimators", "empirical_measure", "measures.empirical_measure", None),
    ("estimators", "tv_distance", "measures.tv_distance", None),
    ("simulator", "simulate_trajectory", "simulator.simulate_trajectory", None),
    ("simulator", "empirical_measure", "measures.empirical_measure", None),
    ("graphical", "sample_marks", "graphical.sample_marks", _mark_events),
    ("graphical", "influence_matrix", "graphical.influence_matrix", None),
    ("graphical", "evolve", "graphical.evolve", None),
    ("semigroup", "qsd", "semigroup.qsd", _qsd),
    ("semigroup", "conditioned_law", "semigroup.conditioned_law", None),
    ("semigroup", "forward_ode", "semigroup.forward_ode", None),
    ("semigroup", "transient_vector", "chain.transient_vector", None),
    ("semigroup", "tv_distance", "measures.tv_distance", None),
    ("_kernels", "run_events", "kernels.run_events", _events),
    ("_kernels", "run_recorded", "kernels.run_recorded", _particle_time),
    ("_kernels", "apply_marks", "kernels.apply_marks", None),
    ("_kernels", "influence_matrix_kernel", "kernels.influence_matrix_kernel", None),
)

# Modules whose replica fan-out goes through their own `map_replicas` name.
MAP_CALLERS = ("cli", "estimators", "graphical")


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stack.pop()
            self.spans.append((sid, name, start, perf_counter(), parent,
                               threading.get_ident(), None))
            raise
        end = perf_counter()
        stack.pop()
        self.spans.append((sid, name, start, end, parent, threading.get_ident(),
                           count(args, kwargs, result) if count else None))
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def wrap_map(self, fn):
        """map_replicas: one span for the fan-out, one per replica task.

        Worker threads start with an empty span stack, so each task names
        the fan-out span as its parent explicitly.  The fan-out span's count
        is the number of threads that can be busy at once.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(task, replicas, threads=1):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            task_name = task.__module__.rpartition(".")[2] + ".replica"

            def traced_task(r):
                return tracer.call(task_name, task, (r,), {}, parent=sid)

            stack.append(sid)
            start = perf_counter()
            try:
                return fn(traced_task, replicas, threads)
            finally:
                stack.pop()
                lanes = min(threads, replicas) if threads > 1 else 1
                tracer.spans.append((sid, "parallel.map_replicas", start,
                                     perf_counter(), parent,
                                     threading.get_ident(), float(max(lanes, 1))))
        return traced

    @contextmanager
    def installed(self, fvqsd):
        """Wrap every traced name for the duration of the block."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        modules = {name: getattr(fvqsd, name) for name in MODULES}
        try:
            for module, attr, name, count in WRAPPED:
                owner = modules[module]
                patch(owner, attr, self.wrap(name, getattr(owner, attr), count))
            for module in MAP_CALLERS:
                owner = modules[module]
                patch(owner, "map_replicas", self.wrap_map(owner.map_replicas))
            seed_cls = modules["seeding"].ReplicaSeed
            patch(seed_cls, "generator",
                  self.wrap("seeding.generator", seed_cls.generator))
            runners = modules["cli"]._RUNNERS
            for kind, runner in list(runners.items()):
                saved.append((runners, kind, runner))
                runners[kind] = self.wrap(f"cli.{kind}", runner)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
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


class SpanSummary:
    """Per-name totals, call counts, self times and summed counts.

    A span's self time is its duration minus the part of it that its child
    spans cover; children of a fan-out run on several threads and may
    overlap, so the union is taken.  Times are wall-clock per thread, so
    sums over spans on concurrent threads can exceed the elapsed time.
    """

    def __init__(self, spans: list[tuple]) -> None:
        children = defaultdict(list)
        for span in spans:
            children[span[4]].append((span[2], span[3]))
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(list)
        for sid, name, start, end, _parent, _thread, count in spans:
            duration = end - start
            self.total[name] += duration
            self.calls[name] += 1
            self.self_time[name] += duration - _covered(
                start, end, children.get(sid, []))
            if count is not None:
                self.counts[name].append(count)
        self.lanes_time = sum(
            (end - start) * count
            for _sid, name, start, end, _p, _t, count in spans
            if name == "parallel.map_replicas"
        )

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.partition(".")[0] == layer)

    def count_sum(self, name: str) -> float:
        return float(sum(self.counts.get(name, [])))
