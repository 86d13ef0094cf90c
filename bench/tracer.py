"""Traced-run instrumentation of the ``continuized`` package, kept outside it.

Coarse calls (setup, one run, one event-stream draw, one checkpoint
snapshot, aggregation, CSV) get spans: name, start, end and the enclosing
span.  Per-event functions get call counters only, with no clock reads, so
the traced run stays close to the untraced one.

Targets are wrapped by identity: every attribute of every loaded
``continuized.*`` module that *is* the target is replaced, which catches
re-bound names such as ``dual.sample_event_stream`` (imported from
``gossip``) and ``harness.runner.run_continuized`` (from ``dynamics``).
Methods are replaced on their class.  A target that no longer exists is
reported as absent instead of failing the run.  ``uninstall`` restores
every original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (metric prefix, module, qualified name).  Spans record calls, inclusive
# seconds and self seconds.
SPAN_TARGETS = (
    ("presets.get_preset", "continuized.harness.presets", "get_preset"),
    ("graphs.spectral", "continuized.graphs", "spectral"),
    ("seeding.run_streams", "continuized.seeding", "run_streams"),
    ("dynamics.run_continuized", "continuized.dynamics", "run_continuized"),
    ("gossip.sample_event_stream", "continuized.gossip", "sample_event_stream"),
    ("gossip.run_gossip", "continuized.gossip", "run_gossip"),
    ("gossip.synchronized_values", "continuized.gossip", "synchronized_values"),
    ("dual.DualParams.from_graph", "continuized.dual", "DualParams.from_graph"),
    ("dual.random_local_functions", "continuized.dual", "random_local_functions"),
    ("dual.run_decentralized", "continuized.dual", "run_decentralized"),
    ("dual.synchronized_dual", "continuized.dual", "synchronized_dual"),
    ("runner.build_runset", "continuized.harness.runner", "build_runset"),
    ("runner.aggregate_values", "continuized.harness.runner", "aggregate_values"),
    ("runner.theory_bounds", "continuized.harness.runner", "theory_bounds"),
    ("csvio.render_csv", "continuized.harness.csvio", "render_csv"),
)

# Functions called once or more per event: counted, never timed.
COUNT_TARGETS = (
    ("schedules.sample_interarrival", "continuized.schedules", "sample_interarrival"),
    ("schedules.schedule_eval", "continuized.schedules", "schedule_eval"),
    ("schedules.lyapunov_coeffs", "continuized.schedules", "lyapunov_coeffs"),
    ("problems.stochastic_gradient", "continuized.problems", "stochastic_gradient"),
    ("dynamics.mix_closed_form", "continuized.dynamics", "mix_closed_form"),
    ("dynamics.gradient_jump", "continuized.dynamics", "gradient_jump"),
    ("trace.Trace.add", "continuized.trace", "Trace.add"),
    ("gossip.lazy_mix_node", "continuized.gossip", "lazy_mix_node"),
    ("gossip.accelerated_step", "continuized.gossip", "accelerated_step"),
    ("dual.lazy_mix_dual_node", "continuized.dual", "lazy_mix_dual_node"),
    ("dual.dual_update", "continuized.dual", "dual_update"),
    ("dual.conjugate_grad", "continuized.dual", "conjugate_grad"),
)


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, raw value) of a target; raises LookupError if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(module_name) from exc
    *path, attr = qualname.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise LookupError(qualname)
        owner = getattr(owner, part)
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        raise LookupError(qualname)
    return owner, attr, raw


class Tracer:
    """Spans and counters of one traced ensemble, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # [name index, parent span index or -1, start, end]
        self.spans: list[list] = []
        self.counters: dict[str, list[int]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str):
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return wrapper

    def _count_wrapper(self, fn, name: str):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every target by identity in all loaded continuized modules."""
        targets = [(t, self._span_wrapper) for t in SPAN_TARGETS]
        targets += [(t, self._count_wrapper) for t in COUNT_TARGETS]
        for (name, module_name, qualname), make in targets:
            try:
                owner, attr, raw = _resolve(module_name, qualname)
            except LookupError:
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(make(raw.__func__, name))
                else:
                    wrapped = make(raw, name)
                self._patch(owner, attr, wrapped)
                continue
            wrapped = make(raw, name)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("continuized"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ---------------------------------------------------------
    def mark(self) -> int:
        """Index of the next span, to separate setup spans from later ones."""
        return len(self.spans)

    def summary(self, since: int = 0) -> dict[str, float]:
        """Per-name ``.calls``, ``.s`` (inclusive) and ``.self_s`` for spans,
        ``.calls`` for counters, and ``self_total_s`` over spans[since:].

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap, since calls nest.
        """
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        self_total = 0.0
        for i, (name_id, _, start, end) in enumerate(self.spans):
            name = self.names[name_id]
            duration = end - start
            own = duration - child_time[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            if i >= since:
                self_total += own
        for name, cell in self.counters.items():
            out[f"{name}.calls"] = cell[0]
        out["self_total_s"] = self_total
        return out
