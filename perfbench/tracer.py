"""Per-layer time attribution by wrapping each layer's public entry points.

Nothing under ``src/`` is edited: :class:`Tracer` replaces a fixed list of
functions and methods with timing wrappers while it is installed, and puts
the originals back on :meth:`Tracer.uninstall`.  Each name is patched where
callers look it up:

- ``allocate_lp`` is imported by name into ``repro.manager.grm`` and
  ``repro.proxysim.redirect``, so it is patched in both modules (and in its
  own);
- ``linprog`` is imported from ``scipy.optimize`` inside the allocator's
  hot-path function at every call, so patching the ``scipy.optimize``
  attribute catches it;
- ``flow.transitive_coefficients`` is looked up as a module attribute by
  ``AgreementTopology.coefficients``;
- methods are patched on the class that defines them.

Spans nest on one stack (the benchmark is single-threaded).  A span's self
time is its duration minus the time of the spans directly inside it, so
the self times of all spans add up to the time of the root spans, which
the harness opens around the work it traces.  Inclusive time is counted
only for the outermost span of a name, so a layer that re-enters itself is
not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

#: layers in report order; a span's layer is the part of its name before
#: the first dot
LAYERS = (
    "harness", "manager", "economy", "topology", "flow",
    "allocation", "lp", "proxysim", "des", "workload",
)


@dataclass
class SpanStats:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)


def _observe_linprog(tracer, args, result):
    tracer.lp_iterations.append(int(getattr(result, "nit", 0) or 0))


def _observe_allocation(tracer, args, result):
    tracer.donors.append(int(np.count_nonzero(result.take > 1e-9)))


def _observe_send(tracer, args, result):
    from repro.manager.messages import AllocationDenied

    if isinstance(result, AllocationDenied):
        tracer.denied += 1


def _observe_engine(tracer, args, result):
    # One Engine per simulation run, so its counter after run() is the
    # number of events that run fired.
    tracer.des_events += args[0].events_processed


def _targets():
    """``(owner, attribute, span name, observer)`` for every wrapped entry point."""
    import scipy.optimize

    import repro.workload
    from repro.agreements import flow
    from repro.agreements.topology import AgreementTopology, CapacityView
    from repro.allocation import lp_allocator
    from repro.des.engine import Engine
    from repro.des.queues import WorkQueue
    from repro.economy.bank import Bank
    from repro.manager import grm
    from repro.manager.transport import InProcessTransport
    from repro.proxysim import redirect, simulator
    from repro.workload import generator

    mutations = (
        "create_currency", "deposit_capacity", "issue_absolute_ticket",
        "issue_relative_ticket", "revoke_ticket", "inflate_currency",
    )
    return [
        (scipy.optimize, "linprog", "lp.linprog", _observe_linprog),
        (lp_allocator, "allocate_lp", "allocation.allocate_lp", _observe_allocation),
        (grm, "allocate_lp", "allocation.allocate_lp", _observe_allocation),
        (redirect, "allocate_lp", "allocation.allocate_lp", _observe_allocation),
        (AgreementTopology, "view", "topology.view", None),
        (AgreementTopology, "u", "topology.u", None),
        (AgreementTopology, "capacities", "topology.capacities", None),
        (CapacityView, "u", "topology.u", None),
        (CapacityView, "capacities", "topology.capacities", None),
        (flow, "transitive_coefficients", "flow.coefficients", None),
        (Bank, "topology", "economy.topology", None),
        (Bank, "to_agreement_system", "economy.flatten", None),
        *((Bank, name, "economy.mutation", None) for name in mutations),
        (InProcessTransport, "send", "manager.send", _observe_send),
        (redirect.LPPolicy, "plan", "proxysim.plan", None),
        (simulator.ProxySimulation, "run", "proxysim.run", None),
        (Engine, "run", "des.run", _observe_engine),
        (WorkQueue, "advance", "des.queue_advance", None),
        (generator, "generate_streams", "workload.generate", None),
        (repro.workload, "generate_streams", "workload.generate", None),
        (simulator, "generate_streams", "workload.generate", None),
    ]


def _current(owner, attribute):
    """The object stored under ``attribute`` on ``owner`` itself (not inherited)."""
    return vars(owner)[attribute]


def installed_wrappers() -> list[str]:
    """Names of entry points that still hold a wrapper (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _ in _targets()
        if getattr(_current(owner, attribute), "__perfbench_wrapped__", False)
    ]


class Tracer:
    """Span stack plus per-span aggregates; install/uninstall the wrappers."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.paused = False
        self.lp_iterations: list[int] = []
        self.donors: list[int] = []
        self.denied = 0
        self.des_events = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name, observe in _targets():
            original = _current(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def pause(self):
        """Run benchmark-side bookkeeping without recording it as layer time."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        return frame

    def _exit(self, name: str, frame: list[float], duration: float) -> None:
        self._stack.pop()
        self._depth[name] -= 1
        if self._stack:
            self._stack[-1][0] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.self_time += duration - frame[0]
        if self._depth[name] == 0:
            stats.inclusive += duration
            if name == "lp.linprog":
                stats.durations.append(duration)

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, perf_counter() - start)
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A root (or nested) span opened by the benchmark itself."""
        frame = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, perf_counter() - start)

    # -- reporting -----------------------------------------------------------------

    def _get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def layer_self(self, layer: str) -> float:
        return sum(
            s.self_time for n, s in self.stats.items() if n.split(".", 1)[0] == layer
        )

    def metrics(self, wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``; ``wall`` is the
        traced wall time in seconds (root spans are opened over it)."""
        ms = 1e3
        lp = self._get("lp.linprog")
        alloc = self._get("allocation.allocate_lp")
        durations = np.asarray(lp.durations) * ms
        attributed = sum(self.layer_self(layer) for layer in LAYERS)
        return {
            "lp.solves": (lp.calls, "count"),
            "lp.solve_ms": (lp.inclusive * ms, "ms"),
            "lp.solve_mean_ms": (float(durations.mean()) if lp.calls else 0.0, "ms"),
            "lp.solve_p99_ms": (
                float(np.percentile(durations, 99)) if lp.calls else 0.0, "ms"
            ),
            "lp.iterations_mean": (
                float(np.mean(self.lp_iterations)) if self.lp_iterations else 0.0,
                "count",
            ),
            "allocation.calls": (alloc.calls, "count"),
            "allocation.ms": (alloc.inclusive * ms, "ms"),
            "allocation.self_ms": (self.layer_self("allocation") * ms, "ms"),
            "allocation.donors_mean": (
                float(np.mean(self.donors)) if self.donors else 0.0, "count"
            ),
            "topology.views": (self._get("topology.view").calls, "count"),
            "topology.view_ms": (self.layer_self("topology") * ms, "ms"),
            "flow.coefficient_builds": (self._get("flow.coefficients").calls, "count"),
            "flow.coefficients_ms": (self._get("flow.coefficients").inclusive * ms, "ms"),
            "economy.mutations": (self._get("economy.mutation").calls, "count"),
            "economy.topology_rebuilds": (self._get("economy.flatten").calls, "count"),
            "economy.topology_ms": (self._get("economy.topology").inclusive * ms, "ms"),
            "manager.sends": (self._get("manager.send").calls, "count"),
            "manager.self_ms": (self.layer_self("manager") * ms, "ms"),
            "manager.denied": (self.denied, "count"),
            "proxysim.consults": (self._get("proxysim.plan").calls, "count"),
            "proxysim.plan_ms": (self._get("proxysim.plan").inclusive * ms, "ms"),
            "des.events": (self.des_events, "count"),
            "des.self_ms": (self.layer_self("des") * ms, "ms"),
            "des.queue_advance_ms": (
                self._get("des.queue_advance").inclusive * ms, "ms"
            ),
            "workload.generate_ms": (self._get("workload.generate").inclusive * ms, "ms"),
            "harness.self_ms": (self.layer_self("harness") * ms, "ms"),
            "trace.wall_ms": (wall * ms, "ms"),
            "trace.attributed_frac": (attributed / wall if wall > 0 else 0.0, "ratio"),
        }
