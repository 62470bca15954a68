"""The proxy-group simulation loop (Figure 4's model).

Each proxy owns a single-server :class:`~repro.des.queues.WorkQueue`.
Client requests arrive on per-proxy diurnal streams; each consumes
``min(a + b*length, c)`` seconds of the collapsed "general" resource.
Every ``epoch`` seconds the scheduler inspects front-end queues; a proxy
whose queued work exceeds ``threshold`` consults the global scheduler,
which plans redirections under the configured policy.  Redirected requests
reach their donor after ``redirect_cost`` seconds and keep their original
arrival timestamp, so their recorded waiting time includes both the local
queueing already suffered and the transfer overhead.

Statistics cover the final ``measure_days`` (the warmup day lets queues
reach the diurnal steady state the paper's 18-day trace average implies).
"""

from __future__ import annotations

import numpy as np

from ..agreements.topology import CapacityView
from ..des.engine import Engine
from ..des.queues import QueuedItem, WorkQueue
from ..obs import get_observer
from ..workload.generator import Stream, generate_streams
from .config import SimulationConfig
from .metrics import SimulationResult
from .redirect import RedirectPolicy, make_policy

__all__ = ["ProxySimulation", "run_simulation"]


class ProxySimulation:
    """One configured run over one sampled workload.

    ::

        system = complete_structure(10, share=0.1)
        cfg = SimulationConfig.scaled(gap=3600.0, scheme="lp")
        result = ProxySimulation(cfg, system).run()
        result.worst_case_wait(0)
    """

    def __init__(
        self,
        config: SimulationConfig,
        system: CapacityView | None = None,
        streams: list[Stream] | None = None,
        system_updates: list[tuple[float, CapacityView]] | None = None,
    ):
        """``streams`` holds one :class:`~repro.workload.generator.Stream`
        per proxy (default: sampled from the config); proxy ``k``'s waits are
        recorded under ``k`` whatever its rows' ``origins`` say.

        ``system_updates`` is an optional schedule of agreement changes:
        ``[(time, new_system), ...]`` applied at the first epoch tick at or
        after each time — modelling the paper's dynamically renegotiated
        or revoked agreements (principals joining/leaving, tickets revoked).
        """
        self.config = config
        self.system = system
        self.policy: RedirectPolicy | None = make_policy(config, system)
        self._system_updates = sorted(system_updates or [], key=lambda u: u[0])
        self._next_update = 0
        capacities = config.capacities()
        self.queues = [WorkQueue(rate=float(r)) for r in capacities]
        self.capacities = capacities
        if streams is None:
            streams = generate_streams(
                config.n_proxies,
                config.base_profile(),
                config.gap,
                sizes=config.sizes,
                horizon=config.horizon,
                seed=config.seed,
            )
        if len(streams) != config.n_proxies:
            raise ValueError(
                f"got {len(streams)} streams for {config.n_proxies} proxies"
            )
        if not all(isinstance(s, Stream) for s in streams):
            raise TypeError("streams must be Stream objects (see Stream.from_requests)")
        self.streams = streams
        self._services = [config.service.service_time(s.lengths) for s in streams]
        self._cursor = [0] * config.n_proxies
        # Per-proxy expected service work per second over the day (the load
        # information LRMs report to the GRM): lambda_i(t) * E[service].
        base = config.base_profile()
        mean_service = config.service.mean_service(config.sizes)
        self._profiles = [
            base.with_skew(i * config.gap) for i in range(config.n_proxies)
        ]
        self._mean_service = mean_service
        # read once: _on_served runs for every served request
        self._measure_start = config.measure_start
        self.result = SimulationResult(n_proxies=config.n_proxies)

    # -- internals -----------------------------------------------------------

    def _push_arrivals(self, proxy: int, until: float) -> None:
        """Move stream arrivals with time <= until into the proxy's queue.

        Each item carries its proxy's index as payload, so its wait is
        recorded under the stream it came from.
        """
        arrivals = self.streams[proxy].arrivals
        i = self._cursor[proxy]
        j = i + int(np.searchsorted(arrivals[i:], until, side="right"))
        push = self.queues[proxy].push
        services = self._services[proxy][i:j].tolist()
        for t, s in zip(arrivals[i:j].tolist(), services):
            push(QueuedItem(arrival=t, service=s, payload=proxy))
        self._cursor[proxy] = j

    def _on_served(self, item: QueuedItem, start: float) -> None:
        if item.arrival >= self._measure_start:
            self.result.record_wait(
                item.payload,
                item.arrival,
                max(start - item.arrival, 0.0),
                redirected=item.hops > 0,
            )

    def _availability(self, now: float) -> np.ndarray:
        """Spare work capacity (seconds) per proxy over the lookahead window.

        Committed work counts the queue backlog, the in-service remainder,
        and (when ``config.project_arrivals``) the work the proxy's *own*
        clients are expected to bring during the window — the load report
        an LRM would send the GRM.  Without the projection the scheduler
        happily parks work on a donor that is minutes from its own rush
        hour.
        """
        cfg = self.config
        W = cfg.lookahead
        avail = np.empty(cfg.n_proxies)
        for k, q in enumerate(self.queues):
            committed = q.committed(now)
            weight = float(cfg.project_arrivals)
            if weight > 0.0:
                committed += weight * (
                    self._profiles[k].expected_count(now, now + W, steps=4)
                    * self._mean_service
                )
            avail[k] = max(self.capacities[k] * W - committed, 0.0)
        return avail

    def _consult(self, proxy: int, now: float) -> None:
        """Ask the scheduler to shed this proxy's excess queued work.

        Each consultation roots its *own* trace (``root_span``): the
        simulation run contains thousands of them, and head-based
        sampling has to pick requests independently rather than ride the
        run-level span's fate.
        """
        cfg = self.config
        queue = self.queues[proxy]
        excess = queue.backlog - cfg.threshold / 2.0
        if excess <= 0:
            return
        avail = self._availability(now)
        avail[proxy] = 0.0  # the requester is consulting because it has none
        self.result.scheduler_consults += 1
        with get_observer().root_span(
            "proxysim.consult", proxy=proxy, sim_time=now, excess=float(excess)
        ):
            take = self.policy.plan(proxy, excess, avail)
        for donor in np.argsort(-take):
            donor = int(donor)
            if donor == proxy or take[donor] <= 1e-9:
                continue
            moved = queue.pop_tail(float(take[donor]))
            if not moved:
                continue
            target = self.queues[donor]
            for item in moved:
                item.ready = now + cfg.redirect_cost
                item.hops += 1
                target.push(item)

    def _apply_system_updates(self, now: float) -> None:
        while (
            self._next_update < len(self._system_updates)
            and self._system_updates[self._next_update][0] <= now
        ):
            _, new_system = self._system_updates[self._next_update]
            if new_system.n != self.config.n_proxies:
                raise ValueError(
                    "scheduled agreement system has the wrong principal count"
                )
            self.system = new_system
            self.policy = make_policy(self.config, new_system)
            self._next_update += 1

    def _epoch_tick(self, now: float) -> None:
        cfg = self.config
        if self._system_updates:
            self._apply_system_updates(now)
        for p in range(cfg.n_proxies):
            self._push_arrivals(p, now)
            self.queues[p].advance(now, self._on_served)
        if cfg.scheme != "none":
            order = sorted(
                range(cfg.n_proxies),
                key=lambda p: -self.queues[p].backlog,
            )
            for p in order:
                if self.queues[p].backlog > cfg.threshold:
                    self._consult(p, now)

    # -- API --------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation and return its statistics."""
        obs = get_observer()
        cfg = self.config
        with obs.span(
            "proxysim.run", scheme=cfg.scheme, n_proxies=cfg.n_proxies,
            horizon=cfg.horizon,
        ) as span:
            engine = Engine(cfg.epoch)
            engine.run(cfg.horizon, self._epoch_tick)
            span.set(ticks=engine.events_processed)
            # Flush: push any remaining arrivals, then serve everything.
            for p in range(cfg.n_proxies):
                self._push_arrivals(p, float("inf"))
                self.queues[p].drain(self._on_served)
        if obs.enabled:
            # Bridge the simulation's own accounting onto the shared
            # registry so traces carry the case-study counters too.
            res = self.result
            obs.counter("proxysim.requests", res.total_requests, scheme=cfg.scheme)
            obs.counter("proxysim.redirected", res.total_redirected, scheme=cfg.scheme)
            obs.gauge("proxysim.mean_wait", res.overall_mean_wait(), scheme=cfg.scheme)
            obs.gauge(
                "proxysim.redirect_fraction", res.redirect_fraction(),
                scheme=cfg.scheme,
            )
        return self.result


def run_simulation(
    config: SimulationConfig,
    system: CapacityView | None = None,
    streams: list[Stream] | None = None,
    system_updates: list[tuple[float, CapacityView]] | None = None,
) -> SimulationResult:
    """Convenience one-shot wrapper around :class:`ProxySimulation`."""
    return ProxySimulation(config, system, streams, system_updates).run()
