"""The benchmark's three workloads.

``grm_steady``
    One LRM-style client in a closed loop against a
    ``GlobalResourceManager`` over ``InProcessTransport``, on the complete
    ten-principal structure (every principal shares 10% with every other).
    Each step sends one ``AvailabilityBatch`` and one
    ``AllocationRequestMsg``; a denial is re-requested at the quoted amount,
    as ``ManagerPolicy`` does; each grant is held for a few steps and then
    returned with ``ReleaseMsg``.  The agreements never change, so the
    topology stays cached and the message -> LP path is what is timed.
``agreement_churn``
    The same structure and client, with an administrator step between
    bursts of requests that alternately revokes a relative ticket and
    reissues it at a renegotiated share.  Every change invalidates the
    version-keyed topology, so the first grant after it pays the flatten
    and the coefficient DP.  Each reissued share is new, so no two agreement
    sets in a run are equal.
``proxysim_day``
    The Figure-6 case study (gap 3600 s, ``SimulationConfig.scaled(25)``,
    LP scheme) for one simulated day from seeded request streams, run by
    ``ProxySimulation.run``.  Arrivals are open-loop in simulated time;
    wall time is the cost.

All inputs come from ``--seed``: the client's availability, requester,
amount and holding time per step, the administrator's choice of ticket
and new share, and the request streams.
"""

from __future__ import annotations

import contextlib
import heapq
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
from speed import Meter
from tracer import Tracer

N = 10
SHARE = 0.1
FACE = 100.0
PRINCIPALS = tuple(f"isp{i}" for i in range(N))
CLIENT = "lrm"

# Client script.  Every principal reports 0-100 units free, less what it
# has lent out under open grants; the requester reports 0 (it asks because
# it has none).  With these amounts about 6% of requests are denied.
AVAIL_HIGH = 100.0
AMOUNT_LOW, AMOUNT_HIGH = 10.0, 90.0
HOLD_STEPS = 6
WARMUP_SETUPS = 2
#: grm_steady's reference output is the number of denials in these steps
REF_STEPS = 1000


@dataclass(frozen=True)
class Size:
    setups: int  # set-up repetitions (median reported)
    pass_units: int  # steps (grm_steady), changes (agreement_churn) per pass
    probes: int = 0  # extra agreement builds timed to their first grant (proxysim)
    burst: int = 10  # requests after each agreement change
    min_changes: int = 0
    min_passes: int = 2
    faithful_every: int = 25  # traced runs cross-check every k-th decision
    faithful_max: int = 40
    epoch: float | None = None  # proxysim epoch override (smoke only)


SIZES = {
    "grm_steady": Size(setups=11, pass_units=250),
    "agreement_churn": Size(setups=11, pass_units=5, min_changes=100),
    "proxysim_day": Size(setups=5, pass_units=1, probes=10, faithful_every=50),
}
SMOKE_SIZES = {
    "grm_steady": Size(setups=2, pass_units=150, faithful_every=10, faithful_max=5),
    "agreement_churn": Size(
        setups=2, pass_units=2, burst=5, min_changes=4, faithful_every=5,
        faithful_max=5,
    ),
    "proxysim_day": Size(
        setups=2, pass_units=1, faithful_every=40, faithful_max=5, epoch=600.0
    ),
}
WORKLOADS = tuple(SIZES)


@dataclass
class Outcome:
    """What one run measured and checked."""

    e2e: dict = field(default_factory=dict)  # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # record-only figures
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # compared with reference.json


def _ms(seconds) -> float:
    return float(seconds) * 1e3


def _p(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _complete_shares() -> np.ndarray:
    S = np.full((N, N), SHARE)
    np.fill_diagonal(S, 0.0)
    return S


@contextlib.contextmanager
def _traced(tracer: Tracer, on: bool):
    """Install the wrappers and open a root span, if ``on``."""
    if not on:
        yield
        return
    with tracer.installed(), tracer.span("harness"):
        yield


class _Passes:
    """Runs the measured passes; a traced run alternates untraced and
    traced ones.

    Untraced passes run with every wrapper removed, so the ratio of the two
    kinds of pass is the tracing overhead.  Each pass ends with a speed
    cut; untraced passes may cut inside too (``fn(cut=True)``), traced
    passes never do, so the loop's time stays out of the traced wall time.
    """

    def __init__(self, tracer: Tracer, trace: bool, meter: Meter):
        self.tracer = tracer
        self.trace = trace
        self.meter = meter
        self.walls = {False: [], True: []}  # raw seconds
        self.scaled: list[float] = []  # normalised seconds, untraced passes

    def run(self, index: int, fn) -> None:
        traced = self.trace and index % 2 == 1
        first = len(self.meter.factors)
        with _traced(self.tracer, traced):
            fn(cut=not traced)
        self.meter.cut()
        self.walls[traced].append(self.meter.since(first, scaled=False))
        if not traced:
            self.scaled.append(self.meter.since(first, scaled=True))

    def overhead(self) -> float:
        return statistics.median(self.walls[True]) / statistics.median(self.walls[False])


# -- GRM workloads -------------------------------------------------------------------


class Cluster:
    """A bank holding the agreements as tickets, and a GRM serving it."""

    def __init__(self, S: np.ndarray):
        from repro.economy.bank import Bank
        from repro.manager.grm import GlobalResourceManager
        from repro.manager.transport import InProcessTransport

        self.S = S.copy()  # the benchmark's own model of the agreements
        self.bank = Bank()
        for p in PRINCIPALS:
            self.bank.create_currency(p, face_value=FACE)
        self.tickets = {}
        for i in range(N):
            for j in range(N):
                if i != j and S[i, j] > 0:
                    self.changed_at = perf_counter()
                    self.tickets[i, j] = self.bank.issue_relative_ticket(
                        PRINCIPALS[i], PRINCIPALS[j], FACE * S[i, j]
                    ).ticket_id
        self.transport = InProcessTransport()
        self.grm = GlobalResourceManager("grm", self.bank)
        self.grm.attach(self.transport)
        self.state = 0  # bumped on every agreement change
        self.revoked: tuple[int, int] | None = None

    def change(self, rng) -> None:
        """Revoke a random relative ticket, or reissue the revoked one at a
        new share in [9%, 11%], so shares stay near 10% on average."""
        self.changed_at = perf_counter()
        if self.revoked is None:
            pairs = sorted(self.tickets)
            i, j = pairs[int(rng.integers(len(pairs)))]
            self.bank.revoke_ticket(self.tickets.pop((i, j)))
            self.S[i, j] = 0.0
            self.revoked = (i, j)
        else:
            i, j = self.revoked
            face = FACE * float(rng.uniform(0.09, 0.11))
            self.tickets[i, j] = self.bank.issue_relative_ticket(
                PRINCIPALS[i], PRINCIPALS[j], face
            ).ticket_id
            self.S[i, j] = face / FACE
            self.revoked = None
        self.state += 1


@dataclass
class Decision:
    sent: float
    done: float
    step: int
    state: int
    requester: int
    amount: float
    V: np.ndarray
    reply: object
    cold: bool


class Client:
    """An LRM-style aggregator reporting for every principal.

    The random draws of a step do not depend on earlier replies, so the
    script is the same whatever the solver answers.
    """

    def __init__(self, cluster: Cluster, rng: np.random.Generator):
        self.cluster = cluster
        self.rng = rng
        self.lent = np.zeros(N)
        self.open: list[tuple[int, int, np.ndarray]] = []  # heap of (due step, grant id, take)
        self.steps = 0
        self.log: list[Decision] = []
        self.cold = False  # the next request is the first after a change
        self.open_max = 0

    def _send(self, message):
        return self.cluster.transport.send("grm", message)

    def _request(self, a, amount, V):
        from repro.manager.messages import AllocationRequestMsg

        cold, self.cold = self.cold, False
        msg = AllocationRequestMsg(sender=CLIENT, principal=PRINCIPALS[a], amount=amount)
        sent = perf_counter()
        try:
            reply = self._send(msg)
        except Exception as exc:  # a raising request is a failed operation
            reply = exc
        done = perf_counter()
        self.log.append(
            Decision(sent, done, self.steps, self.cluster.state, a, amount, V, reply, cold)
        )
        return reply

    def step(self):
        """One closed-loop step; returns the final reply."""
        from repro.manager.messages import (
            AllocationDenied,
            AllocationGrant,
            AvailabilityBatch,
            ReleaseMsg,
        )

        k = self.steps
        while self.open and self.open[0][0] <= k:
            _, grant_id, take = heapq.heappop(self.open)
            self._send(ReleaseMsg(sender=CLIENT, grant_id=grant_id))
            self.lent -= take
        rng = self.rng
        free = rng.uniform(0.0, AVAIL_HIGH, N)
        a = int(rng.integers(N))
        amount = float(rng.uniform(AMOUNT_LOW, AMOUNT_HIGH))
        hold = int(rng.integers(1, HOLD_STEPS + 1))
        V = np.maximum(free - self.lent, 0.0)
        V[a] = 0.0
        self._send(
            AvailabilityBatch(
                sender=CLIENT, reports=tuple(zip(PRINCIPALS, V.tolist()))
            )
        )
        reply = self._request(a, amount, V)
        if isinstance(reply, AllocationDenied) and reply.available > 1e-9:
            reply = self._request(a, reply.available * (1 - 1e-9), V)
        if isinstance(reply, AllocationGrant):
            take = np.zeros(N)
            for p, q in reply.takes:
                take[PRINCIPALS.index(p)] += q
            self.lent += take
            heapq.heappush(self.open, (k + hold, reply.msg_id, take))
        self.open_max = max(self.open_max, self.cluster.grm.open_grants())
        self.steps += 1
        return reply


def _until_grant(client: Client):
    """Step until a grant arrives; returns its completion time."""
    from repro.manager.messages import AllocationGrant

    while True:
        reply = client.step()
        if isinstance(reply, AllocationGrant):
            return client.log[-1].done
        if client.steps > 1000:
            raise RuntimeError("no grant in 1000 steps")


def _check_decisions(client: Client, states: dict, size: Size, faithful: bool, out: Outcome):
    """Check every logged decision; cross-check a sample against the
    faithful formulation when ``faithful``."""
    from repro.manager.messages import AllocationDenied, AllocationGrant

    failed = 0
    sampled = agreed = 0
    for k, d in enumerate(client.log):
        topology, S = states[d.state]
        T = topology.coefficients()
        if isinstance(d.reply, AllocationGrant):
            take = np.zeros(N)
            for p, q in d.reply.takes:
                take[PRINCIPALS.index(p)] += q
            problem = checks.check_grant(d.V, T, d.requester, d.amount, take, d.reply.theta)
            if (
                problem is None and faithful and k % size.faithful_every == 0
                and sampled < size.faithful_max
            ):
                sampled += 1
                theta = checks.faithful_theta(topology, d.V, PRINCIPALS[d.requester], d.amount)
                if checks.thetas_agree(theta, d.reply.theta):
                    agreed += 1
                else:
                    problem = f"faithful LP theta {theta:g}, GRM replied {d.reply.theta:g}"
        elif isinstance(d.reply, AllocationDenied):
            problem = checks.check_denial(d.V, T, d.requester, d.amount, d.reply.available)
        else:
            problem = f"request raised or got no reply: {d.reply!r}"
        if problem is not None:
            failed += 1
            if len(out.problems) < 10:
                out.problems.append(f"decision {k}: {problem}")
    for state, (topology, S) in states.items():
        if not np.allclose(topology.S, S, atol=1e-12):
            out.problems.append(f"agreement set {state}: bank flattened a different S")
    out.failed += failed
    out.attempted += len(client.log)
    if faithful:
        out.extra["faithful_checked"] = sampled
        out.extra["faithful_agreed"] = agreed


def _setups(tracer: Tracer, trace: bool, meter: Meter, count: int, fn):
    """Run the set-up ``count`` times, each in a speed segment of its own,
    after ``WARMUP_SETUPS`` untimed ones that absorb the process's first-use
    costs (lazy imports, heap growth); a traced run traces the last one.

    Returns the results of ``fn`` and the wall time of the last set-up.
    """
    for _ in range(WARMUP_SETUPS):
        fn()
    results = []
    for r in range(count):
        meter.cut()
        start = perf_counter()
        with _traced(tracer, trace and r == count - 1):
            results.append(fn())
        wall = perf_counter() - start
        meter.cut()
    return results, wall


def _scaled(meter: Meter, samples, scaled: bool) -> list[float]:
    """Durations of ``(start, duration)`` samples, normalised if ``scaled``."""
    return [d * meter.factor_at(t) if scaled else d for t, d in samples]


def run_grm(name: str, seed: int, seconds: float, trace: bool, size: Size) -> Outcome:
    from repro.manager.messages import AllocationGrant

    churn = name == "agreement_churn"
    out = Outcome()
    client_seed, admin_seed = np.random.SeedSequence(seed).spawn(2)
    tracer = Tracer()
    meter = Meter()

    def setup():
        # Bank, GRM and the first topology build, which the first grant pays.
        start = perf_counter()
        cluster = Cluster(_complete_shares())
        client = Client(cluster, np.random.default_rng(client_seed))
        granted = _until_grant(client)
        return (start, granted - start), (cluster.changed_at, granted - cluster.changed_at), (
            cluster, client
        )

    setups, setup_wall = _setups(tracer, trace, meter, size.setups, setup)
    cluster, client = setups[-1][2]
    # The checker reads each agreement set's topology once requests have
    # built it; the bank's cache makes that a dictionary lookup.
    states = {cluster.state: (cluster.bank.topology(), cluster.S.copy())}
    admin = np.random.default_rng(admin_seed)
    first = len(client.log)
    cold_grants: list[tuple[float, float]] = []

    def one_change():
        try:
            cluster.change(admin)
        except Exception as exc:  # a raising mutation is a failed operation
            out.failed += 1
            out.problems.append(f"agreement change raised {exc!r}")
            return
        client.cold = True
        granted = None
        for _ in range(size.burst):
            reply = client.step()
            if granted is None and isinstance(reply, AllocationGrant):
                granted = client.log[-1].done
        if granted is not None:
            cold_grants.append((cluster.changed_at, granted - cluster.changed_at))
        with tracer.pause():
            states[cluster.state] = (cluster.bank.topology(), cluster.S.copy())

    pass_decisions = []

    def one_pass(cut: bool):
        before = len(client.log)
        for _ in range(size.pass_units):
            one_change() if churn else client.step()
            if cut:
                meter.maybe_cut()
        pass_decisions.append(len(client.log) - before)

    passes = _Passes(tracer, trace, meter)
    window_start = perf_counter()
    index = 0
    while (
        perf_counter() - window_start < seconds
        or index < size.min_passes
        or (churn and cluster.state < size.min_changes)
    ):
        passes.run(index, one_pass)
        index += 1

    window = client.log[first:]
    _check_decisions(client, states, size, faithful=trace, out=out)
    out.attempted += cluster.state  # the agreement changes
    if not churn:
        out.outputs["denied_first_steps"] = _denied_within(client, REF_STEPS)
    out.extra["passes"] = index
    out.extra["steps"] = client.steps
    if trace:
        out.per_layer = tracer.metrics(sum(passes.walls[True]) + setup_wall)
        out.per_layer["manager.open_grants_max"] = (client.open_max, "count")
        out.per_layer["proxysim.redirect_frac"] = (0.0, "ratio")
        out.per_layer["trace.overhead"] = (passes.overhead(), "ratio")
        return out
    warm = [(d.sent, d.done - d.sent) for d in window if not d.cold]
    cold = cold_grants if churn else [c for _, c, _ in setups]

    def e2e(scaled: bool) -> dict:
        latencies = _scaled(meter, warm, scaled)
        walls = passes.scaled if scaled else passes.walls[False]
        changes = _scaled(meter, cold, scaled)
        return {
            "setup_s": (statistics.median(_scaled(meter, [s for s, _, _ in setups], scaled)), "s"),
            "alloc_per_s": (statistics.median(n / w for n, w in zip(pass_decisions, walls)), "1/s"),
            "alloc_p50_ms": (_ms(_p(latencies, 50)), "ms"),
            "alloc_p95_ms": (_ms(_p(latencies, 95)), "ms"),
            "alloc_p99_ms": (_ms(_p(latencies, 99)), "ms"),
            "change_to_grant_p50_ms": (_ms(_p(changes, 50)), "ms"),
            "sim_wall_s": (statistics.median(walls), "s"),
            **({"change_to_grant_p90_ms": (_ms(_p(changes, 90)), "ms")} if churn else {}),
        }

    out.e2e = e2e(scaled=True)
    out.extra["raw"] = {k: v for k, (v, _) in e2e(scaled=False).items()}
    out.extra["pass_s"] = passes.scaled
    for name in ("alloc_p99_ms", "change_to_grant_p90_ms"):
        if name in out.e2e:
            out.extra[name] = out.e2e.pop(name)[0]
    out.extra["alloc_samples"] = len(warm)
    out.extra["change_to_grant_samples"] = len(cold)
    out.extra["denied"] = sum(1 for d in window if _denied(d.reply))
    out.extra["speed_factor_median"] = statistics.median(meter.factors)
    return out


def _denied(reply) -> bool:
    from repro.manager.messages import AllocationDenied

    return isinstance(reply, AllocationDenied)


def _denied_within(client: Client, steps: int) -> int | None:
    if client.steps < steps:
        return None
    return sum(1 for d in client.log if d.step < steps and _denied(d.reply))


# -- proxysim_day --------------------------------------------------------------------


class TimedPolicy:
    """Delegates to the simulation's policy, timing and recording each plan.

    With a meter, it may cut a speed segment before a plan (never inside
    one).  A plan that raises is a failed operation: its excess stays local
    so the simulation can go on.
    """

    def __init__(self, inner, meter: Meter | None):
        self.inner = inner
        self.meter = meter
        self.latencies: list[tuple[float, float]] = []  # (start, seconds)
        self.plans: list[tuple[int, float, np.ndarray, np.ndarray]] = []
        self.errors = 0

    @property
    def lp_solves(self) -> int:
        return self.inner.lp_solves

    def plan(self, requester: int, excess: float, avail: np.ndarray) -> np.ndarray:
        if self.meter is not None:
            self.meter.maybe_cut()
        start = perf_counter()
        try:
            take = self.inner.plan(requester, excess, avail)
        except Exception:
            self.errors += 1
            take = np.zeros(len(avail))
            take[requester] = excess
        self.latencies.append((start, perf_counter() - start))
        self.plans.append((requester, float(excess), avail.copy(), take.copy()))
        return take


def _sim_config(seed: int, size: Size):
    from repro.proxysim import SimulationConfig

    overrides = {} if size.epoch is None else {"epoch": size.epoch}
    return SimulationConfig.scaled(
        25.0, gap=3600.0, scheme="lp", warmup_days=0, measure_days=1, seed=seed,
        **overrides,
    )


def run_proxysim(seed: int, seconds: float, trace: bool, size: Size) -> Outcome:
    from repro.agreements import complete_structure
    from repro.proxysim import ProxySimulation
    from repro.proxysim.redirect import LPPolicy
    from repro.workload import generator

    out = Outcome()
    cfg = _sim_config(seed, size)
    tracer = Tracer()
    meter = Meter()

    def build():
        # Build the agreement set, and its topology by a first allocation:
        # proxy 0 sheds one threshold's worth of work to idle proxies.
        changed = perf_counter()
        system = complete_structure(N, share=SHARE)
        avail = cfg.capacities() * cfg.lookahead
        avail[0] = 0.0
        LPPolicy(system).plan(0, cfg.threshold, avail)
        return system, (changed, perf_counter() - changed)

    def setup():
        start = perf_counter()
        streams = generator.generate_streams(
            cfg.n_proxies, cfg.base_profile(), cfg.gap, sizes=cfg.sizes,
            horizon=cfg.horizon, seed=cfg.seed,
        )
        system, change = build()
        return (start, perf_counter() - start), change, (streams, system)

    setups, setup_wall = _setups(tracer, trace, meter, size.setups, setup)
    streams, system = setups[-1][2]
    # Set-up builds the agreements only 5 times; a median of more builds
    # keeps change_to_grant steady.
    changes = [c for _, c, _ in setups]
    for _ in range(size.probes):
        changes.append(build()[1])
        meter.cut()
    results, policies = [], []

    def one_rep(cut: bool):
        sim = ProxySimulation(cfg, system, streams=streams)
        sim.policy = TimedPolicy(sim.policy, meter if cut else None)
        results.append(sim.run())
        policies.append(sim.policy)

    passes = _Passes(tracer, trace, meter)
    window_start = perf_counter()
    index = 0
    while perf_counter() - window_start < seconds or index < size.min_passes:
        passes.run(index, one_rep)
        index += 1

    T = system.coefficients()
    for rep, policy in enumerate(policies):
        out.attempted += len(policy.plans)
        out.failed += policy.errors
        for k, (a, excess, avail, take) in enumerate(policy.plans):
            problem = checks.check_plan(avail, T, a, excess, take)
            if problem is None and trace and rep == 0 and k % size.faithful_every == 0:
                theta = checks.faithful_theta(
                    system.topology, np.maximum(avail, 0.0), PRINCIPALS[a], excess,
                    partial=True,
                )
                donors = take.copy()
                donors[a] = 0.0
                if not checks.thetas_agree(theta, checks.theta_of(donors, a, T)):
                    problem = f"plan theta differs from the faithful LP's {theta:g}"
                out.extra["faithful_checked"] = out.extra.get("faithful_checked", 0) + 1
            if problem is not None:
                out.failed += 1
                if len(out.problems) < 10:
                    out.problems.append(f"rep {rep} consult {k}: {problem}")
    summaries = [_sim_outputs(r) for r in results]
    if any(s != summaries[0] for s in summaries):
        out.problems.append("repeated simulations of one seed disagree")
    out.outputs = summaries[0]
    out.extra["passes"] = index
    if trace:
        out.per_layer = tracer.metrics(sum(passes.walls[True]) + setup_wall)
        out.per_layer["manager.open_grants_max"] = (0, "count")
        out.per_layer["proxysim.redirect_frac"] = (results[0].redirect_fraction(), "ratio")
        out.per_layer["trace.overhead"] = (passes.overhead(), "ratio")
        return out
    timed = [x for p in policies for x in p.latencies]

    def e2e(scaled: bool) -> dict:
        latencies = _scaled(meter, timed, scaled)
        walls = passes.scaled if scaled else passes.walls[False]
        return {
            "setup_s": (statistics.median(_scaled(meter, [s for s, _, _ in setups], scaled)), "s"),
            "alloc_per_s": (
                statistics.median(len(p.latencies) / w for p, w in zip(policies, walls)),
                "1/s",
            ),
            "alloc_p50_ms": (_ms(_p(latencies, 50)), "ms"),
            "alloc_p95_ms": (_ms(_p(latencies, 95)), "ms"),
            "alloc_p99_ms": (_ms(_p(latencies, 99)), "ms"),
            "change_to_grant_p50_ms": (_ms(_p(_scaled(meter, changes, scaled), 50)), "ms"),
            "sim_wall_s": (statistics.median(walls), "s"),
        }

    out.e2e = e2e(scaled=True)
    out.extra["raw"] = {k: v for k, (v, _) in e2e(scaled=False).items()}
    out.extra["pass_s"] = passes.scaled
    out.extra["alloc_p99_ms"] = out.e2e.pop("alloc_p99_ms")[0]
    out.extra["alloc_samples"] = len(timed)
    out.extra["change_to_grant_samples"] = len(changes)
    out.extra["speed_factor_median"] = statistics.median(meter.factors)
    return out


def _sim_outputs(result) -> dict:
    return {
        "mean_wait": result.overall_mean_wait(),
        "worst_slot_wait": result.worst_case_wait(None),
        "redirect_frac": result.redirect_fraction(),
        "consults": result.scheduler_consults,
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Outcome:
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    if name == "proxysim_day":
        return run_proxysim(seed, seconds, trace, size)
    return run_grm(name, seed, seconds, trace, size)


def reference_outputs(name: str, seed: int) -> dict:
    """The outputs :mod:`reference` stores for ``seed``, computed untimed."""
    if name == "grm_steady":
        client = Client(Cluster(_complete_shares()), np.random.default_rng(
            np.random.SeedSequence(seed).spawn(2)[0]
        ))
        while client.steps < REF_STEPS:
            client.step()
        return {"denied_first_steps": _denied_within(client, REF_STEPS)}
    return run_proxysim(seed, 0.0, False, Size(setups=1, pass_units=1, min_passes=1)).outputs
