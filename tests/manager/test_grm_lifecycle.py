"""Model-based test of the GRM's grant lifecycle.

A hypothesis state machine, under the armed sanitizer, interleaves:

- bank mutations: issue, revoke, reissue and inflate, a principal created
  while grants are open, and a virtual currency created between two
  principals (owner -> virtual -> target);
- availability batches, and batches the GRM must reject whole (an unknown
  name, a negative value, NaN);
- requests at levels 1, 2 and full, around the requester's ``C_A``;
- releases, including of grants whose ticket was revoked mid-grant.

The machine reports availability as an LRM aggregator does: net of its
own open grants.  Each report of ``s`` for ``p`` records
``free[p] = s + lent[p]``, so ``free[p] - lent[p]`` is what ``p`` can lend
until its next report.  After every step the GRM's ``availability(p)``
is that amount, so a grant followed by its release restores it.  Per
step:

- a rejected batch leaves every ``availability()`` unchanged;
- a denial quotes ``C_A`` of a fresh ``bank.capacity_view()`` at the
  reported ``V``, and happens exactly when the ask exceeds ``C_A + 1e-7``;
- a grant names its takes in the topology's principal order, sums to
  ``min(x, C_A)``, and lends no donor more than ``free[p] - lent[p]``.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import sanitize
from repro.economy import Bank
from repro.errors import ManagerError
from repro.manager.grm import GlobalResourceManager
from repro.manager.messages import (
    AllocationDenied,
    AllocationGrant,
    AllocationRequestMsg,
    AvailabilityBatch,
    ReleaseMsg,
)
from repro.manager.transport import InProcessTransport

FACE = 100.0
TOL = 1e-9
faces = st.floats(1.0, 40.0)
picks = st.integers(0, 10**6)
levels = st.sampled_from([1, 2, None])


class GRMLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sanitized = sanitize.enabled()
        sanitize.enable()
        self.bank = Bank()
        self.grm = GlobalResourceManager("grm", self.bank)
        self.transport = InProcessTransport()
        self.grm.attach(self.transport)
        self.principals: list[str] = []
        self.live: dict[int, tuple[str, str]] = {}  # ticket id -> (issuer, backing)
        self.revoked: list[tuple[str, str]] = []
        self.virtuals = 0
        self.free: dict[str, float] = {}  # last report plus the lent amount then
        self.open: dict[int, tuple[tuple[str, float], ...]] = {}  # grant id -> takes

    def teardown(self):
        if not self.sanitized:
            sanitize.disable()

    def send(self, message):
        return self.transport.send("grm", message)

    def lent(self, p: str) -> float:
        return sum(t for takes in self.open.values() for q, t in takes if q == p)

    def pick(self, pick: int) -> str:
        return self.principals[pick % len(self.principals)]

    def issue(self, issuer: str, backing: str, face: float) -> None:
        ticket = self.bank.issue_relative_ticket(issuer, backing, face)
        self.live[ticket.ticket_id] = (issuer, backing)

    @initialize(n=st.integers(3, 5), shares=st.lists(st.tuples(picks, picks, faces), max_size=10))
    def setup(self, n, shares):
        for i in range(n):
            self.add(f"p{i}")
        for a, b, face in shares:
            self.issue_ticket(a, b, face)

    # -- bank mutations ----------------------------------------------------------

    def add(self, name: str) -> None:
        self.bank.create_currency(name, face_value=FACE)
        self.principals.append(name)

    @rule(a=picks, b=picks, face=faces)
    def issue_ticket(self, a, b, face):
        n = len(self.principals)
        i, j = a % n, (a + 1 + b % (n - 1)) % n  # never i == j
        self.issue(self.principals[i], self.principals[j], face)

    @precondition(lambda self: self.live)
    @rule(pick=picks)
    def revoke(self, pick):
        ticket_id = sorted(self.live)[pick % len(self.live)]
        self.bank.revoke_ticket(ticket_id)
        self.revoked.append(self.live.pop(ticket_id))

    @precondition(lambda self: self.revoked)
    @rule(pick=picks, face=faces)
    def reissue(self, pick, face):
        """Issue a revoked ticket's pair again at a new share."""
        self.issue(*self.revoked.pop(pick % len(self.revoked)), face)

    @rule(pick=picks, factor=st.floats(0.5, 2.0))
    def inflate(self, pick, factor):
        self.bank.inflate_currency(self.pick(pick), factor)

    @precondition(lambda self: len(self.principals) < 7)
    @rule(pick=picks, face=faces)
    def create_principal(self, pick, face):
        """A new principal, funded by an existing one, while grants may be
        open; it has reported nothing, so it lends nothing."""
        name = f"p{len(self.principals)}"
        donor = self.pick(pick)
        self.add(name)
        self.issue(donor, name, face)

    @precondition(lambda self: self.virtuals < 3)
    @rule(owner=picks, to=picks, face=faces, onward=faces)
    def create_virtual(self, owner, to, face, onward):
        """``owner`` funds a virtual currency that shares with ``target``."""
        owner = self.pick(owner)
        target = self.pick(to)
        name = f"v{self.virtuals}"
        self.virtuals += 1
        self.bank.create_currency(name, face_value=FACE, owner=owner, virtual=True)
        self.issue(owner, name, face)
        if target != owner:
            self.issue(name, target, onward)

    # -- availability --------------------------------------------------------------

    @rule(spare=st.lists(st.tuples(picks, st.floats(0.0, 3.0)), min_size=1, max_size=8))
    def report(self, spare):
        """A batch of spare capacities, each net of the open grants."""
        reports = {self.pick(k): s for k, s in spare}
        self.send(AvailabilityBatch(sender="lrm", reports=tuple(reports.items())))
        for p, s in reports.items():
            self.free[p] = s + self.lent(p)

    @rule(pick=picks, bad=st.sampled_from([("nobody", 1.0), (None, -1.0), (None, math.nan)]))
    def rejected_report(self, pick, bad):
        """A batch with one bad entry after a good one is rejected whole."""
        name, value = bad
        before = {p: self.grm.availability(p) for p in self.principals}
        reports = ((self.pick(pick), 1.0), (name or self.pick(pick + 1), value))
        with pytest.raises(ManagerError):
            self.send(AvailabilityBatch(sender="lrm", reports=reports))
        assert {p: self.grm.availability(p) for p in self.principals} == before

    # -- requests and releases -------------------------------------------------------

    @rule(pick=picks, fraction=st.floats(0.0, 1.5), over=st.sampled_from([0.0, 5e-8, 2e-7]),
          level=levels)
    def request(self, pick, fraction, over, level):
        principal = self.pick(pick)
        topology = self.bank.topology()
        V = [self.grm.availability(p) for p in topology.principals]
        cap = self.bank.capacity_view().with_capacities(V).capacity_of(principal, level)
        ask = fraction * cap + over
        reply = self.send(
            AllocationRequestMsg(sender=principal, principal=principal, amount=ask, level=level)
        )
        if isinstance(reply, AllocationDenied):
            assert ask > cap + 1e-7
            assert reply.available == cap
            return
        assert isinstance(reply, AllocationGrant)
        assert ask <= cap + 1e-7
        granted = min(ask, cap)
        if granted <= 1e-7:
            granted = 0.0  # below the LP's tolerance nothing is drawn
        assert reply.total == pytest.approx(granted, rel=1e-9, abs=TOL)
        order = [topology.principals.index(p) for p, _ in reply.takes]
        assert order == sorted(set(order))
        for p, t in reply.takes:
            assert t <= self.free.get(p, 0.0) - self.lent(p) + TOL, p
        self.open[reply.msg_id] = reply.takes

    def release_one(self, pick):
        grant_id = sorted(self.open)[pick % len(self.open)]
        self.send(ReleaseMsg(sender="lrm", grant_id=grant_id))
        del self.open[grant_id]

    @precondition(lambda self: self.open)
    @rule(pick=picks)
    def release(self, pick):
        self.release_one(pick)

    @precondition(lambda self: self.open and self.live)
    @rule(pick=picks)
    def revoke_then_release(self, pick):
        """A grant outlives the agreement it was made under."""
        self.revoke(pick)
        self.release_one(pick)

    # -- invariants --------------------------------------------------------------------

    @invariant()
    def availability_is_free_minus_lent(self):
        for p in self.principals:
            expected = self.free.get(p, 0.0) - self.lent(p)
            assert self.grm.availability(p) == pytest.approx(expected, abs=TOL), p

    @invariant()
    def open_grants_are_the_machines(self):
        assert self.grm.open_grants() == len(self.open)


GRMLifecycle.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestGRMLifecycle = GRMLifecycle.TestCase


def test_tiny_ask_is_granted_exactly():
    """An ask of 1e-6 of ``C_A``: Harris's ratio test once ended this LP
    with the ``sum d = x`` row 9e-8 over, granting 1.098e-6 for 1.01e-6."""
    state = GRMLifecycle()
    try:
        state.setup(n=3, shares=[(0, 0, 1.0), (0, 0, 1.0), (62, 0, 1.0)])
        state.issue_ticket(a=0, b=1, face=10.0)
        state.report(spare=[(0, 1.0)])
        state.report(spare=[(26, 1.0)])
        state.request(fraction=1e-06, level=1, over=0.0, pick=0)
        state.availability_is_free_minus_lent()
    finally:
        state.teardown()
