"""Model-based test of the bank's agreement lifecycle.

A hypothesis state machine on 4-6 principals interleaves accepted
mutations (issue, revoke, reissue at a new share, inflate) with rejected
ones (a non-finite face value, an unknown currency, revoking a revoked
ticket, a virtual currency whose owner is not a principal, a default
currency owned by another name), under the armed sanitizer, so every
topology rebuild that replays a coefficient plan is also checked against
a from-scratch DP.  After each step:

- for ``m`` in 1, 2 and the full closure, the bank's coefficients equal a
  fresh topology's over the same matrices, bit for bit;
- an accepted mutation costs exactly one ``topology.cache_miss`` on the
  next access, and a rejected one none;
- the bank holds exactly the tickets the machine counts as live, so
  revoke/reissue cycles leave no revoked ticket behind.
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import repro.obs as obs
from repro import sanitize
from repro.agreements import AgreementTopology
from repro.economy import Bank
from repro.errors import EconomyError, TicketRevokedError, UnknownCurrencyError

FACE = 100.0
faces = st.floats(1.0, 60.0)
picks = st.integers(0, 10**6)


class BankLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sanitized = sanitize.enabled()
        sanitize.enable()
        self.observer = obs.enable()
        self.bank = Bank()
        self.live: dict[int, tuple[str, str]] = {}
        self.revoked: dict[int, tuple[str, str]] = {}
        self.principals: list[str] = []

    def teardown(self):
        obs.disable()
        if not self.sanitized:
            sanitize.disable()

    def misses(self) -> int:
        return self.observer.registry.counter_total("topology.cache_miss")

    def accepted(self, mutate):
        """Run an accepted mutation; the next access rebuilds once."""
        mutate()
        before = self.misses()
        self.bank.topology()
        self.bank.topology()
        assert self.misses() == before + 1

    def rejected(self, mutate, error):
        """Run a mutation the bank must refuse; no rebuild follows."""
        version = self.bank.version
        self.bank.topology()
        before = self.misses()
        try:
            mutate()
        except error:
            pass
        else:
            raise AssertionError("the bank accepted a mutation it must reject")
        assert self.bank.version == version
        self.bank.topology()
        assert self.misses() == before

    @initialize(n=st.integers(4, 6), shares=st.lists(st.tuples(picks, picks, faces), max_size=12))
    def setup(self, n, shares):
        self.principals = [f"p{i}" for i in range(n)]
        for name in self.principals:
            self.bank.create_currency(name, face_value=FACE)
        self.bank.create_currency("v0", owner=self.principals[0], virtual=True)
        for a, b, face in shares:
            self.issue(a, b, face)
        self.bank.topology()

    # -- accepted mutations ----------------------------------------------------

    def issue(self, a, b, face):
        n = len(self.principals)
        i, j = a % n, (a + 1 + b % (n - 1)) % n  # never i == j
        pair = (self.principals[i], self.principals[j])
        ticket = self.bank.issue_relative_ticket(*pair, face)
        self.live[ticket.ticket_id] = pair

    @rule(a=picks, b=picks, face=faces)
    def issue_ticket(self, a, b, face):
        self.accepted(lambda: self.issue(a, b, face))

    @precondition(lambda self: self.live)
    @rule(pick=picks)
    def revoke(self, pick):
        ticket_id = sorted(self.live)[pick % len(self.live)]

        def mutate():
            self.bank.revoke_ticket(ticket_id)
            self.revoked[ticket_id] = self.live.pop(ticket_id)

        self.accepted(mutate)

    @precondition(lambda self: self.revoked)
    @rule(pick=picks, face=faces)
    def reissue(self, pick, face):
        """Issue a revoked ticket's pair again at a new share."""
        pair = self.revoked[sorted(self.revoked)[pick % len(self.revoked)]]

        def mutate():
            ticket = self.bank.issue_relative_ticket(*pair, face)
            self.live[ticket.ticket_id] = pair

        self.accepted(mutate)

    @rule(pick=picks, factor=st.floats(0.5, 2.0))
    def inflate(self, pick, factor):
        name = self.principals[pick % len(self.principals)]
        self.accepted(lambda: self.bank.inflate_currency(name, factor))

    # -- rejected mutations ----------------------------------------------------

    @rule(face=st.sampled_from([math.nan, math.inf, -math.inf]))
    def issue_non_finite(self, face):
        a, b = self.principals[:2]
        self.rejected(lambda: self.bank.issue_relative_ticket(a, b, face), EconomyError)

    @rule(face=faces)
    def issue_from_unknown_currency(self, face):
        self.rejected(
            lambda: self.bank.issue_relative_ticket("nobody", self.principals[0], face),
            UnknownCurrencyError,
        )

    @precondition(lambda self: self.revoked)
    @rule(pick=picks)
    def revoke_revoked(self, pick):
        ticket_id = sorted(self.revoked)[pick % len(self.revoked)]
        self.rejected(lambda: self.bank.revoke_ticket(ticket_id), TicketRevokedError)

    @rule(owner=st.sampled_from(["nobody", "v0"]))
    def create_virtual_without_principal_owner(self, owner):
        """A virtual currency must be owned by a principal: an unknown name
        or another virtual currency (``v0``) is refused."""
        self.rejected(
            lambda: self.bank.create_currency("v-new", owner=owner, virtual=True),
            EconomyError,
        )

    @rule(pick=picks)
    def create_default_owned_by_another(self, pick):
        owner = self.principals[pick % len(self.principals)]
        self.rejected(lambda: self.bank.create_currency("p-new", owner=owner), EconomyError)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def tickets_are_the_live_ones(self):
        assert len(self.bank.tickets) == len(self.live)

    @invariant()
    def coefficients_match_a_fresh_topology(self):
        if not self.principals:
            return
        principals, _, S, A = self.bank.to_agreement_system()
        fresh = AgreementTopology(principals, S, A)
        topology = self.bank.topology()
        for m in (1, 2, None):
            assert topology.coefficients(m).tobytes() == fresh.coefficients(m).tobytes()
        assert np.array_equal(topology.S, fresh.S)


BankLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestBankLifecycle = BankLifecycle.TestCase
