"""Redirection policies: how a consult turns excess work into a plan.

Every policy answers one question: given that proxy ``a`` has ``excess``
seconds of queued work it wants to shed, and each proxy currently has
``avail[k]`` seconds of spare processing capacity over the scheduler's
lookahead window, how much work goes to whom?

- :class:`LPPolicy` — the paper's scheme: the Section-3 LP over the
  agreement system, enforcing (level-limited) transitive flow bounds and
  minimising global perturbation;
- :class:`EndpointPolicy` — Figure 13's baseline: proportional to direct
  agreement quantities, blind to remote availability.

The Figure-5 baseline, ``scheme="none"``, has no policy: nothing moves,
so the simulation never consults.
"""

from __future__ import annotations

import numpy as np

from ..agreements.topology import CapacityView
from ..allocation.endpoint import allocate_endpoint
from ..allocation.lp_allocator import allocate_lp
from ..errors import SimulationError
from ..obs import get_observer
from ..obs.decision import next_request_id

__all__ = [
    "RedirectPolicy",
    "LPPolicy",
    "EndpointPolicy",
    "make_policy",
]


class RedirectPolicy:
    """Interface: :meth:`plan` returns per-proxy take amounts."""

    def plan(self, requester: int, excess: float, avail: np.ndarray) -> np.ndarray:
        """Amount of the requester's excess work each proxy should absorb.

        Entry ``requester`` means "keep local"; the vector sums to at most
        ``excess``.  ``avail[k]`` is proxy ``k``'s spare capacity (seconds
        of work) over the lookahead window; ``avail[requester]`` is 0 by
        construction (it is consulting precisely because it has none).
        """
        raise NotImplementedError


class _SystemPolicy(RedirectPolicy):
    """Shared plumbing: bind live availability to the agreement topology.

    The structure half (and its transitive-coefficient cache) is shared
    across every epoch; each consultation only mints a cheap
    :class:`~repro.agreements.topology.CapacityView` over the current
    availability vector.
    """

    def __init__(self, system: CapacityView):
        self.system = system
        self.topology = system.topology
        self.n = system.n

    def _live(self, avail: np.ndarray):
        if avail.shape != (self.n,):
            raise SimulationError(
                f"availability vector must have length {self.n}"
            )
        return self.topology.view(np.maximum(avail, 0.0))


class LPPolicy(_SystemPolicy):
    """Centralized LP enforcement with transitive agreements (the paper).

    Each consult solves one allocation LP with ``backend`` (the in-repo
    simplex unless ``"scipy"`` asks for HiGHS).
    """

    def __init__(
        self,
        system: CapacityView,
        level: int | None = None,
        backend: str = "simplex",
    ):
        super().__init__(system)
        self.level = level
        self.backend = backend

    def plan(self, requester: int, excess: float, avail: np.ndarray) -> np.ndarray:
        live = self._live(avail)
        principal = live.principals[requester]
        # Direct policy calls bypass the GRM, so they open their own
        # flight-recorder entry (negative synthetic request ids — there is
        # no message id to key on); the allocation epilogue fills it in.
        with get_observer().decision(
            request_id=next_request_id(),
            requestor=principal,
            amount=float(excess),
            scheme="lp-direct",
        ):
            allocation = allocate_lp(
                live,
                principal,
                excess,
                level=self.level,
                backend=self.backend,
                partial=True,
            )
        take = allocation.take.copy()
        # Anything the agreements cannot place stays local.
        take[requester] += max(excess - allocation.satisfied, 0.0)
        return take


class EndpointPolicy(_SystemPolicy):
    """Figure 13's proportional, availability-blind endpoint scheme.

    Donor weights come from the *agreement quantities alone* — the nominal
    share of each donor's rated capacity, not its live availability —
    because endpoints enforcing their own agreements cannot see remote
    queues.  Redirected work may therefore land on a busy donor.
    """

    def __init__(self, system: CapacityView, rated: np.ndarray):
        super().__init__(system)
        self.rated = np.asarray(rated, dtype=float)
        if self.rated.shape != (self.n,):
            raise SimulationError(f"rated capacities must have length {self.n}")

    def plan(self, requester: int, excess: float, avail: np.ndarray) -> np.ndarray:
        rated = self.rated.copy()
        rated[requester] = 0.0  # the excess is precisely what cannot stay
        nominal = self.topology.view(rated)
        allocation = allocate_endpoint(
            nominal, nominal.principals[requester], excess, partial=True
        )
        take = allocation.take.copy()
        take[requester] += max(excess - allocation.satisfied, 0.0)
        return take


def make_policy(config, system: CapacityView | None) -> RedirectPolicy | None:
    """Build the policy named by ``config.scheme`` (``None`` for ``"none"``,
    under which nothing is redirected)."""
    if config.scheme == "none":
        return None
    if system is None:
        raise SimulationError(
            f"scheme {config.scheme!r} needs an agreement system"
        )
    if system.n != config.n_proxies:
        raise SimulationError(
            f"agreement system has {system.n} principals but the simulation "
            f"has {config.n_proxies} proxies"
        )
    if config.scheme == "lp":
        return LPPolicy(system, level=config.level, backend=config.allocator_backend)
    if config.scheme == "endpoint":
        return EndpointPolicy(system, config.capacities() * config.lookahead)
    raise SimulationError(f"unknown scheme {config.scheme!r}")  # pragma: no cover
