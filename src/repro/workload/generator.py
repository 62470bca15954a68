"""Per-proxy request streams.

A :class:`RequestStream` samples an inhomogeneous Poisson process from a
:class:`~repro.workload.diurnal.DiurnalProfile` (per-slot Poisson counts
with uniform placement inside each slot) and attaches response lengths.
:func:`generate_streams` builds the case study's configuration: ``n``
proxies seeing time-skewed copies of the same profile, the skew between
neighbours being the experiments' "gap" parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .diurnal import DAY_SECONDS, DiurnalProfile
from .sizes import LogNormalSizes, SizeDistribution

__all__ = ["Request", "RequestStream", "generate_streams"]


@dataclass(frozen=True, slots=True)
class Request:
    """One HTTP request: arrival time (s), response length (bytes), origin proxy."""

    arrival: float
    length: float
    origin: int = 0


class RequestStream:
    """Sampled arrivals for one proxy.

    ``sample()`` returns a time-sorted list of :class:`Request`.  The
    sampling slot width (default 60 s) bounds the rate-staircase error;
    the profile varies on the scale of hours, so a minute is plenty.
    """

    def __init__(
        self,
        profile: DiurnalProfile,
        sizes: SizeDistribution | None = None,
        horizon: float = DAY_SECONDS,
        slot_width: float = 60.0,
        origin: int = 0,
    ):
        if horizon <= 0 or slot_width <= 0:
            raise WorkloadError("horizon and slot_width must be positive")
        self.profile = profile
        self.sizes = sizes if sizes is not None else LogNormalSizes()
        self.horizon = float(horizon)
        self.slot_width = float(slot_width)
        self.origin = int(origin)

    def sample(self, rng: np.random.Generator) -> list[Request]:
        """Draw one realisation of the stream."""
        edges = np.arange(0.0, self.horizon + self.slot_width, self.slot_width)
        edges[-1] = min(edges[-1], self.horizon)
        mids = (edges[:-1] + edges[1:]) / 2.0
        widths = np.diff(edges)
        lam = self.profile.rate(mids) * widths
        counts = rng.poisson(lam)
        total = int(counts.sum())
        arrivals = np.empty(total)
        pos = 0
        for k, (lo, w) in enumerate(zip(edges[:-1], widths)):
            c = int(counts[k])
            if c:
                arrivals[pos : pos + c] = lo + rng.random(c) * w
                pos += c
        arrivals.sort()
        lengths = self.sizes.sample(rng, total)
        return [
            Request(float(t), float(x), self.origin)
            for t, x in zip(arrivals, lengths)
        ]

    def expected_requests(self) -> float:
        return self.profile.expected_count(0.0, self.horizon)


def generate_streams(
    n_proxies: int,
    profile: DiurnalProfile,
    gap: float,
    *,
    sizes: SizeDistribution | None = None,
    horizon: float = DAY_SECONDS,
    seed: int = 0,
) -> list[list[Request]]:
    """Build one sampled stream per proxy, neighbours skewed by ``gap``.

    Proxy ``i`` sees the base profile shifted by ``i * gap`` seconds —
    "different amounts of time skew between the client request streams"
    (Figure 6; gap = 3600 puts each proxy one time zone from the next).
    Streams use independent sub-seeds so they are independent realisations
    of the (shifted) profile, as distinct geographic client populations
    would be.
    """
    if n_proxies <= 0:
        raise WorkloadError("need at least one proxy")
    root = np.random.default_rng(int(seed))  # None would draw OS entropy
    seeds = root.integers(0, 2**63 - 1, size=n_proxies)
    streams: list[list[Request]] = []
    for i in range(n_proxies):
        stream = RequestStream(
            profile.with_skew(i * gap),
            sizes=sizes,
            horizon=horizon,
            origin=i,
        )
        streams.append(stream.sample(np.random.default_rng(seeds[i])))
    return streams
