"""Per-proxy request streams.

A :class:`Stream` is one proxy's requests as columns: sorted ``arrivals``,
``lengths`` and the per-row ``origins`` a trace file carries.  A
:class:`RequestStream` samples one from an inhomogeneous Poisson process
over a :class:`~repro.workload.diurnal.DiurnalProfile` (per-slot Poisson
counts with uniform placement inside each slot) and attaches response
lengths.  :func:`generate_streams` builds the case study's configuration:
``n`` proxies seeing time-skewed copies of the same profile, the skew
between neighbours being the experiments' "gap" parameter.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from ..errors import WorkloadError
from .diurnal import DAY_SECONDS, DiurnalProfile
from .sizes import LogNormalSizes, SizeDistribution

__all__ = ["Request", "RequestStream", "Stream", "generate_streams"]


@dataclass(frozen=True, slots=True)
class Request:
    """One HTTP request: arrival time (s), response length (bytes), origin proxy."""

    arrival: float
    length: float
    origin: int = 0


class Stream:
    """One proxy's requests as read-only columns, sorted by arrival.

    ``arrivals`` (s) and ``lengths`` (bytes) are float64; ``origins`` is
    int64.  ``origins`` may be given as one int, which every row shares
    without storing a column.  Iterating yields :class:`Request` rows;
    :meth:`from_requests` builds a stream from hand-written rows.
    """

    __slots__ = ("arrivals", "lengths", "origins")

    def __init__(self, arrivals: ArrayLike, lengths: ArrayLike, origins: ArrayLike = 0):
        arrivals = np.array(arrivals, dtype=np.float64)
        lengths = np.array(lengths, dtype=np.float64)
        if arrivals.ndim != 1 or lengths.shape != arrivals.shape:
            raise WorkloadError(
                f"arrivals and lengths must be 1-D and equally long, "
                f"got shapes {arrivals.shape} and {lengths.shape}"
            )
        if np.isscalar(origins):
            origins = np.broadcast_to(np.int64(origins), arrivals.shape)
        else:
            origins = np.array(origins, dtype=np.int64)
            if origins.shape != arrivals.shape:
                raise WorkloadError(
                    f"origins has shape {origins.shape}, expected {arrivals.shape}"
                )
        if np.any(arrivals[1:] < arrivals[:-1]):
            raise WorkloadError("arrivals must be sorted")
        arrivals.flags.writeable = False
        lengths.flags.writeable = False
        self.arrivals = arrivals
        self.lengths = lengths
        self.origins = origins

    @classmethod
    def from_columns(cls, arrivals: ArrayLike, lengths: ArrayLike, origins: ArrayLike) -> Stream:
        """A stream of unsorted columns, rows stably sorted by arrival."""
        arrivals = np.asarray(arrivals, dtype=np.float64)
        order = np.argsort(arrivals, kind="stable")
        return cls(
            arrivals[order],
            np.asarray(lengths, dtype=np.float64)[order],
            np.asarray(origins, dtype=np.int64)[order],
        )

    @classmethod
    def from_requests(cls, rows: Iterable[Request]) -> Stream:
        """A stream of hand-written rows, stably sorted by arrival."""
        rows = list(rows)
        return cls.from_columns(
            [r.arrival for r in rows], [r.length for r in rows], [r.origin for r in rows]
        )

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[Request]:
        cols = (self.arrivals.tolist(), self.lengths.tolist(), self.origins.tolist())
        return (Request(t, x, o) for t, x, o in zip(*cols))

    def __repr__(self) -> str:
        return f"Stream({len(self)} requests)"


class RequestStream:
    """Sampled arrivals for one proxy.

    ``sample()`` returns a :class:`Stream`.  The sampling slot width
    (default 60 s) bounds the rate-staircase error; the profile varies on
    the scale of hours, so a minute is plenty.
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

    def sample(self, rng: np.random.Generator) -> Stream:
        """Draw one realisation of the stream."""
        edges = np.arange(0.0, self.horizon + self.slot_width, self.slot_width)
        edges[-1] = min(edges[-1], self.horizon)
        mids = (edges[:-1] + edges[1:]) / 2.0
        widths = np.diff(edges)
        lam = self.profile.rate(mids) * widths
        counts = rng.poisson(lam)
        total = int(counts.sum())
        # One draw of ``total`` uniforms takes the same values from ``rng``
        # as one draw per slot would, in slot order.
        arrivals = np.repeat(edges[:-1], counts) + rng.random(total) * np.repeat(widths, counts)
        arrivals.sort()
        lengths = self.sizes.sample(rng, total)
        return Stream(arrivals, lengths, self.origin)


def generate_streams(
    n_proxies: int,
    profile: DiurnalProfile,
    gap: float,
    *,
    sizes: SizeDistribution | None = None,
    horizon: float = DAY_SECONDS,
    seed: int = 0,
) -> list[Stream]:
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
    streams: list[Stream] = []
    for i in range(n_proxies):
        stream = RequestStream(
            profile.with_skew(i * gap),
            sizes=sizes,
            horizon=horizon,
            origin=i,
        )
        streams.append(stream.sample(np.random.default_rng(seeds[i])))
    return streams
