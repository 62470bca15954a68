"""Per-slot reference for the sampler in :mod:`repro.workload.generator`.

This is the slot-at-a-time loop the vectorised ``RequestStream.sample``
replaced, kept as a test oracle: it draws each slot's uniforms with its
own ``rng.random(c)`` call, so it is slow but easy to audit.  It returns
the two columns instead of per-request objects.
"""

from __future__ import annotations

import numpy as np

from repro.workload import RequestStream


def sample_loop(stream: RequestStream, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(arrivals, lengths)`` of one realisation, drawn slot by slot."""
    edges = np.arange(0.0, stream.horizon + stream.slot_width, stream.slot_width)
    edges[-1] = min(edges[-1], stream.horizon)
    mids = (edges[:-1] + edges[1:]) / 2.0
    widths = np.diff(edges)
    lam = stream.profile.rate(mids) * widths
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
    lengths = stream.sizes.sample(rng, total)
    return arrivals, lengths


def generate_loop(
    n_proxies: int, profile, gap: float, *, sizes=None, horizon: float, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``generate_streams`` over :func:`sample_loop`."""
    seeds = np.random.default_rng(int(seed)).integers(0, 2**63 - 1, size=n_proxies)
    return [
        sample_loop(
            RequestStream(profile.with_skew(i * gap), sizes=sizes, horizon=horizon),
            np.random.default_rng(seeds[i]),
        )
        for i in range(n_proxies)
    ]
