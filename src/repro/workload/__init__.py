"""Workload generation: a synthetic stand-in for the UC Berkeley Home-IP trace.

The paper drives its simulator with the 1996 UC Berkeley Home-IP HTTP
traces (18 days averaged to one 24-hour period; load heaviest around
midnight, lightest in the early morning).  That trace is not obtainable
offline, so this package synthesises a request stream with the same three
properties the experiments depend on (see DESIGN.md):

1. a diurnal arrival-rate profile with a midnight peak and early-morning
   trough (:mod:`~repro.workload.diurnal`);
2. heavy-tailed response lengths typical of mid-90s web objects
   (:mod:`~repro.workload.sizes`);
3. per-proxy streams that are time-skewed copies of the same profile —
   the "gap" between geographically distant ISPs
   (:mod:`~repro.workload.generator`).

A stream is a :class:`~repro.workload.generator.Stream`: sorted arrival,
length and origin columns, with no per-request objects.

:mod:`~repro.workload.trace` reads and writes trace files so a real trace
can be substituted where available.
"""

from .diurnal import DiurnalProfile
from .fit import fit_profile, profile_fit_error
from .generator import Request, RequestStream, Stream, generate_streams
from .sizes import LogNormalSizes, ParetoSizes, SizeDistribution
from .trace import read_trace, write_trace

__all__ = [
    "DiurnalProfile",
    "fit_profile",
    "profile_fit_error",
    "Request",
    "RequestStream",
    "Stream",
    "generate_streams",
    "SizeDistribution",
    "LogNormalSizes",
    "ParetoSizes",
    "read_trace",
    "write_trace",
]
