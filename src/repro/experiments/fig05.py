"""Figure 5: load and waiting time over the day, *without* resource sharing.

The paper's solid line is the request count per 10-minute slot (peaking
around midnight, bottoming out in the early morning); the dotted line is
the average waiting time per slot, which peaks with the load at ~250 s.

We reproduce both series for one ISP with redirection disabled.  The
expected shape: the wait curve tracks the load curve with a lag, and the
peak wait is two to four orders of magnitude above the trough wait.
"""

from .common import Figure

__all__ = ["run", "FIGURE"]


def _curves(day):  # requests and mean wait per slot at ISP 0, slot start hours
    return day.request_count_series(0), day.mean_wait_series(0), day.slot_times() / 3600.0


def _rows(days):
    counts, waits, hours = _curves(days[0])
    busy = counts > 0

    def row(metric, value, hour):
        return {"metric": metric, "value": float(value), "at_hour": round(hour, 1)}

    return [
        row("peak_mean_wait_s", waits.max(), hours[waits.argmax()]),
        row("trough_mean_wait_s", waits[busy].min(), float(hours[busy][waits[busy].argmin()])),
        row("peak_requests_per_slot", counts.max(), hours[counts.argmax()]),
        row("total_requests", days[0].total_requests, float("nan")),
    ]


def _series(rows, days):
    counts, waits, hours = _curves(days[0])
    return {"slot_hours": hours, "requests_per_slot": counts.astype(float), "mean_wait": waits}


FIGURE = Figure(
    name="fig05",
    description="requests and avg waiting time per 10-min slot, no sharing",
    grid=lambda scale: [({}, {"scheme": "none"})],
    rows=_rows,
    series=_series,
    notes=(
        "Paper: load heaviest around midnight, lightest early morning; "
        "peak waits ~250 s.  Expected here: wait curve tracks the load "
        "curve and peaks within a few hours after the load peak."
    ),
)
run = FIGURE.run  # run(scale=25.0, seeds=(0,)): this figure alone
