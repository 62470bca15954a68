"""Ablation: cost of the exact subset DP for T^(m) across structure sizes.

The transitive coefficients are recomputed whenever the agreement
structure changes; this bench times the DP at the paper's scale
(n = 10) and beyond, on dense random, complete and loop structures.
The DP's exactness against path enumeration is tested in
``tests/agreements/test_flow.py``.

Run untimed (``--benchmark-disable``) it doubles as a regression guard:
the n = 16 complete closure must finish inside ``DP_BUDGET_S`` and peak
under ``DP_PEAK_BYTES`` of traced memory, and a bank's rebuild after a
revoke and after the reissue must replay its coefficient plan, not
re-plan (read off the ``flow.coefficients`` span's ``plan``).
"""

import time
import tracemalloc

import numpy as np
import pytest

import repro.obs as obs
from repro.agreements import complete_structure, loop_structure
from repro.agreements.flow import transitive_coefficients
from repro.economy import Bank
from repro.obs.events import read_trace

#: Wall-clock budget for the n = 16 complete full closure.  The vectorised
#: DP takes ~0.3 s on a 2-core Xeon host; the per-subset Python loop it
#: replaced took ~22 s there, so the budget fails that and leaves room
#: for slow CI runners.
DP_BUDGET_S = 5.0

#: Peak traced memory budget for the same closure.  Each source runs as a
#: batch of its own and peaks at ~5 MB; batching all 16 sources at once
#: would hold ~84 MB.
DP_PEAK_BYTES = 16 * 2**20


def random_S(n, seed=0):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n)) * (0.9 / n)
    np.fill_diagonal(S, 0.0)
    return S


@pytest.mark.parametrize("n", [10, 14])
def test_flow_dp_speed_random(benchmark, n):
    T = benchmark(transitive_coefficients, random_S(n), None)
    assert T.shape == (n, n)


def test_flow_dp_speed_n16_complete(benchmark):
    S = complete_structure(16, share=1 / 15).S
    T = benchmark(transitive_coefficients, S, None)
    # by symmetry every off-diagonal coefficient is equal
    off = T[~np.eye(16, dtype=bool)]
    np.testing.assert_allclose(off, off[0], rtol=1e-12)


@pytest.mark.parametrize("level", [3, None], ids=["level3", "full"])
def test_flow_dp_speed_n20_loop(benchmark, level):
    # One simple path per length: the DP keeps only the live subsets.
    S = loop_structure(20, share=0.8, skip=1).S
    T = benchmark(transitive_coefficients, S, level)
    assert np.count_nonzero(T) == 20 * (3 if level else 19)


def test_dp_n16_complete_within_budget():
    S = complete_structure(16, share=1 / 15).S
    tracemalloc.start()
    try:
        start = time.perf_counter()
        transitive_coefficients(S, None)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < DP_BUDGET_S, f"n=16 complete closure took {elapsed:.2f} s"
    assert peak < DP_PEAK_BYTES, f"n=16 complete closure peaked at {peak / 2**20:.1f} MB"


def _bank_of(S, face=100.0):
    """A bank whose relative tickets express ``S``, one per edge."""
    bank = Bank()
    names = [f"p{i}" for i in range(S.shape[0])]
    for name in names:
        bank.create_currency(name, face_value=face)
    tickets = {
        (i, j): bank.issue_relative_ticket(names[i], names[j], face * S[i, j]).ticket_id
        for i, j in zip(*np.nonzero(S))
    }
    return bank, names, tickets


def _best_ms(fn, repeats=7):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


@pytest.mark.parametrize(
    "S",
    [complete_structure(10, share=0.1).S, loop_structure(20, share=0.8, skip=1).S],
    ids=["complete10", "loop20"],
)
def test_rebuild_replays_after_revoke_and_reissue(benchmark, tmp_path, S):
    bank, names, tickets = _bank_of(S)
    i, j = min(tickets)

    def revoke_then_reissue(share):
        bank.revoke_ticket(tickets.pop((i, j)))
        bank.topology().coefficients()
        tickets[i, j] = bank.issue_relative_ticket(names[i], names[j], 100.0 * share).ticket_id
        bank.topology().coefficients()

    bank.topology().coefficients()  # the bank's first topology keeps no plan
    revoke_then_reissue(0.09)  # records after the revoke, then on the full pattern
    path = tmp_path / "trace.jsonl"
    obs.enable(trace_path=path)
    try:
        revoke_then_reissue(0.11)
    finally:
        obs.disable()
    modes = [
        r["attrs"]["plan"]
        for r in read_trace(path)
        if r.get("kind") == "span" and r["name"] == "flow.coefficients"
    ]
    assert modes == ["replayed", "replayed"], f"the rebuilds ran {modes}"

    topology = bank.topology()
    plan = topology._plans[topology.max_level]
    replay_ms = _best_ms(lambda: transitive_coefficients(topology.S, None, plan=plan))
    scratch_ms = _best_ms(lambda: transitive_coefficients(topology.S, None))
    benchmark.extra_info.update(replay_ms=replay_ms, scratch_ms=scratch_ms)
    print(f"replay {replay_ms:.3f} ms, from scratch {scratch_ms:.3f} ms")
    assert replay_ms < scratch_ms
    benchmark(transitive_coefficients, topology.S, None, plan=plan)
