"""Tests for the single-server work queue (the proxy front-end)."""

import pytest

from repro.des import QueuedItem, WorkQueue


def served_list(queue, now=float("inf")):
    out = []
    queue.advance(now, lambda item, start: out.append((item, start)))
    return out


class TestFifoService:
    def test_serves_in_order_with_waits(self):
        q = WorkQueue()
        q.push(QueuedItem(arrival=0.0, service=2.0))
        q.push(QueuedItem(arrival=0.5, service=1.0))
        served = served_list(q)
        # item0 starts at 0 (wait 0); item1 starts when server frees at 2.
        assert served[0][1] == 0.0
        assert served[1][1] == 2.0

    def test_idle_gap_resets_start(self):
        q = WorkQueue()
        q.push(QueuedItem(arrival=0.0, service=1.0))
        q.push(QueuedItem(arrival=10.0, service=1.0))
        served = served_list(q)
        assert served[1][1] == 10.0  # no queueing after an idle gap

    def test_advance_respects_now(self):
        q = WorkQueue()
        q.push(QueuedItem(arrival=0.0, service=1.0))
        q.push(QueuedItem(arrival=5.0, service=1.0))
        assert len(served_list(q, now=2.0)) == 1
        assert q.backlog == pytest.approx(1.0)  # the 5 s arrival still queued

    def test_rate_scales_service(self):
        q = WorkQueue(rate=2.0)  # Figure 7's "more processing power"
        q.push(QueuedItem(arrival=0.0, service=4.0))
        q.push(QueuedItem(arrival=0.0, service=1.0))
        served = served_list(q)
        assert served[1][1] == pytest.approx(2.0)  # 4s of work at rate 2

    def test_ready_defers_start(self):
        q = WorkQueue()
        q.push(QueuedItem(arrival=0.0, service=1.0, ready=3.0))
        served = served_list(q)
        assert served[0][1] == 3.0  # start waits for transfer completion

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            WorkQueue(rate=0.0)


class TestBacklog:
    def test_committed_counts_in_service_remainder(self):
        q = WorkQueue(rate=2.0)
        q.push(QueuedItem(arrival=0.0, service=4.0))
        q.push(QueuedItem(arrival=0.0, service=1.0))
        served_list(q, now=0.0)  # the 4 s item runs until t = 2
        assert q.committed(0.5) == pytest.approx(1.0 + 1.5 * 2.0)
        assert q.committed(3.0) == pytest.approx(1.0)  # server idle again

    def test_backlog_tracks_queued_work(self):
        q = WorkQueue()
        q.push(QueuedItem(arrival=0.0, service=2.0))
        q.push(QueuedItem(arrival=0.0, service=3.0))
        assert q.backlog == pytest.approx(5.0)
        served_list(q, now=0.0)  # first item starts immediately
        assert q.backlog == pytest.approx(3.0)

    def test_drain_empties_queue(self):
        q = WorkQueue()
        for i in range(5):
            q.push(QueuedItem(arrival=float(i), service=1.0))
        out = []
        q.drain(lambda item, start: out.append(item))
        assert len(out) == 5
        assert q.backlog == pytest.approx(0.0)
        assert q.served == 5


class TestPopTail:
    def fill(self, n=4, service=1.0):
        q = WorkQueue()
        for i in range(n):
            q.push(QueuedItem(arrival=float(i), service=service))
        return q

    def test_pops_newest_first_returns_oldest_first(self):
        q = self.fill(4)
        moved = q.pop_tail(2.0)
        assert [m.arrival for m in moved] == [2.0, 3.0]
        assert q.backlog == pytest.approx(2.0)

    def test_respects_work_budget(self):
        q = self.fill(3, service=2.0)
        moved = q.pop_tail(3.0)  # only one 2s item fits
        assert len(moved) == 1

    def test_zero_budget(self):
        q = self.fill(3)
        assert q.pop_tail(0.0) == []
        assert q.backlog == pytest.approx(3.0)

    def test_max_hops_filters(self):
        q = WorkQueue()
        q.push(QueuedItem(arrival=0.0, service=1.0))
        hot = QueuedItem(arrival=1.0, service=1.0, hops=1)
        q.push(hot)
        q.push(QueuedItem(arrival=2.0, service=1.0))
        moved = q.pop_tail(10.0)
        # the already-redirected item stays (a request moves once); the
        # others move
        assert [m.arrival for m in moved] == [0.0, 2.0]
        assert q.backlog == pytest.approx(1.0)

    def test_skipped_items_keep_order(self):
        q = WorkQueue()
        a = QueuedItem(arrival=0.0, service=1.0, hops=1)
        b = QueuedItem(arrival=1.0, service=1.0, hops=1)
        q.push(a)
        q.push(b)
        q.push(QueuedItem(arrival=2.0, service=1.0))
        q.pop_tail(10.0)
        served = served_list(q)
        assert [s[0] for s in served] == [a, b]
