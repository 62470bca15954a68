"""Error paths and accounting of :class:`InProcessTransport`.

The transport is the protocol boundary the whole manager layer leans on;
its failure messages must name what *is* registered (debugging a
misconfigured hierarchy from "unknown endpoint" alone is miserable), and
its per-endpoint accounting must stay consistent across push and pull
deliveries.
"""

import pytest

import repro.obs as obs
from repro.errors import ManagerError
from repro.manager.messages import AvailabilityReport
from repro.manager.transport import InProcessTransport


@pytest.fixture
def observer():
    ob = obs.enable()
    yield ob
    obs.disable()


def _report(sender="p0"):
    return AvailabilityReport(sender=sender, resource_type="general",
                              available=1.0)


class TestUnknownEndpoint:
    def test_send_lists_known_endpoints(self):
        t = InProcessTransport()
        t.register("grm")
        t.register("lrm:p0")
        with pytest.raises(ManagerError) as exc:
            t.send("lrm:p9", _report())
        msg = str(exc.value)
        assert "lrm:p9" in msg
        assert "grm" in msg and "lrm:p0" in msg

    def test_send_with_nothing_registered(self):
        t = InProcessTransport()
        with pytest.raises(ManagerError, match="<none registered>"):
            t.send("grm", _report())

    def test_receive_and_pending_raise_too(self):
        t = InProcessTransport()
        t.register("grm")
        with pytest.raises(ManagerError, match="known endpoints: grm"):
            t.receive("nope")
        with pytest.raises(ManagerError, match="known endpoints: grm"):
            t.pending("nope")

    def test_duplicate_registration_rejected(self):
        t = InProcessTransport()
        t.register("grm")
        with pytest.raises(ManagerError, match="already registered"):
            t.register("grm")


class TestAccounting:
    def test_pending_tracks_mailbox_and_receive_drains_fifo(self):
        t = InProcessTransport()
        t.register("inbox")  # pull endpoint: no handler
        first, second = _report("p0"), _report("p1")
        t.send("inbox", first)
        t.send("inbox", second)
        assert t.pending("inbox") == 2
        assert t.receive("inbox").sender == "p0"
        assert t.pending("inbox") == 1
        assert t.receive("inbox").sender == "p1"
        assert t.pending("inbox") == 0
        assert t.receive("inbox") is None

    def test_per_endpoint_counts(self, observer):
        t = InProcessTransport()
        t.register("push", handler=lambda m: None)
        t.register("pull")
        t.send("push", _report())
        t.send("pull", _report())
        t.send("pull", _report())
        t.receive("pull")
        reg = observer.registry
        kind = "AvailabilityReport"
        assert reg.counter_value("transport.sent", endpoint="push", type=kind) == 1
        assert reg.counter_value("transport.sent", endpoint="pull", type=kind) == 2
        # Push deliveries never pass through receive().
        assert reg.counter_value("transport.received", endpoint="push") == 0
        assert reg.counter_value("transport.received", endpoint="pull") == 1

    def test_empty_receive_not_counted(self, observer):
        t = InProcessTransport()
        t.register("pull")
        assert t.receive("pull") is None
        assert observer.registry.counter_total("transport.received") == 0

    def test_handler_reply_returned(self):
        t = InProcessTransport()
        reply = _report("answer")
        t.register("push", handler=lambda m: reply)
        assert t.send("push", _report()) is reply
