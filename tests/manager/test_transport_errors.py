"""Error paths and accounting of :class:`InProcessTransport`.

The transport is the protocol boundary the whole manager layer leans on;
its failure messages must name what *is* registered (debugging a
misconfigured hierarchy from "unknown endpoint" alone is miserable), and
its accounting must count every delivery under its own endpoint.
"""

import pytest

import repro.obs as obs
from repro.errors import ManagerError
from repro.manager.messages import AvailabilityBatch
from repro.manager.transport import InProcessTransport


@pytest.fixture
def observer():
    ob = obs.enable()
    yield ob
    obs.disable()


def _report(sender="p0"):
    return AvailabilityBatch(sender=sender, resource_type="general", reports=((sender, 1.0),))


def _ignore(message):
    return None


class TestUnknownEndpoint:
    def test_send_lists_known_endpoints(self):
        t = InProcessTransport()
        t.register("grm", _ignore)
        t.register("lrm:p0", _ignore)
        with pytest.raises(ManagerError) as exc:
            t.send("lrm:p9", _report())
        msg = str(exc.value)
        assert "lrm:p9" in msg
        assert "grm" in msg and "lrm:p0" in msg

    def test_send_with_nothing_registered(self):
        t = InProcessTransport()
        with pytest.raises(ManagerError, match="<none registered>"):
            t.send("grm", _report())

    def test_duplicate_registration_rejected(self):
        t = InProcessTransport()
        t.register("grm", _ignore)
        with pytest.raises(ManagerError, match="already registered"):
            t.register("grm", _ignore)


class TestAccounting:
    def test_per_endpoint_counts(self, observer):
        t = InProcessTransport()
        t.register("grm", _ignore)
        t.register("lrm:p0", _ignore)
        t.send("grm", _report())
        t.send("lrm:p0", _report())
        t.send("lrm:p0", _report())
        reg = observer.registry
        kind = "AvailabilityBatch"
        assert reg.counter_value("transport.sent", endpoint="grm", type=kind) == 1
        assert reg.counter_value("transport.sent", endpoint="lrm:p0", type=kind) == 2

    def test_handler_reply_returned(self):
        t = InProcessTransport()
        reply = _report("answer")
        t.register("push", lambda m: reply)
        assert t.send("push", _report()) is reply
