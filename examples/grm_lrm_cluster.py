#!/usr/bin/env python3
"""The GRM/LRM architecture: agreements enforced through the manager protocol.

Builds the Section-3.2 two-component system — one global resource manager
owning the agreement registry, four local resource managers owning the
physical resources — wires them over the message transport, and walks
through report -> request -> grant -> reserve -> release, including a
request that must borrow transitively and one that is denied.

Run:  python examples/grm_lrm_cluster.py
"""

from repro.economy import Bank
from repro.manager import (
    AllocationGrant,
    AllocationRequestMsg,
    GlobalResourceManager,
    InProcessTransport,
    LocalResourceManager,
    ReleaseMsg,
)
from repro.units import ResourceVector


class CountingTransport(InProcessTransport):
    """The in-process transport, counting every message sent over it."""

    def __init__(self) -> None:
        super().__init__()
        self.messages = 0

    def send(self, to, message):
        self.messages += 1
        return super().send(to, message)


def main() -> None:
    transport = CountingTransport()
    bank = Bank()
    grm = GlobalResourceManager("grm", bank)
    grm.attach(transport)

    # Four sites; site0 is big, the rest small.  Chain of 40% agreements
    # site0 -> site1 -> site2 -> site3 (so site3 only reaches site0's
    # capacity transitively).
    capacities = [40.0, 5.0, 5.0, 5.0]
    lrms = []
    for i, cap in enumerate(capacities):
        name = f"site{i}"
        grm.register_principal(name, ResourceVector(general=cap))
        lrm = LocalResourceManager(name, ResourceVector(general=cap))
        lrm.attach(transport)
        lrms.append(lrm)
    for i in range(3):
        bank.issue_relative_ticket(f"site{i}", f"site{i + 1}", 40)

    for lrm in lrms:
        lrm.report()
    print("availability:", {f"site{i}": grm.availability(f"site{i}") for i in range(4)})

    # site3 asks for more than it owns: the grant chains through the
    # agreements (site2 direct, site1 and site0 transitively).
    request = AllocationRequestMsg(sender="site3", principal="site3", amount=8.0)
    grant = transport.send("grm", request)
    assert isinstance(grant, AllocationGrant)
    print(f"\nsite3 requests 8.0 -> grant: {dict(grant.takes)} (theta={grant.theta:.2f})")

    # Each donor LRM reserves its share; the GRM tracked the grant.
    for principal, amount in grant.takes:
        donor = lrms[int(principal[-1])]
        donor.reserve(grant.msg_id, ResourceVector(general=amount))
        donor.report()
    print("availability after grant:",
          {f"site{i}": round(grm.availability(f"site{i}"), 2) for i in range(4)})

    # An oversized request is denied with the transitive capacity quoted.
    denied = transport.send(
        "grm", AllocationRequestMsg(sender="site3", principal="site3", amount=500.0)
    )
    print(f"\nsite3 requests 500.0 -> {type(denied).__name__}: {denied.reason}")

    # Release the first grant; availability is restored.
    transport.send("grm", ReleaseMsg(sender="site3", grant_id=grant.msg_id))
    for principal, _ in grant.takes:
        lrms[int(principal[-1])].release(grant.msg_id)
    print("\nafter release, open grants:", grm.open_grants())
    print(f"messages exchanged: {transport.messages}")


if __name__ == "__main__":
    main()
