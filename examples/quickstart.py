#!/usr/bin/env python3
"""Quickstart: express agreements with tickets/currencies, enforce with LP.

Builds the paper's Example 1 (Figure 1) economy, inspects currency and
ticket values, flattens it into an agreement system, and allocates a
request through the Section-3 LP — the complete express-then-enforce
pipeline in ~40 lines.

Run:  python examples/quickstart.py
"""

from repro.allocation import allocate_lp
from repro.economy import Bank


def main() -> None:
    # --- Expression: tickets and currencies (Section 2) -------------------
    bank = Bank()
    bank.create_currency("A", face_value=1000)  # principal A
    bank.create_currency("B", face_value=100)  # principal B
    bank.create_currency("C")
    bank.create_currency("D")

    # Raw capacity: A owns 10 TB of disk, B owns 15 TB.
    bank.deposit_capacity("A", 10.0, "disk", name="A-Ticket1")
    bank.deposit_capacity("B", 15.0, "disk", name="A-Ticket2")

    # Agreements: A grants C 3 TB absolutely; A shares 50% with B
    # (a relative ticket of face 500 in A's 1000-unit currency);
    # B shares 60% with D.
    bank.issue_absolute_ticket("A", "C", 3.0, "disk", name="R-Ticket3")
    t4 = bank.issue_relative_ticket("A", "B", 500, name="R-Ticket4")
    t5 = bank.issue_relative_ticket("B", "D", 60, name="R-Ticket5")

    print("Currency values (should be A=10, B=20, C=3, D=12):")
    for name, value in bank.currency_values().items():
        print(f"  {name}: {value['disk']:g} TB")
    print(f"R-Ticket4 real value: {bank.ticket_real_value(t4.ticket_id)['disk']:g} TB")
    print(f"R-Ticket5 real value: {bank.ticket_real_value(t5.ticket_id)['disk']:g} TB")

    # --- Enforcement: the LP allocator (Section 3) --------------------------
    system = bank.capacity_view("disk")
    print("\nEffective capacities C_i (direct + transitive agreements):")
    for p, c in zip(system.principals, system.capacities()):
        print(f"  {p}: {c:g} TB")

    # D requests 8 TB.  D owns nothing; its capacity flows from B's
    # agreement, which itself is partly transitive through A.
    allocation = allocate_lp(system, "D", 8.0)
    print(f"\nAllocating 8 TB to D -> takes: {allocation.takes_by_name()}")
    print(f"Perturbation theta = {allocation.theta:.3f} "
          "(max capacity drop among other principals, minimised by the LP)")

    # Revoke B's agreement with D and watch D's capacity vanish.
    bank.revoke_ticket(t5.ticket_id)
    system2 = bank.capacity_view("disk")
    print(f"\nAfter revoking R-Ticket5, D's capacity: "
          f"{system2.capacity_of('D'):g} TB")


if __name__ == "__main__":
    main()
