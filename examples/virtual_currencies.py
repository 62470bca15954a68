#!/usr/bin/env python3
"""Virtual currencies: isolating subsets of agreements (Example 2 / Figure 2).

Principal A routes its agreements through two virtual currencies, A1 and
A2.  Repricing one subset (inflating A1, or issuing new tickets from it)
leaves every agreement routed through A2 untouched — the decoupling that
motivates virtual currencies in Section 2.2.  It also prints what the
enforcement layer sees: the shares and capacities after the bank
eliminates the virtual currencies (A -> A2 -> B becomes one share of
0.5 * 0.6 = 0.3 from A to B).

Run:  python examples/virtual_currencies.py
"""

from repro.economy import build_example_2


def show(bank, label: str) -> None:
    values = bank.currency_values()
    row = "  ".join(
        f"{name}={values[name]['disk']:g}" for name in ("A1", "A2", "B", "C", "D")
    )
    print(f"{label:40s} {row}")


def show_flattened(bank) -> None:
    view = bank.capacity_view("disk")
    print("flattened shares S[i, j] (fraction of i's disk shared with j):")
    for i, p in enumerate(view.principals):
        shares = "  ".join(
            f"{q}={view.S[i, j]:g}" for j, q in enumerate(view.principals) if view.S[i, j]
        )
        print(f"  {p}: {shares or '-'}")
    capacities = "  ".join(
        f"{p}={c:g}" for p, c in zip(view.principals, view.capacities())
    )
    print(f"capacities (TB): {capacities}\n")


def main() -> None:
    bank, tickets = build_example_2()
    show_flattened(bank)
    print("disk values (TB) after each action:\n")
    show(bank, "initial (A1=3, A2=5 per the paper)")

    # Action 1: A inflates A1 3x.  Only C (routed via A1) is repriced.
    bank.inflate_currency("A1", 3.0)
    show(bank, "inflate A1 by 3x -> only C shrinks")

    # Action 2: A issues a new ticket from A2 to a newcomer E.  The A1
    # subset (C) is untouched; A controls dilution within A2 explicitly.
    bank.create_currency("E")
    bank.issue_relative_ticket("A2", "E", 100)
    bank.inflate_currency("A2", 2.0)
    show(bank, "add E via A2, inflate A2 2x")
    print(f"{'':40s} E={bank.currency_value('E')['disk']:g}")

    # Contrast: without virtual currencies, any change to one agreement's
    # terms would ripple through every ticket issued by A's currency.
    print(
        "\nB and D track only A2's face value; C tracks only A1's — the\n"
        "two agreement subsets are fully decoupled, as Figure 2 intends."
    )


if __name__ == "__main__":
    main()
