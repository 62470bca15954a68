"""Per-line suppression comments.

A finding is suppressed by a trailing comment on the flagged line::

    U[0] += 1.0     # reprolint: disable=R5
    x = time.time() # reprolint: disable=R3,R4
    y = risky()     # reprolint: disable

The bare form suppresses every rule on that line.  Suppressions are
deliberately line-scoped — there is no file- or block-level off switch;
wholesale exclusions belong in the committed baseline where each entry
is visible in review.
"""

from __future__ import annotations

import re

_PATTERN = re.compile(r"#\s*reprolint:\s*disable(?:\s*=\s*([A-Za-z0-9_,\s]+))?")

#: sentinel meaning "all rules suppressed on this line"
ALL_RULES = "*"


def parse_suppressions(source_lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line number -> set of suppressed rule ids ('*' = all)."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source_lines, start=1):
        if "reprolint" not in line:
            continue
        m = _PATTERN.search(line)
        if m is None:
            continue
        raw = m.group(1)
        if raw is None:
            out[lineno] = {ALL_RULES}
        else:
            rules = {r.strip().upper() for r in raw.split(",") if r.strip()}
            if rules:
                out[lineno] = rules
    return out


def is_suppressed(suppressions: dict[int, set[str]], line: int, rule: str) -> bool:
    rules = suppressions.get(line)
    return rules is not None and (ALL_RULES in rules or rule.upper() in rules)


__all__ = ["parse_suppressions", "is_suppressed", "ALL_RULES"]
