"""No exact ``==``/``!=`` on float capacity/theta quantities in ``src/repro``.

Capacities, thetas, takes and availabilities come out of LP solves and
dense linear algebra, so exact comparison assumes an exactness scipy does
not provide and that breaks across BLAS builds; use
:func:`repro.units.approx_eq` or ``numpy.isclose``.  A comparison is
flagged when either side ends in a float-domain name (``theta``,
``v.capacities()[0]``, ...) or is a non-zero float literal.  Exempt: the
exact-zero sparsity idiom on other names (``S[i, j] != 0.0``) and
comparisons with a str, bool or None constant.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

DOMAIN_NAMES = frozenset(
    "theta capacity capacities cap caps avail available availability granted"
    " satisfied face_value excess backlog take takes drop drops".split()
)


def terminal_name(node):
    """``system.capacities(level)[i]`` -> ``"capacities"``."""
    while isinstance(node, (ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _flagged(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and node.value != 0.0
    return (terminal_name(node) or "").lower() in DOMAIN_NAMES


def _exempt(node):
    return isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (str, bool))
    )


def float_equalities(source):
    """Line numbers of the flagged ``==``/``!=`` comparisons in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if (
                isinstance(op, (ast.Eq, ast.NotEq))
                and not (_exempt(left) or _exempt(right))
                and (_flagged(left) or _flagged(right))
            ):
                lines.append(node.lineno)
                break
    return lines


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("ok = scale == 1.0", True),
        ("ok = theta != x", True),
        ("ok = v.capacities()[0] == y", True),
        ("ok = grant.theta == 0.0", True),
        ("ok = -2.5 == x", True),
        ("ok = S[i, j] != 0.0", False),
        ("ok = avail == None", False),
        ("ok = capacity != 'general'", False),
        ("ok = n == 3", False),
        ("ok = 0 <= theta < 1.0", False),
    ],
)
def test_detector(source, flagged):
    assert bool(float_equalities(source)) is flagged


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_float_equality(path):
    assert float_equalities(path.read_text()) == [], f"{path.relative_to(SRC)}"
