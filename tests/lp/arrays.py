"""Array form of small hand-written LPs for the solver tests."""

import numpy as np


def lp_arrays(c, ub=(), eq=(), bounds=None):
    """``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` for ``min c.x``.

    ``ub`` and ``eq`` are ``(row, rhs)`` pairs (``row . x <= rhs`` and
    ``row . x == rhs``); ``bounds`` defaults to ``x >= 0``.
    """
    n = len(c)

    def block(rows):
        A = np.array([row for row, _ in rows], dtype=float).reshape(-1, n)
        return A, np.array([rhs for _, rhs in rows], dtype=float)

    if bounds is None:
        bounds = [(0.0, None)] * n
    return (np.array(c, dtype=float), *block(ub), *block(eq), bounds)
