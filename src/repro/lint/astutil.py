"""Small AST helpers shared by the reprolint rules."""

from __future__ import annotations

import ast


def dotted(node: ast.expr) -> str | None:
    """Render ``a.b.c`` for a Name/Attribute chain (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.expr) -> str | None:
    """The last identifier of an expression, looking through calls and
    subscripts: ``system.capacities(level)`` -> ``"capacities"``,
    ``S[i, j]`` -> ``"S"``, ``msg.amount`` -> ``"amount"``."""
    while True:
        if isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            return node.attr
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return None


def root_name(node: ast.expr) -> str | None:
    """The first identifier of an attribute/subscript chain:
    ``self.bank.topology`` -> ``"self"``, ``U[:, a]`` -> ``"U"``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class ImportTracker:
    """Resolve local names to the modules/objects they were imported as.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from time import
    perf_counter as pc`` maps ``pc`` to ``time.perf_counter``.  Call
    :meth:`qualified` on a Name/Attribute chain to get a best-effort
    fully-qualified dotted path (``np.random.default_rng`` ->
    ``numpy.random.default_rng``), or None when the root is not an
    import-bound name.
    """

    def __init__(self, tree: ast.AST) -> None:
        self._names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    self._names[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative imports are project code, not stdlib
                    continue
                module = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._names[local] = f"{module}.{alias.name}" if module else alias.name

    def qualified(self, node: ast.expr) -> str | None:
        path = dotted(node)
        if path is None:
            return None
        root, _, rest = path.partition(".")
        origin = self._names.get(root)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin


__all__ = ["dotted", "terminal_name", "root_name", "ImportTracker"]
