"""The reprolint engine: file discovery, parsing, and rule dispatch.

Every rule (R3, R4, R5) sees one parsed file at a time and returns a
list of :class:`~repro.lint.findings.Finding`; the engine applies
per-line suppressions, assigns occurrence indices, and sorts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding, assign_indices
from .suppress import is_suppressed, parse_suppressions


@dataclass
class LintModule:
    """One parsed source file presented to the rules."""

    path: Path
    relpath: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        lineno = int(getattr(node, "lineno", 0) or 0)
        col = int(getattr(node, "col_offset", 0) or 0)
        return Finding(
            rule=rule.id,
            path=self.relpath,
            line=lineno,
            col=col,
            message=message,
            text=self.line_text(lineno),
        )


class Rule:
    """Base class; subclasses set ``id``/``name``/``description``."""

    id = "R0"
    name = "unnamed"
    description = ""

    def check(self, module: LintModule) -> list[Finding]:  # pragma: no cover
        return []


def _iter_py_files(paths: list[Path]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        if p.is_dir():
            out.extend(
                f
                for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)
            )
        elif p.suffix == ".py":
            out.append(p)
    # de-duplicate while keeping order
    seen: set[Path] = set()
    unique: list[Path] = []
    for f in out:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            unique.append(f)
    return unique


def load_modules(
    paths: list[Path], root: Path
) -> tuple[list[LintModule], list[Finding]]:
    """Parse every Python file under ``paths``; syntax errors become
    findings under the pseudo-rule ``E0`` (never suppressible)."""
    modules: list[LintModule] = []
    errors: list[Finding] = []
    for f in _iter_py_files(paths):
        try:
            relpath = f.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = f.as_posix()
        try:
            source = f.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(f))
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 0) or 0
            errors.append(
                Finding(
                    rule="E0",
                    path=relpath,
                    line=int(line),
                    col=0,
                    message=f"cannot parse: {exc.__class__.__name__}: {exc}",
                )
            )
            continue
        lines = source.splitlines()
        modules.append(
            LintModule(
                path=f,
                relpath=relpath,
                tree=tree,
                lines=lines,
                suppressions=parse_suppressions(lines),
            )
        )
    return modules, errors


def default_rules() -> list[Rule]:
    from .rules_aliasing import CacheAliasingRule
    from .rules_floateq import FloatEqualityRule
    from .rules_simtime import SimTimePurityRule

    return [
        SimTimePurityRule(),
        FloatEqualityRule(),
        CacheAliasingRule(),
    ]


def run_lint(
    paths: list[Path],
    root: Path | None = None,
    rules: list[Rule] | None = None,
    select: set[str] | None = None,
) -> list[Finding]:
    """Run the rules over ``paths``; returns indexed, sorted findings
    with per-line suppressions already applied (parse errors included)."""
    root = root or Path.cwd()
    rules = rules if rules is not None else default_rules()
    if select:
        wanted = {r.upper() for r in select}
        rules = [r for r in rules if r.id in wanted]
    modules, findings = load_modules(paths, root)
    for rule in rules:
        for module in modules:
            findings.extend(rule.check(module))
    by_path = {m.relpath: m for m in modules}
    kept = [
        f
        for f in findings
        if f.rule == "E0"
        or f.path not in by_path
        or not is_suppressed(by_path[f.path].suppressions, f.line, f.rule)
    ]
    return assign_indices(kept)


__all__ = ["LintModule", "Rule", "load_modules", "default_rules", "run_lint"]
