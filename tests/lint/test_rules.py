"""Fixture tests: each reprolint rule fires, and its suppression holds.

Every rule gets three paths: a positive fixture that must produce the
finding, the same fixture with a ``# reprolint: disable=Rn`` comment
(silent), and a negative fixture exercising the idiom the rule must
*not* flag.
"""

import textwrap

from repro.lint import run_lint


def lint_source(tmp_path, source, name="mod.py", select=None):
    f = tmp_path / name
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(textwrap.dedent(source))
    return run_lint([tmp_path], root=tmp_path, select=select)


def rules_of(findings):
    return [f.rule for f in findings]


class TestR3SimTimePurity:
    def test_wall_clock_fires(self, tmp_path):
        src = """
            import time

            def stamp():
                return time.time()
            """
        findings = lint_source(tmp_path, src, select={"R3"})
        assert rules_of(findings) == ["R3"]

    def test_unseeded_rng_fires(self, tmp_path):
        src = """
            import numpy as np

            def rng():
                return np.random.default_rng()
            """
        findings = lint_source(tmp_path, src, select={"R3"})
        assert rules_of(findings) == ["R3"]

    def test_seeded_rng_and_perf_counter_clean(self, tmp_path):
        src = """
            import time

            import numpy as np

            def rng(seed):
                return np.random.default_rng(seed)

            def tick():
                return time.perf_counter()
            """
        assert lint_source(tmp_path, src, select={"R3"}) == []

    def test_suppression(self, tmp_path):
        src = """
            import time

            def stamp():
                return time.time()  # reprolint: disable=R3
            """
        assert lint_source(tmp_path, src, select={"R3"}) == []


class TestR4FloatEquality:
    def test_domain_name_fires(self, tmp_path):
        src = """
            def is_unperturbed(theta):
                return theta == 0.0
            """
        findings = lint_source(tmp_path, src, select={"R4"})
        assert rules_of(findings) == ["R4"]

    def test_float_literal_fires(self, tmp_path):
        src = """
            def check(x):
                return x == 1.5
            """
        findings = lint_source(tmp_path, src, select={"R4"})
        assert rules_of(findings) == ["R4"]

    def test_sparsity_idiom_clean(self, tmp_path):
        src = """
            def has_edge(S, i, j):
                return S[i, j] != 0.0
            """
        assert lint_source(tmp_path, src, select={"R4"}) == []

    def test_suppression(self, tmp_path):
        src = """
            def is_unperturbed(theta):
                return theta == 0.0  # reprolint: disable=R4
            """
        assert lint_source(tmp_path, src, select={"R4"}) == []


class TestR5CacheAliasing:
    def test_store_into_cached_array_fires(self, tmp_path):
        src = """
            def clobber(bank):
                C = bank.capacities(2)
                C[0] = 0.0
            """
        findings = lint_source(tmp_path, src, select={"R5"})
        assert rules_of(findings) == ["R5"]

    def test_inplace_method_fires(self, tmp_path):
        src = """
            def clobber(view):
                U = view.u(2)
                U.fill(0.0)
            """
        findings = lint_source(tmp_path, src, select={"R5"})
        assert rules_of(findings) == ["R5"]

    def test_copy_launders(self, tmp_path):
        src = """
            def tweak(bank):
                C = bank.capacities(2).copy()
                C[0] = 0.0
                return C
            """
        assert lint_source(tmp_path, src, select={"R5"}) == []

    def test_suppression(self, tmp_path):
        src = """
            def clobber(bank):
                C = bank.capacities(2)
                C[0] = 0.0  # reprolint: disable=R5
            """
        assert lint_source(tmp_path, src, select={"R5"}) == []


class TestEngine:
    def test_syntax_error_reported_not_suppressed(self, tmp_path):
        src = "def broken(:  # reprolint: disable\n"
        (tmp_path / "bad.py").write_text(src)
        findings = run_lint([tmp_path], root=tmp_path)
        assert rules_of(findings) == ["E0"]

    def test_bare_disable_silences_all_rules(self, tmp_path):
        src = """
            import time

            def stamp(theta):
                return time.time() if theta == 0.0 else 0.0  # reprolint: disable
            """
        assert lint_source(tmp_path, src) == []

    def test_select_filters_rules(self, tmp_path):
        src = """
            import time

            def stamp(theta):
                return time.time() if theta == 0.0 else 0.0
            """
        assert rules_of(lint_source(tmp_path, src, select={"R3"})) == ["R3"]
        assert rules_of(lint_source(tmp_path, src, select={"R4"})) == ["R4"]
