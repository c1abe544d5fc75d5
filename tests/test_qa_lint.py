"""sketch-lint: rules, suppressions, scoping, and the CLI.

The rule corpus lives in ``tests/qa_fixtures/`` (excluded from both
pytest collection and the linter's own directory walk); each fixture is
linted here under a *virtual* repo path so the scope classification is
exercised without the fixtures living inside ``src/``.
"""

from pathlib import Path

import pytest

from repro.qa.lint import lint_paths, lint_source, main
from repro.qa.rules import RULE_IDS, scope_for_path

FIXTURES = Path(__file__).parent / "qa_fixtures"
REPO = Path(__file__).resolve().parents[1]

#: A virtual path that is in-scope for every path-scoped rule family.
HOT_PATH = "src/repro/core/fixture.py"

#: rule -> (bad fixture, expected finding count, good fixture)
CASES = {
    "SK101": ("sk101_bad.py", 4, "sk101_good.py"),
    "SK102": ("sk102_bad.py", 4, "sk102_good.py"),
    "SK103": ("sk103_bad.py", 5, "sk103_good.py"),
}


def load(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestRules:
    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_bad_fixture_fires_exactly_its_rule(self, rule):
        bad, expected, _ = CASES[rule]
        findings = lint_source(load(bad), HOT_PATH)
        assert {f.rule for f in findings} == {rule}
        assert len(findings) == expected

    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_good_fixture_is_silent(self, rule):
        _, _, good = CASES[rule]
        assert lint_source(load(good), HOT_PATH) == []

    def test_findings_carry_location_and_format(self):
        findings = lint_source(load("sk101_bad.py"), HOT_PATH)
        first = findings[0]
        assert first.path == HOT_PATH
        assert first.line > 1
        assert first.format().startswith(f"{HOT_PATH}:{first.line}: SK101")


class TestScoping:
    def test_scope_classification(self):
        assert scope_for_path("src/repro/core/activeness.py").hot_path
        assert scope_for_path("src/repro/engine/batch.py").dtype_scope
        assert scope_for_path("src/repro/hashing/family.py").hot_path
        assert not scope_for_path("src/repro/hashing/family.py").dtype_scope
        assert scope_for_path("src/repro/serialize.py").clock_scope
        assert not scope_for_path("src/repro/metrics/report.py").hot_path
        # The kernel layer is hot and dtype-checked, and, like
        # clockarray.py, a legitimate home of cell mutation.
        kernels = scope_for_path("src/repro/kernels/numpy_backend.py")
        assert kernels.hot_path and kernels.dtype_scope
        assert not kernels.clock_scope

    def test_shard_modules_are_clock_scoped(self):
        # The shard router merges clock state, so SK103 (no raw cell
        # writes) must cover it — but not the vectorisation/dtype rules
        # aimed at the hot sketch paths.
        scope = scope_for_path("src/repro/shard/router.py")
        assert scope.clock_scope
        assert not scope.hot_path
        assert not scope.dtype_scope

    def test_hot_path_rules_skip_cold_modules(self):
        cold = "src/repro/workloads/fixture.py"
        assert lint_source(load("sk101_bad.py"), cold) == []
        assert lint_source(load("sk102_bad.py"), cold) == []
        assert lint_source(load("sk103_bad.py"), cold) == []

    def test_clockarray_is_exempt_from_sk103(self):
        path = "src/repro/core/clockarray.py"
        findings = lint_source(load("sk103_bad.py"), path)
        assert "SK103" not in {f.rule for f in findings}

    def test_sk103_flags_raw_merges_in_shard_modules(self):
        shard_path = "src/repro/shard/fixture.py"
        findings = lint_source(load("sk103_shard_bad.py"), shard_path)
        assert {f.rule for f in findings} == {"SK103"}
        # three raw cell writes (direct, masked, aliased) + one
        # `1 << s` width computation
        assert len(findings) == 4

    def test_sk103_shard_good_fixture_is_silent(self):
        shard_path = "src/repro/shard/fixture.py"
        assert lint_source(load("sk103_shard_good.py"), shard_path) == []


class TestSuppressions:
    def test_inline_suppression(self):
        source = (
            "def ingest(items, sketch):\n"
            "    for item in items:  # sketchlint: scalar-ok\n"
            "        sketch.insert(item)\n"
        )
        assert lint_source(source, HOT_PATH) == []

    def test_comment_above_suppression(self):
        source = (
            "def ingest(items, sketch):\n"
            "    # sketchlint: scalar-ok\n"
            "    for item in items:\n"
            "        sketch.insert(item)\n"
        )
        assert lint_source(source, HOT_PATH) == []

    def test_def_line_suppression_covers_the_body(self):
        source = (
            "def ingest(items, sketch):  # sketchlint: scalar-ok\n"
            "    for item in items:\n"
            "        sketch.insert(item)\n"
            "    for key in items:\n"
            "        sketch.insert(key)\n"
        )
        assert lint_source(source, HOT_PATH) == []

    def test_rule_id_spelled_out(self):
        source = (
            "def ingest(items, sketch):\n"
            "    for item in items:  # sketchlint: SK101\n"
            "        sketch.insert(item)\n"
        )
        assert lint_source(source, HOT_PATH) == []

    def test_wrong_token_does_not_suppress(self):
        source = (
            "def ingest(items, sketch):\n"
            "    for item in items:  # sketchlint: dtype-ok\n"
            "        sketch.insert(item)\n"
        )
        assert {f.rule for f in lint_source(source, HOT_PATH)} == {"SK101"}

    def test_suppression_does_not_leak_past_next_line(self):
        source = (
            "def ingest(items, sketch):\n"
            "    # sketchlint: scalar-ok\n"
            "    x = 1\n"
            "    del x\n"
            "    for item in items:\n"
            "        sketch.insert(item)\n"
        )
        assert {f.rule for f in lint_source(source, HOT_PATH)} == {"SK101"}


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "core" / "clean.py"
        target.parent.mkdir()
        target.write_text(load("sk101_good.py"), encoding="utf-8")
        assert main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_and_are_printed(self, tmp_path, capsys):
        target = tmp_path / "core" / "dirty.py"
        target.parent.mkdir()
        target.write_text(load("sk103_bad.py"), encoding="utf-8")
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "SK103" in out
        assert "finding(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n", encoding="utf-8")
        assert main([str(target)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_directory_walk_skips_fixture_corpus(self):
        # The deliberately-broken corpus must not pollute a tests/ lint.
        findings = lint_paths([str(REPO / "tests")])
        assert [f for f in findings if "qa_fixtures" in f.path] == []

    def test_repository_is_lint_clean(self):
        assert lint_paths([str(REPO / "src"), str(REPO / "tests")]) == []
