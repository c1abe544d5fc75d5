"""sketch-flow: CFG facts, call-graph resolution, rules, CLI, driver.

The rule corpus lives in ``tests/qa_fixtures/`` next to the lint
fixtures; each file is analyzed under a *virtual* repo path so the
scope classification (shard / kernels / hot path) is exercised without
the fixtures living inside ``src/``. The suite ends with the
self-application test: the analyzer must hold over this repository's
own ``src/`` and ``tests/`` trees.
"""

import ast
from pathlib import Path

import pytest

from repro.qa.flow import analyze_paths, analyze_source, build_cfg, main
from repro.qa.flow.callgraph import Project, module_name_for
from repro.qa.flow.cfg import OBS_ENABLED_FACT
from repro.qa.flow.rules import FLOW_RULE_IDS
from repro.qa.lint import find_stale_suppressions
from repro.qa.__main__ import main as qa_main

FIXTURES = Path(__file__).parent / "qa_fixtures"
REPO = Path(__file__).resolve().parents[1]

#: rule -> (bad fixture, expected findings, good fixture, virtual path)
CASES = {
    "SK108": ("sk108_bad.py", 5, "sk108_good.py",
              "src/repro/shard/fixture.py"),
    "SK109": ("sk109_bad.py", 3, "sk109_good.py",
              "src/repro/shard/fixture.py"),
    "SK110": ("sk110_bad.py", 4, "sk110_good.py",
              "src/repro/kernels/fixture.py"),
    "SK111": ("sk111_bad.py", 5, "sk111_good.py",
              "src/repro/core/fixture.py"),
}


def load(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestRules:
    @pytest.mark.parametrize("rule", FLOW_RULE_IDS)
    def test_bad_fixture_fires_exactly_its_rule(self, rule):
        bad, expected, _, vpath = CASES[rule]
        findings = analyze_source(load(bad), vpath)
        assert {f.rule for f in findings} == {rule}
        assert len(findings) == expected

    @pytest.mark.parametrize("rule", FLOW_RULE_IDS)
    def test_good_fixture_is_silent(self, rule):
        _, _, good, vpath = CASES[rule]
        assert analyze_source(load(good), vpath) == []

    def test_findings_carry_location_and_format(self):
        findings = analyze_source(load("sk108_bad.py"),
                                  "src/repro/shard/fixture.py")
        first = findings[0]
        assert first.line > 1
        assert first.format().startswith(
            f"src/repro/shard/fixture.py:{first.line}: SK108")

    def test_fixtures_are_scope_gated(self):
        # The same source outside the rule's scope is silent: kernels
        # purity only binds under src/repro/kernels/.
        assert analyze_source(load("sk110_bad.py"),
                              "src/repro/metrics/fixture.py") == []
        # Fault-path completeness only binds in shard/, engine/ and
        # serve/.
        assert analyze_source(load("sk109_bad.py"),
                              "src/repro/core/fixture.py") == []

    def test_sk109_binds_on_the_serving_path(self):
        # serve/ is fault scope: a dropped engine fault there means a
        # frame that never gets its response.
        findings = analyze_source(load("sk109_serve_bad.py"),
                                  "src/repro/serve/fixture.py")
        assert {f.rule for f in findings} == {"SK109"}
        assert len(findings) == 3

    def test_sk109_serve_good_fixture_is_silent(self):
        assert analyze_source(load("sk109_serve_good.py"),
                              "src/repro/serve/fixture.py") == []

    def test_sk109_serve_fixture_outside_scope_is_silent(self):
        assert analyze_source(load("sk109_serve_bad.py"),
                              "src/repro/streams/fixture.py") == []


class TestCfg:
    def _cfg_of(self, source):
        tree = ast.parse(source)
        return build_cfg(tree.body[0])

    def test_obs_guard_fact_reaches_guarded_branch(self):
        cfg = self._cfg_of(
            "def f(x):\n"
            "    if _obs.ENABLED:\n"
            "        record(x)\n"
            "    return x\n"
        )
        record_call = None
        for node in ast.walk(cfg.func):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", "") == "record":
                record_call = node
        facts = cfg.facts_at(record_call)
        assert OBS_ENABLED_FACT in facts

    def test_fact_does_not_survive_merge(self):
        cfg = self._cfg_of(
            "def f(x):\n"
            "    if _obs.ENABLED:\n"
            "        x += 1\n"
            "    record(x)\n"
            "    return x\n"
        )
        record_call = None
        for node in ast.walk(cfg.func):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", "") == "record":
                record_call = node
        assert OBS_ENABLED_FACT not in cfg.facts_at(record_call)

    def test_early_return_guard_pattern(self):
        # The `if not ENABLED: return` prelude must protect the rest.
        cfg = self._cfg_of(
            "def f(x):\n"
            "    if not _obs.ENABLED:\n"
            "        return None\n"
            "    record(x)\n"
            "    return x\n"
        )
        record_call = None
        for node in ast.walk(cfg.func):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", "") == "record":
                record_call = node
        assert OBS_ENABLED_FACT in cfg.facts_at(record_call)

    def test_with_lock_context(self):
        cfg = self._cfg_of(
            "def f(self, x):\n"
            "    with self._lock:\n"
            "        touch(x)\n"
            "    free(x)\n"
        )
        calls = {}
        for node in ast.walk(cfg.func):
            if isinstance(node, ast.Call):
                calls[node.func.id] = node
        assert "self._lock" in cfg.context_of(calls["touch"])
        assert "self._lock" not in cfg.context_of(calls["free"])


class TestCallGraph:
    def test_module_name_for(self):
        assert module_name_for("src/repro/shard/workers.py") \
            == "repro.shard.workers"
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_reexport_resolution(self):
        # Classes re-exported through a package __init__ must resolve —
        # this is exactly the monitor -> obs.audit -> shadow chain.
        project = Project()
        project.add_module("src/pkg/sub/impl.py", ast.parse(
            "class Thing:\n"
            "    def act(self):\n"
            "        return 1\n"
        ))
        project.add_module("src/pkg/sub/__init__.py", ast.parse(
            "from .impl import Thing\n"
        ))
        caller_tree = ast.parse(
            "from pkg.sub import Thing\n"
            "def use():\n"
            "    thing = Thing()\n"
            "    return thing.act()\n"
        )
        project.add_module("src/pkg/caller.py", caller_tree)
        mod = project.modules["pkg.caller"]
        cls = project.resolve_class(mod, "Thing")
        assert cls is not None and cls.name == "Thing"
        use = mod.functions["use"]
        resolved = {
            project.resolve_call(use, node).key
            for node in ast.walk(use.node)
            if isinstance(node, ast.Call)
            and project.resolve_call(use, node) is not None
        }
        assert "pkg.sub.impl:Thing.act" in resolved


class TestSuppressions:
    def test_lock_ok_token_suppresses_sk108(self):
        source = load("sk108_bad.py").replace(
            "return self.sketch.insert(item)",
            "return self.sketch.insert(item)  # sketchlint: lock-ok",
        )
        findings = analyze_source(source, "src/repro/shard/fixture.py")
        assert len(findings) == len(
            analyze_source(load("sk108_bad.py"),
                           "src/repro/shard/fixture.py")) - 1


class TestStaleSuppressions:
    def test_stale_and_live_tokens_distinguished(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def ingest(items, sketch):\n"
            "    for item in items:  # sketchlint: scalar-ok\n"
            "        sketch.insert(item)\n"
            "\n"
            "def vectorised(items, sketch):  # sketchlint: scalar-ok\n"
            "    sketch.insert_many(items)\n",
            encoding="utf-8",
        )
        stale = find_stale_suppressions([tmp_path])
        assert [(line, token) for _, line, token, _ in stale] \
            == [(5, "scalar-ok")]

    def test_cli_flag(self, tmp_path, capsys):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text("X = 1  # sketchlint: fault-ok\n",
                          encoding="utf-8")
        assert qa_main(["lint", "--stale-suppressions",
                        str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "stale suppression `fault-ok`" in out


class TestCli:
    def _write(self, tmp_path, name, fixture, subdir):
        target = tmp_path / "src" / "repro" / subdir / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(load(fixture), encoding="utf-8")
        return target

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self._write(tmp_path, "mod.py", "sk109_good.py", "shard")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_and_are_printed(self, tmp_path, capsys):
        self._write(tmp_path, "mod.py", "sk109_bad.py", "shard")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SK109" in out and "finding(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n", encoding="utf-8")
        assert main([str(target)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestUnifiedDriver:
    def test_no_subcommand_prints_usage(self, capsys):
        assert qa_main([]) == 2
        assert "lint" in capsys.readouterr().err

    def test_flow_subcommand_dispatches(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "shard" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(load("sk109_bad.py"), encoding="utf-8")
        assert qa_main(["flow", str(tmp_path)]) == 1
        assert "SK109" in capsys.readouterr().out

    def test_lint_subcommand_dispatches(self, tmp_path, capsys):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text("import numpy as np\n", encoding="utf-8")
        assert qa_main(["lint", str(target)]) == 0
        assert "sketchlint" in capsys.readouterr().out

    def test_sanitize_smoke_run(self, capsys):
        assert qa_main(["sanitize"]) == 0
        out = capsys.readouterr().out
        assert "bloom: ok" in out and "clean" in out


class TestSelfApplication:
    def test_repository_is_flow_clean(self):
        assert analyze_paths([str(REPO / "src"), str(REPO / "tests")]) \
            == []

    def test_repository_has_no_stale_suppressions(self):
        assert find_stale_suppressions(
            [str(REPO / "src"), str(REPO / "tests")]) == []
