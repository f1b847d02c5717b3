"""Tests for ``repro.lint``: the engine, each rule, suppressions, baseline,
the CLI, and the self-hosting run over the real package tree."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    Finding,
    LintEngine,
    PackageContext,
    RULE_REGISTRY,
    Rule,
    Severity,
    Suppressions,
    default_rules,
    lint_paths,
    lint_sources,
    render_text,
)
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
TESTS_ROOT = REPO_ROOT / "tests"


def findings_for(rule_id, files, tests=None, baseline=None):
    """Run one rule over in-memory sources and return its findings."""
    report = lint_sources(
        files, tests=tests, rules=default_rules(only=[rule_id]),
        baseline=baseline,
    )
    return [f for f in report.findings if f.rule == rule_id]


def src(text):
    return textwrap.dedent(text).lstrip("\n")


# --------------------------------------------------------------------- #
# LCK001 — lock discipline
# --------------------------------------------------------------------- #
LCK_VIOLATING_CLASS = src(
    """
    import threading

    class Stats:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            return self._count
    """
)

LCK_CLEAN_CLASS = src(
    """
    import threading

    class Stats:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            with self._lock:
                return self._count
    """
)


class TestLockDiscipline:
    def test_fires_on_unlocked_read(self):
        found = findings_for("LCK001", {"pkg/stats.py": LCK_VIOLATING_CLASS})
        assert len(found) == 1
        f = found[0]
        assert "'_count'" in f.message
        assert "'peek'" in f.message
        assert f.severity is Severity.ERROR

    def test_clean_when_every_access_is_locked(self):
        assert findings_for("LCK001", {"pkg/stats.py": LCK_CLEAN_CLASS}) == []

    def test_init_is_exempt(self):
        # The __init__ assignment of _count above is unlocked and must not
        # fire; remove peek() and the class is clean.
        source = LCK_VIOLATING_CLASS.replace(
            "    def peek(self):\n        return self._count\n", ""
        )
        assert findings_for("LCK001", {"pkg/stats.py": source}) == []

    def test_unlocked_write_reports_write(self):
        source = src(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        self._count = 1

                def reset(self):
                    self._count = 0
            """
        )
        found = findings_for("LCK001", {"pkg/stats.py": source})
        assert len(found) == 1
        assert "written" in found[0].message

    def test_module_level_global_under_lock(self):
        source = src(
            """
            import threading

            _LOCK = threading.Lock()
            _REGISTRY = {}

            def put(name, value):
                with _LOCK:
                    _REGISTRY[name] = value

            def get(name):
                return _REGISTRY[name]
            """
        )
        found = findings_for("LCK001", {"pkg/registry.py": source})
        assert len(found) == 1
        assert "'_REGISTRY'" in found[0].message
        assert "'get'" in found[0].message

    def test_function_locals_are_not_module_globals(self):
        # ``entry`` is assigned under the lock but is a local in both
        # functions — rebinding a local never touches module state.
        source = src(
            """
            import threading

            _LOCK = threading.Lock()
            _REGISTRY = {}

            def put(name, value):
                with _LOCK:
                    entry = (name, value)
                    _REGISTRY[name] = entry

            def label(name):
                with _LOCK:
                    entry = _REGISTRY.get(name)
                return entry
            """
        )
        assert findings_for("LCK001", {"pkg/registry.py": source}) == []

    def test_global_declaration_is_tracked(self):
        source = src(
            """
            import threading

            _LOCK = threading.Lock()
            _CACHE = None

            def warm():
                global _CACHE
                with _LOCK:
                    _CACHE = build()

            def read():
                return _CACHE
            """
        )
        found = findings_for("LCK001", {"pkg/cache.py": source})
        assert len(found) == 1
        assert "'_CACHE'" in found[0].message


# --------------------------------------------------------------------- #
# PAR001 — batch-parity coverage
# --------------------------------------------------------------------- #
PAR_REGISTRY = src(
    """
    TOPOLOGY_BACKEND = "atgpu-topo"

    def _register():
        make_backend("atgpu", evaluate, evaluate_batch=evaluate_batch)
        make_backend("scalar-only", evaluate, evaluate_batch=None)
        make_backend(
            f"{TOPOLOGY_BACKEND}-suffix",
            evaluate,
            evaluate_batch=evaluate_batch,
        )
    """
)

PAR_PARITY_TEST = src(
    """
    def test_atgpu_batch_parity():
        assert batch("atgpu") == scalar("atgpu")  # bit-for-bit parity

    def test_topo_parity():
        assert batch("atgpu-topo-suffix") == scalar("atgpu-topo-suffix")
    """
)


class TestBatchParityCoverage:
    def test_fires_without_parity_test(self):
        found = findings_for(
            "PAR001",
            {"pkg/core/backends.py": PAR_REGISTRY},
            tests={"tests/test_other.py": "def test_nothing():\n    pass\n"},
        )
        # Both batch-capable families are uncovered; the scalar-only
        # registration is not checked.
        assert len(found) == 2
        assert any("'atgpu'" in f.message for f in found)
        assert any("'atgpu-topo-suffix'" in f.message for f in found)

    def test_clean_with_parity_tests(self):
        found = findings_for(
            "PAR001",
            {"pkg/core/backends.py": PAR_REGISTRY},
            tests={"tests/test_parity.py": PAR_PARITY_TEST},
        )
        assert found == []

    def test_family_name_without_parity_vocabulary_does_not_count(self):
        found = findings_for(
            "PAR001",
            {"pkg/core/backends.py": PAR_REGISTRY},
            tests={
                "tests/test_smoke.py": (
                    "def test_smoke():\n"
                    "    run('atgpu')\n"
                    "    run('atgpu-topo-suffix')\n"
                )
            },
        )
        assert len(found) == 2

    def test_unresolvable_name_is_a_finding(self):
        registry = src(
            """
            def _register(name):
                make_backend(name, evaluate, evaluate_batch=evaluate_batch)
            """
        )
        found = findings_for(
            "PAR001",
            {"pkg/core/backends.py": registry},
            tests={"tests/test_parity.py": PAR_PARITY_TEST},
        )
        assert len(found) == 1
        assert "<unresolved>" in found[0].message

    def test_skipped_without_test_tree(self):
        found = findings_for(
            "PAR001", {"pkg/core/backends.py": PAR_REGISTRY}, tests=None
        )
        assert found == []

    def test_real_registry_families_resolve(self):
        # Against the actual package: every batch-capable family in
        # core/backends.py must resolve to a concrete name (the rule
        # reports unresolvable ones as '<unresolved>').
        from repro.lint.rules import (
            BatchParityCoverageRule,
            _module_str_constants,
        )
        from repro.lint.engine import SourceFile

        path = PACKAGE_ROOT / "core" / "backends.py"
        parsed = SourceFile.parse(str(path), path.read_text(encoding="utf-8"))
        rule = BatchParityCoverageRule()
        families = {
            family
            for family, _ in rule._families(
                parsed.tree, _module_str_constants(parsed.tree)
            )
        }
        assert "<unresolved>" not in families
        assert {"atgpu", "atgpu-topo"} <= families


# --------------------------------------------------------------------- #
# SIM001 — batched-simulator parity coverage
# --------------------------------------------------------------------- #
SIM_BATCH_MODULE = src(
    """
    def simulate_sweep(algorithm, sizes):
        return evaluate(algorithm, sizes)

    def _helper(x):
        return x
    """
)

SIM_OPT_OUT_ALGORITHM = src(
    """
    class VectorAddition(GPUAlgorithm):
        name = "vector_addition"
        sim_trace_data_dependent = False
    """
)

SIM_PARITY_TEST = src(
    """
    def test_simulate_sweep_parity():
        assert simulate_sweep(alg, sizes) == scalar  # bit-for-bit parity

    def test_vector_addition_parity():
        assert batch("vector_addition") == scalar("vector_addition")  # parity
    """
)


class TestSimBatchParityCoverage:
    def test_fires_for_uncovered_entry_point_and_opt_out(self):
        found = findings_for(
            "SIM001",
            {
                "pkg/simulator/batch.py": SIM_BATCH_MODULE,
                "pkg/algorithms/vector_addition.py": SIM_OPT_OUT_ALGORITHM,
            },
            tests={"tests/test_other.py": "def test_nothing():\n    pass\n"},
        )
        assert len(found) == 2
        assert any("'simulate_sweep'" in f.message for f in found)
        assert any("'vector_addition'" in f.message for f in found)

    def test_clean_with_parity_tests(self):
        found = findings_for(
            "SIM001",
            {
                "pkg/simulator/batch.py": SIM_BATCH_MODULE,
                "pkg/algorithms/vector_addition.py": SIM_OPT_OUT_ALGORITHM,
            },
            tests={"tests/test_sim_batch.py": SIM_PARITY_TEST},
        )
        assert found == []

    def test_name_without_parity_vocabulary_does_not_count(self):
        found = findings_for(
            "SIM001",
            {"pkg/simulator/batch.py": SIM_BATCH_MODULE},
            tests={
                "tests/test_smoke.py": (
                    "def test_smoke():\n    simulate_sweep(alg, [1])\n"
                )
            },
        )
        assert len(found) == 1

    def test_skipped_without_test_tree(self):
        found = findings_for(
            "SIM001",
            {"pkg/simulator/batch.py": SIM_BATCH_MODULE},
            tests=None,
        )
        assert found == []

    SIM_CLASS_KERNEL_MODULE = src(
        """
        class VectorAdditionKernel(KernelProgram):
            def representative_blocks(self):
                return [(0, self.grid_size())]

        class VectorAddition(GPUAlgorithm):
            name = "vector_addition"
            sim_trace_data_dependent = False
        """
    )

    def test_class_override_needs_a_class_parity_test(self):
        found = findings_for(
            "SIM001",
            {"pkg/algorithms/vector_addition.py": self.SIM_CLASS_KERNEL_MODULE},
            tests={"tests/test_sim_batch.py": SIM_PARITY_TEST},
        )
        assert len(found) == 1
        assert "'VectorAdditionKernel'" in found[0].message
        assert found[0].line == 2

    def test_class_override_named_with_execute_all_is_clean(self):
        found = findings_for(
            "SIM001",
            {"pkg/algorithms/vector_addition.py": self.SIM_CLASS_KERNEL_MODULE},
            tests={
                "tests/test_sim_batch.py": SIM_PARITY_TEST,
                "tests/test_sim_blocks.py": (
                    "KERNELS = {'VectorAdditionKernel'}\n"
                    "def test_classes():\n"
                    "    assert classes() == engine.execute_all(kernel)\n"
                ),
            },
        )
        assert found == []

    def test_class_override_in_data_dependent_module_is_not_checked(self):
        module = self.SIM_CLASS_KERNEL_MODULE.replace("False", "True")
        found = findings_for(
            "SIM001",
            {"pkg/algorithms/vector_addition.py": module},
            tests={"tests/test_other.py": "def test_nothing():\n    pass\n"},
        )
        assert found == []

    def test_data_dependent_true_is_not_checked(self):
        algorithm = src(
            """
            class Histogram(GPUAlgorithm):
                name = "histogram"
                sim_trace_data_dependent = True
            """
        )
        found = findings_for(
            "SIM001",
            {"pkg/algorithms/histogram.py": algorithm},
            tests={"tests/test_other.py": "def test_nothing():\n    pass\n"},
        )
        assert found == []


# --------------------------------------------------------------------- #
# FRZ001 — frozen-type mutation
# --------------------------------------------------------------------- #
FRZ_VIOLATING = src(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Spec:
        size: int

    def grow(self):
        object.__setattr__(self, "size", self.size + 1)

    @dataclass(frozen=True)
    class Bad:
        size: int

        def grow(self):
            object.__setattr__(self, "size", self.size + 1)
    """
)

FRZ_CLEAN = src(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Spec:
        size: int

        def __post_init__(self):
            object.__setattr__(self, "size", int(self.size))

    @dataclass
    class Mutable:
        size: int

        def grow(self):
            object.__setattr__(self, "size", self.size + 1)
    """
)


class TestFrozenMutation:
    def test_fires_on_method_mutation(self):
        found = findings_for("FRZ001", {"pkg/spec.py": FRZ_VIOLATING})
        # Only the method inside the frozen class fires; the module-level
        # function is outside any frozen class.
        assert len(found) == 1
        assert "'Bad'" in found[0].message
        assert "'grow'" in found[0].message

    def test_post_init_and_unfrozen_are_clean(self):
        assert findings_for("FRZ001", {"pkg/spec.py": FRZ_CLEAN}) == []


# --------------------------------------------------------------------- #
# CEIL001 — ceil discipline
# --------------------------------------------------------------------- #
CEIL_VIOLATING = src(
    """
    import math

    def blocks(n, b):
        return math.ceil(n / b)

    def blocks_int(n, b):
        return -(-n // b)
    """
)

CEIL_CLEAN = src(
    """
    import math
    from repro.utils.numerics import ceil_div

    def blocks(n, b):
        return ceil_div(n, b)

    def depth(n):
        return math.ceil(math.log2(n))
    """
)


class TestCeilDiscipline:
    def test_fires_on_both_idioms_in_scope(self):
        found = findings_for("CEIL001", {"pkg/core/grid.py": CEIL_VIOLATING})
        assert len(found) == 2
        messages = " ".join(f.message for f in found)
        assert "math.ceil over /" in messages
        assert "-(-a // b)" in messages

    def test_out_of_scope_file_is_ignored(self):
        found = findings_for("CEIL001", {"pkg/models/pem.py": CEIL_VIOLATING})
        assert found == []

    def test_clean_idioms_pass(self):
        assert findings_for("CEIL001", {"pkg/core/grid.py": CEIL_CLEAN}) == []

    def test_helper_module_is_exempt(self):
        found = findings_for(
            "CEIL001", {"pkg/core/utils/numerics.py": CEIL_VIOLATING}
        )
        assert found == []


# --------------------------------------------------------------------- #
# DIC001 — from_dict coverage
# --------------------------------------------------------------------- #
DIC_VIOLATING = src(
    """
    class Config:
        @classmethod
        def from_dict(cls, data):
            return cls(**data)
    """
)

DIC_CLEAN = src(
    """
    from repro.utils.validation import reject_unknown_fields

    class Config:
        @classmethod
        def from_dict(cls, data):
            reject_unknown_fields("Config", data, ("size",))
            return cls(**data)

    class Raiser:
        @classmethod
        def from_dict(cls, data):
            if set(data) - {"size"}:
                raise UnknownFieldError("Raiser", set(data), {"size"})
            return cls(**data)
    """
)


class TestFromDictCoverage:
    def test_fires_on_silent_from_dict(self):
        found = findings_for("DIC001", {"pkg/config.py": DIC_VIOLATING})
        assert len(found) == 1
        assert "unknown keys" in found[0].message

    def test_clean_with_rejection(self):
        assert findings_for("DIC001", {"pkg/config.py": DIC_CLEAN}) == []


# --------------------------------------------------------------------- #
# Suppressions and baseline
# --------------------------------------------------------------------- #
class TestSuppressions:
    def test_same_line_suppression(self):
        source = DIC_VIOLATING.replace(
            "    def from_dict(cls, data):",
            "    def from_dict(cls, data):"
            "  # repro-lint: disable=DIC001 -- trusted input",
        )
        found = findings_for("DIC001", {"pkg/config.py": source})
        assert len(found) == 1
        assert found[0].suppressed
        assert found[0].suppression_reason == "trusted input"
        assert not found[0].active

    def test_preceding_line_suppression(self):
        source = DIC_VIOLATING.replace(
            "    @classmethod",
            "    @classmethod\n"
            "    # repro-lint: disable=DIC001 -- trusted input",
        )
        # The comment lands directly above the def line the finding
        # anchors to.
        found = findings_for("DIC001", {"pkg/config.py": source})
        assert len(found) == 1
        assert found[0].suppressed

    def test_file_wide_and_wildcard(self):
        source = "# repro-lint: disable-file=* -- generated\n" + DIC_VIOLATING
        found = findings_for("DIC001", {"pkg/config.py": source})
        assert len(found) == 1
        assert found[0].suppressed
        assert found[0].suppression_reason == "generated"

    def test_unrelated_rule_not_suppressed(self):
        source = DIC_VIOLATING.replace(
            "    def from_dict(cls, data):",
            "    def from_dict(cls, data):"
            "  # repro-lint: disable=CEIL001 -- wrong rule",
        )
        found = findings_for("DIC001", {"pkg/config.py": source})
        assert len(found) == 1
        assert not found[0].suppressed
        assert found[0].active

    def test_scan_parses_rules_and_reasons(self):
        table = Suppressions.scan(
            "x = 1  # repro-lint: disable=AAA001,BBB002 -- two at once\n"
        )
        assert table.lookup("AAA001", 1) == "two at once"
        assert table.lookup("BBB002", 1) == "two at once"
        assert table.lookup("CCC003", 1) is None


class TestBaseline:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        report = lint_sources(
            {"pkg/config.py": DIC_VIOLATING},
            rules=default_rules(only=["DIC001"]),
        )
        assert not report.ok
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            Baseline.from_findings(report.findings).to_json(),
            encoding="utf-8",
        )
        rerun = lint_sources(
            {"pkg/config.py": DIC_VIOLATING},
            rules=default_rules(only=["DIC001"]),
            baseline=Baseline.load(baseline_file),
        )
        assert rerun.ok
        assert all(f.baselined for f in rerun.findings)

    def test_new_findings_still_fail(self):
        baseline = Baseline.from_findings([
            Finding(rule="DIC001", path="pkg/other.py", line=3, message="x")
        ])
        report = lint_sources(
            {"pkg/config.py": DIC_VIOLATING},
            rules=default_rules(only=["DIC001"]),
            baseline=baseline,
        )
        assert not report.ok


# --------------------------------------------------------------------- #
# Engine plumbing
# --------------------------------------------------------------------- #
class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        report = lint_sources({"pkg/broken.py": "def f(:\n"})
        assert len(report.findings) == 1
        assert report.findings[0].rule == "PARSE"
        assert not report.ok

    def test_registry_has_all_core_rules(self):
        assert {
            "LCK001", "PAR001", "FRZ001", "CEIL001", "DIC001", "SIM001"
        } <= set(RULE_REGISTRY)

    def test_unknown_rule_name_raises(self):
        with pytest.raises(KeyError):
            default_rules(only=["NOPE999"])

    def test_duplicate_rule_ids_rejected(self):
        rules = default_rules(only=["DIC001", "DIC001"])
        with pytest.raises(ValueError):
            LintEngine(rules=rules)

    def test_custom_rule_registration(self):
        class NoTodoRule(Rule):
            id = "TMP999"
            title = "temporary test rule"

            def check(self, ctx):
                for source in self.targets(ctx):
                    for lineno, line in enumerate(
                        source.source.splitlines(), start=1
                    ):
                        if "TODO" in line:
                            yield self.finding(source, lineno, "todo found")

        report = lint_sources(
            {"pkg/x.py": "# TODO: later\n"}, rules=[NoTodoRule()]
        )
        assert [f.rule for f in report.findings] == ["TMP999"]

    def test_render_text_mentions_suppression(self):
        report = lint_sources(
            {
                "pkg/config.py": DIC_VIOLATING.replace(
                    "    def from_dict(cls, data):",
                    "    def from_dict(cls, data):"
                    "  # repro-lint: disable=DIC001 -- trusted",
                )
            },
            rules=default_rules(only=["DIC001"]),
        )
        lines = render_text(report.findings)
        assert any("suppressed: trusted" in line for line in lines)

    def test_report_to_dict_round_trips_via_json(self):
        report = lint_sources(
            {"pkg/config.py": DIC_VIOLATING},
            rules=default_rules(only=["DIC001"]),
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["summary"]["active"] == 1
        assert payload["findings"][0]["rule"] == "DIC001"


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCli:
    def write_pkg(self, tmp_path, source=DIC_VIOLATING):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "config.py").write_text(source, encoding="utf-8")
        return pkg

    def test_exit_one_on_findings_and_json_output(self, tmp_path, capsys):
        pkg = self.write_pkg(tmp_path)
        out_file = tmp_path / "findings.json"
        code = lint_main([
            str(pkg), "--format", "json", "--rules", "DIC001",
            "--tests", str(tmp_path / "no-tests"),
            "--out", str(out_file),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 1
        assert json.loads(out_file.read_text(encoding="utf-8")) == payload

    def test_exit_zero_on_clean_tree(self, tmp_path):
        pkg = self.write_pkg(tmp_path, source=DIC_CLEAN)
        assert lint_main([str(pkg), "--rules", "DIC001"]) == 0

    def test_exit_two_on_missing_path(self, tmp_path):
        assert lint_main([str(tmp_path / "nowhere")]) == 2

    def test_exit_two_on_unknown_rule(self, tmp_path):
        assert lint_main([str(tmp_path), "--rules", "NOPE999"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("LCK001", "PAR001", "FRZ001", "CEIL001", "DIC001",
                        "SIM001"):
            assert rule_id in out

    def test_module_entry_point(self, tmp_path):
        pkg = self.write_pkg(tmp_path, source=DIC_CLEAN)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(pkg),
             "--rules", "DIC001"],
            capture_output=True, text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        )
        assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------- #
# Self-hosting: the real package must be clean
# --------------------------------------------------------------------- #
class TestSelfHosting:
    def test_package_tree_has_no_active_findings(self):
        report = lint_paths([PACKAGE_ROOT], tests_root=TESTS_ROOT)
        assert report.checked_files > 50
        active = report.active
        assert active == [], "\n".join(render_text(active))

    def test_every_rule_ran(self):
        report = lint_paths([PACKAGE_ROOT], tests_root=TESTS_ROOT)
        assert {
            "LCK001", "PAR001", "FRZ001", "CEIL001", "DIC001", "SIM001"
        } <= set(report.rules)

    def test_known_suppressions_carry_reasons(self):
        report = lint_paths([PACKAGE_ROOT], tests_root=TESTS_ROOT)
        suppressed = [f for f in report.findings if f.suppressed]
        assert suppressed, "expected the documented FRZ001 memo suppressions"
        assert all(f.suppression_reason for f in suppressed)
