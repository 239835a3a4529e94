"""Tier-1 gate: the repo itself must lint clean against its baseline.

This is the enforcement half of the linter — any new violation of an
RL rule in ``src/`` or ``benchmarks/`` fails this test unless it is
either fixed or added to ``lint-baseline.json`` with a justification.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.baseline import DEFAULT_BASELINE_NAME, load_baseline
from repro.lint.engine import lint_paths
from repro.lint.report import render_text

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_result():
    baseline_path = REPO_ROOT / DEFAULT_BASELINE_NAME
    baseline = load_baseline(baseline_path) if baseline_path.is_file() else None
    return lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "benchmarks"],
        baseline=baseline,
        root=REPO_ROOT,
    )


def test_repo_lints_clean(repo_result):
    assert repo_result.ok, "\n" + render_text(repo_result)


def test_no_stale_baseline_entries(repo_result):
    assert repo_result.stale_baseline == [], "\n" + render_text(repo_result)


def test_baseline_entries_are_justified(repo_result):
    baseline_path = REPO_ROOT / DEFAULT_BASELINE_NAME
    if not baseline_path.is_file():
        pytest.skip("no baseline committed")
    for entry in load_baseline(baseline_path).entries:
        assert entry.justification.strip(), f"unjustified baseline entry: {entry}"
        assert not entry.justification.startswith("TODO"), (
            f"baseline entry still carries a TODO justification: {entry}"
        )


def test_lint_covers_repo_files(repo_result):
    # Sanity check that the walk actually visited the codebase; a collection
    # bug that silently checked 0 files would make the gate vacuous.
    assert repo_result.files_checked > 100


def test_shard_layer_is_clean_under_serve_contracts(repo_result):
    # The scatter-gather router (the one match_batch pipeline in
    # service.py) and the shard topology hooks (shard.py) must satisfy the
    # serving contracts with no baseline help: RL901 (read-only serving —
    # no .fit/.backward/.data mutation) and RL1104 (serve purity closure),
    # plus RL401 guards on their hot metrics calls.  Zero findings in the
    # repo-wide result could also mean the walk never saw a file, so a
    # targeted single-file run proves each is both visited and clean.
    for module in ("shard.py", "service.py"):
        findings = [
            f for f in repo_result.findings
            if f.path.endswith(f"repro/serve/{module}")
        ]
        assert findings == [], (
            f"serve/{module} must lint clean without baseline entries:\n"
            + "\n".join(f"{f.rule_id} {f.path}:{f.line} {f.message}" for f in findings)
        )
        solo = lint_paths(
            [REPO_ROOT / "src" / "repro" / "serve" / module], root=REPO_ROOT
        )
        assert solo.files_checked == 1
        assert solo.findings == []


def test_loop_package_is_clean_under_the_hot_and_fault_contracts(repo_result):
    # The continuous-curation loop package must satisfy the hot-path and
    # fault-wiring contracts with no baseline help: RL401 (guarded metrics
    # accessors) and RL801 (no fault-swallowing excepts) both name
    # /repro/loop/ in their path markers, and the whole-program pass
    # (RL1101 purity of retried sites, RL1104 serve closure — the loop
    # depends on serve, never the reverse) runs over its files.  Zero
    # findings repo-wide could also mean the walk never saw the package,
    # so a targeted run proves the files are both visited and clean.
    from repro.lint.registry import get_rule

    for rule_id in ("RL401", "RL801"):
        assert any(
            "/repro/loop/" in marker for marker in get_rule(rule_id).path_markers
        ), f"{rule_id} does not cover the loop package"
    loop_findings = [
        f for f in repo_result.findings if "repro/loop/" in f.path
    ]
    assert loop_findings == [], (
        "loop package must lint clean without baseline entries:\n"
        + "\n".join(f"{f.rule_id} {f.path}:{f.line} {f.message}" for f in loop_findings)
    )
    solo = lint_paths([REPO_ROOT / "src" / "repro" / "loop"], root=REPO_ROOT)
    assert solo.files_checked == 5
    assert solo.findings == []


def test_gate_exercises_interprocedural_rules(repo_result):
    # The RL11xx rules only bite when the project graph actually resolves
    # the repo's call edges: the baselined RL1101/RL1102 findings (run_all's
    # wall-clock stamp, ensure_rng's escape hatch) are the canaries.  If a
    # resolver regression silently dropped the graph, those findings would
    # vanish and their baseline entries would go stale — so an empty stale
    # list plus the canaries present proves the whole-program pass ran.
    baselined_rules = {f.rule_id for f in repo_result.baselined_findings}
    assert {"RL1101", "RL1102"} <= baselined_rules, (
        "interprocedural canary findings missing: the project-phase pass "
        "did not run or the call-graph resolver regressed"
    )


def test_gateway_package_is_clean_under_the_hot_and_fault_contracts(repo_result):
    # The gateway package fronts the serving stack, so the same contracts
    # bite: RL401 (guarded metrics accessors), RL801 (no fault-swallowing
    # excepts) and RL901 (read-only serving) name /repro/gateway/ in their
    # path markers, and RL1103 keeps its three fault-site strings
    # (gateway.admit / gateway.route / gateway.dispatch) coherent with the
    # declared catalog.  Zero findings repo-wide could also mean the walk
    # never saw the package, so a targeted run proves every file — the six
    # top-level modules plus the seven router modules and __init__ — is
    # both visited and clean.
    from repro.lint.registry import get_rule

    for rule_id in ("RL401", "RL801", "RL901"):
        assert any(
            "/repro/gateway/" in marker for marker in get_rule(rule_id).path_markers
        ), f"{rule_id} does not cover the gateway package"
    gateway_findings = [
        f for f in repo_result.findings if "repro/gateway/" in f.path
    ]
    assert gateway_findings == [], (
        "gateway package must lint clean without baseline entries:\n"
        + "\n".join(f"{f.rule_id} {f.path}:{f.line} {f.message}" for f in gateway_findings)
    )
    solo = lint_paths([REPO_ROOT / "src" / "repro" / "gateway"], root=REPO_ROOT)
    assert solo.files_checked == 14
    assert solo.findings == []
