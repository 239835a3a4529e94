"""Print every experiment's results table: ``python -m benchmarks.run_all``.

Optionally pass experiment ids (``python -m benchmarks.run_all e1 e7``) to
run a subset, and ``--profile smoke`` for the smallest configs.  This is
the EXPERIMENTS.md regeneration path; the pytest entry points in each
bench module additionally assert the expected shapes.

Each experiment also writes a machine-readable ``BENCH_<EXP>.json``
(result rows + wall time + metrics snapshot + span tree + git sha; see
``repro.obs.bench``).  After the run, every emitted file is validated with
``benchmarks.check_bench_json`` and the exit code reflects the result.

``--lint`` runs the :mod:`repro.lint` invariant checker over ``src`` and
``benchmarks`` first and refuses to start benches on a dirty tree, so a
long run never produces records from code that already violates the
stack's contracts.

``--jobs N`` forwards a process count to experiments whose
``run_experiment`` takes ``jobs`` (E2, E6, E17, E18, E19); only E2's LSH
grid was measured to gain from it (EXPERIMENTS.md, "repro.par call
sites").  By the substrate's determinism contract the emitted rows are
bit-identical for every value of N — only the wall time (and the
``jobs`` recorded in the span meta) changes.

``--chaos SEED`` runs every selected experiment under a seeded
:class:`repro.faults.FaultPlan` chaos schedule (recoverable by
construction — see :mod:`repro.faults`); by the fault-tolerance contract
the emitted rows are bit-identical to a fault-free run, and the span meta
records the seed plus what actually fired.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import time
from pathlib import Path

from benchmarks.common import PROFILES, emit_bench, format_table
from benchmarks.check_bench_json import check_files_by_path
from repro.obs.metrics import REGISTRY
from repro.obs.trace import drain_roots, span

EXPERIMENTS = {
    "e1": ("bench_e1_deeper_accuracy", "E1: DeepER vs traditional ER"),
    "e2": ("bench_e2_blocking", "E2: LSH vs traditional blocking"),
    "e3": ("bench_e3_label_efficiency", "E3: label efficiency"),
    "e4": ("bench_e4_training_time", "E4: CPU training time"),
    "e5": ("bench_e5_imputation", "E5: DAE imputation"),
    "e6": ("bench_e6_discovery", "E6: semantic discovery"),
    "e7": ("bench_e7_window", "E7: window-size pathology"),
    "e8": ("bench_e8_graph_embed", "E8: graph cell embeddings"),
    "e9": ("bench_e9_augmentation", "E9: data augmentation"),
    "e10": ("bench_e10_weak_supervision", "E10: weak supervision"),
    "e11": ("bench_e11_imbalance", "E11: label skew"),
    "e12": ("bench_e12_synthesis", "E12: program synthesis"),
    "e13": ("bench_e13_synthetic_data", "E13: VAE vs GAN synthesis"),
    "e14": ("bench_e14_outliers", "E14: outlier detection"),
    "e15": ("bench_e15_transfer", "E15: transfer learning"),
    "e16": ("bench_e16_pipeline", "E16: self-driving pipeline"),
    "e17": ("bench_e17_serving", "E17: online serving layer"),
    "e18": ("bench_e18_loop", "E18: continuous curation loop"),
    "e19": ("bench_e19_gateway", "E19: multi-tenant gateway"),
    "a1": ("bench_a1_ablations", "A1: design-choice ablations"),
    "a2": ("bench_a2_active_learning", "A2: active labelling"),
    "a3": ("bench_a3_holistic_repair", "A3: holistic vs minimal repair"),
}


def run_one(
    exp_id: str, profile: str = "full", out_dir: str = ".", jobs: int = 1,
    chaos: int | None = None,
) -> dict:
    """Run one experiment under metrics+tracing and emit its BENCH json.

    ``jobs`` is forwarded to experiments whose ``run_experiment`` accepts
    it (they fan their hot paths out through :mod:`repro.par`); other
    experiments run serially regardless.  The value is recorded in the
    experiment span's meta, so every BENCH json says how it was produced.

    ``chaos`` (a seed) activates a recoverable
    :func:`repro.faults.FaultPlan.chaos` schedule around the experiment;
    the seed and the fired-fault counts land in the span meta.
    """
    from contextlib import nullcontext

    from repro.faults import FaultPlan

    module_name, title = EXPERIMENTS[exp_id]
    module = importlib.import_module(f"benchmarks.{module_name}")

    kwargs = {"profile": profile}
    if "jobs" in inspect.signature(module.run_experiment).parameters:
        kwargs["jobs"] = jobs
    plan = FaultPlan.chaos(chaos) if chaos is not None else None

    REGISTRY.reset()
    drain_roots()
    previously_enabled = REGISTRY.enabled
    REGISTRY.enable()
    started_unix = time.time()
    start = time.perf_counter()
    try:
        with span(exp_id, title=title, profile=profile, jobs=jobs) as exp_span:
            with plan if plan is not None else nullcontext():
                rows = module.run_experiment(**kwargs)
            if plan is not None:
                exp_span.meta["chaos_seed"] = chaos
                exp_span.meta["chaos_injected"] = plan.ledger.by_kind()
    finally:
        if not previously_enabled:
            REGISTRY.disable()
    elapsed = time.perf_counter() - start
    snapshot = REGISTRY.snapshot()
    drain_roots()

    path = emit_bench(
        rows,
        exp_id,
        title=title,
        profile=profile,
        started_unix=started_unix,
        wall_time_seconds=elapsed,
        span=exp_span,
        metrics_snapshot=snapshot,
        out_dir=out_dir,
    )
    return {
        "id": exp_id,
        "title": title,
        "rows": rows,
        "seconds": elapsed,
        "path": path,
    }


def lint_preflight() -> bool:
    """Run ``repro.lint`` over src+benchmarks; True when the tree is clean.

    The run goes through the incremental cache (``.lint-cache.json`` at
    the repo root), so back-to-back ``--lint`` invocations on an
    unchanged tree skip parsing entirely; findings are byte-identical
    either way.
    """
    from repro.lint.baseline import DEFAULT_BASELINE_NAME, load_baseline
    from repro.lint.engine import DEFAULT_CACHE_NAME, lint_paths
    from repro.lint.report import render_text

    repo_root = Path(__file__).resolve().parent.parent
    baseline_path = repo_root / DEFAULT_BASELINE_NAME
    baseline = load_baseline(baseline_path) if baseline_path.is_file() else None
    result = lint_paths(
        [repo_root / "src", repo_root / "benchmarks"],
        baseline=baseline,
        root=repo_root,
        cache_path=repo_root / DEFAULT_CACHE_NAME,
    )
    if not result.ok:
        print(render_text(result))
        print("lint preflight failed: fix (or baseline, with justification) "
              "the findings above before running benches")
        return False
    print(f"lint preflight OK: {result.files_checked} file(s) clean "
          f"({result.files_reused} from cache)")
    return True


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.run_all",
        description="Run experiment benches and emit BENCH_<exp>.json files.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--profile", choices=PROFILES, default="full",
                        help="knob profile (smoke = smallest configs)")
    parser.add_argument("--out-dir", default=".",
                        help="directory for BENCH_<exp>.json files")
    parser.add_argument("--jobs", type=int, default=1,
                        help="process count forwarded to experiments that "
                             "support repro.par parallel execution "
                             "(results are bit-identical for any value)")
    parser.add_argument("--chaos", type=int, default=None, metavar="SEED",
                        help="run every experiment under a seeded, "
                             "recoverable fault-injection plan "
                             "(repro.faults.FaultPlan.chaos); emitted rows "
                             "stay bit-identical to a fault-free run")
    parser.add_argument("--lint", action="store_true",
                        help="refuse to run benches while repro.lint reports "
                             "non-baselined findings in src/ or benchmarks/")
    parser.add_argument("--list", action="store_true",
                        help="print the registered experiment table "
                             "(id, bench module, profiles) and exit 0 "
                             "without running anything")
    args = parser.parse_args(argv)

    if args.list:
        # A pure registry dump: nothing is imported or executed, so the
        # listing works even while an individual bench module is broken.
        print(format_table(
            [
                {
                    "id": exp_id,
                    "module": module_name,
                    "title": title,
                    "profiles": "/".join(PROFILES),
                }
                for exp_id, (module_name, title) in EXPERIMENTS.items()
            ],
            f"registered experiments ({len(EXPERIMENTS)})",
        ))
        return 0

    if args.lint and not lint_preflight():
        return 1
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    selected = [a.lower() for a in args.experiments] or list(EXPERIMENTS)
    unknown = [s for s in selected if s not in EXPERIMENTS]
    if unknown:
        # Refuse the whole run: a typo must not silently drop experiments
        # (and the exit code must be non-zero so scripts notice).
        print(
            f"unknown experiment ids: {unknown}; choose from {list(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2

    summary = []
    emitted = []
    for exp_id in selected:
        result = run_one(
            exp_id, profile=args.profile, out_dir=args.out_dir, jobs=args.jobs,
            chaos=args.chaos,
        )
        printable = [
            {k: v for k, v in row.items() if not str(k).startswith("_")}
            for row in result["rows"]
        ]
        print(format_table(printable, f"{result['title']}  ({result['seconds']:.1f}s)"))
        print()
        emitted.append(result["path"])
        summary.append({
            "experiment": exp_id,
            "rows": len(result["rows"]),
            "seconds": result["seconds"],
            "bench_json": result["path"].name,
        })

    print(format_table(summary, f"run_all summary (profile={args.profile})"))
    print()
    by_path = check_files_by_path([str(p) for p in emitted])
    failing = {path: problems for path, problems in by_path.items() if problems}
    if failing:
        for path, problems in failing.items():
            for problem in problems:
                print(f"INVALID: {problem}")
        print(f"{len(failing)}/{len(emitted)} emitted file(s) invalid:")
        for path, problems in failing.items():
            print(f"  {Path(path).name}: {len(problems)} problem(s)")
        return 1
    print(f"validated {len(emitted)} BENCH json file(s): all OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
