"""Measured wall-clock benchmark of the serving stack.

Usage, from the repository root::

    python3 wallbench/run.py --workload bulk --seed 0 --seconds 30 --trace 0

``--workload`` is ``interactive``, ``bulk``, ``gateway`` or ``all`` (each
workload in a fresh process, one after another).  ``--trace 0`` reports
the end-to-end metrics of an untraced closed-loop run; ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans under
``.wallbench_out/``.  Every printed time is measured wall clock.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any answer check fails.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("interactive", "bulk", "gateway")
DEFAULT_SEED = 0
# Serving set-ups per end-to-end run; setup_s takes their median.
SETUP_REPEATS = 3
# Timed calls an end-to-end run makes at least, so a run's p99 rests on
# at least 1,000 calls (a gateway window holds dozens of router calls).
MIN_CALLS = {"interactive": 1000, "bulk": 1000, "gateway": 1}
# Share of --seconds the first traced pass runs for; the untraced and the
# second traced pass then replay exactly as many units.
TRACE_SHARE = 0.3
# Set to 1 before numpy is imported: one BLAS thread, as the stack serves
# with jobs=1.  On a shared 2-vCPU Xeon VM a second BLAS thread waits for
# a CPU other tenants hold, and the wait lands in single calls: with two
# threads 4 % of bulk calls stalled by more than 5 ms (p99 49 ms), with
# one 0.5 % (p99 31 ms) at the same median.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Answer digests of the default seed (the first answers of each run).
PINNED_DIGESTS = {
    "interactive": "42d59ff7300792e4039f764ad610a749e84721ba",
    "bulk": "db9ef740a5e55ccfaf4bbfe2d55f421f033e6e57",
    "gateway": "1eb1f279883104fa026479a612966833f00698f9",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process; non-zero if any fails."""
    status = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or completed.returncode
    return status


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    import numpy as np

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "clock": "measured wall clock (time.perf_counter)",
    }


def announce(name: str, seed: int, trace: int) -> None:
    """First line of output: what runs, on which host and commit."""
    print(json.dumps({"workload": name, "seed": seed, "trace": trace, "host": host_record()}))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_answers(workload, stack, log) -> "tuple[int, list[str]]":
    """Run the oracles; returns (mismatched answers, problems)."""
    from wallbench import inputs, oracle

    matchers = {m.parameter_fingerprint(): m for m in stack.matchers}
    checked, mismatches = oracle.check_matches(log, matchers, stack.index)
    print(f"oracle: rescored {checked} sampled distinct match answers, {mismatches} mismatched")
    problems = []
    if workload.name == "gateway":
        tables, table_mismatches = oracle.check_tables(log, inputs.discover_reference())
        print(f"oracle: recomputed {tables} distinct clean/discover answers, {table_mismatches} mismatched")
        mismatches += table_mismatches
    if log.inconsistent:
        problems.append(f"{log.inconsistent} repeated queries changed answer")
    digest = log.digest()
    pinned = PINNED_DIGESTS[workload.name]
    print(f"answers digest ({len(log.prefix)} first answers): {digest}")
    if workload.seed == DEFAULT_SEED and pinned is not None and digest != pinned:
        problems.append(f"answers digest {digest} != pinned {pinned}")
    if mismatches:
        problems.append(f"{mismatches} answers disagree with the oracle")
    return mismatches + log.inconsistent, problems


def emit(name: str, values: dict, units: dict, samples: dict, attempted: int, failed: int, problems) -> int:
    for metric, value in values.items():
        suffix = f" ({samples[metric]})" if metric in samples else ""
        print(f"[measured wall clock] {name} {metric} = {value:.6g} {units[metric]}{suffix}")
    print(f"{name} failed_share = {failed / max(attempted, 1):.6g} ({failed} of {attempted} requests)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }))
    return 0 if correct else 1


def measure(name: str, seed: int, seconds: float) -> int:
    """Untraced run: set up, then drive for ``seconds``.

    set-up time is the imports plus the word vectors, trained once, plus
    the median of SETUP_REPEATS builds of everything serving adds on top
    (matchers, index, services, warm-up): the part a serving change could
    move work into.
    """
    from repro.obs.metrics import REGISTRY
    from wallbench import report
    from wallbench.stack import build_stack, train_words
    from wallbench.workloads import drive, make_workload

    imports_s = time.perf_counter() - PROCESS_START
    announce(name, seed, trace=0)
    if REGISTRY.enabled:
        raise RuntimeError("the metrics registry must be disabled for end-to-end runs")
    words = train_words()
    builds = []
    stack = workload = state = None
    for _ in range(SETUP_REPEATS):
        stack = workload = state = None
        gc.collect()
        start = time.perf_counter()
        stack = build_stack(words, 2 if name == "gateway" else 1)
        workload = make_workload(name, stack, seed)
        state = workload.fresh()
        builds.append(time.perf_counter() - start)
    setup_s = imports_s + words.seconds + statistics.median(builds)
    # The set-up heap is static from here on; freezing it keeps full
    # collections from rescanning it inside timed calls.
    gc.freeze()
    result = drive(workload, state, seconds=seconds, min_units=MIN_CALLS[name])
    if REGISTRY.enabled:
        raise RuntimeError("the metrics registry was enabled during an end-to-end run")
    values = report.end_to_end(result, setup_s, peak_rss_mb())
    print(f"{name}: {result.units} calls, {result.requests} requests, {result.wall:.3f} s in calls")
    mismatched, problems = check_answers(workload, stack, result.log)
    attempted = result.requests + result.failed + result.shed
    failed = result.failed + result.shed + mismatched
    samples = {
        "throughput_rps": f"{result.requests} requests over {result.wall:.3f} s of calls",
        "latency_p50_ms": f"{len(result.samples)} samples",
        "latency_p99_ms": f"median of {len(result.block_p99)} blocks' p99, {len(result.samples)} samples",
        "setup_s": f"word vectors {words.seconds:.3f} s once, median of serving set-ups {', '.join(f'{b:.3f}' for b in builds)} s",
    }
    return emit(name, values, report.END_TO_END, samples, attempted, failed, problems)


def trace(name: str, seed: int, seconds: float) -> int:
    """Traced run: per-layer metrics, checked against an untraced replay."""
    from repro.obs.metrics import REGISTRY
    from wallbench import report
    from wallbench.stack import build_stack, train_words
    from wallbench.tracing import Tracer
    from wallbench.workloads import drive, make_workload

    announce(name, seed, trace=1)
    stack = build_stack(train_words(), 2 if name == "gateway" else 1)
    workload = make_workload(name, stack, seed)
    start = time.perf_counter()
    state = workload.fresh()
    phases = {**stack.phases, "services": time.perf_counter() - start}
    gc.freeze()

    tracer = Tracer()
    workload.instrument(tracer, state)
    traced = drive(workload, state, seconds=seconds * TRACE_SHARE, tracer=tracer)
    tracer.restore()
    profile = tracer.profile()
    store_bytes = workload.store_bytes(state)

    plain = drive(workload, workload.fresh(), units=traced.units)

    # A second traced pass with the program's guarded counters on: its
    # counts must equal the first pass's, since only the speed may differ.
    recount = Tracer()
    state = workload.fresh()
    workload.instrument(recount, state)
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        again = drive(workload, state, units=traced.units, tracer=recount)
    finally:
        REGISTRY.disable()
        recount.restore()
    counters = REGISTRY.snapshot()["counters"]

    problems = []
    if profile.overfull:
        problems.append(f"{profile.overfull} spans have children longer than themselves")
    if not traced.counts() == plain.counts() == again.counts():
        problems.append(f"counts moved between passes: {traced.counts()} / {plain.counts()} / {again.counts()}")
    if counters.get("serve.scored_pairs", 0.0) != again.scored_pairs:
        problems.append("serve.scored_pairs counter disagrees with the batch reports")
    if not traced.log.digest() == plain.log.digest() == again.log.digest():
        problems.append("answers differ between traced and untraced passes")
    tracer.write(ROOT / ".wallbench_out" / f"trace-{name}-seed{seed}.txt.gz")

    overhead = traced.wall / plain.wall - 1.0 if plain.wall else 0.0
    values = report.per_layer(
        traced, profile, tracer.notes, counters, phases,
        store_bytes=store_bytes, trace_overhead=overhead,
    )
    print(f"{name}: traced {traced.units} units, {traced.requests} requests, {len(tracer.spans)} spans")
    mismatched, oracle_problems = check_answers(workload, stack, traced.log)
    problems += oracle_problems
    attempted = traced.requests + traced.failed + traced.shed
    failed = traced.failed + traced.shed + mismatched
    return emit(name, values, report.PER_LAYER, {}, attempted, failed, problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.trace:
        return trace(args.workload, args.seed, args.seconds)
    return measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
