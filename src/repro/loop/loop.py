"""The continuous-curation loop: queue → label → retrain → shadow → promote → swap.

One :meth:`ContinuousCurationLoop.run` plays ``config.days`` simulated
days of traffic against a live service.  Each day:

1. **serve** — a seeded open-loop workload (day-salted seed) runs through
   :func:`repro.serve.sim.simulate` on a fresh :class:`SimClock`;
2. **queue** — completed answers whose best probability falls in the
   uncertainty band enter the :class:`~repro.loop.queue.LabelQueue`
   (content-deduplicated, deterministic priority);
3. **label + retrain** — the day's labeling budget is spent by the A2
   active-learning selector (:func:`repro.er.active.uncertainty_sampling`)
   over the queue batch, with labels from the content-keyed
   :class:`~repro.loop.labeling.CrowdOracle`; a **fresh** candidate
   matcher trains on banked + new labels.  The whole step is a pure
   function of (queue batch, banked labels, day), so it runs under
   validated, retried fault site ``loop.retrain`` — queue consumption
   and label banking commit only after the call returns;
4. **shadow** — the candidate scores the day's served pairs offline; its
   answers are never served (the differential tier asserts shadow scores
   ≡ the candidate's ``predict_proba`` and that shadowing moves nothing);
5. **promote** — the deterministic rule: candidate F1 minus active F1 on
   the fixed seeded eval set ≥ ``min_f1_delta`` promotes the candidate in
   the :class:`~repro.loop.registry.ModelRegistry` (so active F1 is
   non-decreasing by construction — threshold-gated stepwise improvement);
6. **swap** — on promotion the service hot-swaps the candidate
   (:meth:`repro.serve.service.MatchService.swap_matcher`, fault site
   ``serve.swap``): score tier invalidated, embedding/column tiers kept.

Nothing reads wall clocks or ambient randomness; the whole loop is a
pure function of (service state, config), so two runs produce
byte-identical :class:`DayReport` rows and registry digests — which is
exactly what the chaos tier proves survives injected faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.er.active import uncertainty_sampling
from repro.er.deeper import DeepER
from repro.er.metrics import classification_prf
from repro.faults.retry import HOT_POLICY, retry_call
from repro.loop.labeling import CrowdOracle
from repro.loop.queue import LabelQueue, QueueEntry
from repro.loop.registry import ModelRegistry, ModelVersion
from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.serve.clock import SimClock
from repro.serve.index import BlockingIndex
from repro.serve.service import MatchAnswer
from repro.serve.sim import ServerConfig, simulate
from repro.serve.workload import WorkloadConfig, generate_workload
from repro.utils.content import digest_rows
from repro.utils.validation import check_positive_int

__all__ = [
    "ContinuousCurationLoop",
    "DayReport",
    "LoopConfig",
    "ShadowReport",
    "answers_digest",
]

# Base rng seed for fresh candidate matchers (day-offset per retrain).
_CANDIDATE_SALT = 0x10AD


def answers_digest(answers: "list[MatchAnswer]") -> str:
    """sha1 over a canonical JSON rendering of an answer sequence.

    Delegates to :func:`repro.utils.digest_rows` (floats quantized to 9
    decimals — see its docstring for why), so the loop's day digests and
    the gateway's scenario digests share one arithmetic: the same answer
    sequence yields the same sha1 whichever layer computed it.
    """
    return digest_rows([answer.to_dict() for answer in answers])


@dataclass(frozen=True)
class LoopConfig:
    """Knobs of one continuous-curation run (all deterministic)."""

    days: int = 3
    queries_per_day: int = 60
    rate: float = 300.0
    repeat_fraction: float = 0.4
    workload_seed: int = 0
    band: "tuple[float, float]" = (0.25, 0.75)
    labels_per_day: int = 12
    al_batch_size: int = 6
    epochs: int = 6
    min_f1_delta: float = 0.01
    eval_threshold: float = 0.5

    def __post_init__(self) -> None:
        for name in ("days", "queries_per_day", "labels_per_day", "al_batch_size", "epochs"):
            check_positive_int(name, getattr(self, name))
        if self.min_f1_delta < 0:
            raise ValueError(
                f"min_f1_delta must be >= 0, got {self.min_f1_delta}"
            )


@dataclass(frozen=True)
class ShadowReport:
    """One day's shadow scoring of the candidate against served traffic."""

    day: int
    pair_keys: "tuple[tuple[str, str], ...]"
    pairs: "list[tuple[dict, dict]]" = field(compare=False, hash=False)
    scores: np.ndarray = field(compare=False, hash=False)
    served: np.ndarray = field(compare=False, hash=False)

    @property
    def mean_abs_delta(self) -> float:
        """Mean |shadow − served| probability gap (0.0 with no pairs)."""
        if len(self.scores) == 0:
            return 0.0
        return float(np.mean(np.abs(self.scores - self.served)))


@dataclass(frozen=True)
class DayReport:
    """Everything one simulated day decided, in bench-row form."""

    day: int
    queries: int
    completed: int
    shed: int
    emitted: int
    queue_depth: int
    labels_total: int
    candidate_version: str | None
    candidate_f1: float | None
    active_f1: float
    promoted: bool
    active_version: str
    fingerprint: str
    answers_sha1: str
    shadow_pairs: int
    shadow_mean_abs_delta: float

    def to_dict(self) -> dict:
        return {
            "day": self.day,
            "queries": self.queries,
            "completed": self.completed,
            "shed": self.shed,
            "emitted": self.emitted,
            "queue_depth": self.queue_depth,
            "labels_total": self.labels_total,
            "candidate_version": self.candidate_version,
            "candidate_f1": self.candidate_f1,
            "active_f1": self.active_f1,
            "promoted": self.promoted,
            "active_version": self.active_version,
            "fingerprint": self.fingerprint,
            "answers_sha1": self.answers_sha1,
            "shadow_pairs": self.shadow_pairs,
            "shadow_mean_abs_delta": self.shadow_mean_abs_delta,
        }


class _BudgetedFit:
    """Adapter giving :func:`uncertainty_sampling` an epoch-capped fit.

    ``DeepER.fit`` defaults to 30 epochs; inside the loop each selector
    round refits the same candidate with the configured budget (training
    continues from the current weights, deterministically — minibatch
    order comes from the matcher's own seeded rng).
    """

    def __init__(self, matcher: DeepER, epochs: int) -> None:
        self.matcher = matcher
        self.epochs = int(epochs)

    def fit(self, labeled_pairs: list) -> "_BudgetedFit":
        self.matcher.fit(labeled_pairs, epochs=self.epochs)
        return self

    def predict_proba(self, pairs: list) -> np.ndarray:
        return self.matcher.predict_proba(pairs)


class ContinuousCurationLoop:
    """Drive a live service through days of traffic that retrain it.

    Parameters
    ----------
    service:
        A :class:`~repro.serve.service.MatchService` or
        :class:`~repro.serve.shard.ShardedMatchService` — anything with
        ``match_batch`` / ``matcher`` / ``swap_matcher`` /
        ``parameter_fingerprint``.  Its current matcher becomes ``v1``,
        promoted at day 0.
    index:
        The (global) built :class:`BlockingIndex`, used to resolve queue
        candidate ids back to reference records for training pairs.
    matcher_factory:
        ``matcher_factory(seed) -> DeepER`` building a **fresh untrained**
        candidate compatible with the service (same columns/composition).
    seed_labels:
        The labeled triples the initial matcher trained on; every
        candidate trains on these plus all banked crowd labels.
    eval_pairs / eval_labels:
        The fixed seeded eval set the promotion rule scores F1 on.
    oracle:
        A :class:`CrowdOracle` (content-keyed, idempotent labels).
    query_records:
        Record pool the daily workloads draw queries from.
    config / server:
        Loop knobs and the simulator's scheduler/cost model.
    registry:
        Optional pre-built :class:`ModelRegistry` (a fresh one otherwise).
    retrain_gate:
        Optional zero-argument callable consulted before each day's
        background retrain; returning ``False`` defers the retrain (the
        queue and banked labels are left untouched, so the work happens
        on the next open day).  The gateway's backpressure valve plugs in
        here (:meth:`repro.gateway.BackpressureValve.retrain_allowed`) to
        pause retrains while the online queue is above high water.
    """

    def __init__(
        self,
        service,
        *,
        index: BlockingIndex,
        matcher_factory: "Callable[[int], DeepER]",
        seed_labels: list,
        eval_pairs: list,
        eval_labels: np.ndarray,
        oracle: CrowdOracle,
        query_records: "list[dict[str, object]]",
        config: LoopConfig | None = None,
        server: ServerConfig | None = None,
        registry: ModelRegistry | None = None,
        retrain_gate: "Callable[[], bool] | None" = None,
    ) -> None:
        self.service = service
        self.index = index
        self.matcher_factory = matcher_factory
        self.oracle = oracle
        self.query_records = query_records
        self.config = config if config is not None else LoopConfig()
        self.server = server if server is not None else ServerConfig()
        self.retrain_gate = retrain_gate
        self.registry = registry if registry is not None else ModelRegistry()
        self.queue = LabelQueue(band=self.config.band)
        self._labels = list(seed_labels)
        self._seed_label_count = len(seed_labels)
        self.eval_pairs = list(eval_pairs)
        self.eval_labels = np.asarray(eval_labels)
        self._f1_by_fingerprint: "dict[str, float]" = {}
        self.shadow_log: "dict[int, ShadowReport]" = {}
        initial = self.registry.register(
            service.matcher, day=0, labels=len(seed_labels)
        )
        self.registry.promote(initial.version_id, day=0)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @property
    def labels_spent(self) -> int:
        """Crowd labels banked so far (seed labels excluded)."""
        return len(self._labels) - self._seed_label_count

    def evaluate_f1(self, matcher: DeepER) -> float:
        """F1 of ``matcher`` on the fixed eval set (fingerprint-cached)."""
        fingerprint = matcher.parameter_fingerprint()
        if fingerprint not in self._f1_by_fingerprint:
            probabilities = matcher.predict_proba(self.eval_pairs)
            predictions = (probabilities >= self.config.eval_threshold).astype(int)
            prf = classification_prf(self.eval_labels, predictions)
            self._f1_by_fingerprint[fingerprint] = float(prf.f1)
        return self._f1_by_fingerprint[fingerprint]

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def run(self) -> "list[DayReport]":
        """Play every configured day; returns the per-day reports."""
        return [self.run_day(day) for day in range(1, self.config.days + 1)]

    def run_day(self, day: int) -> DayReport:
        """One serve → queue → retrain → shadow → promote → swap cycle."""
        with span("loop.day", day=day) as day_span:
            queries = generate_workload(self.query_records, WorkloadConfig(
                n_queries=self.config.queries_per_day,
                rate=self.config.rate,
                repeat_fraction=self.config.repeat_fraction,
                seed=self.config.workload_seed + day,
            ))
            sim = simulate(self.service, queries, self.server, clock=SimClock())
            record_of = {query.query_id: query.record for query in queries}
            completed = sim.completed
            emitted = self.queue.ingest(
                [(record_of[result.query_id], result.answer) for result in completed],
                day=day,
            )

            candidate_version: ModelVersion | None = None
            candidate_f1: float | None = None
            promoted = False
            shadow = ShadowReport(
                day=day, pair_keys=(), pairs=[],
                scores=np.zeros(0), served=np.zeros(0),
            )
            # A closed retrain gate (gateway backpressure: online queue
            # above high water) defers the day's retrain entirely; the
            # queue snapshot survives untouched for the next open day.
            gate_open = self.retrain_gate is None or bool(self.retrain_gate())
            if not gate_open and _OBS.enabled:
                _OBS.counter("loop.retrain.deferred").inc()
            batch = self.queue.select(self.config.labels_per_day) if gate_open else []
            if batch:
                candidate, labeled = retry_call(
                    self._retrain,
                    batch,
                    day,
                    site="loop.retrain",
                    policy=HOT_POLICY,
                    validate=lambda result: (
                        isinstance(result, tuple)
                        and len(result) == 2
                        and getattr(result[0], "trained_", None) is True
                        and isinstance(result[1], list)
                        and len(result[1]) == len(self._labels) + len(batch)
                    ),
                )
                # Commit only after the retried call succeeded: a killed
                # retrain must leave queue and banked labels untouched.
                self.queue.consume(batch)
                self._labels = labeled
                if _OBS.enabled:
                    _OBS.counter("loop.labels").inc(float(len(batch)))

                shadow = self._shadow_score(candidate, completed, record_of, day)
                self.shadow_log[day] = shadow

                candidate_f1 = self.evaluate_f1(candidate)
                active_f1_before = self.evaluate_f1(self.registry.active_matcher())
                candidate_version = self.registry.register(
                    candidate, day=day, labels=len(labeled)
                )
                if (
                    candidate_version != self.registry.active
                    and candidate_f1 - active_f1_before >= self.config.min_f1_delta
                ):
                    self.registry.promote(candidate_version.version_id, day=day)
                    self.service.swap_matcher(candidate)
                    promoted = True
                    if _OBS.enabled:
                        _OBS.counter("loop.promotions").inc()

            active = self.registry.active
            report = DayReport(
                day=day,
                queries=len(sim.results),
                completed=len(completed),
                shed=len(sim.shed),
                emitted=emitted,
                queue_depth=len(self.queue),
                labels_total=self.labels_spent,
                candidate_version=(
                    candidate_version.version_id
                    if candidate_version is not None else None
                ),
                candidate_f1=(
                    round(candidate_f1, 6) if candidate_f1 is not None else None
                ),
                active_f1=round(self.evaluate_f1(self.registry.active_matcher()), 6),
                promoted=promoted,
                active_version=active.version_id,
                fingerprint=self.service.parameter_fingerprint(),
                answers_sha1=answers_digest([r.answer for r in completed]),
                shadow_pairs=len(shadow.pair_keys),
                shadow_mean_abs_delta=round(shadow.mean_abs_delta, 6),
            )
            day_span.meta.update({
                "completed": report.completed,
                "emitted": report.emitted,
                "promoted": report.promoted,
                "active_version": report.active_version,
            })
        if _OBS.enabled:
            _OBS.counter("loop.days").inc()
        return report

    # ------------------------------------------------------------------ #
    # retrain + shadow (the fault-wired steps)
    # ------------------------------------------------------------------ #

    def _retrain(
        self, batch: "list[QueueEntry]", day: int
    ) -> "tuple[DeepER, list]":
        """Select, label and train a fresh candidate (pure; retryable).

        Everything here is a function of (batch, banked labels, day):
        the candidate is freshly built per call, crowd labels are
        content-keyed, and the selector's rng is seeded by the day — so
        a replay after an injected error or corrupted return reproduces
        the identical candidate, bit for bit.
        """
        candidate = self.matcher_factory(_CANDIDATE_SALT + day)
        adapter = _BudgetedFit(candidate, epochs=self.config.epochs)
        pool = [
            (entry.record, self.index.record(entry.candidate_id))
            for entry in batch
        ]
        result = uncertainty_sampling(
            adapter,
            pool,
            oracle=lambda i: self.oracle.label(batch[i]),
            seed_labels=self._labels,
            budget=len(pool),
            batch_size=self.config.al_batch_size,
            rng=day,
        )
        return candidate, result.labeled

    def _shadow_score(
        self,
        candidate: DeepER,
        completed: list,
        record_of: "dict[int, dict[str, object]]",
        day: int,
    ) -> ShadowReport:
        """Score the candidate offline over the day's served pairs.

        The shadow answers are never served and never cached — the
        service's fingerprint and caches are untouched (the differential
        tier asserts both, plus shadow ≡ ``candidate.predict_proba``).
        """
        by_pair_key: "dict[tuple[str, str], tuple[tuple[dict, dict], float]]" = {}
        for result in completed:
            answer = result.answer
            if answer.best_id is None:
                continue
            pair_key = (answer.query_key, answer.best_id)
            if pair_key in by_pair_key:
                continue
            pair = (
                record_of[result.query_id],
                self.index.record(answer.best_id),
            )
            by_pair_key[pair_key] = (pair, float(answer.probability))
        pair_keys = tuple(by_pair_key)
        pairs = [by_pair_key[k][0] for k in pair_keys]
        served = np.array([by_pair_key[k][1] for k in pair_keys])
        scores = candidate.predict_proba(pairs) if pairs else np.zeros(0)
        return ShadowReport(
            day=day, pair_keys=pair_keys, pairs=pairs,
            scores=scores, served=served,
        )
