"""Stateful properties of the loop's label queue and model registry.

Two ``hypothesis`` state machines, each checked against a plain model
of what it must do.

:class:`LabelQueue` takes offers (six records, three candidate ids or
none, probabilities on and off the band edges, NaN and ±inf), batch
ingests, selections with ``k`` from −2 to 8, and consumption of
selected or stale entries:

* a pair is admitted at most once, ever — consumed pairs never return;
* a pair is admitted only with a ``best_id`` and a probability inside
  the band, so NaN is never admitted;
* ``select(k)`` is pure and returns the ``max(0, k)`` pending entries
  smallest by ``(|p − 0.5|, seq)``;
* ``consume`` removes exactly the entries it is given that are pending;
* ``emitted_total`` equals pending plus consumed.

:class:`ModelRegistry` takes registrations of stub matchers (a pool of
four fingerprints, plus an unfitted one) and promotions of known and
unknown version ids:

* ids run ``v1..vn`` in registration order;
* ``register`` is idempotent by fingerprint: the first provenance stays;
* ``promote`` returns True only when the active pointer moved;
* promotions are only ever appended, and the active version is the last
  one promoted;
* replaying the same operations on a fresh registry gives the same
  ``state_digest``.
"""

from __future__ import annotations

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.loop import LabelQueue, ModelRegistry
from repro.serve.cache import content_key
from repro.serve.service import MatchAnswer

RECORDS = [{"title": f"record {i}", "year": str(2000 + i)} for i in range(6)]
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(0.0, 1.0),
)
OFFERS = st.tuples(
    st.integers(0, len(RECORDS) - 1),
    st.sampled_from(["a", "b", "c", None]),
    PROBABILITIES,
    st.integers(0, 3),
)


def make_answer(record, best_id, probability) -> MatchAnswer:
    return MatchAnswer(
        query_key=content_key(record),
        candidates=(best_id,) if best_id is not None else (),
        best_id=best_id,
        probability=probability,
        matched=probability >= 0.5,
        embedding_cached=False,
        scores_cached=0,
    )


class LabelQueueMachine(RuleBasedStateMachine):
    @initialize(band=st.sampled_from([(0.25, 0.75), (0.0, 1.0), (0.5, 0.5), (0.4, 0.6)]))
    def build(self, band):
        self.queue = LabelQueue(band=band)
        self.seen: "set[tuple[str, str]]" = set()
        self.pending: "dict[tuple[str, str], tuple[float, int]]" = {}
        self.consumed: "set[tuple[str, str]]" = set()

    def _expect_offer(self, record_index, best_id, probability) -> bool:
        low, high = self.queue.band
        key = (content_key(RECORDS[record_index]), best_id)
        if best_id is None or not low <= probability <= high or key in self.seen:
            return False
        self.seen.add(key)
        self.pending[key] = (probability, len(self.seen) - 1)
        return True

    @rule(offer=OFFERS)
    def offer(self, offer):
        record_index, best_id, probability, day = offer
        admitted = self.queue.offer(
            RECORDS[record_index], make_answer(RECORDS[record_index], best_id, probability), day=day
        )
        assert admitted == self._expect_offer(record_index, best_id, probability)

    @rule(offers=st.lists(OFFERS, max_size=6), day=st.integers(0, 3))
    def ingest(self, offers, day):
        answered = [(RECORDS[i], make_answer(RECORDS[i], best, p)) for i, best, p, _ in offers]
        expected = sum(self._expect_offer(i, best, p) for i, best, p, _ in offers)
        assert self.queue.ingest(answered, day=day) == expected

    @rule(k=st.integers(-2, 8))
    def select_is_pure_and_ordered(self, k):
        before = self.queue.pending()
        chosen = self.queue.select(k)
        assert self.queue.select(k) == chosen
        assert self.queue.pending() == before
        ranked = sorted(self.pending, key=lambda key: (abs(self.pending[key][0] - 0.5), self.pending[key][1]))
        assert [entry.pair_key for entry in chosen] == ranked[: max(0, k)]

    @rule(k=st.integers(0, 4), stale=st.booleans())
    def consume(self, k, stale):
        entries = self.queue.select(k)
        if stale:  # entries consumed earlier must be a no-op
            entries = entries + entries
        self.queue.consume(entries)
        for entry in entries:
            if entry.pair_key in self.pending:
                del self.pending[entry.pair_key]
                self.consumed.add(entry.pair_key)

    @invariant()
    def pending_matches_model(self):
        low, high = self.queue.band
        entries = self.queue.pending()
        assert [entry.pair_key for entry in entries] == sorted(self.pending, key=lambda key: self.pending[key][1])
        for entry in entries:
            assert entry.candidate_id is not None and low <= entry.probability <= high
            assert (entry.probability, entry.seq) == self.pending[entry.pair_key]
        assert len(self.queue) == len(self.pending)
        assert self.queue.emitted_total == len(self.pending) + len(self.consumed) == len(self.seen)


class StubMatcher:
    """Carries what the registry reads: ``trained_`` and a fingerprint."""

    def __init__(self, fingerprint: str, trained: bool = True) -> None:
        self.fingerprint = fingerprint
        self.trained_ = True if trained else None

    def parameter_fingerprint(self) -> str:
        return self.fingerprint


FINGERPRINTS = [f"fp{i}" for i in range(4)]


class ModelRegistryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.registry = ModelRegistry()
        self.operations: list = []
        self.versions: "list[tuple[str, str, int, int]]" = []
        self.promotions: "list[dict]" = []
        self.matchers: "dict[str, StubMatcher]" = {}

    @rule(fingerprint=st.sampled_from(FINGERPRINTS), day=st.integers(0, 5), labels=st.integers(0, 50))
    def register(self, fingerprint, day, labels):
        matcher = StubMatcher(fingerprint)
        version = self.registry.register(matcher, day=day, labels=labels)
        self.operations.append(("register", fingerprint, day, labels))
        known = [v for v in self.versions if v[1] == fingerprint]
        if known:
            assert (version.version_id, version.fingerprint, version.day, version.labels) == known[0]
            assert self.registry.get(version.version_id) is self.matchers[version.version_id]
        else:
            self.versions.append((f"v{len(self.versions) + 1}", fingerprint, day, labels))
            assert (version.version_id, version.fingerprint, version.day, version.labels) == self.versions[-1]
            self.matchers[version.version_id] = matcher
            assert self.registry.get(version.version_id) is matcher

    @rule()
    def register_unfitted_is_refused(self):
        digest = self.registry.state_digest()
        try:
            self.registry.register(StubMatcher("fp-unfitted", trained=False))
        except RuntimeError:
            pass
        else:
            raise AssertionError("an unfitted matcher was registered")
        assert self.registry.state_digest() == digest

    @rule(slot=st.integers(0, 5), day=st.integers(0, 5))
    def promote(self, slot, day):
        version_id = f"v{slot + 1}"
        before = self.registry.active
        if slot >= len(self.versions):
            digest = self.registry.state_digest()
            try:
                self.registry.promote(version_id, day=day)
            except KeyError:
                pass
            else:
                raise AssertionError(f"promoted unknown version {version_id}")
            assert self.registry.state_digest() == digest
            return
        moved = self.registry.promote(version_id, day=day)
        self.operations.append(("promote", version_id, day))
        assert moved == (before is None or before.version_id != version_id)
        if moved:
            self.promotions.append({"day": day, "version_id": version_id})

    @invariant()
    def ids_run_in_registration_order(self):
        versions = self.registry.versions
        assert [v.version_id for v in versions] == [f"v{i + 1}" for i in range(len(versions))]
        assert [(v.version_id, v.fingerprint, v.day, v.labels) for v in versions] == self.versions

    @invariant()
    def promotions_are_appended_and_set_the_active_version(self):
        assert self.registry.promotions == self.promotions
        active = self.registry.active
        expected = self.promotions[-1]["version_id"] if self.promotions else None
        assert (active.version_id if active is not None else None) == expected

    @invariant()
    def equal_operations_give_equal_digests(self):
        replay = ModelRegistry()
        for operation in self.operations:
            if operation[0] == "register":
                _, fingerprint, day, labels = operation
                replay.register(StubMatcher(fingerprint), day=day, labels=labels)
            else:
                _, version_id, day = operation
                replay.promote(version_id, day=day)
        assert replay.state_digest() == self.registry.state_digest()


SETTINGS = settings(max_examples=150, stateful_step_count=30, deadline=None)


def test_label_queue_admits_once_selects_purely_and_consumes_exactly():
    run_state_machine_as_test(LabelQueueMachine, settings=SETTINGS)


def test_model_registry_ids_promotions_and_digests():
    run_state_machine_as_test(ModelRegistryMachine, settings=SETTINGS)
