"""Model-independent properties of served answers on the test stack.

Byte-identity between two code paths cannot catch a feature asymmetry
or an order dependence that both share; these properties can.  They
hold for any trained matcher: identical records embed identically,
pair features are symmetric, and tokenisation ignores case, padding and
dict key order.
"""

from __future__ import annotations

import pytest

from repro.serve import MatchService


def answers(service, records):
    """Each record's answer without its query key (content-addressed)."""
    return [
        {k: v for k, v in answer.to_dict().items() if k != "query_key"}
        for answer in service.match_batch(records).answers
    ]


@pytest.fixture()
def fresh(trained_matcher, built_index):
    return lambda: MatchService(trained_matcher, built_index, jobs=1)


def test_every_reference_record_matches_itself(fresh, reference_records):
    records, ids = reference_records
    got = fresh().match_batch(records).answers
    assert [answer.best_id for answer in got] == ids


def test_pair_probability_is_symmetric(trained_matcher, reference_records, query_records):
    records, _ = reference_records
    pairs = [(q, r) for q in query_records[:12] for r in records[:12]]
    forward = trained_matcher.predict_proba(pairs)
    backward = trained_matcher.predict_proba([(b, a) for a, b in pairs])
    assert forward.tobytes() == backward.tobytes()


def test_answers_ignore_key_order_batch_order_case_and_padding(fresh, query_records):
    batch = query_records[:24]
    want = answers(fresh(), batch)
    reordered_keys = [dict(reversed(list(record.items()))) for record in batch]
    assert answers(fresh(), reordered_keys) == want
    assert answers(fresh(), batch[::-1])[::-1] == want
    shouted = [
        {k: f"  {v.upper()} \t" if isinstance(v, str) and v else v for k, v in record.items()}
        for record in batch
    ]
    assert answers(fresh(), shouted) == want
