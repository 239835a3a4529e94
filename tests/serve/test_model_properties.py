"""Model-independent properties of served answers, on two stacks.

Byte-identity between two code paths cannot catch a feature asymmetry
or an order dependence that both share; these properties can.  They
hold for any trained matcher: identical records embed identically,
pair features are symmetric, and tokenisation ignores case, padding and
dict key order.  Each runs on the serving suite's test stack and on
E17's smoke-profile stack (:func:`benchmarks.common.served_stack`).
"""

from __future__ import annotations

import pytest

from repro.serve import MatchService

pytest.importorskip("benchmarks.common", reason="requires repo-root cwd")

from benchmarks import bench_e17_serving


def answers(matcher, index, records):
    """Each record's answer from a cold service, without its query key
    (content-addressed)."""
    service = MatchService(matcher, index, jobs=1)
    return [
        {k: v for k, v in answer.to_dict().items() if k != "query_key"}
        for answer in service.match_batch(records).answers
    ]


@pytest.fixture(scope="module", params=["test", "e17-smoke"])
def stack(request):
    """``(matcher, index, query records)`` of one stack."""
    if request.param == "test":
        return tuple(
            map(request.getfixturevalue, ("trained_matcher", "built_index", "query_records"))
        )
    served = bench_e17_serving._setup("smoke")
    return served.matcher, served.index, served.records_b


def test_every_reference_record_matches_itself(stack):
    matcher, index, _ = stack
    records = [index.record(i) for i in index.ids]
    got = MatchService(matcher, index, jobs=1).match_batch(records).answers
    assert [answer.best_id for answer in got] == index.ids


def test_pair_probability_is_symmetric(stack):
    matcher, index, queries = stack
    references = [index.record(i) for i in index.ids[:20]]
    pairs = [(q, r) for q in queries[:20] for r in references]
    forward = matcher.predict_proba(pairs)
    backward = matcher.predict_proba([(b, a) for a, b in pairs])
    assert forward.tobytes() == backward.tobytes()


def test_answers_ignore_key_order_batch_order_case_and_padding(stack):
    matcher, index, queries = stack
    batch = queries[:50]
    want = answers(matcher, index, batch)
    reordered_keys = [dict(reversed(list(record.items()))) for record in batch]
    assert answers(matcher, index, reordered_keys) == want
    assert answers(matcher, index, batch[::-1])[::-1] == want
    shouted = [
        {k: f"  {v.upper()} \t" if isinstance(v, str) and v else v for k, v in record.items()}
        for record in batch
    ]
    assert answers(matcher, index, shouted) == want
