"""The discover route: semantic column matching against a reference table.

Payload contract: ``payload["table"]`` is a :class:`repro.data.table.
Table` to match against the router's reference table.  The matcher is
any object with ``match_tables(table_a, table_b, threshold, *, jobs=)``
(:class:`~repro.discovery.matcher.SyntacticMatcher` by default in the
bench — no embedding model required, fully deterministic).  ``jobs`` is
held by the router and passed explicitly at every call (the repro.par
contract makes the links jobs-independent).
"""

from __future__ import annotations

from repro.gateway.routers.base import Router, RouterOutcome
from repro.utils.validation import check_positive_int

__all__ = ["DiscoverRouter"]


class DiscoverRouter(Router):
    """Adapter over a column matcher + fixed reference table."""

    name = "discover"

    def __init__(self, matcher, reference, threshold: float = 0.5, jobs: int = 1) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        check_positive_int("jobs", jobs)
        self.matcher = matcher
        self.reference = reference
        self.threshold = float(threshold)
        self.jobs = int(jobs)

    def handle_group(self, requests: tuple) -> RouterOutcome:
        answers = []
        column_pairs = 0
        for request in requests:
            table = request.payload["table"]
            links = self.matcher.match_tables(
                self.reference, table, self.threshold, jobs=self.jobs
            )
            column_pairs += len(self.reference.columns) * len(table.columns)
            answers.append({
                "table": table.name,
                "links": [
                    {
                        "column_a": link.column_a,
                        "column_b": link.column_b,
                        "score": round(float(link.score), 9),
                    }
                    for link in links
                ],
            })
        return RouterOutcome(answers=tuple(answers), work=float(column_pairs))
