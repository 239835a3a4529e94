"""The clean route: FD repair over a payload table.

Payload contract: ``payload["table"]`` is a :class:`repro.data.table.
Table`.  Each request is repaired independently with the router's fitted
:class:`~repro.cleaning.repair.FDRepairer` (majority-vote minimal
repair — deterministic, input untouched); the answer summarizes the
repairs per cell so it is small, canonical-JSON friendly and stable.

This is also the route the E19 "retrain day" scenario schedules as
batch-class work: a re-curation day is modelled as a stream of clean
slices over the curated table, which is what the backpressure valve
holds back while the interactive queue is above high water.
"""

from __future__ import annotations

from repro.gateway.routers.base import Router, RouterOutcome

__all__ = ["CleanRouter"]


class CleanRouter(Router):
    """Adapter over a fitted (constructed) :class:`FDRepairer`."""

    name = "clean"

    def __init__(self, repairer) -> None:
        self.repairer = repairer

    def handle_group(self, requests: tuple) -> RouterOutcome:
        answers = []
        cells_examined = 0
        for request in requests:
            table = request.payload["table"]
            _, report = self.repairer.repair(table)
            cells_examined += table.num_rows * len(table.columns)
            answers.append({
                "table": table.name,
                "rows": table.num_rows,
                "columns": len(table.columns),
                "repairs": len(report),
                "repaired_cells": [list(cell) for cell in sorted(report.cells())],
            })
        return RouterOutcome(answers=tuple(answers), work=float(cells_examined))
