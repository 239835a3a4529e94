"""Gateway traffic: stream validation and the shared arrival drawer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.gateway import RequestStream, generate_requests
from repro.serve.workload import draw_arrivals


def stream(**overrides) -> RequestStream:
    fields = {"tenant": "t", "route": "match", "n_requests": 4, "rate": 10.0}
    return RequestStream(**{**fields, **overrides})


class TestNaNStreamFields:
    def test_nan_rate_is_rejected(self):
        with pytest.raises(ValueError, match=r"rate must be > 0, got nan"):
            stream(rate=math.nan)

    def test_nan_start_is_rejected(self):
        with pytest.raises(ValueError, match=r"start must be >= 0, got nan"):
            stream(start=math.nan)

    def test_nan_deadline_is_rejected(self):
        with pytest.raises(ValueError, match=r"deadline must be > 0, got nan"):
            stream(deadline=math.nan)

    def test_nan_phase_is_rejected(self):
        with pytest.raises(ValueError, match=r"phases need positive"):
            stream(phases=((0.5, math.nan),))

    def test_n_requests_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"n_requests must be an integer, got nan"):
            stream(n_requests=math.nan)
        with pytest.raises(ValueError, match=r"n_requests must be an integer, got 2.5"):
            stream(n_requests=2.5)
        with pytest.raises(ValueError, match=r"n_requests must be >= 1, got 0"):
            stream(n_requests=0)


class TestSharedDrawer:
    def test_flat_stream_arrivals_are_running_sums_of_exponential_gaps(self):
        # The serving workload's np.cumsum and the drawer's sequential
        # adds from 0.0 agree bit for bit.
        gaps = np.random.default_rng(7).exponential(0.1, size=50)
        drawn = draw_arrivals(np.random.default_rng(7), 50, 10.0)
        assert drawn == [float(t) for t in np.cumsum(gaps)]

    def test_requests_carry_stream_fields_in_arrival_order(self):
        requests = generate_requests(
            [stream(deadline=0.5, payloads=({"x": 1}, {"x": 2})), stream(tenant="u")], seed=3
        )
        assert [r.request_id for r in requests] == list(range(8))
        assert [r.arrival for r in requests] == sorted(r.arrival for r in requests)
        for request in requests:
            if request.tenant == "t":
                assert request.payload in ({"x": 1}, {"x": 2})
                assert request.deadline == request.arrival + 0.5
            else:
                assert request.payload == {} and request.deadline == math.inf
