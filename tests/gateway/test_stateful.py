"""Stateful properties of the gateway's fairness and admission state.

Two ``hypothesis`` state machines, each checked against a plain model
of what it must do.

:class:`DeficitRoundRobin` takes interleaved enqueues (three tenants,
two routes, mixed ``cost_units``) and ``next_group`` calls with
``max_batch`` 1–4, and is drained at the end:

* every enqueued request is dispatched exactly once, and each tenant's
  requests leave in FIFO order;
* a group holds one tenant and one route, and at most ``max_batch``
  requests;
* deficits are never negative, and a tenant with an empty queue holds
  none;
* ``next_group`` returns ``None`` only when nothing is pending;
* a backlogged tenant *t* waits at most ``visits(t) × (tenants − 1)``
  groups of other tenants, where ``visits(t) = max(1, ⌈largest
  cost_units / (quantum × weight(t))⌉)``.  The rotation visits every
  other backlogged tenant at most once between two visits to *t*, each
  visit dispatches at most one group, and each visit to *t* adds
  ``quantum × weight(t)`` to its deficit until its head is affordable.

Quanta, weights and costs are small dyadic values, so deficit sums are
exact and the bound needs no slack.

:class:`TokenBucket` takes arrivals and previews at non-decreasing
times:

* ``preview`` is pure: it returns the same decision twice and moves no
  state;
* ``0 <= tokens_after <= burst``;
* from any admission on, admissions never exceed ``burst + rate ×
  elapsed``.
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

from repro.gateway import DeficitRoundRobin, GatewayRequest, TokenBucket

TENANTS = ("a", "b", "c")
ROUTES = ("match", "clean")
COSTS = (0.25, 0.5, 1.0, 2.0, 4.0)


class DrrMachine(RuleBasedStateMachine):
    """A DRR scheduler beside per-tenant FIFO lists of request ids."""

    @initialize(
        quantum=st.sampled_from((0.5, 1.0, 4.0)),
        weights=st.dictionaries(
            st.sampled_from(TENANTS), st.sampled_from((0.5, 1.0, 2.0, 3.0))
        ),
    )
    def build(self, quantum, weights):
        self.drr = DeficitRoundRobin(quantum=quantum, weights=weights)
        self.queues = {tenant: [] for tenant in TENANTS}
        self.enqueued = 0
        self.dispatched: list[int] = []
        self.largest_cost = 0.0
        # Groups of other tenants since each backlogged tenant last
        # dispatched or became backlogged.
        self.waited = dict.fromkeys(TENANTS, 0)

    def bound(self, tenant: str) -> int:
        share = self.drr.quantum * self.drr.weight(tenant)
        return max(1, math.ceil(self.largest_cost / share)) * (len(TENANTS) - 1)

    @rule(
        tenant=st.sampled_from(TENANTS),
        route=st.sampled_from(ROUTES),
        cost=st.sampled_from(COSTS),
    )
    def enqueue(self, tenant, route, cost):
        if not self.queues[tenant]:
            self.waited[tenant] = 0
        self.drr.enqueue(GatewayRequest(
            request_id=self.enqueued, tenant=tenant, route=route, cost_units=cost,
        ))
        self.queues[tenant].append(self.enqueued)
        self.enqueued += 1
        self.largest_cost = max(self.largest_cost, cost)

    @rule(max_batch=st.integers(1, 4))
    def dispatch(self, max_batch):
        group = self.drr.next_group(max_batch)
        if not any(self.queues.values()):
            assert group is None
            return
        assert group is not None
        ids = [request.request_id for request in group.requests]
        assert len(ids) <= max_batch
        assert {request.tenant for request in group.requests} == {group.tenant}
        assert {request.route for request in group.requests} == {group.route}
        queue = self.queues[group.tenant]
        assert ids == queue[:len(ids)]
        del queue[:len(ids)]
        self.dispatched += ids
        for tenant in TENANTS:
            if tenant != group.tenant and self.queues[tenant]:
                self.waited[tenant] += 1
        self.waited[group.tenant] = 0

    @invariant()
    def pending_matches_the_model(self):
        assert self.drr.pending_by_tenant() == {
            tenant: len(queue) for tenant, queue in self.queues.items() if queue
        }
        assert self.drr.pending == sum(map(len, self.queues.values()))

    @invariant()
    def deficits_are_never_negative_and_idle_tenants_hold_none(self):
        for tenant, deficit in self.drr._deficits.items():
            assert deficit >= 0.0
            if not self.queues[tenant]:
                assert deficit == 0.0

    @invariant()
    def backlogged_tenants_wait_a_bounded_number_of_groups(self):
        for tenant in TENANTS:
            if self.queues[tenant]:
                assert self.waited[tenant] <= self.bound(tenant)

    def teardown(self):
        for _ in range(self.enqueued):
            if not any(self.queues.values()):
                break
            self.dispatch(max_batch=4)
            self.deficits_are_never_negative_and_idle_tenants_hold_none()
            self.backlogged_tenants_wait_a_bounded_number_of_groups()
        assert self.drr.next_group(1) is None
        assert sorted(self.dispatched) == list(range(self.enqueued))


def test_drr_dispatches_fairly_and_exactly_once():
    run_state_machine_as_test(
        DrrMachine,
        settings=settings(max_examples=300, stateful_step_count=50, deadline=None),
    )


class BucketMachine(RuleBasedStateMachine):
    """A token bucket driven at non-decreasing times."""

    @initialize(
        rate=st.sampled_from((0.5, 1.0, 2.5, 10.0)), burst=st.integers(1, 5)
    )
    def build(self, rate, burst):
        self.bucket = TokenBucket(rate, burst)
        self.now = 0.0
        self.admitted_at: list[float] = []

    def state(self):
        return self.bucket._tokens, self.bucket._updated

    def pure_preview(self, at: float):
        before = self.state()
        decision = self.bucket.preview(at)
        assert self.bucket.preview(at) == decision
        assert self.state() == before
        assert 0.0 <= decision.tokens_after <= self.bucket.burst
        return decision

    @rule(dt=st.floats(0.0, 3.0))
    def advance(self, dt):
        self.now += dt

    @rule()
    def arrive(self):
        decision = self.pure_preview(self.now)
        self.bucket.commit(decision)
        if decision.admitted:
            self.admitted_at.append(self.now)

    @rule(ahead=st.floats(0.0, 3.0))
    def look_ahead(self, ahead):
        self.pure_preview(self.now + ahead)

    @invariant()
    def admissions_stay_within_burst_plus_refill(self):
        # admitted_at is non-decreasing, so admission i starts a window
        # holding every later admission.
        for i, start in enumerate(self.admitted_at):
            allowed = self.bucket.burst + self.bucket.rate * (self.now - start)
            assert len(self.admitted_at) - i <= allowed + 1e-9


def test_token_bucket_admissions_are_bounded_and_previews_pure():
    run_state_machine_as_test(
        BucketMachine,
        settings=settings(max_examples=300, stateful_step_count=50, deadline=None),
    )
