"""Exactness of the anchored search's two maximality filters.

The incremental monitor searches only the instances that use the newest
event, and since PR 19 it uses what "newest" proves: anchors that would
put the new event *before* something are skipped, and the other
variables' candidates come from the causal cones of events already bound
(:mod:`repro.verification.engine.plan`).  Both are candidate filters, so
the design rests on one invariant: **the verdict, the completing event
and the first assignment found are what the unfiltered search returns.**
This file states that invariant four ways:

- the cones themselves equal ``{g : f ▷ g}`` / ``{g : g ▷ f}``, also
  after a rewind;
- at every event of generated workloads the filtered ``find_anchored``
  and the same call without the causality return the same assignment;
- ``repr(FirstViolation)`` of seeded violating runs, captured at the
  commit before the filters existed, is reproduced character for
  character;
- a model-checker style walk (advance, push, advance, pop, advance a
  different suffix) equals a fresh monitor on each resulting trace.

Plus the two things the filters are for, as counts that repeat exactly:
work per event does not grow with the trace, and is never more than the
unfiltered search's on any input shape.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import DELIVER, SEND, Event
from repro.mc.mutations import mutation_factories
from repro.predicates.catalog import (
    CATALOG,
    CAUSAL_ORDERING,
    FIFO_ORDERING,
    LOCAL_FORWARD_FLUSH,
    LOGICALLY_SYNCHRONOUS,
    MOBILE_HANDOFF,
    channel_k_weaker,
    crown,
    k_weaker_causal,
    k_weaker_causal_spec,
)
from repro.protocols.registry import catalogue_entry
from repro.simulation import UniformLatency, run_simulation
from repro.simulation.trace import Trace
from repro.simulation.workloads import SendRequest, Workload
from repro.verification.engine import (
    MessageIndex,
    MonitorStats,
    OnlineCausality,
    SpecMonitor,
    compile_predicate,
    monitor_trace,
)

COLORS = (None, "red", "blue", "handoff")
GROUPS = (None, "g1", "g2")

#: Input shapes: (mean send rate, network latency).  A burst sends
#: everything before anything is delivered -- the worst case for a
#: future cone, which then holds every later send of the anchor's sender.
SHAPES = {
    "steady": (1.0, None),
    "adversarial": (1.0, UniformLatency(low=1.0, high=60.0)),
    "burst": (1000.0, None),
}

PROTOCOLS = {
    name: catalogue_entry(name).factory
    for name in ("tagless", "fifo", "causal-rst", "k-weaker(2)")
}
PROTOCOLS.update(mutation_factories())

CROWNS_TO_3 = dataclasses.replace(
    LOGICALLY_SYNCHRONOUS, name="crowns<=3", family_arity_cap=3
)
SPECS = {entry.specification.name: entry.specification for entry in CATALOG}
SPECS[CROWNS_TO_3.name] = CROWNS_TO_3

#: Every catalogue member plus the shapes the issue names.
PREDICATES = tuple(
    dict.fromkeys(
        [p for entry in CATALOG for p in entry.specification.all_predicates(3)]
        + [k_weaker_causal(1), k_weaker_causal(2), channel_k_weaker(1)]
        + [crown(2), crown(3), MOBILE_HANDOFF]
    )
)


def _traffic(n_processes, count, seed, rate=1.0, plain=False):
    """Seeded point-to-point traffic with colours and groups on."""
    rng = random.Random(seed)
    requests, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        sender = rng.randrange(n_processes)
        receiver = rng.randrange(n_processes - 1)
        receiver += receiver >= sender
        requests.append(
            SendRequest(
                time=now,
                sender=sender,
                receiver=receiver,
                color=None if plain else rng.choice(COLORS),
                group=None if plain else rng.choice(GROUPS),
            )
        )
    return Workload(
        name="traffic-%d" % seed, n_processes=n_processes, requests=tuple(requests)
    )


def _simulate(shape, protocol, seed, n_processes=3, count=24, plain=False):
    rate, latency = SHAPES[shape]
    return run_simulation(
        PROTOCOLS[protocol],
        _traffic(n_processes, count, seed, rate=rate, plain=plain),
        seed=seed,
        latency=latency,
    ).trace


def _user_events(trace):
    for record in trace.records():
        if record.event.kind is SEND or record.event.kind is DELIVER:
            yield record.event, trace.message(record.event.message_id)


def _size(cone):
    return sum(stop - start for _, start, stop in cone)


def _cone_events(cone):
    events = [
        event for chain, start, stop in cone for _, event, _ in chain[start:stop]
    ]
    assert len(events) == len(set(events)) == _size(cone)
    return set(events)


def _assert_cones_exact(causality, observed):
    for f in observed:
        for kind in (SEND, DELIVER):
            of_kind = [g for g in observed if g.kind is kind]
            assert _cone_events(causality.future(f, kind)) == {
                g for g in of_kind if causality.before(f, g)
            }, (f, kind)
            assert _cone_events(causality.past(f, kind)) == {
                g for g in of_kind if causality.before(g, f)
            }, (f, kind)


class TestConesAreTheOrder:
    """``future``/``past`` are exactly the happened-before relation."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("seed", range(3))
    def test_cones_equal_before(self, shape, seed):
        trace = _simulate(shape, "tagless", seed, n_processes=3 + seed % 2, count=14)
        events = list(_user_events(trace))
        causality = OnlineCausality()
        half = len(events) // 2
        for event, message in events[:half]:
            causality.observe(event, message)
        mark = causality.mark()
        for event, message in events[half:]:
            causality.observe(event, message)
        _assert_cones_exact(causality, [event for event, _ in events])

        # Rewind and observe a different suffix: the remaining sends
        # first, then the remaining deliveries newest first.
        causality.rewind(mark)
        _assert_cones_exact(causality, [event for event, _ in events[:half]])
        suffix = [pair for pair in events[half:] if pair[0].kind is SEND] + [
            pair for pair in reversed(events[half:]) if pair[0].kind is DELIVER
        ]
        assert suffix != events[half:]
        for event, message in suffix:
            causality.observe(event, message)
        _assert_cones_exact(causality, [event for event, _ in events])

    def test_unobserved_and_lone_events_have_empty_cones(self):
        trace = _simulate("steady", "tagless", 0, count=4)
        (event, message), *_ = _user_events(trace)
        causality = OnlineCausality()
        for observed in (False, True):
            if observed:
                causality.observe(event, message)
            for kind in (SEND, DELIVER):
                assert causality.future(event, kind) == []
                assert causality.past(event, kind) == []


def _ids(assignment):
    return None if assignment is None else {v: m.id for v, m in assignment.items()}


def _both_searches(trace, predicates):
    """Walk the trace as the monitor does; at every event yield, per
    predicate, (filtered, unfiltered) as ``(assignment ids, candidates)``."""
    index, causality = MessageIndex(), OnlineCausality()
    compiled = [compile_predicate(predicate) for predicate in predicates]
    for event, message in _user_events(trace):
        index.add(message)
        causality.observe(event, message)
        for plan in compiled:
            results = []
            for held in (causality, None):
                stats = MonitorStats()
                found = plan.find_anchored(
                    message,
                    event.kind,
                    index,
                    causality.ordered,
                    causality=held,
                    stats=stats,
                )
                results.append((_ids(found), stats.candidates))
            yield event, plan, results[0], results[1]


requests = st.tuples(
    st.integers(0, 4),  # sender (mod processes)
    st.integers(0, 3),  # receiver offset
    st.sampled_from(COLORS),
    st.sampled_from(GROUPS),
    st.sampled_from((0.001, 0.5, 3.0)),  # gap to the previous request
)


class TestFilteredSearchIsTheSearch:
    @given(
        n_processes=st.integers(2, 5),
        script=st.lists(requests, min_size=2, max_size=10),
        protocol=st.sampled_from(
            ("tagless", "broken-fifo", "broken-causal-rst", "fifo", "causal-rst")
        ),
        latency=st.sampled_from((None, 60.0)),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=60)
    def test_same_first_assignment_at_every_event(
        self, n_processes, script, protocol, latency, seed
    ):
        now, sends = 0.0, []
        for sender, offset, color, group, gap in script:
            now += gap
            sender %= n_processes
            receiver = (sender + 1 + offset % (n_processes - 1)) % n_processes
            sends.append(SendRequest(now, sender, receiver, color=color, group=group))
        trace = run_simulation(
            PROTOCOLS[protocol],
            Workload("generated", n_processes, tuple(sends)),
            seed=seed,
            latency=latency and UniformLatency(low=1.0, high=latency),
        ).trace
        for event, plan, filtered, unfiltered in _both_searches(trace, PREDICATES):
            assert filtered[0] == unfiltered[0], (event, plan.name)
            assert filtered[1] <= unfiltered[1], (event, plan.name)

    def test_candidates_come_from_the_smallest_source(self):
        """One step after the anchor, no match to stop it early: the
        candidates tried are exactly the smallest of bucket and cones,
        and over the three shapes the choice goes both ways."""
        plan = compile_predicate(LOCAL_FORWARD_FLUSH)
        chose_bucket = chose_cone = 0
        for shape in sorted(SHAPES):
            rate, latency = SHAPES[shape]
            script = _traffic(3, 120, 5, rate=rate, plain=True).requests
            reds = tuple(
                dataclasses.replace(request, color="red" if i % 8 == 0 else None)
                for i, request in enumerate(script)
            )
            trace = run_simulation(
                PROTOCOLS["fifo"], Workload(shape, 3, reds), seed=5, latency=latency
            ).trace
            index, causality = MessageIndex(), OnlineCausality()
            for event, message in _user_events(trace):
                index.add(message)
                causality.observe(event, message)
                if event.kind is not DELIVER:
                    continue
                stats = MonitorStats()
                found = plan.find_anchored(
                    message,
                    DELIVER,
                    index,
                    causality.ordered,
                    causality=causality,
                    stats=stats,
                )
                assert found is None
                # x pinned to the delivered message; y is red, sent after
                # x.s and delivered before x.r.
                bucket = len(index.bucket("color", "red"))
                cone = min(
                    _size(causality.future(Event.send(message.id), SEND)),
                    _size(causality.past(event, DELIVER)),
                )
                assert stats.candidates == min(bucket, cone)
                chose_bucket += bucket < cone
                chose_cone += cone < bucket
        assert chose_bucket > 20 and chose_cone > 20


#: ``repr(monitor_trace(...))`` at commit e86f6f8 (PR 17), before either
#: filter existed: (shape, protocol, seed, specification, first violation).
GOLDEN = (
    ('adversarial', 'tagless', 0, 'causal-ordering',
     'FirstViolation(t=37.427, m5.r fires causal-B2 with x=m5, y=m8)'),
    ('adversarial', 'tagless', 0, 'fifo',
     'FirstViolation(t=37.427, m5.r fires fifo with x=m5, y=m8)'),
    ('adversarial', 'tagless', 0, 'k-weaker-causal-2',
     'FirstViolation(t=37.427, m5.r fires k-weaker-causal-2 with x1=m5, x2=m8, x3=m10, x4=m13)'),
    ('adversarial', 'tagless', 0, 'two-way-flush',
     'FirstViolation(t=37.427, m5.r fires local-forward-flush with x=m5, y=m13)'),
    ('adversarial', 'tagless', 0, 'mobile-handoff',
     'FirstViolation(t=37.427, m5.r fires mobile-handoff with x=m5, y=m6)'),
    ('adversarial', 'tagless', 0, 'crowns<=3',
     'FirstViolation(t=31.260, m6.r fires crown-2 with x1=m3, x2=m6)'),
    ('adversarial', 'tagless', 1, 'causal-ordering',
     'FirstViolation(t=18.883, m4.r fires causal-B2 with x=m4, y=m9)'),
    ('adversarial', 'tagless', 1, 'fifo',
     'FirstViolation(t=18.883, m4.r fires fifo with x=m4, y=m9)'),
    ('adversarial', 'tagless', 1, 'k-weaker-causal-2',
     'FirstViolation(t=33.096, m5.r fires k-weaker-causal-2 with x1=m5, x2=m15, x3=m16, x4=m21)'),
    ('adversarial', 'tagless', 1, 'two-way-flush',
     'FirstViolation(t=18.883, m4.r fires local-forward-flush with x=m4, y=m9)'),
    ('adversarial', 'tagless', 1, 'mobile-handoff',
     'FirstViolation(t=30.629, m6.r fires mobile-handoff with x=m20, y=m6)'),
    ('adversarial', 'tagless', 1, 'crowns<=3',
     'FirstViolation(t=15.394, m9.r fires crown-2 with x1=m1, x2=m9)'),
    ('adversarial', 'broken-fifo', 0, 'causal-ordering',
     'FirstViolation(t=37.427, m5.r fires causal-B2 with x=m5, y=m8)'),
    ('adversarial', 'broken-fifo', 0, 'fifo',
     'FirstViolation(t=37.427, m5.r fires fifo with x=m5, y=m8)'),
    ('adversarial', 'broken-fifo', 0, 'k-weaker-causal-2',
     'FirstViolation(t=37.427, m5.r fires k-weaker-causal-2 with x1=m5, x2=m8, x3=m10, x4=m13)'),
    ('adversarial', 'broken-fifo', 0, 'two-way-flush',
     'FirstViolation(t=37.427, m5.r fires local-forward-flush with x=m5, y=m13)'),
    ('adversarial', 'broken-fifo', 0, 'mobile-handoff',
     'FirstViolation(t=37.427, m5.r fires mobile-handoff with x=m5, y=m8)'),
    ('adversarial', 'broken-fifo', 0, 'crowns<=3',
     'FirstViolation(t=37.427, m5.r fires crown-2 with x1=m8, x2=m5)'),
    ('adversarial', 'broken-fifo', 1, 'causal-ordering',
     'FirstViolation(t=33.096, m5.r fires causal-B2 with x=m5, y=m21)'),
    ('adversarial', 'broken-fifo', 1, 'fifo',
     'FirstViolation(t=33.096, m5.r fires fifo with x=m5, y=m21)'),
    ('adversarial', 'broken-fifo', 1, 'k-weaker-causal-2',
     'FirstViolation(t=33.096, m5.r fires k-weaker-causal-2 with x1=m5, x2=m15, x3=m16, x4=m21)'),
    ('adversarial', 'broken-fifo', 1, 'two-way-flush',
     'FirstViolation(t=79.231, m18.r fires local-backward-flush with x=m21, y=m18)'),
    ('adversarial', 'broken-fifo', 1, 'mobile-handoff',
     'FirstViolation(t=30.629, m6.r fires mobile-handoff with x=m21, y=m6)'),
    ('adversarial', 'broken-fifo', 1, 'crowns<=3',
     'FirstViolation(t=18.883, m4.r fires crown-2 with x1=m1, x2=m4)'),
    ('adversarial', 'broken-causal-rst', 0, 'causal-ordering',
     'FirstViolation(t=37.427, m5.r fires causal-B2 with x=m5, y=m8)'),
    ('adversarial', 'broken-causal-rst', 0, 'fifo',
     'FirstViolation(t=37.427, m5.r fires fifo with x=m5, y=m8)'),
    ('adversarial', 'broken-causal-rst', 0, 'k-weaker-causal-2',
     'FirstViolation(t=37.427, m5.r fires k-weaker-causal-2 with x1=m5, x2=m8, x3=m10, x4=m13)'),
    ('adversarial', 'broken-causal-rst', 0, 'two-way-flush',
     'FirstViolation(t=37.427, m5.r fires local-forward-flush with x=m5, y=m13)'),
    ('adversarial', 'broken-causal-rst', 0, 'mobile-handoff',
     'FirstViolation(t=37.427, m5.r fires mobile-handoff with x=m5, y=m8)'),
    ('adversarial', 'broken-causal-rst', 0, 'crowns<=3',
     'FirstViolation(t=37.427, m5.r fires crown-2 with x1=m8, x2=m5)'),
    ('adversarial', 'broken-causal-rst', 1, 'causal-ordering',
     'FirstViolation(t=33.096, m5.r fires causal-B2 with x=m5, y=m21)'),
    ('adversarial', 'broken-causal-rst', 1, 'fifo',
     'FirstViolation(t=33.096, m5.r fires fifo with x=m5, y=m21)'),
    ('adversarial', 'broken-causal-rst', 1, 'k-weaker-causal-2',
     'FirstViolation(t=33.096, m5.r fires k-weaker-causal-2 with x1=m5, x2=m15, x3=m16, x4=m21)'),
    ('adversarial', 'broken-causal-rst', 1, 'two-way-flush',
     'FirstViolation(t=79.231, m18.r fires local-backward-flush with x=m21, y=m18)'),
    ('adversarial', 'broken-causal-rst', 1, 'mobile-handoff',
     'FirstViolation(t=30.629, m6.r fires mobile-handoff with x=m21, y=m6)'),
    ('adversarial', 'broken-causal-rst', 1, 'crowns<=3',
     'FirstViolation(t=18.883, m4.r fires crown-2 with x1=m1, x2=m4)'),
    ('burst', 'tagless', 0, 'causal-ordering',
     'FirstViolation(t=3.739, m8.r fires causal-B2 with x=m8, y=m13)'),
    ('burst', 'tagless', 0, 'fifo',
     'FirstViolation(t=3.739, m8.r fires fifo with x=m8, y=m13)'),
    ('burst', 'tagless', 0, 'k-weaker-causal-2',
     'FirstViolation(t=4.651, m6.r fires k-weaker-causal-2 with x1=m6, x2=m9, x3=m11, x4=m21)'),
    ('burst', 'tagless', 0, 'two-way-flush',
     'FirstViolation(t=3.739, m8.r fires local-forward-flush with x=m8, y=m13)'),
    ('burst', 'tagless', 0, 'mobile-handoff',
     'FirstViolation(t=5.608, m5.r fires mobile-handoff with x=m5, y=m3)'),
    ('burst', 'tagless', 0, 'crowns<=3',
     'FirstViolation(t=3.553, m13.r fires crown-2 with x1=m4, x2=m13)'),
    ('burst', 'tagless', 1, 'causal-ordering',
     'FirstViolation(t=1.854, m9.r fires causal-B2 with x=m9, y=m20)'),
    ('burst', 'tagless', 1, 'fifo',
     'FirstViolation(t=1.854, m9.r fires fifo with x=m9, y=m20)'),
    ('burst', 'tagless', 1, 'k-weaker-causal-2',
     'FirstViolation(t=1.854, m9.r fires k-weaker-causal-2 with x1=m9, x2=m11, x3=m14, x4=m20)'),
    ('burst', 'tagless', 1, 'two-way-flush',
     'FirstViolation(t=1.854, m9.r fires local-backward-flush with x=m20, y=m9)'),
    ('burst', 'tagless', 1, 'mobile-handoff',
     'FirstViolation(t=1.269, m10.r fires mobile-handoff with x=m21, y=m10)'),
    ('burst', 'tagless', 1, 'crowns<=3',
     'FirstViolation(t=1.269, m10.r fires crown-2 with x1=m21, x2=m10)'),
    ('burst', 'broken-fifo', 0, 'causal-ordering',
     'FirstViolation(t=3.739, m8.r fires causal-B2 with x=m8, y=m13)'),
    ('burst', 'broken-fifo', 0, 'fifo',
     'FirstViolation(t=3.739, m8.r fires fifo with x=m8, y=m13)'),
    ('burst', 'broken-fifo', 0, 'k-weaker-causal-2',
     'FirstViolation(t=4.790, m3.r fires k-weaker-causal-2 with x1=m3, x2=m5, x3=m8, x4=m16)'),
    ('burst', 'broken-fifo', 0, 'two-way-flush',
     'FirstViolation(t=3.739, m8.r fires local-forward-flush with x=m8, y=m13)'),
    ('burst', 'broken-fifo', 0, 'mobile-handoff',
     'FirstViolation(t=5.608, m5.r fires mobile-handoff with x=m5, y=m3)'),
    ('burst', 'broken-fifo', 0, 'crowns<=3',
     'FirstViolation(t=3.553, m13.r fires crown-2 with x1=m4, x2=m13)'),
    ('burst', 'broken-fifo', 1, 'causal-ordering',
     'FirstViolation(t=5.028, m15.r fires causal-B2 with x=m15, y=m21)'),
    ('burst', 'broken-fifo', 1, 'fifo',
     'FirstViolation(t=5.028, m15.r fires fifo with x=m15, y=m21)'),
    ('burst', 'broken-fifo', 1, 'k-weaker-causal-2',
     'FirstViolation(t=5.028, m15.r fires k-weaker-causal-2 with x1=m15, x2=m16, x3=m18, x4=m21)'),
    ('burst', 'broken-fifo', 1, 'two-way-flush',
     'FirstViolation(t=9.530, m18.r fires local-backward-flush with x=m21, y=m18)'),
    ('burst', 'broken-fifo', 1, 'mobile-handoff',
     'FirstViolation(t=5.028, m15.r fires mobile-handoff with x=m15, y=m21)'),
    ('burst', 'broken-fifo', 1, 'crowns<=3',
     'FirstViolation(t=3.298, m4.r fires crown-2 with x1=m1, x2=m4)'),
    ('burst', 'broken-causal-rst', 0, 'causal-ordering',
     'FirstViolation(t=3.739, m8.r fires causal-B2 with x=m8, y=m13)'),
    ('burst', 'broken-causal-rst', 0, 'fifo',
     'FirstViolation(t=3.739, m8.r fires fifo with x=m8, y=m13)'),
    ('burst', 'broken-causal-rst', 0, 'k-weaker-causal-2',
     'FirstViolation(t=4.790, m3.r fires k-weaker-causal-2 with x1=m3, x2=m5, x3=m8, x4=m16)'),
    ('burst', 'broken-causal-rst', 0, 'two-way-flush',
     'FirstViolation(t=3.739, m8.r fires local-forward-flush with x=m8, y=m13)'),
    ('burst', 'broken-causal-rst', 0, 'mobile-handoff',
     'FirstViolation(t=5.608, m5.r fires mobile-handoff with x=m5, y=m3)'),
    ('burst', 'broken-causal-rst', 0, 'crowns<=3',
     'FirstViolation(t=3.553, m13.r fires crown-2 with x1=m4, x2=m13)'),
    ('burst', 'broken-causal-rst', 1, 'causal-ordering',
     'FirstViolation(t=5.028, m15.r fires causal-B2 with x=m15, y=m21)'),
    ('burst', 'broken-causal-rst', 1, 'fifo',
     'FirstViolation(t=5.028, m15.r fires fifo with x=m15, y=m21)'),
    ('burst', 'broken-causal-rst', 1, 'k-weaker-causal-2',
     'FirstViolation(t=5.028, m15.r fires k-weaker-causal-2 with x1=m15, x2=m16, x3=m18, x4=m21)'),
    ('burst', 'broken-causal-rst', 1, 'two-way-flush',
     'FirstViolation(t=9.530, m18.r fires local-backward-flush with x=m21, y=m18)'),
    ('burst', 'broken-causal-rst', 1, 'mobile-handoff',
     'FirstViolation(t=5.028, m15.r fires mobile-handoff with x=m15, y=m21)'),
    ('burst', 'broken-causal-rst', 1, 'crowns<=3',
     'FirstViolation(t=3.298, m4.r fires crown-2 with x1=m1, x2=m4)'),
    ('steady', 'tagless', 0, 'causal-ordering',
     'FirstViolation(t=23.016, m11.r fires causal-B2 with x=m11, y=m12)'),
    ('steady', 'tagless', 0, 'fifo',
     'FirstViolation(t=23.016, m11.r fires fifo with x=m11, y=m12)'),
    ('steady', 'tagless', 0, 'mobile-handoff',
     'FirstViolation(t=11.864, m5.r fires mobile-handoff with x=m5, y=m1)'),
    ('steady', 'tagless', 0, 'crowns<=3',
     'FirstViolation(t=10.348, m2.r fires crown-2 with x1=m4, x2=m2)'),
    ('steady', 'tagless', 1, 'causal-ordering',
     'FirstViolation(t=10.202, m2.r fires causal-B2 with x=m2, y=m3)'),
    ('steady', 'tagless', 1, 'fifo',
     'FirstViolation(t=10.202, m2.r fires fifo with x=m2, y=m3)'),
    ('steady', 'tagless', 1, 'two-way-flush',
     'FirstViolation(t=10.202, m2.r fires local-backward-flush with x=m3, y=m2)'),
    ('steady', 'tagless', 1, 'mobile-handoff',
     'FirstViolation(t=8.324, m5.r fires mobile-handoff with x=m5, y=m6)'),
    ('steady', 'tagless', 1, 'crowns<=3',
     'FirstViolation(t=8.324, m5.r fires crown-2 with x1=m6, x2=m5)'),
    ('steady', 'broken-fifo', 0, 'mobile-handoff',
     'FirstViolation(t=11.864, m5.r fires mobile-handoff with x=m5, y=m1)'),
    ('steady', 'broken-fifo', 0, 'crowns<=3',
     'FirstViolation(t=10.348, m2.r fires crown-2 with x1=m4, x2=m2)'),
    ('steady', 'broken-fifo', 1, 'causal-ordering',
     'FirstViolation(t=31.967, m18.r fires causal-B2 with x=m18, y=m21)'),
    ('steady', 'broken-fifo', 1, 'fifo',
     'FirstViolation(t=31.967, m18.r fires fifo with x=m18, y=m21)'),
    ('steady', 'broken-fifo', 1, 'two-way-flush',
     'FirstViolation(t=31.967, m18.r fires local-backward-flush with x=m21, y=m18)'),
    ('steady', 'broken-fifo', 1, 'mobile-handoff',
     'FirstViolation(t=8.324, m5.r fires mobile-handoff with x=m5, y=m6)'),
    ('steady', 'broken-fifo', 1, 'crowns<=3',
     'FirstViolation(t=8.324, m5.r fires crown-2 with x1=m6, x2=m5)'),
    ('steady', 'broken-causal-rst', 0, 'mobile-handoff',
     'FirstViolation(t=11.864, m5.r fires mobile-handoff with x=m5, y=m1)'),
    ('steady', 'broken-causal-rst', 0, 'crowns<=3',
     'FirstViolation(t=10.348, m2.r fires crown-2 with x1=m4, x2=m2)'),
    ('steady', 'broken-causal-rst', 1, 'causal-ordering',
     'FirstViolation(t=31.967, m18.r fires causal-B2 with x=m18, y=m21)'),
    ('steady', 'broken-causal-rst', 1, 'fifo',
     'FirstViolation(t=31.967, m18.r fires fifo with x=m18, y=m21)'),
    ('steady', 'broken-causal-rst', 1, 'two-way-flush',
     'FirstViolation(t=31.967, m18.r fires local-backward-flush with x=m21, y=m18)'),
    ('steady', 'broken-causal-rst', 1, 'mobile-handoff',
     'FirstViolation(t=8.324, m5.r fires mobile-handoff with x=m5, y=m6)'),
    ('steady', 'broken-causal-rst', 1, 'crowns<=3',
     'FirstViolation(t=8.324, m5.r fires crown-2 with x1=m6, x2=m5)'),
)


def _golden_grid():
    for shape in sorted(SHAPES):
        for protocol in ("tagless", "broken-fifo", "broken-causal-rst"):
            for seed in (0, 1):
                yield shape, protocol, seed


class TestGoldenFirstViolations:
    def test_corpus_is_large_and_violating(self):
        assert len(GOLDEN) >= 60
        assert all(row[4].startswith("FirstViolation(") for row in GOLDEN)
        assert {row[0] for row in GOLDEN} == set(SHAPES)

    @pytest.mark.parametrize("shape,protocol,seed", list(_golden_grid()))
    def test_reprs_are_reproduced(self, shape, protocol, seed):
        trace = _simulate(shape, protocol, seed)
        rows = [row for row in GOLDEN if row[:3] == (shape, protocol, seed)]
        for _, _, _, spec, expected in rows:
            assert repr(monitor_trace(trace, SPECS[spec])) == expected, spec


def _trace_of(source, records):
    trace = Trace(source.n_processes)
    for message in source.messages():
        trace.register_message(message)
    for record in records:
        trace.record(record.time, record.process, record.event)
    return trace


class TestDfsWalk:
    """advance, push, advance, pop, advance a different suffix: every
    verdict equals a fresh monitor's on the trace consumed so far."""

    @pytest.mark.parametrize("protocol", ["tagless", "fifo", "causal-rst"])
    @pytest.mark.parametrize(
        "spec",
        [FIFO_ORDERING, CAUSAL_ORDERING, k_weaker_causal_spec(1), CROWNS_TO_3],
        ids=lambda spec: spec.name,
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_walk_equals_fresh_monitors(self, protocol, spec, seed):
        source = _simulate("steady", protocol, seed, count=16)
        records = source.records()
        half = len(records) // 2
        # The other branch delivers what is outstanding newest first.
        rest = records[half:]
        other = [r for r in rest if r.event.kind is not DELIVER] + [
            r for r in reversed(rest) if r.event.kind is DELIVER
        ]
        prefix = _trace_of(source, records[:half])
        branches = [_trace_of(source, records), _trace_of(source, records[:half] + other)]

        monitor = SpecMonitor(spec)
        assert monitor.advance(prefix) == monitor_trace(prefix, spec)
        consumed = monitor.consumed  # short of ``half`` if already violated
        for branch in branches:
            frame = monitor.push()
            assert monitor.advance(branch) == monitor_trace(branch, spec)
            monitor.pop(frame)
            assert monitor.consumed == consumed
        assert monitor.violation == monitor_trace(prefix, spec)


def _per_event_candidates(trace, spec):
    """Candidates the monitor tried at each checked event of ``trace``."""
    monitor = SpecMonitor(spec)
    growing = Trace(trace.n_processes)
    counts = []
    for record in trace.records():
        growing.register_message(trace.message(record.event.message_id))
        growing.record(record.time, record.process, record.event)
        before = monitor.stats.candidates, monitor.stats.events_checked
        assert monitor.advance(growing) is None
        if monitor.stats.events_checked > before[1]:
            counts.append(monitor.stats.candidates - before[0])
    return counts


STEADY = [
    ("fifo", FIFO_ORDERING),
    ("causal-rst", CAUSAL_ORDERING),
    ("k-weaker(2)", k_weaker_causal_spec(2)),
]


class TestWorkDoesNotGrowWithHistory:
    """``MonitorStats.candidates`` repeats exactly for a trace, so the
    complexity is pinned without a clock."""

    @pytest.mark.parametrize("protocol,spec", STEADY, ids=[p for p, _ in STEADY])
    def test_candidates_per_event_are_flat(self, protocol, spec):
        second = last = 0
        for seed in range(4):
            counts = _per_event_candidates(
                _simulate("steady", protocol, seed, count=400, plain=True), spec
            )
            quarter = len(counts) // 4
            assert quarter == 200
            second += sum(counts[quarter : 2 * quarter])
            last += sum(counts[3 * quarter :])
        assert 0 < last <= 1.5 * second

    @pytest.mark.parametrize(
        "protocol,spec,count",
        # Unfiltered, a k-weaker(2) send costs ~n^3/2 candidates: 40
        # messages is what tier-1 can enumerate.
        [(p, s, 40 if p == "k-weaker(2)" else 400) for p, s in STEADY],
        ids=[p for p, _ in STEADY],
    )
    def test_unfiltered_search_tries_five_times_as_many(self, protocol, spec, count):
        """Fails if narrowing is ever disconnected from the monitor."""
        trace = _simulate("steady", protocol, 0, count=count, plain=True)
        monitored = _per_event_candidates(trace, spec)
        rows = list(_both_searches(trace, spec.predicates))
        assert [filtered[1] for _, _, filtered, _ in rows] == monitored
        last = slice(3 * len(rows) // 4, None)
        unfiltered = sum(row[3][1] for row in rows[last])
        assert unfiltered >= 5 * sum(monitored[last]) > 0

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("protocol,spec", STEADY, ids=[p for p, _ in STEADY])
    def test_never_more_than_unfiltered_on_any_shape(self, shape, protocol, spec):
        trace = _simulate(shape, protocol, 1, n_processes=4, count=30, plain=True)
        for event, plan, filtered, unfiltered in _both_searches(
            trace, spec.predicates
        ):
            assert filtered[0] is None and unfiltered[0] is None
            assert filtered[1] <= unfiltered[1], event


class TestMemberCacheIsBounded:
    """``SpecMonitor._members`` used to gain one entry per message."""

    @pytest.mark.parametrize(
        "protocol,spec,arity",
        [
            ("fifo", FIFO_ORDERING, 2),
            (
                "sync-coord",
                dataclasses.replace(LOGICALLY_SYNCHRONOUS, family_arity_cap=2),
                2,
            ),
        ],
        ids=["fifo", "crowns<=2"],
    )
    def test_entries_stop_at_the_arity(self, protocol, spec, arity):
        trace = run_simulation(
            catalogue_entry(protocol).factory, _traffic(3, 500, 2, plain=True), seed=2
        ).trace
        monitor = SpecMonitor(spec)
        assert monitor.advance(trace) is None
        assert monitor.stats.events_checked == 1000
        assert 1 <= len(monitor._members) <= arity + 1
        # Same verdict and same searches as one member list per count.
        per_count = SpecMonitor(spec)
        per_count._members_settle = None
        assert per_count.advance(trace) is None
        assert len(per_count._members) == 500
        assert per_count.stats == monitor.stats

    def test_uncapped_family_keeps_growing_its_member_set(self):
        spec = dataclasses.replace(LOGICALLY_SYNCHRONOUS, family_arity_cap=None)
        trace = run_simulation(
            catalogue_entry("sync-coord").factory, _traffic(3, 5, 0), seed=0
        ).trace
        monitor = SpecMonitor(spec)
        assert monitor.advance(trace) is None
        assert [len(monitor._members[count]) for count in (2, 3, 5)] == [1, 2, 4]


class TestCandidatesAreReported:
    """The count travels where ``searches`` already goes."""

    def test_model_checker_report_carries_it(self):
        from repro.mc import check_protocol, triangle_workload

        reports = [
            check_protocol("causal-rst", triangle_workload(), max_schedules=None)
            for _ in range(2)
        ]
        report = reports[0]
        assert report.verified and 0 < report.verify_candidates
        assert report.verify_candidates == reports[1].verify_candidates
        assert "%d candidates)" % report.verify_candidates in report.summary()
        assert report.to_dict()["verification"] == {
            "seconds": report.verify_seconds,
            "events": report.verify_events,
            "searches": report.verify_searches,
            "candidates": report.verify_candidates,
        }
