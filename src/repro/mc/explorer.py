"""Stateless DFS exploration of delivery schedules, with DPOR-style pruning.

The explorer walks the tree of transition choices of a
:class:`~repro.mc.world.ControlledWorld`.  It is *stateless* in the
model-checking sense: a tree node is its schedule prefix, re-executed from
scratch on visit (executions are cheap at checking scale, and the replay
machinery doubles as the counterexample format).  Three prunings keep the
tree tractable without losing any reachable user-view run:

sleep sets
    after fully exploring child ``t``, siblings explored later carry
    ``t`` in their sleep set until a *dependent* transition (same home
    process, see :func:`~repro.mc.world.transitions_dependent`) executes;
    a sleeping transition would only recreate an already-explored
    interleaving of independent transitions.

state-signature caching
    two prefixes with equal :meth:`~repro.mc.world.ControlledWorld.signature`
    have identical continuations, so the second is explored only if its
    sleep set would explore *more* branches than every earlier visit
    (the classic sleep-set/state-cache soundness condition: prune only
    when some earlier visit slept on a subset of what we would sleep on).

violation pruning
    every prefix is checked incrementally by a shared
    :class:`repro.verification.engine.SpecMonitor` carried along the DFS
    with ``push()``/``pop()`` snapshots: replays are deterministic, so a
    child's trace extends its parent's bit-for-bit and the monitor only
    consumes each node's new suffix instead of re-checking the full trace
    per state; a violating prefix is recorded as a counterexample and
    never extended (all extensions contain the same forbidden instance).

With no violation found, no depth truncation and no budget exhaustion the
run is a *proof*: every maximal schedule (up to commutation of
independent transitions) was covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.mc.counterexample import Schedule, minimize_schedule
from repro.mc.registry import resolve_protocol
from repro.mc.world import (
    ControlledWorld,
    ProtocolFactory,
    TransitionKey,
    transitions_dependent,
)
from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.spec import Specification
from repro.protocols.registry import resolve
from repro.runs.user_run import UserRun
from repro.simulation.workloads import Workload
from repro.verification.engine import SpecMonitor
from repro.verification.engine import FirstViolation

#: Default exploration budget of ``repro check``.
DEFAULT_MAX_SCHEDULES = 2000
DEFAULT_MAX_DEPTH = 80


class _BudgetExhausted(Exception):
    """Internal control flow: the schedule budget ran out."""


class _EnoughViolations(Exception):
    """Internal control flow: ``max_violations`` counterexamples found."""


@dataclass
class MCViolation:
    """One counterexample: the violating schedule and what it violates."""

    schedule: Schedule
    first: FirstViolation
    minimized: Optional[Schedule] = None
    #: Watchdog diagnoses of messages still undelivered when the violation
    #: fired, refined by each protocol's ``blocking_reason`` hook.
    stuck: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """A short human-readable account of the counterexample."""
        best = self.minimized or self.schedule
        return "%s via %d-step schedule: %s" % (
            self.first,
            len(best),
            best.describe(),
        )


@dataclass
class MCReport:
    """Everything one model-checking run established."""

    protocol: str
    specification: str
    workload: str
    invoke_order: str
    max_schedules: Optional[int]
    max_depth: int
    fault_budget: int = 0
    #: Transitions of the fixed stem the search was seeded with (a
    #: recorded run handed over by :func:`repro.wal.explore_from_log`).
    prefix_length: int = 0
    schedules_explored: int = 0
    replays: int = 0
    transitions: int = 0
    depth_truncations: int = 0
    pruned_sleep: int = 0
    pruned_state: int = 0
    budget_exhausted: bool = False
    stopped_at_max_violations: bool = False
    distinct_complete_runs: int = 0
    #: Wall-clock seconds spent inside the verification monitor.
    verify_seconds: float = 0.0
    #: User events (sends/deliveries) the monitor checked incrementally.
    verify_events: int = 0
    #: Anchored predicate searches the monitor ran.
    verify_searches: int = 0
    #: Candidate bindings those searches tried (exact per exploration).
    verify_candidates: int = 0
    violations: List[MCViolation] = field(default_factory=list)

    @property
    def exhaustive(self) -> bool:
        """Whether the whole (pruned-equivalent) schedule tree was covered."""
        return not (
            self.budget_exhausted
            or self.depth_truncations
            or self.stopped_at_max_violations
        )

    @property
    def verified(self) -> bool:
        """Exhaustive coverage with zero violations: a bounded proof."""
        return self.exhaustive and not self.violations

    def summary(self) -> str:
        """A short human-readable result block."""
        if self.violations:
            verdict = "VIOLATED (%d counterexample%s)" % (
                len(self.violations),
                "" if len(self.violations) == 1 else "s",
            )
        elif self.verified:
            verdict = "VERIFIED (exhaustive within depth %d)" % self.max_depth
        else:
            verdict = "NO VIOLATION FOUND (budget exhausted, not a proof)"
        lines = [
            "protocol:          %s" % self.protocol,
            "specification:     %s" % self.specification,
            "workload:          %s" % self.workload,
            "fault budget:      %d" % self.fault_budget,
            "verdict:           %s" % verdict,
            "schedules:         %d explored (%d complete runs distinct)"
            % (self.schedules_explored, self.distinct_complete_runs),
            "transitions:       %d executed over %d replays"
            % (self.transitions, self.replays),
            "pruned:            %d sleep-set, %d state-cache, %d depth-truncated"
            % (self.pruned_sleep, self.pruned_state, self.depth_truncations),
            "verification:      %.3fs over %d events (%d predicate searches, "
            "%d candidates)"
            % (
                self.verify_seconds,
                self.verify_events,
                self.verify_searches,
                self.verify_candidates,
            ),
        ]
        for violation in self.violations:
            lines.append("counterexample:    %s" % violation.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A machine-readable report (JSON-serializable)."""
        from repro.simulation.persistence import schedule_to_dict

        return {
            "format": "repro-mc-report-v1",
            "protocol": self.protocol,
            "specification": self.specification,
            "workload": self.workload,
            "invoke_order": self.invoke_order,
            "budget": {
                "max_schedules": self.max_schedules,
                "max_depth": self.max_depth,
                "fault_budget": self.fault_budget,
            },
            "schedules_explored": self.schedules_explored,
            "replays": self.replays,
            "transitions": self.transitions,
            "depth_truncations": self.depth_truncations,
            "pruned_sleep": self.pruned_sleep,
            "pruned_state": self.pruned_state,
            "distinct_complete_runs": self.distinct_complete_runs,
            "verification": {
                "seconds": self.verify_seconds,
                "events": self.verify_events,
                "searches": self.verify_searches,
                "candidates": self.verify_candidates,
            },
            "exhaustive": self.exhaustive,
            "verified": self.verified,
            "violations": [
                {
                    "predicate": violation.first.predicate_name,
                    "assignment": dict(violation.first.assignment),
                    "event": repr(violation.first.event),
                    "stuck": list(violation.stuck),
                    "schedule": schedule_to_dict(violation.schedule),
                    "minimized": (
                        schedule_to_dict(violation.minimized)
                        if violation.minimized is not None
                        else None
                    ),
                }
                for violation in self.violations
            ],
        }


class ModelChecker:
    """Systematic exploration of one protocol against one specification."""

    def __init__(
        self,
        protocol_factory: ProtocolFactory,
        workload: Workload,
        spec: Union[Specification, ForbiddenPredicate],
        protocol_name: Optional[str] = None,
        invoke_order: str = "script",
        fault_budget: int = 0,
        max_schedules: Optional[int] = DEFAULT_MAX_SCHEDULES,
        max_depth: int = DEFAULT_MAX_DEPTH,
        max_violations: int = 1,
        use_sleep_sets: bool = True,
        use_state_cache: bool = True,
        minimize: bool = True,
        collect_runs: bool = False,
        prefix: Optional[Sequence[TransitionKey]] = None,
    ):
        self.factory = protocol_factory
        self.workload = workload
        self.spec = (
            spec
            if isinstance(spec, Specification)
            else Specification(name=spec.name or "anonymous", predicates=(spec,))
        )
        self.protocol_name = protocol_name or getattr(
            protocol_factory(0, workload.n_processes), "name", "custom"
        )
        self.invoke_order = invoke_order
        self.fault_budget = fault_budget
        self.max_schedules = max_schedules
        self.max_depth = max_depth
        self.max_violations = max_violations
        self.use_sleep_sets = use_sleep_sets
        self.use_state_cache = use_state_cache
        self.minimize = minimize
        self.collect_runs = collect_runs
        #: A fixed schedule stem (e.g. a recorded production run): the
        #: DFS replays it verbatim and explores only its continuations.
        #: The stem itself is checked too -- a violation *inside* the
        #: recording surfaces at the root node.
        self.prefix: List[TransitionKey] = [
            tuple(key) for key in (prefix or [])
        ]
        # The depth budget bounds the *continuation*, not the stem: a
        # long recording must not eat the whole search allowance.
        self.max_depth += len(self.prefix)
        #: Complete (drained) user-view runs reached, when ``collect_runs``.
        self.complete_runs: Set[UserRun] = set()
        self._run_signatures: Set[Tuple] = set()
        self._visited: Dict[Tuple, List[FrozenSet[TransitionKey]]] = {}
        self._report: Optional[MCReport] = None
        self._monitor: Optional[SpecMonitor] = None

    # -- public entry ------------------------------------------------------

    def run(self) -> MCReport:
        """Explore, then minimize any counterexamples found."""
        report = MCReport(
            protocol=self.protocol_name,
            specification=self.spec.name,
            workload=self.workload.name,
            invoke_order=self.invoke_order,
            max_schedules=self.max_schedules,
            max_depth=self.max_depth,
            fault_budget=self.fault_budget,
            prefix_length=len(self.prefix),
        )
        self._report = report
        self._visited.clear()
        self.complete_runs.clear()
        self._run_signatures.clear()
        # One monitor for the whole search tree: pushed/popped along the
        # DFS so each node only verifies its new trace suffix.
        self._monitor = SpecMonitor(self.spec)
        try:
            self._explore(list(self.prefix), frozenset())
        except _BudgetExhausted:
            report.budget_exhausted = True
        except _EnoughViolations:
            report.stopped_at_max_violations = True
        report.distinct_complete_runs = len(self._run_signatures)
        report.verify_events = self._monitor.stats.events_checked
        report.verify_searches = self._monitor.stats.searches
        report.verify_candidates = self._monitor.stats.candidates
        if self.minimize:
            for violation in report.violations:
                violation.minimized = minimize_schedule(
                    violation.schedule, self.spec, protocol_factory=self.factory
                )
        return report

    # -- exploration -------------------------------------------------------

    def _replay(self, prefix: List[TransitionKey]) -> ControlledWorld:
        world = ControlledWorld(
            self.factory,
            self.workload,
            invoke_order=self.invoke_order,
            fault_budget=self.fault_budget,
        )
        world.run_schedule(prefix)
        report = self._report
        assert report is not None
        report.replays += 1
        report.transitions += len(prefix)
        return world

    def _leaf(self) -> None:
        report = self._report
        assert report is not None
        report.schedules_explored += 1
        if (
            self.max_schedules is not None
            and report.schedules_explored >= self.max_schedules
        ):
            raise _BudgetExhausted()

    def _explore(
        self, prefix: List[TransitionKey], sleep: FrozenSet[TransitionKey]
    ) -> None:
        report = self._report
        monitor = self._monitor
        assert report is not None and monitor is not None
        world = self._replay(prefix)
        # Deterministic replay: the fresh world's trace extends what the
        # monitor consumed at the parent node record for record.
        assert monitor.consumed <= world.record_count
        frame = monitor.push()
        try:
            started = perf_counter()
            violation = monitor.advance(world.trace)
            report.verify_seconds += perf_counter() - started
            self._explore_checked(prefix, sleep, world, violation)
        finally:
            monitor.pop(frame)

    def _explore_checked(
        self,
        prefix: List[TransitionKey],
        sleep: FrozenSet[TransitionKey],
        world: ControlledWorld,
        violation: Optional[FirstViolation],
    ) -> None:
        report = self._report
        assert report is not None
        if violation is not None:
            schedule = Schedule(
                protocol=self.protocol_name,
                workload=self.workload,
                keys=tuple(prefix),
                invoke_order=self.invoke_order,
                fault_budget=self.fault_budget,
            )
            from repro.obs.watchdog import Watchdog

            stuck = Watchdog().stuck(world.trace, protocols=world.protocols())
            report.violations.append(
                MCViolation(
                    schedule=schedule,
                    first=violation,
                    stuck=[entry.describe() for entry in stuck],
                )
            )
            self._leaf()
            if len(report.violations) >= self.max_violations:
                raise _EnoughViolations()
            return
        enabled = world.enabled()
        if not enabled:
            run = world.user_run()
            self._run_signatures.add(run.canonical_form())
            if self.collect_runs:
                self.complete_runs.add(run)
            self._leaf()
            return
        if len(prefix) >= self.max_depth:
            report.depth_truncations += 1
            self._leaf()
            return
        if self.use_state_cache:
            signature = world.signature()
            earlier = self._visited.get(signature)
            if earlier is not None and any(s <= sleep for s in earlier):
                report.pruned_state += 1
                return
            self._visited.setdefault(signature, []).append(sleep)
        asleep: Set[TransitionKey] = set(sleep)
        for key in enabled:
            if self.use_sleep_sets and key in asleep:
                report.pruned_sleep += 1
                continue
            child_sleep = frozenset(
                s for s in asleep if not transitions_dependent(s, key)
            )
            self._explore(prefix + [key], child_sleep)
            asleep.add(key)


def check_protocol(
    protocol: Union[str, ProtocolFactory],
    workload: Workload,
    spec: Optional[Union[Specification, ForbiddenPredicate]] = None,
    **options: Any,
) -> MCReport:
    """One-call model check: resolve names, explore, minimize.

    ``protocol`` is a registry name (``"fifo"``, ``"broken-fifo"``, ...)
    or a factory; with a name and no ``spec`` the protocol's own
    specification is used.  Remaining options go to :class:`ModelChecker`.
    """
    if isinstance(protocol, str):
        factory = resolve_protocol(protocol)
        options.setdefault("protocol_name", protocol)
        if spec is None:
            spec = resolve(protocol).spec
    else:
        factory = protocol
    if spec is None:
        raise ValueError("a specification is required for a custom factory")
    checker = ModelChecker(factory, workload, spec, **options)
    return checker.run()
