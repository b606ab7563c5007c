"""The controllable execution world: same hosts and protocols, explicit schedule.

:func:`~repro.simulation.runner.run_simulation` resolves the network's
nondeterminism with seeded latencies; the model checker resolves it
*adversarially*.  A :class:`ControlledWorld` builds the very same
:class:`~repro.simulation.host.ProtocolHost` / \
:class:`~repro.simulation.network.Network` / \
:class:`~repro.simulation.trace.Trace` stack, but virtual time is a step
counter, the transport parks packets instead of scheduling arrivals, and
protocol timers become explicit transitions.  At every point the world
exposes the set of *enabled transitions*; an explorer (or a replayed
schedule) chooses which one executes next.

Transition keys -- stable across replays *and* across commutations of
independent transitions, so they double as schedule serialization format
and as pruning signatures:

``("invoke", p, i)``
    the workload's ``i``-th request executes at its sender ``p``;
``("deliver", s, d, k)``
    delivery of the ``k``-th packet transmitted on channel ``(s, d)``;
``("timer", p, j)``
    the ``j``-th timer created at process ``p`` fires;
``("drop", s, d, k[, n])``
    the adversary destroys that pending packet (fault budget permitting);
``("dup", s, d, k[, n])``
    the adversary duplicates it -- the copy parks under
    ``("deliver", s, d, k, n')`` with a fresh per-packet copy number
    ``n'``, so duplicated (and re-duplicated) deliveries keep stable keys.

Every transition executes at exactly one *home* process (the invoker, the
packet destination, the timer owner).  Transitions with different homes
commute: they read and write disjoint protocol state and append to
disjoint per-process event sequences, so either execution order reaches
the same world state and the same user-view run.

Replays are *deterministic*: rebuilding a world and executing the same
key sequence reproduces the trace bit-identically (every source of
nondeterminism is scheduled).  The explorer's shared
:class:`~repro.verification.engine.SpecMonitor` depends on this -- a
child schedule's trace extends its parent's record for record, so the
monitor can consume only the suffix at each search-tree node.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.events import Message
from repro.simulation.host import ProtocolHost
from repro.simulation.network import Network, Packet, Transport
from repro.simulation.trace import SimulationStats, Trace
from repro.simulation.workloads import Workload
from repro.runs.user_run import UserRun

#: A transition key (one of the three shapes documented above).
TransitionKey = Tuple[Any, ...]

#: The protocol factory shape shared with the simulation runner.
ProtocolFactory = Callable[[int, int], object]

INVOKE_ORDERS = ("script", "free")


class ScheduleError(RuntimeError):
    """A schedule referenced a transition that is not currently enabled."""


def transition_home(key: TransitionKey) -> int:
    """The single process at which a transition executes protocol code.

    Fault transitions are homed at the packet's destination: a drop or a
    duplication conflicts with delivering the same packet (both consume
    or extend the same pending entry), and treating them as dependent on
    everything else at that destination is conservative but sound.
    """
    if key[0] in ("deliver", "drop", "dup"):
        return key[2]
    return key[1]


def _packet_lineage(key: TransitionKey) -> Tuple[Any, ...]:
    """The ``(src, dst, channel_seq)`` triple of the packet (or packet
    copy) a deliver/drop/dup key operates on."""
    return key[1:4]


def transitions_dependent(a: TransitionKey, b: TransitionKey) -> bool:
    """Whether two transitions may fail to commute.

    Non-fault transitions are dependent iff they share a home process
    (they execute protocol code there).  Fault transitions execute *no*
    protocol code -- a drop or dup only mutates one pending entry and the
    shared budget -- so they are dependent on each other (two faults
    racing for the last budget unit do not commute), on deliveries of the
    same packet lineage (both consume or extend the same entry), and on
    nothing else.
    """
    a_fault = a[0] in ("drop", "dup")
    b_fault = b[0] in ("drop", "dup")
    if a_fault and b_fault:
        return True
    if a_fault or b_fault:
        fault, other = (a, b) if a_fault else (b, a)
        return other[0] == "deliver" and _packet_lineage(other) == _packet_lineage(
            fault
        )
    return transition_home(a) == transition_home(b)


class StepClock:
    """A :class:`~repro.simulation.sim.Simulator`-compatible clock whose
    time is the number of executed transitions.

    ``schedule`` calls (protocol timers via ``ctx.schedule``) are captured
    as transitions instead of queued: the model checker is time-abstract,
    so any pending timer may fire whenever the adversary chooses.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._capture: Optional[Callable[[Callable[[], None]], None]] = None

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Capture a protocol timer as a controllable transition."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        assert self._capture is not None
        self._capture(action)


class ControlledTransport(Transport):
    """Parks transmitted packets until the explorer dispatches them."""

    def __init__(self) -> None:
        self.pending: Dict[TransitionKey, Packet] = {}
        # Copies created per base delivery key, so duplicated packets get
        # deterministic extended keys (stable across commutations: the
        # n-th copy of a given packet is always copy n).
        self._dup_counts: Dict[TransitionKey, int] = {}

    def transmit(self, network: Network, packet: Packet) -> None:
        """Park the packet under its delivery key; arrival is external."""
        key = ("deliver", packet.src, packet.dst, packet.channel_seq)
        if key in self.pending:
            # Only a FaultyTransport duplicating at transmit time re-parks
            # the same channel slot; treat it as a copy.
            key = self._copy_key(key)
        self.pending[key] = packet

    def _copy_key(self, base: TransitionKey) -> TransitionKey:
        count = self._dup_counts.get(base, 0) + 1
        self._dup_counts[base] = count
        return base + (count,)

    def drop(self, key: TransitionKey) -> Packet:
        """Destroy a pending packet (a fault transition consumed it)."""
        return self.pending.pop(key)

    def duplicate(self, key: TransitionKey) -> TransitionKey:
        """Park a second copy of a pending packet; returns the copy's key."""
        packet = self.pending[key]
        base = key[:4]
        copy_key = self._copy_key(base)
        self.pending[copy_key] = packet
        return copy_key


def _packet_content(packet: Packet) -> Tuple[Any, ...]:
    """A structural signature of what the destination protocol will see."""
    if packet.is_user:
        message = packet.message
        assert message is not None
        return ("user", message.id, repr(packet.tag))
    return ("control", repr(packet.payload))


class ControlledWorld:
    """One execution under explicit scheduling, built from a fresh stack.

    ``invoke_order`` fixes how much of the request script the adversary
    controls: ``"script"`` (the default) keeps each process's invokes in
    workload order (the script is the program; only the network is
    adversarial), while ``"free"`` lets the explorer also permute a
    process's own invokes -- the mode in which the reachable user-view
    runs of the null protocol are exactly the
    :mod:`repro.runs.enumeration` universe.
    """

    def __init__(
        self,
        protocol_factory: ProtocolFactory,
        workload: Workload,
        invoke_order: str = "script",
        fault_budget: int = 0,
    ):
        if invoke_order not in INVOKE_ORDERS:
            raise ValueError(
                "invoke_order must be one of %r, got %r"
                % (INVOKE_ORDERS, invoke_order)
            )
        if fault_budget < 0:
            raise ValueError("fault_budget must be non-negative")
        self.workload = workload
        self.invoke_order = invoke_order
        self.fault_budget = fault_budget
        self.faults_used = 0
        self.drops_used = 0
        self.clock = StepClock()
        self.clock._capture = self._capture_timer
        self.transport = ControlledTransport()
        self.network = Network(
            self.clock, workload.n_processes, transport=self.transport
        )
        self.trace = Trace(workload.n_processes)
        self.stats = SimulationStats()
        self.steps = 0
        self._timers: Dict[TransitionKey, Callable[[], None]] = {}
        self._timer_counts: List[int] = [0] * workload.n_processes
        # Per-process interaction history: everything the local protocol
        # instance has observed, in order.  Protocols are deterministic
        # functions of this history, which makes it (together with the
        # pending sets) a sound state signature.
        self._histories: List[Tuple[Tuple[Any, ...], ...]] = [
            () for _ in range(workload.n_processes)
        ]
        self._current_process = 0
        self.hosts = [
            ProtocolHost(
                self.clock,
                self.network,
                self.trace,
                self.stats,
                process_id,
                protocol_factory(process_id, workload.n_processes),
            )
            for process_id in range(workload.n_processes)
        ]
        for host in self.hosts:
            self._current_process = host.process_id
            host.start()
        self._invoke_queues: List[List[Tuple[int, Message]]] = [
            [] for _ in range(workload.n_processes)
        ]
        for index, message in enumerate(workload.messages()):
            self._invoke_queues[message.sender].append((index, message))

    # -- timer capture -----------------------------------------------------

    def _capture_timer(self, action: Callable[[], None]) -> None:
        owner = self._current_process
        index = self._timer_counts[owner]
        self._timer_counts[owner] = index + 1
        self._timers[("timer", owner, index)] = action

    # -- the explorer's interface ------------------------------------------

    def enabled(self) -> List[TransitionKey]:
        """Every currently executable transition, in deterministic order."""
        keys: List[TransitionKey] = []
        for process, queue in enumerate(self._invoke_queues):
            if not queue:
                continue
            if self.invoke_order == "script":
                keys.append(("invoke", process, queue[0][0]))
            else:
                keys.extend(("invoke", process, index) for index, _ in queue)
        keys.extend(self.transport.pending.keys())
        if self.faults_used < self.fault_budget:
            for pending_key, packet in self.transport.pending.items():
                keys.append(("drop",) + pending_key[1:])
                # Duplication is enabled for user-message packets whose
                # destination protocol declared it can absorb repeats;
                # anything else would turn a network fault into a
                # host-level ProtocolError.  (Control duplicates reduce to
                # the same protocol-level dedup path and are idempotent by
                # the ARQ construction, so exploring them adds branches
                # without adding behaviours.)
                if packet.is_user and getattr(
                    self.hosts[packet.dst].protocol, "accepts_duplicates", False
                ):
                    keys.append(("dup",) + pending_key[1:])
        for timer_key in self._timers:
            # A protocol that declares its timers pure loss recovery
            # (see ``Protocol.timers_pure_recovery``) keeps them out of
            # the tree until the adversary has actually destroyed a
            # packet: in a loss-free prefix, firing such a timer only
            # produces redundant copies the receiver dedups, so every
            # interleaving it opens reaches an already-covered user run.
            # This is what makes fault-budget exploration of the ARQ
            # sublayer tractable -- without it each armed timer branches
            # the tree at every subsequent step.
            protocol = self.hosts[timer_key[1]].protocol
            if self.drops_used == 0 and getattr(
                protocol, "timers_pure_recovery", False
            ):
                continue
            keys.append(timer_key)
        return sorted(keys)

    def execute(self, key: TransitionKey) -> None:
        """Execute one enabled transition (protocol reactions run inline)."""
        kind = key[0]
        self.steps += 1
        self.clock.now = float(self.steps)
        if kind == "invoke":
            _, process, index = key
            queue = self._invoke_queues[process]
            position = next(
                (pos for pos, (i, _) in enumerate(queue) if i == index), None
            )
            if position is None or (
                self.invoke_order == "script" and position != 0
            ):
                raise ScheduleError("invoke %r is not enabled" % (key,))
            _, message = queue.pop(position)
            self._current_process = process
            self._histories[process] += (("inv", message.id),)
            self.hosts[process].invoke(message)
        elif kind == "deliver":
            packet = self.transport.pending.pop(key, None)
            if packet is None:
                raise ScheduleError("delivery %r is not enabled" % (key,))
            destination = packet.dst
            self._current_process = destination
            self._histories[destination] += (
                ("pkt", packet.src) + _packet_content(packet),
            )
            self.network.handler_for(destination)(packet)
        elif kind == "timer":
            action = self._timers.pop(key, None)
            if action is None:
                raise ScheduleError("timer %r is not enabled" % (key,))
            _, owner, index = key
            self._current_process = owner
            self._histories[owner] += (("timer", index),)
            action()
        elif kind in ("drop", "dup"):
            if self.faults_used >= self.fault_budget:
                raise ScheduleError(
                    "fault %r exceeds the budget of %d" % (key, self.fault_budget)
                )
            pending_key = ("deliver",) + key[1:]
            if pending_key not in self.transport.pending:
                raise ScheduleError("fault %r is not enabled" % (key,))
            if kind == "drop":
                self.transport.drop(pending_key)
                self.drops_used += 1
            else:
                self.transport.duplicate(pending_key)
            self.faults_used += 1
        else:
            raise ScheduleError("unknown transition key %r" % (key,))

    def run_schedule(self, keys) -> None:
        """Execute a sequence of transitions (strict: all must be enabled)."""
        for key in keys:
            self.execute(key)

    # -- state inspection --------------------------------------------------

    def signature(self) -> Tuple[Any, ...]:
        """A structural state signature: equal signatures have identical
        continuations.

        Protocol state is a deterministic function of the per-process
        interaction history; pending packets are identified by channel
        position *and* content (two interleavings can load the same
        channel slot with different tags), timers and remaining invokes
        by their stable keys.  No lossy hashing is involved, so pruning
        on signature equality keeps exhaustive exploration exact.
        """
        pending = frozenset(
            key + _packet_content(packet)
            for key, packet in self.transport.pending.items()
        )
        return (
            tuple(self._histories),
            pending,
            frozenset(self._timers),
            tuple(tuple(i for i, _ in queue) for queue in self._invoke_queues),
            # Fault budget consumed (and copy counters, which name future
            # dup keys): states differing here have different continuations.
            # Drops are counted separately because they gate recovery
            # timers in :meth:`enabled`.
            self.faults_used,
            self.drops_used,
            frozenset(self.transport._dup_counts.items()),
        )

    def is_drained(self) -> bool:
        """Whether no transition is enabled (the execution is maximal).

        Defined on :meth:`enabled` rather than the raw queues: a pure
        loss-recovery timer that is gated out (no drop has occurred) does
        not keep an otherwise-finished execution alive.
        """
        return not self.enabled()

    @property
    def record_count(self) -> int:
        """How many trace records the execution has appended so far (the
        alignment point for an incremental monitor)."""
        return self.trace.record_count

    def user_run(self) -> UserRun:
        """The user's view of the execution so far."""
        return self.trace.to_user_run()

    def protocols(self) -> List[object]:
        """The per-process protocol instances (for blocking reports)."""
        return [host.protocol for host in self.hosts]

    def __repr__(self) -> str:
        return "ControlledWorld(steps=%d, enabled=%d, workload=%r)" % (
            self.steps,
            len(self.enabled()),
            self.workload.name,
        )
