"""Execute a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

Topology: every host binds a *private* port and is fronted by a
:class:`~repro.faults.proxy.FaultProxy` on its *public* port (the one in
the cluster's port list).  Peers, the load generator and the live
observer all dial public ports, so the harness can sever or blackhole
any peer link -- or isolate a whole host from its peers -- without the
host's cooperation, exactly like a misbehaving network would.  Link
faults leave the load generator's and the observer's streams alone:
they are the harness's instruments, not the system under test (and a
blackholed client stream would never answer again).

Host handles come in two flavours:

:class:`InlineHost`
    a :class:`~repro.net.host.NetHost` in this process.  ``kill`` is
    :meth:`~repro.net.host.NetHost.crash` (volatile state gone, WAL
    kept) followed by a fresh ``NetHost`` on the same WAL directory;
    ``pause`` is emulated by blackholing every peer link to and from
    the host at the proxies (the observable silence of a SIGSTOP
    without the signal; clients keep their streams, which a stopped
    process's kernel would buffer).

:class:`ProcHost`
    a real ``repro serve`` OS process.  ``kill`` is SIGKILL + respawn;
    ``pause`` is SIGSTOP/SIGCONT.  Used by ``repro chaos --proc`` for
    full-fidelity runs; the inline flavour keeps tests fast.

The plan's virtual times are scaled by ``time_scale``.  Packet-fault
rates, a never-healing action and overlapping actions are refused: the
proxies fault links, not packets, a chaos run must re-converge, and the
harness applies one action at a time, in order.

A chaos run is a cluster run: :func:`~repro.net.cluster.drive_run`
offers the load, with the plan (ending in a restart of any dead host)
beside it, then DRAINs, quiesces and reduces
to a :class:`~repro.net.cluster.NetRunReport`.  The load generator
re-dials a killed host once it is back and keeps loading it.  The
:class:`ChaosReport` carries that run and the evidence only chaos
gathers, and holds when the three resilience invariants do:

1. **ordering holds**: the live :class:`~repro.verification.engine.SpecMonitor`
   saw no violation (and the end-of-run membership oracle agrees);
2. **no acked message lost**: every invoke recorded durably in some
   host's WAL has exactly one matching deliver EVENT in its receiver's
   WAL -- the cross-check joins on content-addressed ids, so it survives
   retransmission and replay;
3. **re-convergence**: within the deadline the run quiesces (every
   invoked message delivered, no local pending work) and all links
   report ``up``.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultAction, FaultPlan
from repro.faults.proxy import FaultProxy
from repro.net import codec
from repro.net.cluster import (
    LiveObserver,
    LoadGenerator,
    NetRunReport,
    drive_run,
    free_ports,
)
from repro.net.host import NetHost
from repro.net.resilience import LINK_UP, ReconnectPolicy, ResilienceConfig
from repro.net.transport import DEFAULT_TIME_SCALE
from repro.protocols.registry import CatalogueEntry, resolve

__all__ = ["ChaosReport", "InlineHost", "ProcHost", "run_chaos", "run_chaos_sync"]


def fast_resilience(deadline: float = 20.0) -> ResilienceConfig:
    """Chaos-speed knobs: 50ms heartbeats so a blackhole is detected in
    well under a second, sub-second reconnect backoff cap."""
    return ResilienceConfig(
        heartbeat_interval=0.05,
        reconnect=ReconnectPolicy(base=0.05, cap=0.5, deadline=deadline),
    )


# -- host handles --------------------------------------------------------------


class InlineHost:
    """An in-process :class:`NetHost` behind its fault proxy."""

    def __init__(
        self,
        entry: CatalogueEntry,
        process_id: int,
        public_ports: Sequence[int],
        private_port: int,
        wal_root: str,
        run_id: str,
        resilience: ResilienceConfig,
        time_scale: float = DEFAULT_TIME_SCALE,
        wal_meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.entry = entry
        self.process_id = process_id
        #: One incarnation: each recovers from the same WAL directory.
        self._incarnation = functools.partial(
            NetHost,
            entry.factory,
            process_id,
            list(public_ports),
            run_id=run_id,
            time_scale=time_scale,
            wal_dir=wal_root,
            wal_meta=wal_meta,
            resilience=resilience,
            listen_port=private_port,
        )
        self.host: Optional[NetHost] = None
        self.restarts = 0
        #: Killed incarnations' error lines (a live one's are in its STATS).
        self.errors: List[str] = []

    async def start(self) -> None:
        self.host = self._incarnation()
        await self.host.start()

    @property
    def alive(self) -> bool:
        return self.host is not None and not self.host._done.is_set()

    async def kill(self) -> None:
        """Die like a SIGKILL: volatile state gone, WAL intact."""
        if self.host is not None:
            self.errors.extend(self.host.errors)
            await self.host.crash()

    async def restart(self) -> None:
        """A new incarnation recovers from the WAL and re-joins."""
        self.restarts += 1
        await self.start()

    async def shutdown(self) -> None:
        if self.host is not None:
            await self.host.shutdown()


class ProcHost:
    """A ``repro serve`` OS process behind its fault proxy."""

    def __init__(
        self,
        entry: CatalogueEntry,
        process_id: int,
        port_base: int,
        n_processes: int,
        private_port: int,
        wal_root: str,
        run_id: str,
        time_scale: float = DEFAULT_TIME_SCALE,
        heartbeat_interval: float = 0.05,
    ) -> None:
        self.entry = entry
        self.process_id = process_id
        self.port_base = port_base
        self.n_processes = n_processes
        self.private_port = private_port
        self.wal_root = wal_root
        self.run_id = run_id
        self.time_scale = time_scale
        self.heartbeat_interval = heartbeat_interval
        self.proc: Optional[subprocess.Popen] = None
        self.restarts = 0
        self.errors: List[str] = []

    def _command(self) -> List[str]:
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            self.entry.name,  # resolves to this entry in the child too
            "--processes",
            str(self.n_processes),
            "--process-id",
            str(self.process_id),
            "--port-base",
            str(self.port_base),
            "--listen-port",
            str(self.private_port),
            "--run-id",
            self.run_id,
            "--time-scale",
            str(self.time_scale),
            "--heartbeat-interval",
            str(self.heartbeat_interval),
            "--wal",
            self.wal_root,
        ]

    async def start(self) -> None:
        """Spawn the process and return once it listens, as an inline
        host's start does (a connection closed before its HELLO is one
        a host drops without an error line)."""
        self.proc = subprocess.Popen(
            self._command(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 20.0
        while True:
            try:
                probe = await asyncio.open_connection("127.0.0.1", self.private_port)
                probe[1].close()
                return
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise
                await asyncio.sleep(0.05)

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    async def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()  # SIGKILL: no drain, no final fsync
            self.proc.wait()

    async def restart(self) -> None:
        self.restarts += 1
        await self.start()

    def pause(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGSTOP)

    def resume(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGCONT)

    async def shutdown(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# -- the report ----------------------------------------------------------------


@dataclass
class ChaosReport:
    """What one chaos run proved (the ``repro chaos`` JSON output).

    ``run`` is the cluster run it was; the other fields are what only
    chaos checks."""

    run: NetRunReport
    seed: int
    mode: str  # "inline" | "proc"
    plan: FaultPlan
    acked: int = 0  # durably-logged invokes (the loss-invariant universe)
    acked_lost: List[str] = field(default_factory=list)
    double_delivered: List[str] = field(default_factory=list)
    converge_seconds: float = 0.0  # DRAIN -> quiescence, every link up
    convergence_deadline: float = 0.0
    links_up: bool = False
    restarts: int = 0
    observer_reconnects: int = 0  # re-attaches that reached READY
    #: The hosts' ``link.*`` counters, summed from one METRICS pull once
    #: the run converged; a killed incarnation's counts died with it.
    link_transitions: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """All three invariants held: the run's own verdict with its
        error lines (chaos debris on killed incarnations, mostly) set
        aside, every link up, and the WAL cross-check clean."""
        return (
            replace(self.run, errors=[]).ok
            and self.links_up
            and not self.acked_lost
            and not self.double_delivered
        )

    def to_json(self) -> Dict[str, Any]:
        body = dict(self.__dict__)
        body["plan"] = self.plan.to_json()
        body["run"] = {
            key: value
            for key, value in self.run.__dict__.items()
            if key not in ("latencies", "e2e_latencies", "host_stats")
        }
        body["ok"] = self.ok
        return body

    def render(self) -> str:
        lines = [
            self.run.render(),
            "chaos: seed %d, %s hosts" % (self.seed, self.mode),
            "  plan        %s" % self.plan.describe(),
            "  durability  %d acked: %s"
            % (self.acked,
               "none lost or double-delivered"
               if not self.acked_lost and not self.double_delivered
               else "%d LOST, %d DOUBLE-DELIVERED"
               % (len(self.acked_lost), len(self.double_delivered))),
            "  convergence %.2fs after DRAIN (deadline %.1fs), %s"
            % (self.converge_seconds, self.convergence_deadline,
               "all links up" if self.links_up else "links NOT all up"),
            "  recovery    %d restarts, %d observer reconnects"
            % (self.restarts, self.observer_reconnects),
        ]
        if self.link_transitions:
            lines.append(
                "  detector    "
                + ", ".join(
                    "%s=%d" % (k, v)
                    for k, v in sorted(self.link_transitions.items())
                )
            )
        lines.append("  verdict     %s" % ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def link_counts(bodies: List[Dict[str, Any]]) -> Dict[str, int]:
    """The ``link.*`` counters of METRICS bodies, summed over hosts and
    keyed by the probe that counts them."""
    counts: Counter = Counter()
    for body in bodies:
        snapshot = body.get("snapshot", {})
        by_state = snapshot.get("link.transitions", {}).get("by_label", {})
        for state, count in by_state.items():
            counts["link." + state] += int(count)
        for name in ("redial", "giveup"):
            counts["link." + name] += int(
                snapshot.get("link.%ss" % name, {}).get("value", 0)
            )
    return {probe: count for probe, count in counts.items() if count}


# -- invariant 2: the WAL cross-check -----------------------------------------


def wal_cross_check(
    wal_root: str, n_processes: int
) -> Tuple[int, List[str], List[str]]:
    """Join every durably-acked invoke against its receiver's delivers.

    Returns ``(acked, lost_ids, double_ids)``.  An invoke is *acked*
    once its INPUT record is in the inviting host's WAL -- anything the
    load generator offered that died in a socket buffer before that
    point was never acknowledged and is legitimately lost.  The join key
    is the content-addressed message id, so a retransmitted or replayed
    copy of the same message cannot masquerade as a second delivery.
    """
    from repro.events import DELIVER, INVOKE
    from repro.wal import content_id, read_log, resolve_events

    invoked: Dict[str, Tuple[str, int]] = {}
    delivers: Dict[int, Counter] = {p: Counter() for p in range(n_processes)}
    for process in range(n_processes):
        directory = os.path.join(wal_root, "p%d" % process)
        if not os.path.isdir(directory):
            continue
        records = read_log(directory).records
        for _t, _p, event, message in resolve_events(records, verify=False):
            if event.kind is INVOKE:  # in a version-2 log, the INPUT itself
                invoked[content_id(message)] = (message.id, message.receiver)
            elif event.kind is DELIVER:
                delivers[process][content_id(message)] += 1
    copies = [
        (mid, delivers.get(receiver, Counter())[cid])
        for cid, (mid, receiver) in invoked.items()
    ]
    lost = sorted(mid for mid, count in copies if count == 0)
    double = sorted(mid for mid, count in copies if count > 1)
    return len(invoked), lost, double


# -- the run -------------------------------------------------------------------


async def run_chaos(
    protocol: str = "fifo",
    *,
    wal_root: str,
    n_processes: int = 3,
    seed: int = 0,
    rate: float = 200.0,
    duration: float = 3.0,
    n_actions: int = 3,
    kinds: Optional[Sequence[str]] = None,
    plan: Optional[FaultPlan] = None,
    spec: Any = "auto",
    convergence_deadline: float = 15.0,
    proc: bool = False,
    port_base: Optional[int] = None,
    time_scale: float = DEFAULT_TIME_SCALE,
    closed_loop: bool = True,
    resilience: Optional[ResilienceConfig] = None,
) -> ChaosReport:
    """One seeded chaos run; see the module docstring for the contract.

    ``spec="auto"`` monitors the protocol's own default specification
    live (``None`` disables monitoring).  ``wal_root`` must be a fresh
    directory per run -- the WALs double as the loss-invariant evidence.
    ``resilience`` overrides the default fast-heartbeat configuration
    (inline hosts only; proc hosts take the heartbeat interval on their
    command line) -- the knob the backpressure benchmarks turn.
    """
    # Chaos severs real links: the channel assumption is gone, so the
    # ARQ sublayer is not optional here.  Both handle flavours run this
    # one entry: inline hosts its factory, `repro serve` its name.
    entry = resolve(protocol).reliable()
    if spec == "auto":
        spec = entry.spec

    if plan is None:
        plan = FaultPlan.generate(
            seed,
            n_processes,
            duration / time_scale,
            n_actions=n_actions,
            kinds=tuple(kinds) if kinds else ("kill", "sever", "blackhole"),
        )
    if plan.packet_faults:
        raise ValueError("a chaos run faults links, not packets: "
                         "its plan takes no rates, channel overrides or script")
    previous = None
    for action in plan.actions:
        if action.duration is None:
            raise ValueError("a chaos run must re-converge, but %r never heals"
                             % action.describe())
        if previous is not None and action.at < previous.ends_at:
            raise ValueError("a chaos run applies one action at a time, but %r "
                             "overlaps %r" % (action.describe(), previous.describe()))
        previous = action
        if {action.target, action.src} - set(range(n_processes)) - {None}:
            raise ValueError("%r names a process outside the %d hosts"
                             % (action.describe(), n_processes))
    run_id = "chaos-%d" % seed
    if proc and port_base is None:
        raise ValueError("proc mode needs an explicit port_base "
                         "(serve processes use contiguous ports)")
    if port_base is not None:
        ports = list(range(port_base, port_base + 2 * n_processes))
    else:
        ports = free_ports(2 * n_processes)
    public, private = ports[:n_processes], ports[n_processes:]

    if resilience is None:
        resilience = fast_resilience(deadline=max(convergence_deadline, 10.0))

    proxies = [
        FaultProxy(public[index], private[index])
        for index in range(n_processes)
    ]
    handles: List[Any] = [
        ProcHost(
            entry,
            index,
            public[0],
            n_processes,
            private[index],
            wal_root,
            run_id,
            time_scale=time_scale,
            heartbeat_interval=resilience.heartbeat_interval,
        )
        if proc
        else InlineHost(
            entry,
            index,
            public,
            private[index],
            wal_root,
            run_id,
            resilience,
            time_scale=time_scale,
            wal_meta={"protocol": protocol},
        )
        for index in range(n_processes)
    ]

    observer = LiveObserver(n_processes, spec=spec) if spec is not None else None
    load = LoadGenerator(public, run_id=run_id, seed=seed)

    async def apply_action(action: FaultAction) -> None:
        handle = handles[action.target]
        outage = action.duration * time_scale
        if action.kind == "kill":
            await handle.kill()
            await asyncio.sleep(outage)
            await handle.restart()
            return
        if action.kind == "pause" and proc:
            handle.pause()
            await asyncio.sleep(outage)
            handle.resume()
            return
        # Peer links only (see the module docstring).
        target = action.target
        sources = action.sources(n_processes)
        links = [(proxies[target], src) for src in sources]
        if action.kind == "pause":
            # SIGSTOP emulation: silence on every peer link, both ways.
            links += [(proxies[src], target) for src in sources]
        fault = FaultProxy.sever if action.kind == "sever" else FaultProxy.blackhole
        for proxy, src in links:
            fault(proxy, src)
        await asyncio.sleep(outage)
        for proxy, src in links:
            proxy.heal(src)

    async def execute_plan() -> None:
        loop = asyncio.get_running_loop()
        started = loop.time()
        for action in plan.actions:
            delay = started + action.at * time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await apply_action(action)
        # Every action healed (a never-healing one was refused); a host
        # that died outside the plan is restarted all the same.
        for handle in handles:
            if not handle.alive:
                await handle.restart()

    def all_links_up(stats: List[Dict[str, Any]]) -> bool:
        return bool(stats) and all(
            state == LINK_UP
            for body in stats
            for state in body.get("links", {}).values()
        )

    shutdown_errors: List[str] = []
    try:
        for proxy in proxies:
            await proxy.start()
        for handle in handles:
            await handle.start()
        if observer is not None:
            await observer.connect(public, run_id=run_id)
        await load.connect()
        # Invariant 3, first half: quiescence within the deadline.
        run = await drive_run(
            load,
            observer,
            protocol,
            rate,
            duration,
            convergence_deadline,
            closed_loop=closed_loop,
            beside=execute_plan(),
        )
        # Second half: every link up, within the same deadline.
        converging = run.elapsed - run.load_seconds
        checked = time.monotonic()
        stats = run.host_stats
        while (
            not all_links_up(stats)
            and time.monotonic() - checked < convergence_deadline - converging
        ):
            await asyncio.sleep(0.1)
            stats = await load.stats()
        report = ChaosReport(
            run=run,
            seed=seed,
            mode="proc" if proc else "inline",
            plan=plan,
            converge_seconds=converging + time.monotonic() - checked,
            convergence_deadline=convergence_deadline,
            links_up=all_links_up(stats),
            restarts=sum(handle.restarts for handle in handles),
            observer_reconnects=observer.reconnects if observer is not None else 0,
        )
        try:
            report.link_transitions = link_counts(await load.metrics())
        except (ConnectionError, codec.CodecError) as exc:
            run.errors.append("metrics pull: %s" % exc)
    finally:
        await load.close()
        if observer is not None:
            await observer.close()
        for handle in handles:
            try:
                await handle.shutdown()
            except Exception as exc:  # noqa: BLE001 - teardown must finish
                shutdown_errors.append(
                    "shutdown of host %s: %s" % (handle.process_id, exc)
                )
        for proxy in proxies:
            await proxy.close()

    # Invariant 2: the durable cross-check (after shutdown: final fsync).
    report.acked, report.acked_lost, report.double_delivered = wal_cross_check(
        wal_root, n_processes
    )
    # The "gave up re-dialing" and transient-stream errors are expected
    # chaos debris on *killed* incarnations; real problems (protocol
    # errors, WAL corruption) surface through the invariants.  Keep host
    # errors out of the verdict but visible for forensics.
    run.errors.extend(shutdown_errors)
    for handle in handles:
        run.errors.extend(
            "P%d: %s" % (handle.process_id, error) for error in handle.errors
        )
    return report


def run_chaos_sync(*args: Any, **kwargs: Any) -> ChaosReport:
    """:func:`run_chaos` from synchronous code (tests, CLI)."""
    return asyncio.run(run_chaos(*args, **kwargs))
