"""Execute a :class:`~repro.chaos.plan.ChaosPlan` against a live cluster.

Topology: every host binds a *private* port and is fronted by a
:class:`~repro.faults.proxy.FaultProxy` on its *public* port (the one in
the cluster's port list).  Peers, the load generator and the live
observer all dial public ports, so the harness can sever or blackhole
any link -- or isolate a whole host -- without the host's cooperation,
exactly like a misbehaving network would.

Host handles come in two flavours:

:class:`InlineHost`
    a :class:`~repro.net.host.NetHost` in this process.  ``kill`` is
    :meth:`~repro.net.host.NetHost.crash` (volatile state gone, WAL
    kept) followed by a fresh ``NetHost`` on the same WAL directory;
    ``pause`` is emulated by blackholing every link to and from the
    host at the proxies (the observable silence of a SIGSTOP without
    the signal).

:class:`ProcHost`
    a real ``repro serve`` OS process.  ``kill`` is SIGKILL + respawn;
    ``pause`` is SIGSTOP/SIGCONT.  Used by ``repro chaos --proc`` for
    full-fidelity runs; the inline flavour keeps tests fast.

After the plan completes the harness heals everything and asserts the
three resilience invariants, reducing the evidence to a
:class:`ChaosReport`:

1. **ordering holds**: the live :class:`~repro.verification.engine.SpecMonitor`
   saw no violation (and the end-of-run membership oracle agrees);
2. **no acked message lost**: every invoke recorded durably in some
   host's WAL has exactly one matching deliver EVENT in its receiver's
   WAL -- the cross-check joins on content-addressed ids, so it survives
   retransmission and replay;
3. **re-convergence**: within the deadline every host is reachable
   again, all links report ``up``, and delivered == invoked with no
   local pending work.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import ChaosAction, ChaosPlan
from repro.faults.proxy import FaultProxy
from repro.net import codec
from repro.net.client import ControlLink, quiesced
from repro.net.cluster import LiveObserver, LoadGenerator, free_ports
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
        self.public_ports = list(public_ports)
        self.private_port = private_port
        self.wal_root = wal_root
        self.run_id = run_id
        self.resilience = resilience
        self.time_scale = time_scale
        self.wal_meta = wal_meta
        self.host: Optional[NetHost] = None
        self.restarts = 0
        self.errors: List[str] = []

    def _make(self) -> NetHost:
        return NetHost(
            self.entry.factory,
            self.process_id,
            self.public_ports,
            run_id=self.run_id,
            time_scale=self.time_scale,
            wal_dir=self.wal_root,
            wal_meta=self.wal_meta,
            resilience=self.resilience,
            listen_port=self.private_port,
        )

    async def start(self) -> None:
        self.host = self._make()
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
        self.host = self._make()
        await self.host.start()

    async def shutdown(self) -> None:
        if self.host is not None:
            self.errors.extend(
                error
                for error in self.host.errors
                if error not in self.errors
            )
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
        self.proc = subprocess.Popen(
            self._command(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

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
    """What one chaos run proved (the ``repro chaos`` JSON output)."""

    protocol: str
    n_processes: int
    seed: int
    mode: str  # "inline" | "proc"
    plan: Dict[str, Any]
    requested: int = 0
    invoked: int = 0
    delivered: int = 0
    acked: int = 0  # durably-logged invokes (the loss-invariant universe)
    acked_lost: List[str] = field(default_factory=list)
    double_delivered: List[str] = field(default_factory=list)
    violation: Optional[str] = None
    reconverged: bool = False
    converge_seconds: float = 0.0
    convergence_deadline: float = 0.0
    links_up: bool = False
    redials: int = 0
    restarts: int = 0
    frames_shed: int = 0
    backpressure_signals: int = 0
    observer_reconnects: int = 0
    link_transitions: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """All three invariants held."""
        return (
            self.violation is None
            and not self.acked_lost
            and not self.double_delivered
            and self.reconverged
            and self.links_up
        )

    def to_json(self) -> Dict[str, Any]:
        body = dict(self.__dict__)
        body["ok"] = self.ok
        return body

    def render(self) -> str:
        lines = [
            "chaos run: %s over %d processes (seed %d, %s hosts)"
            % (self.protocol, self.n_processes, self.seed, self.mode),
            "  plan        %s"
            % ("; ".join(
                ChaosAction.from_json(a).describe()
                for a in self.plan.get("actions", [])
            ) or "none"),
            "  messages    %d requested, %d invoked (%d acked), %d delivered"
            % (self.requested, self.invoked, self.acked, self.delivered),
            "  ordering    %s"
            % ("violation-free" if self.violation is None
               else "VIOLATED: %s" % self.violation),
            "  durability  %s"
            % ("no acked message lost or double-delivered"
               if not self.acked_lost and not self.double_delivered
               else "%d LOST, %d DOUBLE-DELIVERED"
               % (len(self.acked_lost), len(self.double_delivered))),
            "  convergence %s"
            % ("re-converged in %.2fs (deadline %.1fs), all links up"
               % (self.converge_seconds, self.convergence_deadline)
               if self.reconverged and self.links_up
               else "FAILED (reconverged=%s links_up=%s after %.2fs)"
               % (self.reconverged, self.links_up, self.converge_seconds)),
            "  recovery    %d restarts, %d re-dials, %d frames shed, "
            "%d backpressure signals"
            % (self.restarts, self.redials, self.frames_shed,
               self.backpressure_signals),
        ]
        if self.link_transitions:
            lines.append(
                "  detector    "
                + ", ".join(
                    "%s=%d" % (k, v)
                    for k, v in sorted(self.link_transitions.items())
                )
            )
        for error in self.errors:
            lines.append("  error       %s" % error)
        lines.append("  verdict     %s" % ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


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


# -- wire polling (fresh connection per poll: load streams die with hosts) -----


async def poll_stats(
    port: int,
    run_id: str,
    host: str = "127.0.0.1",
    timeout: float = 2.0,
) -> Optional[Dict[str, Any]]:
    """One STATS body over a throwaway load connection, or ``None`` if
    the host is unreachable / not (yet) ready within ``timeout``."""
    link = ControlLink(host, port, "load", run_id)

    async def once() -> Dict[str, Any]:
        await link.connect(timeout=0.0)  # a down host is an answer, not a wait
        await link.ready(timeout=None)
        return await link.request(codec.STATS)

    try:
        return await asyncio.wait_for(once(), timeout)
    except (OSError, asyncio.TimeoutError, codec.CodecError):
        return None
    finally:
        await link.close()


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
    plan: Optional[ChaosPlan] = None,
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
        plan = ChaosPlan.generate(
            seed,
            n_processes,
            duration,
            n_actions=n_actions,
            kinds=tuple(kinds) if kinds else ("kill", "sever", "blackhole"),
        )
    run_id = "chaos-%d" % seed
    if port_base is not None:
        public = [port_base + index for index in range(n_processes)]
        private = [port_base + n_processes + index for index in range(n_processes)]
    else:
        if proc:
            raise ValueError("proc mode needs an explicit port_base "
                             "(serve processes use contiguous ports)")
        ports = free_ports(2 * n_processes)
        public, private = ports[:n_processes], ports[n_processes:]

    if resilience is None:
        resilience = fast_resilience(deadline=max(convergence_deadline, 10.0))
    report = ChaosReport(
        protocol=protocol,
        n_processes=n_processes,
        seed=seed,
        mode="proc" if proc else "inline",
        plan=plan.to_json(),
        convergence_deadline=convergence_deadline,
    )

    proxies = [
        FaultProxy(public[index], private[index])
        for index in range(n_processes)
    ]
    handles: List[Any] = []
    if proc:
        assert port_base is not None
        for index in range(n_processes):
            handles.append(
                ProcHost(
                    entry,
                    index,
                    port_base,
                    n_processes,
                    private[index],
                    wal_root,
                    run_id,
                    time_scale=time_scale,
                    heartbeat_interval=resilience.heartbeat_interval,
                )
            )
    else:
        for index in range(n_processes):
            handles.append(
                InlineHost(
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
            )

    observer = (
        LiveObserver(n_processes, spec=spec, reconnect=True)
        if spec is not None
        else None
    )
    load = LoadGenerator(public, run_id=run_id, seed=seed)

    async def apply_action(action: ChaosAction) -> None:
        handle = handles[action.target]
        if action.kind == "kill":
            await handle.kill()
            await asyncio.sleep(action.duration)
            await handle.restart()
        elif action.kind == "pause":
            if proc:
                handle.pause()
                await asyncio.sleep(action.duration)
                handle.resume()
            else:
                # SIGSTOP emulation: total silence at the proxies, both
                # the host's inbound and everything it says to others.
                proxies[action.target].blackhole()
                for index, proxy in enumerate(proxies):
                    if index != action.target:
                        proxy.blackhole(action.target)
                await asyncio.sleep(action.duration)
                proxies[action.target].heal()
                for index, proxy in enumerate(proxies):
                    if index != action.target:
                        proxy.heal(action.target)
        elif action.kind == "sever":
            proxies[action.target].sever(action.src)
            await asyncio.sleep(action.duration)
            proxies[action.target].heal(action.src)
        elif action.kind == "blackhole":
            proxies[action.target].blackhole(action.src)
            await asyncio.sleep(action.duration)
            proxies[action.target].heal(action.src)

    async def execute_plan(started: float) -> None:
        loop = asyncio.get_running_loop()
        for action in plan.actions:
            delay = started + action.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await apply_action(action)

    async def poll_all() -> List[Optional[Dict[str, Any]]]:
        return await asyncio.gather(
            *(poll_stats(port, run_id) for port in public)
        )

    def links_up(bodies: List[Dict[str, Any]]) -> bool:
        return all(
            state == LINK_UP
            for body in bodies
            for state in body.get("links", {}).values()
        )

    stats: List[Dict[str, Any]] = []
    try:
        for proxy in proxies:
            await proxy.start()
        for handle in handles:
            await handle.start()
        # Readiness probe that works for both handle flavours.
        ready_deadline = time.monotonic() + 20.0
        while time.monotonic() < ready_deadline:
            if all(body is not None for body in await poll_all()):
                break
            await asyncio.sleep(0.1)
        else:
            raise RuntimeError("cluster did not become ready for chaos")
        if observer is not None:
            await observer.connect(public, run_id=run_id)
        await load.connect()

        loop = asyncio.get_running_loop()
        started = loop.time()
        load_task = loop.create_task(
            load.run(rate, duration, closed_loop=closed_loop)
        )
        plan_task = loop.create_task(execute_plan(started))
        await asyncio.gather(load_task, plan_task)

        # Belt and braces: nothing stays faulted past the plan.
        for proxy in proxies:
            proxy.heal()
        for handle in handles:
            if not handle.alive:
                await handle.restart()

        # Invariant 3: re-convergence within the deadline.
        converge_start = time.monotonic()
        deadline = converge_start + convergence_deadline
        converged = False
        while time.monotonic() < deadline:
            polled = await poll_all()
            if all(body is not None for body in polled):
                stats = list(polled)  # type: ignore[arg-type]
                if quiesced(stats) and links_up(stats):
                    converged = True
                    break
            await asyncio.sleep(0.1)
        report.converge_seconds = time.monotonic() - converge_start
        report.reconverged = converged
        if not stats:
            stats = [body for body in await poll_all() if body is not None]
        report.links_up = bool(stats) and links_up(stats)

        # Invariant 1: the live ordering monitor.
        if observer is not None:
            await observer.settle(3.0)
            observer.final_check()
            found = observer.violation
            if found is not None:
                report.violation = (
                    found if isinstance(found, str) else repr(found)
                )
            report.observer_reconnects = observer.reconnects
            report.link_transitions = {
                probe: count
                for probe, count in observer.probe_counts.items()
                if probe.startswith("link.")
            }

        report.requested = load.requested
        report.invoked = sum(body.get("invoked", 0) for body in stats)
        report.delivered = sum(body.get("deliveries", 0) for body in stats)
        report.redials = sum(body.get("redials", 0) for body in stats)
        report.frames_shed = sum(body.get("frames_shed", 0) for body in stats)
        report.backpressure_signals = load.backpressure_signals
        report.restarts = sum(handle.restarts for handle in handles)
        report.errors.extend(load.errors)
        if observer is not None:
            report.errors.extend(observer.errors)
    finally:
        await load.close()
        if observer is not None:
            await observer.close()
        for handle in handles:
            try:
                await handle.shutdown()
            except Exception as exc:  # noqa: BLE001 - teardown must finish
                report.errors.append(
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
    for handle in handles:
        for error in getattr(handle, "errors", []):
            report.errors.append("P%d: %s" % (handle.process_id, error))
    return report


def run_chaos_sync(*args: Any, **kwargs: Any) -> ChaosReport:
    """:func:`run_chaos` from synchronous code (tests, CLI)."""
    return asyncio.run(run_chaos(*args, **kwargs))
