"""Seeded inputs: every message script, simulated workload and port
choice the benchmark hands the program is a pure function of ``--seed``.

The program under test never sees the seed, only what is generated here
(choosing-metrics §5), so two runs with one seed offer byte-identical
load and a later PR cannot special-case a workload by its seed.
"""

from __future__ import annotations

import hashlib
import random
import socket
from typing import Iterator, List

from repro.events import Message
from repro.simulation.workloads import Workload, random_traffic

#: Below the kernel's ephemeral range (32768+), so a host's listen port
#: can never collide with the source port of another host's dial.
PORT_LOW, PORT_HIGH = 10240, 30000


def _rng(seed: int, purpose: str) -> random.Random:
    """One independent stream per (seed, purpose): adding a new consumer
    never shifts the numbers an existing one draws."""
    digest = hashlib.sha256(("%d:%s" % (seed, purpose)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def message_script(
    seed: int, purpose: str, n_processes: int, count: int, prefix: str = "m"
) -> List[Message]:
    """``count`` messages over the ``(sender, receiver != sender)`` pairs
    in seeded order, every pair equally often (the remainder is a seeded
    sample of pairs).

    Balanced, not drawn pair by pair: a protocol's cost depends on the
    pair (under ``sync-coord`` a send from the coordinator takes half the
    round trips of any other), so independent draws would make the mix,
    and with it every metric, differ from seed to seed by a few percent.
    """
    rng = _rng(seed, "script:" + purpose)
    pairs = [
        (sender, receiver)
        for sender in range(n_processes)
        for receiver in range(n_processes)
        if receiver != sender
    ]
    whole, rest = divmod(count, len(pairs))
    chosen = pairs * whole + rng.sample(pairs, rest)
    rng.shuffle(chosen)
    return [
        Message(id="%s%d" % (prefix, index), sender=sender, receiver=receiver)
        for index, (sender, receiver) in enumerate(chosen)
    ]


def sim_workload(seed: int, purpose: str, n_processes: int, count: int) -> Workload:
    """Random point-to-point traffic for ``run_simulation``."""
    return random_traffic(
        n_processes, count, seed=_rng(seed, "sim:" + purpose).randrange(2**31)
    )


def sub_seed(seed: int, purpose: str) -> int:
    """A derived integer seed for program APIs that take one."""
    return _rng(seed, "sub:" + purpose).randrange(2**31)


def port_candidates(seed: int, purpose: str) -> Iterator[int]:
    """The seed's port sequence: a seeded start, then consecutive ports
    (wrapping inside the range).  Which of them are *free* depends on
    the machine, so :func:`free_ports` filters this stream."""
    span = PORT_HIGH - PORT_LOW
    start = _rng(seed, "ports:" + purpose).randrange(span)
    offset = 0
    while True:
        yield PORT_LOW + (start + offset) % span
        offset += 1


def free_ports(candidates: Iterator[int], count: int) -> List[int]:
    """The next ``count`` bindable ports from ``candidates``."""
    found: List[int] = []
    for port in candidates:
        if _bindable(port):
            found.append(port)
            if len(found) == count:
                break
    return found


def _bindable(port: int) -> bool:
    probe = socket.socket()
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", port))
        return True
    except OSError:
        return False
    finally:
        probe.close()


def fingerprint(seed: int) -> str:
    """A digest over everything the six workloads generate from ``seed``
    (scripts, simulated workloads, derived seeds, port sequence heads) --
    what the determinism test compares."""
    from bench_workloads import WORKLOADS

    hasher = hashlib.sha256()
    for name in sorted(WORKLOADS):
        for line in WORKLOADS[name].describe_inputs(seed):
            hasher.update(line.encode())
            hasher.update(b"\n")
    return hasher.hexdigest()
