"""Declarative description of what the network does wrong.

A :class:`FaultPlan` is pure data plus lookups -- it owns no RNG and
schedules nothing, so one plan can parameterise many runs (different
seeds), the model checker (where the *explorer*, not a coin, decides
which packets drop) and a live chaos run.  It holds packet faults
(rates, per-channel overrides, a script) and timed :class:`FaultAction`
entries.  Times are in the runtime's virtual units: the simulator's
clock, or a :class:`~repro.net.host.NetHost`'s ``WallClock``, where one
unit is ``time_scale`` seconds (10 ms by default).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["ACTION_KINDS", "FaultAction", "FaultPlan", "PLAN_VERSION"]

Channel = Tuple[int, int]  # (src, dst)

#: ``kill``: crash the target and restart it from its WAL after
#: ``duration`` (SIGKILL + respawn for a real process).
#: ``pause``: silence every link to and from the target for ``duration``
#: (SIGSTOP for a real process).
#: ``sever``: cut the ``src -> target`` link (the dialer sees EOF and
#: re-dials, resuming the session when the cut heals).
#: ``blackhole``: silently discard the ``src -> target`` link's packets.
ACTION_KINDS = ("kill", "pause", "sever", "blackhole")

#: The JSON schema :meth:`FaultPlan.to_json` writes and ``from_json`` reads.
PLAN_VERSION = 2

_SCALARS = ("drop_rate", "dup_rate", "spike_rate", "spike_delay", "seed")


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault.

    ``target`` is the faulted process.  A link fault acts on the packets
    ``src`` sends to ``target`` (``src=None``: every peer's, a full
    isolation); a ``pause`` with a ``src`` silences only the links
    between the two.  ``duration`` is how long the outage lasts (for
    ``kill``: how long the process stays dead); ``None`` never heals.
    """

    at: float
    kind: str
    target: int
    duration: Optional[float] = None
    src: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                "unknown chaos action %r (expected one of %s)"
                % (self.kind, ", ".join(ACTION_KINDS))
            )
        if self.at < 0 or (self.duration is not None and self.duration <= 0):
            raise ValueError("action needs at >= 0 and duration > 0")
        if self.src is not None and self.src == self.target:
            raise ValueError("a link fault needs src != target")

    @property
    def ends_at(self) -> Optional[float]:
        """When the outage heals (``None``: never)."""
        return None if self.duration is None else self.at + self.duration

    def sources(self, n_processes: int) -> List[int]:
        """The peers whose links to ``target`` this action faults."""
        if self.src is not None:
            return [self.src]
        return [peer for peer in range(n_processes) if peer != self.target]

    def cuts(self, src: int, dst: int, now: float) -> bool:
        """Whether this action discards a ``src -> dst`` packet at ``now``."""
        if self.kind == "kill" or now < self.at:
            return False
        if self.duration is not None and now >= self.at + self.duration:
            return False
        if dst == self.target and self.src in (None, src):
            return True
        return self.kind == "pause" and src == self.target and self.src in (None, dst)

    def describe(self) -> str:
        """One line, e.g. ``t=20 sever P1->P2 for 83.3``."""
        if self.kind in ("sever", "blackhole"):
            what = "%s %s->P%d" % (
                self.kind,
                "*" if self.src is None else "P%d" % self.src,
                self.target,
            )
        else:
            what = "%s P%d" % (self.kind, self.target)
        span = "never heals" if self.duration is None else "for %g" % self.duration
        return "t=%g %s %s" % (self.at, what, span)

    def to_json(self) -> Dict[str, Any]:
        """The fields, ``src`` left out when unset."""
        body = asdict(self)
        if self.src is None:
            del body["src"]
        return body

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "FaultAction":
        duration, src = body.get("duration"), body.get("src")
        return cls(
            float(body["at"]),
            str(body["kind"]),
            int(body["target"]),
            None if duration is None else float(duration),
            None if src is None else int(src),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Everything that can go wrong in one run.

    ``drop_rate``/``dup_rate`` are global probabilities, overridable per
    channel via ``channel_drop``/``channel_dup``; ``spike_rate`` adds
    ``spike_delay`` extra latency with that probability.  ``script`` pins
    the fate of specific packets -- the n-th transmission on a channel --
    overriding the coins entirely for those packets ("drop" | "dup" |
    "ok").  ``seed`` feeds the transport's private fault RNG so faults do
    not perturb the latency stream.  ``actions`` are the timed faults.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    spike_rate: float = 0.0
    spike_delay: float = 50.0
    seed: int = 0
    channel_drop: Dict[Channel, float] = field(default_factory=dict)
    channel_dup: Dict[Channel, float] = field(default_factory=dict)
    script: Dict[Tuple[int, int, int], str] = field(default_factory=dict)
    actions: Tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        rates = [(name, getattr(self, name)) for name in _SCALARS[:3]]
        rates += [
            ("rate for channel %r" % (channel,), rate)
            for rates in (self.channel_drop, self.channel_dup)
            for channel, rate in rates.items()
        ]
        for name, rate in rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r" % (name, rate))
        if self.spike_delay < 0:
            raise ValueError("spike_delay must be non-negative")
        for action in self.script.values():
            if action not in ("drop", "dup", "ok"):
                raise ValueError(
                    "scripted action must be 'drop', 'dup' or 'ok', got %r"
                    % (action,)
                )
        kills = [(a.target, a.at) for a in self.actions if a.kind == "kill"]
        for target, at in kills:
            if kills.count((target, at)) > 1:
                raise ValueError("duplicate kill of P%d at %r" % (target, at))

    @classmethod
    def generate(
        cls,
        seed: int,
        n_processes: int,
        duration: float,
        n_actions: int = 3,
        kinds: Sequence[str] = ACTION_KINDS,
        min_outage: float = 30.0,
        max_outage: float = 100.0,
        settle: float = 50.0,
    ) -> "FaultPlan":
        """A non-overlapping schedule drawn from ``random.Random(seed)``.

        Actions are packed into ``[20, duration]`` with at least
        ``settle`` units between one action healing and the next
        firing, so each recovery is observable in isolation.  If the
        window cannot fit ``n_actions`` the plan holds fewer -- chaos
        density should come from a longer run, not stacked outages.
        """
        if n_processes < 2:
            raise ValueError("chaos needs at least 2 processes")
        for kind in kinds:
            if kind not in ACTION_KINDS:
                raise ValueError("unknown chaos action kind %r" % (kind,))
        rng = random.Random(seed)
        actions: List[FaultAction] = []
        cursor = 20.0  # virtual units before the first action
        for _ in range(n_actions):
            outage = rng.uniform(min_outage, max_outage)
            if cursor + outage > duration + max_outage:
                break
            kind = rng.choice(list(kinds))
            target = rng.randrange(n_processes)
            src: Optional[int] = None
            if kind in ("sever", "blackhole"):
                src = rng.randrange(n_processes - 1)
                if src >= target:
                    src += 1
            actions.append(
                FaultAction(
                    at=round(cursor, 1),
                    kind=kind,
                    target=target,
                    duration=round(outage, 1),
                    src=src,
                )
            )
            cursor += outage + settle + rng.uniform(0.0, settle)
        return cls(seed=seed, actions=tuple(actions))

    # Lookups ---------------------------------------------------------------

    def drop_rate_for(self, src: int, dst: int) -> float:
        """The drop probability on channel ``(src, dst)``."""
        return self.channel_drop.get((src, dst), self.drop_rate)

    def dup_rate_for(self, src: int, dst: int) -> float:
        """The duplication probability on channel ``(src, dst)``."""
        return self.channel_dup.get((src, dst), self.dup_rate)

    def scripted_action(self, src: int, dst: int, channel_seq: int) -> Optional[str]:
        """The scripted fate of this packet, or ``None`` (use the coins)."""
        return self.script.get((src, dst, channel_seq))

    def cuts(self, src: int, dst: int, now: float) -> bool:
        """Whether a link fault or pause discards ``src -> dst`` at ``now``."""
        return any(action.cuts(src, dst, now) for action in self.actions)

    @property
    def packet_faults(self) -> bool:
        """Whether this plan has any rate, channel override or script."""
        return bool(
            self.drop_rate
            or self.dup_rate
            or self.spike_rate
            or self.channel_drop
            or self.channel_dup
            or self.script
        )

    @property
    def any_faults(self) -> bool:
        """Whether this plan can inject anything at all."""
        return self.packet_faults or bool(self.actions)

    def describe(self) -> str:
        """The actions, ``; ``-separated."""
        described = "; ".join(action.describe() for action in self.actions)
        return described or "empty plan (seed %d)" % self.seed

    # JSON ------------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """Every field, a tuple-keyed map as rows of key then value."""
        body: Dict[str, Any] = {"version": PLAN_VERSION}
        for name, value in vars(self).items():
            if name == "actions":
                value = [action.to_json() for action in value]
            elif isinstance(value, dict):
                value = [[*key, entry] for key, entry in value.items()]
            body[name] = value
        return body

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "FaultPlan":
        """A plan from its JSON, or from a report's that carries it."""
        if isinstance(body, dict) and isinstance(body.get("plan"), dict):
            body = body["plan"]
        if not isinstance(body, dict) or not isinstance(body.get("actions"), list):
            raise ValueError("a fault plan needs an 'actions' list")
        if body.get("version") != PLAN_VERSION:
            raise ValueError(
                "a fault plan needs \"version\": %d, got %r (a plan written "
                "before it carried one is not read)"
                % (PLAN_VERSION, body.get("version"))
            )
        try:
            # Each scalar takes its default's type (float rates, int seed).
            fields = {
                name: type(getattr(cls, name))(body[name])
                for name in _SCALARS
                if name in body
            }
            for name in ("channel_drop", "channel_dup", "script"):
                fields[name] = {tuple(row[:-1]): row[-1] for row in body.get(name, [])}
            actions = tuple(FaultAction.from_json(entry) for entry in body["actions"])
            return cls(actions=actions, **fields)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError("malformed fault plan: %r" % (exc,)) from None
