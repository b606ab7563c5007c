"""Seeded, reproducible fault schedules for chaos runs.

A :class:`ChaosPlan` is a list of timed :class:`ChaosAction` entries.
Plans are *generated* from a seed (:meth:`ChaosPlan.generate`) so that a
chaos run is fully described by ``(protocol, seed, knobs)`` -- the same
triple always produces the same fault schedule, which is what makes a
failing run reportable.  Actions never overlap: each one completes (its
outage heals, its killed process restarts) before the next begins, so a
plan exercises recovery paths rather than compounding outages into an
uninterpretable pile-up.  Compounding is still reachable -- construct a
plan by hand with overlapping times -- but it is not what the seeded
generator produces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["ACTION_KINDS", "ChaosAction", "ChaosPlan"]

#: ``kill``: SIGKILL the target (or :meth:`NetHost.crash` inline) and
#: restart it from its WAL after ``duration`` seconds.
#: ``pause``: stop the target without killing it (SIGSTOP for a real
#: process; full-proxy blackhole for an inline host) for ``duration``.
#: ``sever``: cut the ``src -> target`` link at target's proxy (EOF).
#: ``blackhole``: silently discard the ``src -> target`` link's bytes.
ACTION_KINDS = ("kill", "pause", "sever", "blackhole")


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault.

    ``at`` is seconds after traffic starts.  ``target`` is the faulted
    host; for link faults ``src`` names the peer whose traffic *into*
    the target is faulted (``None`` = every peer, a full isolation).
    ``duration`` is how long the outage lasts before the harness heals
    it (for ``kill``: how long the process stays dead).
    """

    at: float
    kind: str
    target: int
    duration: float
    src: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                "unknown chaos action %r (expected one of %s)"
                % (self.kind, ", ".join(ACTION_KINDS))
            )
        if self.at < 0 or self.duration <= 0:
            raise ValueError("action needs at >= 0 and duration > 0")
        if self.src is not None and self.src == self.target:
            raise ValueError("a link fault needs src != target")

    @property
    def ends_at(self) -> float:
        return self.at + self.duration

    def describe(self) -> str:
        if self.kind in ("sever", "blackhole"):
            origin = "*" if self.src is None else "P%d" % self.src
            return "t+%.2fs %s %s->P%d for %.2fs" % (
                self.at,
                self.kind,
                origin,
                self.target,
                self.duration,
            )
        return "t+%.2fs %s P%d for %.2fs" % (
            self.at,
            self.kind,
            self.target,
            self.duration,
        )

    def to_json(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "at": self.at,
            "kind": self.kind,
            "target": self.target,
            "duration": self.duration,
        }
        if self.src is not None:
            body["src"] = self.src
        return body

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "ChaosAction":
        return cls(
            at=float(body["at"]),
            kind=str(body["kind"]),
            target=int(body["target"]),
            duration=float(body["duration"]),
            src=int(body["src"]) if body.get("src") is not None else None,
        )


@dataclass(frozen=True)
class ChaosPlan:
    """A reproducible fault schedule over one chaos run."""

    seed: int
    n_processes: int
    actions: Tuple[ChaosAction, ...]

    @classmethod
    def generate(
        cls,
        seed: int,
        n_processes: int,
        duration: float,
        n_actions: int = 3,
        kinds: Sequence[str] = ACTION_KINDS,
        min_outage: float = 0.3,
        max_outage: float = 1.0,
        settle: float = 0.5,
    ) -> "ChaosPlan":
        """A non-overlapping schedule drawn from ``random.Random(seed)``.

        Actions are packed into ``[0.2, duration]`` with at least
        ``settle`` seconds between one action healing and the next
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
        actions: List[ChaosAction] = []
        cursor = 0.2
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
                ChaosAction(
                    at=round(cursor, 3),
                    kind=kind,
                    target=target,
                    duration=round(outage, 3),
                    src=src,
                )
            )
            cursor += outage + settle + rng.uniform(0.0, settle)
        return cls(seed=seed, n_processes=n_processes, actions=tuple(actions))

    def describe(self) -> str:
        if not self.actions:
            return "empty plan (seed %d)" % self.seed
        return "; ".join(action.describe() for action in self.actions)

    @property
    def ends_at(self) -> float:
        """When the last outage heals (0.0 for an empty plan)."""
        return max((action.ends_at for action in self.actions), default=0.0)

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "n_processes": self.n_processes,
            "actions": [action.to_json() for action in self.actions],
        }

    @classmethod
    def from_json(cls, body: Dict[str, Any]) -> "ChaosPlan":
        """A plan from its JSON, or from a report's that carries it."""
        if isinstance(body, dict) and isinstance(body.get("plan"), dict):
            body = body["plan"]
        if not isinstance(body, dict) or not isinstance(body.get("actions"), list):
            raise ValueError("a chaos plan needs an 'actions' list")
        return cls(
            seed=int(body["seed"]),
            n_processes=int(body["n_processes"]),
            actions=tuple(ChaosAction.from_json(entry) for entry in body["actions"]),
        )
