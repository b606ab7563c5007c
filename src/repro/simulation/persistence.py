"""Trace, run, workload and schedule serialization (JSON).

Recorded executions round-trip through plain dicts, so traces can be
archived, diffed across protocol versions, and re-verified without
re-simulating.  Model-checker counterexamples
(:class:`repro.mc.counterexample.Schedule`) serialize the same way --
workload, protocol name and transition keys -- so a violating schedule
found anywhere replays bit-identically anywhere else.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Union

from repro.events import Event
from repro.events.events import kind_from_symbol
from repro.net.codec import message_from_wire, message_to_wire
from repro.runs.user_run import UserRun
from repro.simulation.trace import Trace
from repro.simulation.workloads import SendRequest, Workload


def trace_to_dict(trace: Trace) -> Dict[str, Any]:
    return {
        "format": "repro-trace-v1",
        "n_processes": trace.n_processes,
        "messages": [message_to_wire(m) for m in trace.messages()],
        "records": [
            {
                "time": record.time,
                "process": record.process,
                "event": [record.event.message_id, record.event.kind.symbol],
            }
            for record in trace.records()
        ],
    }


def trace_from_dict(payload: Dict[str, Any]) -> Trace:
    if payload.get("format") != "repro-trace-v1":
        raise ValueError("not a repro trace: format=%r" % payload.get("format"))
    trace = Trace(payload["n_processes"])
    for message_payload in payload["messages"]:
        trace.register_message(message_from_wire(message_payload))
    for record in payload["records"]:
        message_id, symbol = record["event"]
        trace.record(
            record["time"],
            record["process"],
            Event(message_id, kind_from_symbol(symbol)),
        )
    return trace


def save_trace(trace: Trace, destination: Union[str, IO[str]]) -> None:
    payload = trace_to_dict(trace)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(payload, handle, indent=1)
    else:
        json.dump(payload, destination, indent=1)


def load_trace(source: Union[str, IO[str]]) -> Trace:
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    return trace_from_dict(payload)


def workload_to_dict(workload: Workload) -> Dict[str, Any]:
    """Serialize a workload (name, process count, request script)."""
    requests = []
    for request in workload.requests:
        entry: Dict[str, Any] = {
            "time": request.time,
            "sender": request.sender,
            "receiver": request.receiver,
        }
        if request.color is not None:
            entry["color"] = request.color
        if request.group is not None:
            entry["group"] = request.group
        if request.payload is not None:
            entry["payload"] = request.payload
        requests.append(entry)
    return {
        "format": "repro-workload-v1",
        "name": workload.name,
        "n_processes": workload.n_processes,
        "requests": requests,
    }


def workload_from_dict(payload: Dict[str, Any]) -> Workload:
    if payload.get("format") != "repro-workload-v1":
        raise ValueError(
            "not a repro workload: format=%r" % payload.get("format")
        )
    return Workload(
        name=payload["name"],
        n_processes=payload["n_processes"],
        requests=tuple(
            SendRequest(
                time=entry["time"],
                sender=entry["sender"],
                receiver=entry["receiver"],
                color=entry.get("color"),
                group=entry.get("group"),
                payload=entry.get("payload"),
            )
            for entry in payload["requests"]
        ),
    )


def schedule_to_dict(schedule) -> Dict[str, Any]:
    """Serialize a model-checker schedule (a replayable counterexample)."""
    return {
        "format": "repro-mc-schedule-v1",
        "protocol": schedule.protocol,
        "invoke_order": schedule.invoke_order,
        "fault_budget": schedule.fault_budget,
        "workload": workload_to_dict(schedule.workload),
        "keys": [list(key) for key in schedule.keys],
    }


def schedule_from_dict(payload: Dict[str, Any]):
    if payload.get("format") != "repro-mc-schedule-v1":
        raise ValueError(
            "not a repro mc schedule: format=%r" % payload.get("format")
        )
    # Imported here: repro.mc builds on the simulation layer, not the
    # other way round.
    from repro.mc.counterexample import Schedule

    return Schedule(
        protocol=payload["protocol"],
        workload=workload_from_dict(payload["workload"]),
        keys=tuple(tuple(key) for key in payload["keys"]),
        invoke_order=payload.get("invoke_order", "script"),
        # Absent in files written before fault injection existed.
        fault_budget=payload.get("fault_budget", 0),
    )


def save_schedule(schedule, destination: Union[str, IO[str]]) -> None:
    """Write a schedule as JSON (path or open text handle)."""
    payload = schedule_to_dict(schedule)
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(payload, handle, indent=1)
    else:
        json.dump(payload, destination, indent=1)


def load_schedule(source: Union[str, IO[str]]):
    """Read a schedule written by :func:`save_schedule`."""
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    return schedule_from_dict(payload)


def user_run_to_dict(run: UserRun) -> Dict[str, Any]:
    """Serialize a user-view run (messages, events, generating order)."""
    return {
        "format": "repro-user-run-v1",
        "messages": [message_to_wire(m) for m in run.messages()],
        "events": [[e.message_id, e.kind.symbol] for e in run.events()],
        "relations": [
            [[a.message_id, a.kind.symbol], [b.message_id, b.kind.symbol]]
            for a, b in run.partial_order().generating_pairs()
        ],
    }


def user_run_from_dict(payload: Dict[str, Any]) -> UserRun:
    if payload.get("format") != "repro-user-run-v1":
        raise ValueError("not a repro user run: format=%r" % payload.get("format"))
    run = UserRun()
    for message_payload in payload["messages"]:
        run.add_message(message_from_wire(message_payload), with_events=False)
    for message_id, symbol in payload["events"]:
        run.add_event(Event(message_id, kind_from_symbol(symbol)))
    for (a_id, a_symbol), (b_id, b_symbol) in payload["relations"]:
        before = Event(a_id, kind_from_symbol(a_symbol))
        after = Event(b_id, kind_from_symbol(b_symbol))
        if before != after and not run.before(before, after):
            run.order(before, after)
    run.validate()
    return run
