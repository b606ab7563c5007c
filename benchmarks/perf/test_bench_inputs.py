"""Inputs are a pure function of ``--seed``."""

import bench_inputs
from bench_workloads import WORKLOADS, RunContext


def test_one_seed_generates_identical_inputs_twice():
    assert bench_inputs.fingerprint(0) == bench_inputs.fingerprint(0)
    assert bench_inputs.fingerprint(7) == bench_inputs.fingerprint(7)


def test_another_seed_generates_other_inputs():
    assert bench_inputs.fingerprint(1) != bench_inputs.fingerprint(0)


def test_every_workload_contributes_to_the_fingerprint():
    for name, workload in WORKLOADS.items():
        assert workload.describe_inputs(0), name
        assert workload.describe_inputs(0) == workload.describe_inputs(0), name
        assert workload.describe_inputs(0) != workload.describe_inputs(1), name


def test_scripts_never_address_the_sender():
    scripts = WORKLOADS["tcp-causal-8"].scripts(RunContext(3, 30.0, ""))
    messages = [message for script in scripts for message in script]
    assert all(message.sender != message.receiver for message in messages)
    assert len({message.id for message in messages}) == len(messages)
