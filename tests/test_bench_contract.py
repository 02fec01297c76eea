"""The benchmark's calls into omnipipe still work.

``bench/workloads.py`` drives omnipipe's public functions and its CLI by
position and by name. These tests run its prepare -> run -> check loop,
without timing, for the first ingest turn, the first train step, the first
curate shard and one full evaluate cycle, so a signature change that would
break the benchmark fails here.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("omnipipe_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problems(workload, ops: int) -> list[str]:
    workload.setup()
    workload.generate()
    problems = []
    for i in range(ops):
        inp = workload.prepare(i)
        found, _ = workload.check(inp, workload.run(inp))
        problems += [f"op {i}: {p}" for p in found]
    return problems


def test_ingest_first_turn(workloads, tmp_path):
    # the only workload that runs the conv-gMLP forward at full size
    assert _problems(workloads.Ingest(0, tmp_path), 1) == []


def test_train_first_step(workloads, tmp_path):
    assert _problems(workloads.Train(0, tmp_path), 1) == []


def test_curate_first_shard(workloads, tmp_path):
    # checks pack bins against their lengths, and CER and round-trip
    # decisions against oracles.edit_distance
    assert _problems(workloads.Curate(0, tmp_path), 1) == []


def test_evaluate_full_cycle(workloads, tmp_path):
    evaluate = workloads.Evaluate(0, tmp_path)
    assert evaluate.cycle == 19
    assert _problems(evaluate, evaluate.cycle) == []
