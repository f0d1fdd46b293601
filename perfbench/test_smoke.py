"""Smoke test of the benchmark itself at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench

Every workload runs untraced and traced; every metric named in
BENCHMARK.json must be printed with its unit, the exact span counts must
hold, and a deliberately wrong expectation must show up in fail_frac.
"""

import dataclasses
import json
import os

import pytest

import run
import workloads

TINY = {
    "sweep-serial": {"n": 5, "jobs": 1},
    "sweep-jobs2": {"n": 5, "jobs": 2},
    "long-words": {"n": 40, "min_words": 3},
    "cli-stream": {"lines": 6, "min_n": 8, "max_n": 12, "min_rounds": 1},
}

with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    for name, sizes in TINY.items():
        tiny = dataclasses.replace(workloads.WORKLOADS[name], sizes=sizes)
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny)


def bench(capsys, workload, trace=0):
    code = run.main(
        ["--workload", workload, "--seconds", "0", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def runnable(workload):
    need = workloads.WORKLOADS[workload].cpus
    if len(os.sched_getaffinity(0)) < need:
        pytest.skip(f"{workload} needs {need} CPUs")


def test_spec_names_the_defined_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    runnable(workload)
    code, lines, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in group}
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in "\n".join(lines)
    assert any(line.startswith("fail_frac = 0.0 ") for line in lines)
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    assert provenance["seed"] == workloads.DEFAULT_SEED


def test_traced_counts_are_exact(capsys):
    _, _, result = bench(capsys, "sweep-serial", trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["slices.encode_calls"] == 4 * 120
    assert metrics["inverse.decode_calls"] == 3 * 120
    assert metrics["enumeration.cases"] == 6 * 120
    assert metrics["enumeration.pools"] == 0


def test_jobs2_counts_pools_and_worker_spans(capsys):
    runnable("sweep-jobs2")
    _, _, result = bench(capsys, "sweep-jobs2", trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["enumeration.pools"] == 6
    assert metrics["slices.encode_calls"] == 4 * 120
    assert metrics["enumeration.worker_cpu_s"] > 0


@pytest.mark.parametrize(
    "workload, target, wrong",
    [
        ("sweep-serial", "eulerian_row", lambda n: [1] * n),
        ("long-words", "is_subexcedant", lambda word: False),
        ("cli-stream", "stats_line", lambda perm: "wrong"),
    ],
)
def test_wrong_expectation_raises_fail_frac(capsys, monkeypatch, workload, target, wrong):
    monkeypatch.setattr(workloads, target, wrong)
    code, lines, result = bench(capsys, workload)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    fail_frac = next(l for l in lines if l.startswith("fail_frac = "))
    assert float(fail_frac.split()[2]) > 0


def test_refuses_without_the_package(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "sweep-serial"]) == 2
    assert capsys.readouterr().out == ""
