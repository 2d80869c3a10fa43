"""Fast self-test of the benchmark harness.

Runs every workload at its tiny size in both modes and checks that each
metric is printed with its unit.  Run from the repository root:

    python3 -m pytest perfbench/test_harness.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import summarize  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Throughputs printed under their own names, next to work_per_s.
RATES = {"synth": ["symbols_per_s"], "fed": ["rounds_per_s"],
         "detect": ["train_samples_per_s", "trials_per_s"]}
# Layers each workload is designed to keep busy, and to leave idle.
BUSY = {"synth": ("chirp", "channel", "data"),
        "fed": ("receiver", "federation"),
        "detect": ("receiver", "chirp", "cli")}
IDLE = {"synth": ("receiver", "federation", "cli"),
        "fed": ("chirp", "channel", "data", "cli"),
        "detect": ("federation", "channel")}
LAYERS = ("chirp", "channel", "data", "receiver", "federation", "cli")


def run(workload, trace, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return p


def result(p):
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, lines
    return "\n".join(lines[:-1]), res


def assert_metrics(res, spec):
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    text, res = result(run(workload, 0))
    assert_metrics(res, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())
    named = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("fail_ratio", "ratio")]
    named += [(name, "1/s") for name in RATES[workload]]
    for name, unit in named:
        assert re.search(rf"^{name} \S+ {re.escape(unit)}\b", text, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_printed(workload):
    _, res = result(run(workload, 1))
    assert_metrics(res, BENCH["per_layer"])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    for layer in IDLE[workload]:
        assert m[f"{layer}.calls"] == 0, layer
    for layer in BUSY[workload]:
        assert m[f"{layer}.calls"] > 0, layer
    busy = sum(m[f"{layer}.self_ms"] for layer in BUSY[workload])
    assert busy > 0.5 * sum(m[f"{layer}.self_ms"] for layer in LAYERS)
    spans = os.path.join(HERE, "out", f"spans-{workload}-seed3.jsonl")
    with open(spans) as f:
        first = json.loads(f.readline())
    assert {"name", "start_ns", "end_ns", "parent", "op"} <= set(first)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run("synth", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


def test_self_time_subtracts_direct_children():
    # root 0..100 with children 10..30 and 40..90; the second has a child
    spans = [("a", 0, 100, -1, 0, None, None),
             ("b", 10, 30, 0, 0, None, 5),
             ("b", 40, 90, 0, 0, "ValueError", 7),
             ("c", 50, 60, 2, 0, None, None)]
    s = summarize(spans)
    assert s["a"]["self_ns"] == 100 - 20 - 50
    assert s["b"] == {"calls": 2, "ns": 70, "self_ns": 60, "work": 12,
                      "exc": {"ValueError": 1}}
    assert s["c"]["self_ns"] == 10
