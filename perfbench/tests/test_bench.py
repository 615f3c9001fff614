"""Self-tests for the replay benchmark: contract shape, checks and spans.

Run from the repository root with `python3 -m pytest perfbench/tests`.
They replay tiny traces only and assert nothing about wall-clock values.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import bench
import stacache
from bench import ROOT, load_catalog, run_workload, set_up
from spans import CHUNK, END, NAME, PARENT, SELF_TIME_METRIC, START, Tracer, self_times
from worker import run_pass
from workloads import WORKLOADS

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return replace(WORKLOADS[name], frames=17, layers=1, heads=2)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced tiny run of every workload."""
    workdir = tmp_path_factory.mktemp("work")
    return {
        (name, trace): run_workload(tiny(name), seed=3, seconds=0.2, trace=trace, workdir=workdir)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.fullmatch(metric["name"]), metric
        assert UNIT_RE.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_real_workloads_give_p90_ten_samples_beyond_it():
    for wl in WORKLOADS.values():
        assert wl.chunks_per_pass() >= 100, wl.name


def test_pass_count_follows_seconds_not_the_clock(runs):
    at_run_seconds = {name: wl.passes(SPEC["run_seconds"]) for name, wl in WORKLOADS.items()}
    assert at_run_seconds == {"stac-revisit": 2, "window-revisit": 4, "compare-scatter": 2}
    assert all(wl.passes(0.0) == 2 for wl in WORKLOADS.values())
    for name in WORKLOADS:
        report, _ = runs[(name, False)]
        assert report["samples"]["passes"] == 2


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_metric(runs, name, trace):
    report, result = runs[(name, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalog = load_catalog()["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in report["metrics"]] == [m["name"] for m in catalog]
    for metric in report["metrics"]:
        assert NAME_RE.fullmatch(metric["name"])
        assert metric["unit"] and metric["workload"] == name
        assert math.isfinite(metric["value"])
        assert result["metrics"][metric["name"]] == {"value": metric["value"], "unit": metric["unit"]}
    if trace:
        assert report["unhooked"] == []
    else:
        assert report["environment"]["nproc"] >= 1
        assert report["environment"]["replayer_threads"] in (1, None)


def test_layers_that_do_not_run_read_zero(runs):
    window = runs[("window-revisit", True)][1]["metrics"]
    for name, metric in window.items():
        if name.startswith(("spatial.", "temporal.")):
            assert metric["value"] == 0, name
    stac = runs[("stac-revisit", True)][1]["metrics"]
    assert stac["spatial.inserts"]["value"] > 0
    assert stac["attention.calls"]["value"] > 0
    scatter = runs[("compare-scatter", True)][1]["metrics"]
    assert scatter["pipeline.divergence_ms"]["value"] > 0
    assert scatter["pipeline.outputs_mb"]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_nest_and_self_times_partition_each_chunk(runs, name):
    report, _ = runs[(name, True)]
    spans = json.loads(Path(report["spans_file"]).read_text())
    assert spans
    own = self_times(spans)
    chunk_total = defaultdict(float)
    for span, t in zip(spans, own):
        assert span[NAME] in SELF_TIME_METRIC
        assert span[START] <= span[END]
        assert t >= -1e-9, span
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END]
            assert parent[CHUNK] == span[CHUNK]
        if span[CHUNK] >= 0:
            chunk_total[span[CHUNK]] += t
    roots = [s for s in spans if s[NAME] == "pipeline.chunk"]
    assert len(roots) == len(chunk_total) > 0
    for root in roots:
        assert root[PARENT] == -1
        assert chunk_total[root[CHUNK]] == pytest.approx(root[END] - root[START], abs=1e-9)


def test_provenance_follows_the_seed(tmp_path):
    wl = tiny("stac-revisit")
    hashes = {}
    for seed in (3, 3, 4):
        set_up(wl, seed, tmp_path / "t.kvt")
        hashes.setdefault(seed, set()).add((tmp_path / "t.kvt").read_bytes())
    assert len(hashes[3]) == 1
    assert hashes[3] != hashes[4]


def test_aborted_pass_counts_its_remaining_chunks_failed(tmp_path):
    wl = tiny("stac-revisit")
    path = tmp_path / "t.kvt"
    set_up(wl, 3, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) * 2 // 3])
    result = run_pass(wl, str(path))
    assert result["error"] and "TraceFormatError" in result["error"]
    assert 0 < len(result["chunk_s"]) < result["attempted"]
    assert result["failed"] == result["attempted"] - len(result["chunk_s"])


def _perturbed_worker(monkeypatch, change):
    original = bench.run_worker

    def run_worker(*args):
        result = original(*args)
        change(result)
        return result

    monkeypatch.setattr(bench, "run_worker", run_worker)


def test_a_pass_that_replays_differently_fails_the_run(monkeypatch, tmp_path):
    def perturb_second_pass(result):
        result["passes"][1]["digest"] = "0" * 64

    _perturbed_worker(monkeypatch, perturb_second_pass)
    report, result = run_workload(tiny("stac-revisit"), seed=3, seconds=0.2, trace=False,
                                  workdir=tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("passes disagree" in p for p in report["problems"])
    assert result["metrics"]["completed_frac"]["value"] == 0


def test_a_lost_hook_fails_the_traced_run(monkeypatch, tmp_path):
    def lose_a_hook(result):
        result["traced"]["unhooked"] = ["VoxelStore.retrieve"]

    _perturbed_worker(monkeypatch, lose_a_hook)
    report, result = run_workload(tiny("stac-revisit"), seed=3, seconds=0.2, trace=True,
                                  workdir=tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("VoxelStore.retrieve" in p for p in report["problems"])


def test_tracer_uninstall_restores_every_patch():
    before = (stacache.StreamReplayer.process_chunk, stacache.pipeline.attend,
              stacache.VoxelStore.insert_evicted, stacache.read_trace)
    tracer = Tracer()
    tracer.install(stacache)
    assert stacache.pipeline.attend is not before[1]
    tracer.uninstall()
    after = (stacache.StreamReplayer.process_chunk, stacache.pipeline.attend,
             stacache.VoxelStore.insert_evicted, stacache.read_trace)
    assert after == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stac-revisit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
