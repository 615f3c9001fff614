"""One benchmark run of one workload: set-up, measured replay, checks, metrics.

The parent process synthesizes the trace from the seed and times set-up;
the replay itself runs in a fresh `worker.py` process that only receives the
trace path. Metric names and units come from BENCHMARK.json, so the printed
result and the file cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, replace
from itertools import islice
from pathlib import Path
from time import perf_counter

import numpy as np

from stacache import Policy, StreamReplayer, compare, read_trace, write_trace
from workloads import FIDELITY_FRAMES, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
WORKER_TIMEOUT_S = 150


def load_catalog(path: Path = ROOT / "BENCHMARK.json") -> dict[str, list[dict]]:
    spec = json.loads(path.read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def set_up(wl: Workload, seed: int, path: Path):
    """Synthesize and write the trace, open it and build the replayers.

    Returns the seconds taken and the header read back from the file.
    """
    t0 = perf_counter()
    header, records = wl.synth(seed)
    write_trace(str(path), header, records)
    del records
    header, reader = read_trace(str(path))
    replayers = [StreamReplayer(header, p, audit=True) for p in wl.policies()]
    elapsed = perf_counter() - t0
    reader.close()
    del replayers
    return elapsed, header


def fidelity(wl: Workload, path: Path, frames: int) -> dict:
    """compare(full, policy) over the first `frames` frames of the trace."""
    header, records = read_trace(str(path))
    prefix = list(islice(records, frames))
    records.close()
    header = replace(header, frame_count=len(prefix))
    report = compare((header, prefix), Policy.full(), wl.make_policy())
    json.dumps(report, allow_nan=False)
    overall = report["overall"]
    if not all(math.isfinite(v) for v in overall.values()):
        raise ValueError(f"non-finite fidelity {overall}")
    return overall


def run_worker(wl: Workload, path: Path, passes: int, traced: bool, spans_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload-json", json.dumps(asdict(wl)), "--trace-file", str(path),
           "--passes", str(passes), "--traced", str(int(traced)), "--spans-out", str(spans_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (report, result).

    The report carries provenance, environment and sample counts; the
    result is the one-line summary with exactly correct, attempted, failed
    and metrics.
    """
    catalog = load_catalog()["per_layer" if trace else "end_to_end"]
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{wl.name}-s{seed}-{os.getpid()}.kvt"
    spans_path = workdir / f"spans-{wl.name}-s{seed}.json"
    report: dict = {"workload": wl.name, "seed": seed, "trace": int(trace), "problems": []}
    problems = report["problems"]
    attempted, failed, values = wl.chunks_per_pass(), wl.chunks_per_pass(), {}
    try:
        setups, hashes = [], []
        for _ in range(1 if trace else SETUP_REPS):
            seconds_taken, header = set_up(wl, seed, path)
            setups.append(seconds_taken)
            hashes.append(sha256_file(path))
        if len(set(hashes)) != 1:
            problems.append(f"set-ups wrote different bytes: {hashes}")
        report["provenance"] = {
            "seed": seed,
            "trace_sha256": hashes[0],
            "trace_bytes": path.stat().st_size,
            "frames": header.frame_count,
            "geometry": {k: getattr(header, k) for k in
                         ("layers", "heads", "tokens_per_frame", "d_h", "motion")},
            "workload": asdict(wl),
        }
        report["setup_s_each"] = setups

        worker = run_worker(wl, path, wl.passes(seconds), trace, spans_path)
        report["environment"] = worker["environment"]
        report["ru_maxrss_mb"] = worker["ru_maxrss_mb"]
        passes = worker["passes"] + ([worker["traced"]] if trace and "traced" in worker else [])
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        problems.extend(p["error"] for p in passes if p["error"])
        # Every repetition of a workload must replay to the same bytes.
        digests = {p.get("digest") for p in passes if p["error"] is None}
        if len(digests) > 1:
            problems.append(f"passes disagree: {sorted(digests)}")
        first = passes[0]
        untraced = worker["passes"]
        report["digest"] = first.get("digest")
        report["summary"] = first.get("summary")
        # Every pass does the same work chunk for chunk (the digests agree),
        # so the fastest pass, and each chunk's fastest pass, are the ones
        # least disturbed by other load on the machine. The pass count is
        # fixed per workload, so this is the same estimator on every run.
        frames_per_s = wl.frames / min(p["elapsed_s"] for p in untraced)
        chunk_ms = [min(times) * 1e3 for times in zip(*(p["chunk_s"] for p in untraced))]
        report["samples"] = {"passes": len(untraced), "chunk_samples": len(chunk_ms),
                             "setup_reps": len(setups)}
        report["pass_s"] = [p["elapsed_s"] for p in untraced]

        if trace:
            traced = worker.get("traced")
            if traced is None:
                raise RuntimeError("no traced pass ran")
            values = dict(traced["layers"])
            values["trace.overhead_frac"] = frames_per_s / (wl.frames / traced["elapsed_s"]) - 1.0
            report["unhooked"] = traced["unhooked"]
            # A hook lost to a refactor would read 0 ms, which looks like a gain.
            if traced["unhooked"]:
                problems.append(f"tracer could not hook {traced['unhooked']}")
            report["spans_file"] = str(spans_path)
        elif first["error"] is None:
            p50, p90 = np.percentile(chunk_ms, [50, 90])
            if wl.kind == "compare":
                fid = {"mean_cosine": first["output_cosine"], "mean_rel_l2": first["output_rel_l2"]}
            else:
                frames = min(FIDELITY_FRAMES, wl.frames)
                fid = fidelity(wl, path, frames)
                attempted += replace(wl, kind="compare", frames=frames).chunks_per_pass()
                report["samples"]["fidelity_frames"] = frames
            values = {
                "frames_per_s": frames_per_s,
                "chunk_ms_p50": float(p50),
                "chunk_ms_p90": float(p90),
                "peak_rss_mb": worker["peak_rss_mb"],
                "setup_s": statistics.median(setups),
                "peak_cache_tokens": first["peak_cache_tokens"],
                "compression_ratio": first["compression_ratio"],
                # The angle, not the cosine: it is 0 at perfect fidelity, so
                # a relative bound on it means something, while the cosine
                # sits near 1 where any relative bound is loose.
                "output_angle_deg": math.degrees(math.acos(min(1.0, fid["mean_cosine"]))),
                "output_rel_l2": fid["mean_rel_l2"],
                "completed_frac": None,  # set once every check has run
            }
    except Exception:
        problems.append(traceback.format_exc())
        failed = attempted
    finally:
        path.unlink(missing_ok=True)

    expected = {m["name"] for m in catalog}
    if values and set(values) != expected:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ expected)}")
    if problems and not failed:
        failed = attempted
    if "completed_frac" in values:
        values["completed_frac"] = (attempted - failed) / attempted
    report["failed_frac"] = failed / attempted
    report["metrics"] = [
        {"name": m["name"], "unit": m["unit"], "better": m["better"], "workload": wl.name,
         "value": values[m["name"]]}
        for m in catalog if m["name"] in values
    ]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]} for m in report["metrics"]},
    }
    return report, result
