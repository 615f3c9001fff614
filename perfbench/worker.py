"""The measured process: replays one trace file and reports what it saw.

It receives only the path of a trace written by the parent, so its peak
resident memory counts the replay and nothing else. `--passes` whole passes
over the trace run, each from a new replayer. With `--traced 1` one
untraced pass runs, then one pass under the span tracer; its spans go to
`--spans-out` and its per-layer figures into the result. The result is one
JSON object on the last line of stdout.

Usage: python3 worker.py --workload-json '{...}' --trace-file PATH --passes N
           [--traced 0|1] [--spans-out PATH]
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import traceback
from time import perf_counter

import numpy as np

import stacache
from spans import Tracer, layer_metrics
from workloads import Workload

# Summary fields that carry wall-clock time; everything else is deterministic.
TIMING_FIELDS = ("mean_chunk_ms", "total_ms")


class FeedTimer:
    """Times every StreamReplayer.feed call that completes a chunk.

    Patched on the class, so it also sees the replayers compare() builds.
    Rows are kept per policy label for the per-layer figures.
    """

    def __init__(self):
        self.chunk_s: list[float] = []
        self.rows: dict[str, list[dict]] = {}

    def __enter__(self):
        cls = stacache.StreamReplayer
        self._original = original = cls.feed

        def feed(replayer, record):
            t0 = perf_counter()
            row = original(replayer, record)
            if row is not None:
                self.chunk_s.append(perf_counter() - t0)
                self.rows.setdefault(replayer.policy.label(), []).append(row)
            return row

        cls.feed = feed
        return self

    def __exit__(self, *exc):
        stacache.StreamReplayer.feed = self._original


def _deterministic(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k not in TIMING_FIELDS}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class CheckFailed(Exception):
    """A replay finished but its output is wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _replay(wl: Workload, path: str):
    header, records = stacache.read_trace(path)
    replayer = stacache.StreamReplayer(header, wl.make_policy(), audit=True)
    for record in records:
        replayer.feed(record)
    return replayer.finish()


def _check_replay(wl: Workload, stats) -> dict:
    summary = stats.summary
    for row in stats.rows:
        json.dumps(row, allow_nan=False)
    json.dumps(summary, allow_nan=False)
    _check(summary["frames"] == wl.frames, f"replayed {summary['frames']} of {wl.frames} frames")
    _check(summary["chunks"] == wl.chunks_per_pass(), f"{summary['chunks']} chunks")
    _check(summary["audits_checked"] > 0, "no audit ran")
    _check(0 < summary["peak_total_tokens"] <= summary["full_cache_tokens"], "peak tokens out of range")
    return {
        "digest": _digest(stats.canonical_lines()),
        "summary": _deterministic(summary),
        "peak_cache_tokens": summary["peak_total_tokens"],
        "compression_ratio": summary["compression_ratio"],
    }


def _compare(wl: Workload, path: str) -> dict:
    full, policy = wl.policies()
    return stacache.compare(path, full, policy)


def _check_compare(wl: Workload, report: dict) -> dict:
    json.dumps(report, allow_nan=False)  # rejects NaN and inf anywhere
    overall = report["overall"]
    _check(all(math.isfinite(v) for v in overall.values()), f"non-finite overall {overall}")
    _check(-1.0 <= overall["mean_cosine"] <= 1.0, f"cosine {overall['mean_cosine']}")
    a, b = report["summary_a"], report["summary_b"]
    for s in (a, b):
        _check(s["frames"] == wl.frames, f"{s['policy']} replayed {s['frames']} frames")
        _check(s["audits_checked"] > 0, f"{s['policy']}: no audit ran")
    _check(a["chunks"] + b["chunks"] == wl.chunks_per_pass(), "chunk count")
    _check(a["peak_total_tokens"] == a["full_cache_tokens"], "full dropped tokens")
    _check(0 < b["peak_total_tokens"] <= b["full_cache_tokens"], "peak tokens out of range")
    canonical = dict(report, summary_a=_deterministic(a), summary_b=_deterministic(b))
    return {
        "digest": _digest([json.dumps(canonical, sort_keys=True)]),
        "summary": _deterministic(b),
        "peak_cache_tokens": b["peak_total_tokens"],
        "compression_ratio": b["compression_ratio"],
        "output_cosine": overall["mean_cosine"],
        "output_rel_l2": overall["mean_rel_l2"],
    }


def run_pass(wl: Workload, path: str) -> dict:
    """One whole pass, timed; checks run after the clock stops."""
    run, check = (_compare, _check_compare) if wl.kind == "compare" else (_replay, _check_replay)
    attempted = wl.chunks_per_pass()
    with FeedTimer() as timer:
        t0 = perf_counter()
        try:
            out, error = run(wl, path), None
        except Exception:
            out, error = None, traceback.format_exc()
        elapsed = perf_counter() - t0
    result = {"elapsed_s": elapsed, "chunk_s": timer.chunk_s, "attempted": attempted,
              "rows": timer.rows, "error": error}
    if error is None:
        try:
            result.update(check(wl, out))
        except Exception:
            result["error"] = error = traceback.format_exc()
    # A pass that aborts counts every chunk it did not complete as failed;
    # one that completes but fails a check counts all of them.
    if error is None:
        result["failed"] = 0
    elif out is None:
        result["failed"] = attempted - len(timer.chunk_s)
    else:
        result["failed"] = attempted
    return result


def _vm_hwm_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = inspect.signature(stacache.StreamReplayer).parameters.get("threads")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "replayer_threads": None if threads is None else threads.default,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-json", required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    wl = Workload(**json.loads(args.workload_json))

    result = {"environment": environment()}
    passes = [run_pass(wl, args.trace_file)]
    # Peak memory of the first pass: later passes start from a heap the
    # first one left fragmented, and their peaks varied by 10%. Linux
    # carries ru_maxrss across fork and exec, so it would report the
    # parent's peak (the parent synthesized the trace); VmHWM belongs to
    # this process's own address space.
    result["peak_rss_mb"] = _vm_hwm_kib() / 1024
    result["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A traced run compares its one untraced pass with one traced pass.
    while not args.traced and len(passes) < args.passes and passes[-1]["error"] is None:
        passes.append(run_pass(wl, args.trace_file))
    if args.traced and passes[-1]["error"] is None:
        tracer = Tracer()
        tracer.install(stacache)
        try:
            traced = run_pass(wl, args.trace_file)
        finally:
            tracer.uninstall()
        rows = [r for label, rs in traced["rows"].items() if label != "full" for r in rs]
        traced["layers"] = layer_metrics(tracer.spans, rows)
        traced["unhooked"] = tracer.unhooked
        del traced["rows"]
        if args.spans_out:
            with open(args.spans_out, "w") as f:
                json.dump(tracer.spans, f)
        result["traced"] = traced
    for p in passes:
        del p["rows"]
    result["passes"] = passes
    print(json.dumps(result))


if __name__ == "__main__":
    main()
