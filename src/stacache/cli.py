"""Command line interface: synthesize traces, replay them, compare policies.

Exit codes: 0 success, 1 usage (including an output that cannot be opened
or written), 2 trace validation (including positions outside the voxel index
range), 3 configuration validation, 4 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

from .errors import (
    ConfigError,
    InvariantViolation,
    StacacheError,
    TraceFormatError,
    VoxelRangeError,
)
from .pipeline import DEFAULT_CHUNK_SIZE, Policy, ReplayStats, compare, run_stream
from .tokens import CacheConfig
from .traceio import synth_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRACE = 2
EXIT_CONFIG = 3
EXIT_INVARIANT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this tool reserves
    # 2 for trace validation, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _split_arg(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated fractions, e.g. 0.5,0.25,0.25")
    try:
        w, a, r = (float(p) for p in parts)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    return w, a, r


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stacache", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--tokens", type=int, default=16, help="tokens per frame")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--dh", type=int, default=16, help="head dimension")
    p.add_argument("--motion", choices=["random_walk", "orbit", "revisit"], default="revisit")
    p.add_argument("--spread", type=float, default=0.25, help="within-region key noise")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    def add_policy_flags(p):
        p.add_argument("--window", type=int, default=8, help="frames kept by the window policy")
        p.add_argument("--gamma", type=float, default=None, help="score decay per chunk")
        p.add_argument("--lambda", dest="merge_lambda", type=float, default=None,
                       help="cosine threshold for merging")
        p.add_argument("--voxel-size", type=float, default=None)
        p.add_argument("--g-cap", type=int, default=None, help="merged entries per voxel")
        p.add_argument("--e-cap", type=int, default=None, help="buffered entries per voxel")
        p.add_argument("--knn-mult", type=float, default=None, help="retrieval radius in voxel sizes")
        p.add_argument("--budget-mult", type=float, default=None, help="budget in frame multiples")
        p.add_argument("--window-frames", type=int, default=None, help="temporal window frames")
        p.add_argument("--chunk", type=int, default=DEFAULT_CHUNK_SIZE,
                       help="frames per attention chunk, for every policy (default %(default)s)")
        p.add_argument("--split", type=_split_arg, default=None,
                       metavar="W,A,R", help="budget fractions window,anchor,retrieve")
        p.add_argument("--half", action="store_true", help="round cache contents through float16")
        p.add_argument("--no-audit", action="store_true", help="skip runtime invariant audits")

    p = sub.add_parser("replay", help="replay a trace under one policy")
    p.add_argument("--trace", required=True)
    p.add_argument("--policy", choices=["full", "window", "stac"], required=True)
    add_policy_flags(p)
    p.add_argument("--stats-out", default=None, help="stats stream path (default stdout)")
    p.add_argument("--csv", action="store_true",
                   help="chunk rows as CSV (summary then goes to stderr as JSON)")
    p.add_argument("--seed-check", action="store_true",
                   help="replay twice and verify identical stats (timing excluded)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("compare", help="divergence of two policies on one trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--a", required=True, metavar="POLICY",
                   help="baseline: full, window[:W], or stac")
    p.add_argument("--b", required=True, metavar="POLICY", help="candidate policy, same syntax")
    add_policy_flags(p)
    p.add_argument("--report-out", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_compare)
    return parser


def _config_from_args(args) -> CacheConfig:
    cfg = CacheConfig()
    if args.gamma is not None:
        cfg.gamma = args.gamma
    if args.merge_lambda is not None:
        cfg.merge_lambda = args.merge_lambda
    if args.voxel_size is not None:
        cfg.voxel_size = args.voxel_size
    if args.g_cap is not None:
        cfg.g_cap = args.g_cap
    if args.e_cap is not None:
        cfg.e_cap = args.e_cap
    if args.knn_mult is not None:
        cfg.knn_radius_mult = args.knn_mult
    if args.budget_mult is not None:
        cfg.budget_multiplier = args.budget_mult
    if args.window_frames is not None:
        cfg.window_frames = args.window_frames
    if args.split is not None:
        cfg.window_frac, cfg.anchor_frac, cfg.retrieve_frac = args.split
    cfg.half_precision = bool(args.half)
    return cfg


def _policy_from_spec(spec: str, args) -> Policy:
    kind, _, param = spec.partition(":")
    if kind == "full":
        if param:
            raise ConfigError("policy full takes no parameter")
        return Policy.full()
    if kind == "window":
        try:
            window = int(param) if param else args.window
        except ValueError as e:
            raise ConfigError(f"bad window size {param!r}") from e
        return Policy.sliding(window)
    if kind == "stac":
        if param:
            raise ConfigError("policy stac takes its parameters from the config flags")
        return Policy.stac(_config_from_args(args))
    raise ConfigError(f"unknown policy {spec!r}")


def _flatten(row: dict) -> dict:
    flat = {}
    for k, v in row.items():
        if isinstance(v, dict):
            for k2, v2 in v.items():
                flat[f"{k}.{k2}"] = v2
        else:
            flat[k] = v
    return flat


def _dumps(obj, **kwargs) -> str:
    # Strict JSON: a NaN or inf in a statistic is a bug, never output.
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as e:
        raise InvariantViolation(f"non-finite value in output ({e})") from e


def cmd_synth(args) -> int:
    header, records = synth_trace(
        seed=args.seed,
        frames=args.frames,
        tokens_per_frame=args.tokens,
        layers=args.layers,
        heads=args.heads,
        d_h=args.dh,
        motion=args.motion,
        cluster_spread=args.spread,
    )
    write_trace(args.out, header, records)
    print(_dumps({
        "type": "synth",
        "out": args.out,
        "frames": header.frame_count,
        "tokens_per_frame": header.tokens_per_frame,
        "layers": header.layers,
        "heads": header.heads,
        "d_h": header.d_h,
        "motion": header.motion,
        "seed": header.seed,
    }))
    return EXIT_OK


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """path opened for writing, or stdout without one. If the command raises,
    the file is closed and, unless it is a device like /dev/null, deleted."""
    if not path:
        yield sys.stdout
        return
    out = open(path, "w", encoding="utf-8")  # a path that cannot be opened is left alone
    try:
        with out:
            yield out
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def _replay_once(args, policy: Policy, sink) -> ReplayStats:
    return run_stream(args.trace, policy, chunk_size=args.chunk, audit=not args.no_audit,
                      stats_sink=sink)


def cmd_replay(args) -> int:
    policy = _policy_from_spec(args.policy, args)
    with _output(args.stats_out) as out:
        if args.csv:
            stats = _replay_once(args, policy, None)
            rows = [_flatten(r) for r in stats.rows]
            if rows:
                writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
            print(_dumps(stats.summary), file=sys.stderr)
        else:
            def sink(row: dict) -> None:
                out.write(_dumps(row) + "\n")
                out.flush()

            stats = _replay_once(args, policy, sink)
        if args.seed_check:
            again = _replay_once(args, policy, None)
            identical = stats.canonical_lines() == again.canonical_lines()
            note = _dumps({"type": "seed_check", "identical": identical})
            print(note, file=sys.stderr if args.csv else sys.stdout)
            if not identical:
                print("seed check failed: replays differ", file=sys.stderr)
                return EXIT_INVARIANT
    return EXIT_OK


def cmd_compare(args) -> int:
    policy_a = _policy_from_spec(args.a, args)
    policy_b = _policy_from_spec(args.b, args)
    # opened before the replay, so an unwritable path fails first
    with _output(args.report_out) as out:
        report = compare(args.trace, policy_a, policy_b, chunk_size=args.chunk,
                         audit=not args.no_audit)
        print(_dumps(report, indent=2), file=out)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a write to stdout that fails fails the command
        return code
    except (TraceFormatError, VoxelRangeError) as e:
        # a position outside the voxel range is bad trace data, not config
        print(f"trace error: {e}", file=sys.stderr)
        return EXIT_TRACE
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as e:
        # the trace reader names its errors after the trace; an output that
        # cannot be opened or written is a usage error, as in synth
        if args.cmd != "synth" and e.filename == args.trace:
            print(f"trace error: {e}", file=sys.stderr)
            return EXIT_TRACE
        print(f"error: {e}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # Python flushes stdout again at exit, and exits 120 if that
            # fails, so what a failed write left there goes to devnull
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_USAGE
    except StacacheError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
