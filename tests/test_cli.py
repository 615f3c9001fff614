"""CLI behavior: subcommands, output streams, and exit codes."""

import errno
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from stacache import CacheConfig, cli, synth_trace, traceio, validate_config, write_trace
from stacache.cli import main
from stacache.spatial import COORD_LIMIT


def _synth(tmp_path, frames=10, tokens=4, capsys=None):
    path = str(tmp_path / "t.kvtrace")
    code = main([
        "synth", "--frames", str(frames), "--tokens", str(tokens),
        "--dh", "4", "--seed", "1", "--out", path,
    ])
    assert code == 0
    if capsys is not None:
        capsys.readouterr()  # drop the synth report so callers see only their own output
    return path


def test_synth_writes_trace_and_reports(tmp_path, capsys):
    path = _synth(tmp_path, frames=6)
    out = capsys.readouterr().out
    info = json.loads(out)
    assert info["type"] == "synth"
    assert info["frames"] == 6
    assert (tmp_path / "t.kvtrace").stat().st_size > 0


def test_synth_to_missing_directory_is_usage_error(tmp_path, capsys):
    code = main(["synth", "--frames", "2", "--out", str(tmp_path / "nope" / "t.kvtrace")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, needle", [
    pytest.param(["--seed", "-1"], "seed", id="negative-seed"),
    pytest.param(["--spread", "nan"], "cluster_spread", id="nan-spread"),
    pytest.param(["--spread", "inf"], "cluster_spread", id="inf-spread"),
])
def test_synth_refuses_bad_arguments_before_writing(tmp_path, capsys, flags, needle):
    path = tmp_path / "t.kvtrace"
    code = main(["synth", "--frames", "2", "--out", str(path), *flags])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and "Traceback" not in err
    assert not path.exists()


def test_replay_streams_chunk_rows_then_summary(tmp_path, capsys):
    path = _synth(tmp_path, capsys=capsys)
    code = main(["replay", "--trace", path, "--policy", "full", "--chunk", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert all(r["type"] == "chunk" for r in rows[:-1])
    assert rows[-1]["type"] == "summary"
    assert rows[-1]["policy"] == "full"
    assert rows[-1]["chunk_size"] == 3
    assert len(rows) == 4  # frames 1..9 in chunks of 3, plus summary


def test_replay_stats_out_redirects_stream(tmp_path, capsys):
    path = _synth(tmp_path, capsys=capsys)
    stats_path = tmp_path / "stats.jsonl"
    code = main([
        "replay", "--trace", path, "--policy", "stac", "--stats-out", str(stats_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    rows = [json.loads(line) for line in stats_path.read_text().splitlines()]
    assert rows[-1]["type"] == "summary"


def test_replay_csv_puts_rows_on_stdout_summary_on_stderr(tmp_path, capsys):
    path = _synth(tmp_path, capsys=capsys)
    code = main(["replay", "--trace", path, "--policy", "window", "--window", "3", "--csv"])
    assert code == 0
    captured = capsys.readouterr()
    header = captured.out.splitlines()[0]
    for col in ("frame_lo", "frame_hi", "total", "bytes", "retrieval.requested"):
        assert col in header.split(",")
    summary = json.loads(captured.err.strip().splitlines()[-1])
    assert summary["type"] == "summary"
    assert summary["policy"] == "window:3"


def test_seed_check_passes_on_deterministic_replay(tmp_path, capsys):
    path = _synth(tmp_path, capsys=capsys)
    code = main(["replay", "--trace", path, "--policy", "stac", "--seed-check"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    note = json.loads(lines[-1])
    assert note == {"type": "seed_check", "identical": True}


def test_replay_stats_out_to_missing_directory_is_usage_error(tmp_path, capsys):
    path = _synth(tmp_path, capsys=capsys)
    code = main(["replay", "--trace", path, "--policy", "stac",
                 "--stats-out", str(tmp_path / "nope" / "x.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trace error" not in err


def test_compare_report_out_to_missing_directory_fails_before_replaying(
        tmp_path, capsys, monkeypatch):
    path = _synth(tmp_path, capsys=capsys)
    monkeypatch.setattr(cli, "compare", lambda *a, **k: pytest.fail("replayed first"))
    code = main(["compare", "--trace", path, "--a", "full", "--b", "stac",
                 "--report-out", str(tmp_path / "nope" / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trace error" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, to_stdout", [
    pytest.param(["replay", "--policy", "stac", "--stats-out", "/dev/full"], False,
                 id="replay-stats-out"),
    pytest.param(["replay", "--policy", "stac"], True, id="replay-stdout"),
    pytest.param(["replay", "--policy", "stac", "--csv"], True, id="replay-csv-stdout"),
    pytest.param(["compare", "--a", "full", "--b", "stac", "--report-out", "/dev/full"], False,
                 id="compare-report-out"),
])
def test_failed_output_write_is_usage_error(tmp_path, capsys, monkeypatch, argv, to_stdout):
    # a full device under the output is no fault of the trace
    path = _synth(tmp_path, capsys=capsys)
    if to_stdout:
        full = open("/dev/full", "w", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", full)
    code = main([*argv, "--trace", path])
    if to_stdout:
        full.close()  # what the failed write left pending no longer fails
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: [Errno 28]") and "trace error" not in err


@pytest.mark.parametrize("reader", ["_load_json_line", "_decode_record"])
def test_failed_trace_read_is_trace_error(tmp_path, capsys, monkeypatch, reader):
    # a read that fails after the open, in the header or in a record, is
    # still the trace's fault, and the error names it
    path = _synth(tmp_path, capsys=capsys)

    def fail(*args):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(traceio, reader, fail)
    assert main(["replay", "--trace", path, "--policy", "stac"]) == 2
    assert capsys.readouterr().err == f"trace error: [Errno 5] Input/output error: {path!r}\n"


def test_failed_replay_leaves_no_stats_file(tmp_path, capsys):
    # a bad magic fails before the first row, a record cut short after
    # some: either way the stats file goes, rather than a partial stream
    bad = tmp_path / "bad.kvtrace"
    bad.write_bytes(b"NOTATRACE json garbage\n")
    cut = tmp_path / "cut.kvtrace"
    with open(_synth(tmp_path, frames=12, capsys=capsys), "rb") as f:
        cut.write_bytes(f.read()[:-1])
    for trace in (bad, cut):
        out = tmp_path / "s.jsonl"
        code = main(["replay", "--trace", str(trace), "--policy", "stac", "--chunk", "2",
                     "--stats-out", str(out)])
        assert code == 2, trace
        assert "trace error" in capsys.readouterr().err
        assert not out.exists(), trace


def test_failed_compare_leaves_no_report_file(tmp_path, capsys):
    bad = tmp_path / "bad.kvtrace"
    bad.write_bytes(b"NOTATRACE json garbage\n")
    out = tmp_path / "r.json"
    code = main(["compare", "--trace", str(bad), "--a", "full", "--b", "stac",
                 "--report-out", str(out)])
    assert code == 2
    assert "trace error: bad magic" in capsys.readouterr().err
    assert not out.exists()


def test_voxel_cap_over_the_channel_budget_is_config_error(tmp_path, capsys):
    # the cell tables hold g_cap + e_cap slots per cell, so a cap past what
    # a channel may attend would only buy memory: 8 x 4 tokens here
    path = _synth(tmp_path, tokens=4, capsys=capsys)
    for flag in ("--g-cap", "--e-cap"):
        code = main(["replay", "--trace", path, "--policy", "stac", flag, "1000"])
        assert code == 3, flag
        name = flag[2:].replace("-", "_")
        assert f"{name}=1000 exceeds the channel's budget of 32 tokens" in \
            capsys.readouterr().err, flag
    assert main(["replay", "--trace", path, "--policy", "stac", "--g-cap", "32"]) == 0


def test_missing_trace_file_is_trace_error(tmp_path, capsys):
    code = main(["replay", "--trace", str(tmp_path / "absent.kvtrace"), "--policy", "full"])
    assert code == 2
    assert "trace error" in capsys.readouterr().err


def test_corrupt_trace_is_trace_error(tmp_path, capsys):
    path = tmp_path / "bad.kvtrace"
    # junk, and a JSON-lines header that carries the magic as a field
    for blob in (b"NOTATRACE json garbage\n",
                 b'{"magic": "KVTRACE0", "layers": 1, "heads": 1, "d_h": 4}\n'):
        path.write_bytes(blob)
        code = main(["replay", "--trace", str(path), "--policy", "full"])
        assert code == 2
        assert "trace error: bad magic" in capsys.readouterr().err


def test_absurd_frame_count_is_trace_error(tmp_path, capsys):
    # the header claims a billion frames over a five-frame file: the replay
    # must reach the truncation (exit 2), not size its buffers from the claim
    header, records = synth_trace(seed=1, frames=5, tokens_per_frame=16, d_h=8)
    path = tmp_path / "liar.kvtrace"
    write_trace(str(path), header, records)
    data = path.read_bytes()
    end = data.index(b"\n")
    claim = json.loads(data[len(b"KVTRACE0") : end])
    claim["frame_count"] = 10**9
    path.write_bytes(b"KVTRACE0" + json.dumps(claim).encode() + data[end:])
    for policy in ("full", "window"):
        code = main(["replay", "--trace", str(path), "--policy", policy])
        assert code == 2
        assert "truncated at record 5" in capsys.readouterr().err


def test_absurd_channel_count_is_trace_error(tmp_path, capsys):
    # 2^31 x 2^31 channels used to wrap the expected record size to 33
    # bytes; the replayer then tried to build 2^62 channels
    header, records = synth_trace(seed=1, frames=3, tokens_per_frame=1, d_h=4)
    path = tmp_path / "huge.kvtrace"
    write_trace(str(path), header, records)
    data = path.read_bytes()
    end = data.index(b"\n")
    claim = json.loads(data[len(b"KVTRACE0") : end])
    claim.update(layers=2**31, heads=2**31)
    path.write_bytes(b"KVTRACE0" + json.dumps(claim).encode() + data[end:])
    for policy in ("stac", "full"):
        code = main(["replay", "--trace", str(path), "--policy", policy])
        assert code == 2
        assert "values per record" in capsys.readouterr().err


def _write_tampered(tmp_path, tamper, frames=30, tokens=8):
    header, records = synth_trace(seed=2, frames=frames, tokens_per_frame=tokens, d_h=4)
    for record in records[1:]:
        tamper(record)
    path = str(tmp_path / "tampered.kvtrace")
    write_trace(path, header, records)
    return path


def test_non_finite_trace_is_trace_error(tmp_path, capsys):
    def poison(record):
        if record.frame_idx == 7:
            record.data[0, 0, 1, 2, 0] = np.nan

    path = _write_tampered(tmp_path, poison)
    code = main(["replay", "--trace", path, "--policy", "stac"])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_out_of_range_position_is_trace_error(tmp_path, capsys):
    # 1e7 / voxel 0.05 is far past the 2^20 voxel index range; the first
    # chunk fails when the voxel store indexes its visible positions
    def far_away(record):
        record.positions[record.position_mask] = 1e7

    path = _write_tampered(tmp_path, far_away)
    code = main(["replay", "--trace", path, "--policy", "stac"])
    assert code == 2
    err = capsys.readouterr().err
    assert "trace error" in err and "outside" in err


def test_out_of_range_position_names_its_frame_and_token(tmp_path, capsys):
    # the chunk's visible positions are retrieved in one call; the error
    # names the far one by its frame and token, not by its row in the chunk
    def far_away(record):
        if record.frame_idx == 9:
            record.position_mask[5] = True
            record.positions[5, 0] = 1e9

    path = _write_tampered(tmp_path, far_away, frames=13)
    code = main(["replay", "--trace", path, "--policy", "stac"])
    assert code == 2
    err = capsys.readouterr().err
    assert "frame 9, token 5" in err and "outside" in err and "visible row" not in err


def test_invalid_config_is_config_error(tmp_path, capsys):
    path = _synth(tmp_path)
    code = main(["replay", "--trace", path, "--policy", "stac", "--gamma", "1.5"])
    assert code == 3
    assert "config error" in capsys.readouterr().err
    code = main(["compare", "--trace", path, "--a", "full", "--b", "stac", "--chunk", "0"])
    assert code == 3
    assert "chunk_size" in capsys.readouterr().err
    # non-finite values, or a finite multiplier whose budget is not
    for flags, needle in ((["--budget-mult", "inf"], "budget_multiplier"),
                          (["--budget-mult", "1e308"], "budget_multiplier"),
                          (["--split", "nan,0.5,0.5"], "fractions"),
                          (["--voxel-size", "inf"], "voxel_size"),
                          (["--voxel-size", "1e308"], "voxel_size")):
        code = main(["replay", "--trace", path, "--policy", "stac", *flags])
        assert code == 3, flags
        assert needle in capsys.readouterr().err, flags


def test_largest_accepted_voxel_size_replays_without_overflow(tmp_path):
    # the next float up is refused; at this one, tokens at opposite corners
    # of the voxel index range give retrieval its widest center gaps
    size = math.sqrt(sys.float_info.max / 3) / (2 * COORD_LIMIT)
    while validate_config(CacheConfig(voxel_size=size)):
        size = math.nextafter(size, 0.0)
    assert validate_config(CacheConfig(voxel_size=math.nextafter(size, math.inf)))

    def corners(record):
        corner = COORD_LIMIT - 0.5 if record.frame_idx % 2 else 0.5 - COORD_LIMIT
        record.positions[record.position_mask] = corner * size

    path = _write_tampered(tmp_path, corners, frames=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["replay", "--trace", path, "--policy", "stac",
                     "--voxel-size", repr(size)])
    assert code == 0


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as e:
        main(["replay", "--policy", "full"])  # --trace missing
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["replay", "--trace", "x", "--policy", "banana"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["synth", "--frames", "2", "--out", "t.jsonl", "--text"])  # binary only
    assert e.value.code == 1


def test_compare_reports_overall_divergence(tmp_path, capsys):
    path = _synth(tmp_path, frames=12, capsys=capsys)
    code = main(["compare", "--trace", path, "--a", "full", "--b", "window:2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "divergence"
    assert report["policy_a"] == "full"
    assert report["policy_b"] == "window:2"
    assert 0.0 <= report["overall"]["mean_cosine"] <= 1.0
    assert len(report["per_frame"]) == 11  # frame 0 is register-only


def test_compare_with_no_compared_frame_reads_identical(tmp_path, capsys):
    # a one-frame trace is all reference: no chunk, so no frame to compare
    path = _synth(tmp_path, frames=1, capsys=capsys)
    code = main(["compare", "--trace", path, "--a", "full", "--b", "stac"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["per_frame"] == []
    assert report["overall"] == {"mean_cosine": 1.0, "mean_rel_l2": 0.0, "max_rel_l2": 0.0}
    assert [(c["mean_cosine"], c["mean_rel_l2"]) for c in report["per_channel"]] == [(1.0, 0.0)]


def test_replay_with_no_chunk_counts_the_reference(tmp_path, capsys):
    path = str(tmp_path / "one.kvtrace")
    assert main(["synth", "--frames", "1", "--tokens", "4", "--layers", "2", "--heads", "3",
                 "--dh", "4", "--out", path]) == 0
    capsys.readouterr()
    for policy in ("full", "window", "stac"):
        assert main(["replay", "--trace", path, "--policy", policy]) == 0
        (summary,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert summary["chunks"] == 0
        assert summary["peak_total_tokens"] == summary["final_total_tokens"] == 2 * 3 * 4
        assert summary["compression_ratio"] == 1.0


def test_compare_chunk_flag_sets_both_replays(tmp_path, capsys):
    path = _synth(tmp_path, frames=12, capsys=capsys)
    code = main(["compare", "--trace", path, "--a", "full", "--b", "window:2", "--chunk", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for summary in (report["summary_a"], report["summary_b"]):
        assert summary["chunk_size"] == 2
        assert summary["chunks"] == 6  # frames 1..11 in chunks of 2


def test_compare_report_out_writes_file(tmp_path, capsys):
    path = _synth(tmp_path, capsys=capsys)
    out_path = tmp_path / "report.json"
    code = main([
        "compare", "--trace", path, "--a", "full", "--b", "stac",
        "--report-out", str(out_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out_path.read_text())
    assert "overall" in report


def test_bad_policy_specs_are_config_errors(tmp_path, capsys):
    path = _synth(tmp_path)
    for bad in ("window:abc", "full:1", "stac:9", "zigzag"):
        code = main(["compare", "--trace", path, "--a", bad, "--b", "full"])
        assert code == 3, bad


def test_split_flag_is_validated(tmp_path, capsys):
    path = _synth(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["replay", "--trace", path, "--policy", "stac", "--split", "0.5,0.5"])
    assert e.value.code == 1  # malformed flag value is a usage error
    code = main(["replay", "--trace", path, "--policy", "stac", "--split", "0.9,0.3,0.3"])
    assert code == 3  # well-formed but inconsistent fractions are a config error
