"""CLI behavior: subcommands, output streams, and exit codes."""

import json

import numpy as np
import pytest

from stacache import synth_trace, write_trace
from stacache.cli import main


def _synth(tmp_path, name="t.kvtrace", frames=10, tokens=4, extra=(), capsys=None):
    path = str(tmp_path / name)
    code = main([
        "synth", "--frames", str(frames), "--tokens", str(tokens),
        "--dh", "4", "--seed", "1", "--out", path, *extra,
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


def test_missing_trace_file_is_trace_error(tmp_path, capsys):
    code = main(["replay", "--trace", str(tmp_path / "absent.kvtrace"), "--policy", "full"])
    assert code == 2
    assert "trace error" in capsys.readouterr().err


def test_corrupt_trace_is_trace_error(tmp_path, capsys):
    path = tmp_path / "bad.kvtrace"
    path.write_bytes(b"NOTATRACE json garbage\n")
    code = main(["replay", "--trace", str(path), "--policy", "full"])
    assert code == 2
    assert "trace error" in capsys.readouterr().err


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


@pytest.mark.parametrize("position", [["a", "b", "c"], [1.0, 2.0], 5])
def test_malformed_text_position_is_trace_error(tmp_path, capsys, position):
    # these escaped as a ValueError or TypeError traceback (exit 1)
    header, records = synth_trace(seed=1, frames=3, tokens_per_frame=4, d_h=4)
    path = tmp_path / "t.jsonl"
    write_trace(str(path), header, records, text=True)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    if isinstance(position, list):
        record["positions"][1] = position
    else:
        record["positions"] = position
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    code = main(["replay", "--trace", str(path), "--policy", "full", "--chunk", "1"])
    assert code == 2
    assert "trace error: record 1" in capsys.readouterr().err


def test_quoted_text_value_is_trace_error(tmp_path, capsys):
    # a quoted q/k/v value used to replay as the number it spells
    header, records = synth_trace(seed=1, frames=3, tokens_per_frame=4, d_h=4)
    path = tmp_path / "t.jsonl"
    write_trace(str(path), header, records, text=True)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["data"][0][0][1][2][3] = " 1.5 "
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    code = main(["replay", "--trace", str(path), "--policy", "full", "--chunk", "1"])
    assert code == 2
    assert "trace error: record 1" in capsys.readouterr().err


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
                          (["--voxel-size", "inf"], "voxel_size")):
        code = main(["replay", "--trace", path, "--policy", "stac", *flags])
        assert code == 3, flags
        assert needle in capsys.readouterr().err, flags


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


def test_text_trace_replays_identically(tmp_path):
    bin_path = _synth(tmp_path, name="bin.kvtrace")
    text_path = _synth(tmp_path, name="text.jsonl", extra=("--text",))
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["replay", "--trace", bin_path, "--policy", "stac",
                 "--stats-out", str(out_a)]) == 0
    assert main(["replay", "--trace", text_path, "--policy", "stac",
                 "--stats-out", str(out_b)]) == 0

    def canon(path):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for r in rows:
            for key in ("wall_ms", "mean_chunk_ms", "total_ms"):
                r.pop(key, None)
        return rows

    assert canon(out_a) == canon(out_b)


def test_split_flag_is_validated(tmp_path, capsys):
    path = _synth(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["replay", "--trace", path, "--policy", "stac", "--split", "0.5,0.5"])
    assert e.value.code == 1  # malformed flag value is a usage error
    code = main(["replay", "--trace", path, "--policy", "stac", "--split", "0.9,0.3,0.3"])
    assert code == 3  # well-formed but inconsistent fractions are a config error
