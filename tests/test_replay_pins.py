"""What a replay decides is a contract; its float bits hold per host.

Each case pins two sha256 digests of a small replay.

- The structural digest covers the canonical stats lines (for `compare`,
  the report) with every float replaced by one marker; keys, integers and
  strings stay. It holds every token count, event count, retrieval and
  audit figure, so it moves only when a policy decides differently: a
  refactor or a change of arithmetic must leave it alone.
- The float digest covers every chunk's attention outputs, in chunk and
  frame order, followed by the canonical lines as they are. Its last bits
  depend on the host's SIMD loops and BLAS kernel, so it is pinned together
  with `PINNED_HOST`, the fingerprint of the host it was taken on, and a
  mismatch says whether that fingerprint differs too.

The three `stac` cases were first pinned before the voxel store kept its
cells as index tables; the `full`, `window` and `compare` cases before
channel steps stopped reporting the figures of their chunk's stats row.
The structural digests were taken before `attend` moved its softmax
normalization after the products, which left them as they were; the float
digests were taken after it.

`PYTHONPATH=src python tests/test_replay_pins.py` prints every case's
current digests and this host's fingerprint.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os

import numpy as np
import pytest

from stacache import CacheConfig, Policy, StreamReplayer, compare, synth_trace


def _blas_core() -> str:
    """The kernel OpenBLAS picked at load time, asked of the copy mapped
    into this process, or "unknown". RTLD_NOLOAD only finds a library that
    is loaded already, so no second BLAS is ever loaded to ask."""
    try:
        with open("/proc/self/maps") as maps:  # the last field is the file
            mapped = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return "unknown"
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return "unknown"


def host_fingerprint() -> dict:
    """What the float bits of a replay depend on: numpy's version and the
    SIMD targets its loops dispatch to here, and the BLAS numpy was built
    with and the kernel it runs."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__, __cpu_dispatch__, __cpu_features__)

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "simd": list(__cpu_baseline__) + [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": _blas_core(),
    }


# The host the float digests below were taken on.
PINNED_HOST = {
    "numpy": "2.4.6",
    "simd": ["X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
    "blas": "scipy-openblas",
    "blas_version": "0.3.31.188.0",
    "blas_core": "SkylakeX",
}


def _blank_floats(obj):
    if isinstance(obj, float):
        return "<float>"
    if isinstance(obj, dict):
        return {k: _blank_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_blank_floats(v) for v in obj]
    return obj


def _structural_digest(lines):
    blanked = (json.dumps(_blank_floats(json.loads(line))) for line in lines)
    return hashlib.sha256("\n".join(blanked).encode()).hexdigest()


def _replay_digests(trace, policy):
    """(structural digest, float digest, stats) of one replay."""
    header, records = trace
    replayer = StreamReplayer(header, policy)
    digest = hashlib.sha256()

    def emitted():
        for _, block in sorted(replayer.outputs.items()):
            digest.update(block.tobytes())

    for record in records:
        if replayer.feed(record) is not None:
            emitted()
    partial = bool(replayer._pending)
    stats = replayer.finish()
    if partial:
        emitted()
    lines = stats.canonical_lines()
    digest.update("\n".join(lines).encode())
    return _structural_digest(lines), digest.hexdigest(), stats


def _compare_report():
    # chunk 3 over 41 frames ends on a partial chunk of two
    report = compare(synth_trace(**VERBATIM_TRACE), Policy.full(), Policy.stac(), chunk_size=3)
    for side in ("summary_a", "summary_b"):
        for timing in ("mean_chunk_ms", "total_ms"):
            del report[side][timing]
    return report


def _compare_digests(report):
    text = json.dumps(report)
    return _structural_digest([text]), hashlib.sha256(text.encode()).hexdigest()


def _assert_pinned(got, pinned):
    """Structural digests must match anywhere; a float mismatch names
    whether the host differs from the one the pin was taken on."""
    (structural, floats), (want_structural, want_floats) = got, pinned
    assert structural == want_structural, "a replay decided differently"
    if floats != want_floats:
        host = host_fingerprint()
        if host == PINNED_HOST:
            why = "on the host the pin was taken on"
        else:
            why = f"on another host: {host} against the pinned {PINNED_HOST}"
        pytest.fail(f"float digest {floats} != pinned {want_floats}, {why}")


PINNED = [
    pytest.param(
        dict(seed=11, frames=61, tokens_per_frame=32, layers=1, heads=2, d_h=16,
             motion="revisit", cluster_spread=1.0),
        CacheConfig(g_cap=2, e_cap=4),
        ("aggregated", "re_merged"),
        ("1f0a1eedb9d2ad568908a456dbc37dcda1610d4e0b65c44c89b2daae33df4094",
         "9b50a20ceccb81f5065c6eebb87f3bd62a4926f5705d897c4e193c8725a2a1eb"),
        id="scatter-aggregate-re-merge",
    ),
    pytest.param(
        dict(seed=12, frames=61, tokens_per_frame=16, layers=2, heads=2, d_h=8,
             motion="revisit"),
        CacheConfig(),
        ("fused",),
        ("251372f505ff3b5a457e7160dc21e0bd25ef6fe356ff14e227a7a791f09fe51b",
         "ab5475d50f30ebb3a15a4872bf126aca7461d4dd9e693cfb6e4ddb1981746fe4"),
        id="revisit-fuse-retrieve",
    ),
    pytest.param(
        dict(seed=13, frames=42, tokens_per_frame=16, layers=1, heads=3, d_h=8,
             motion="random_walk", cluster_spread=1.0),
        CacheConfig(g_cap=1, half_precision=True),
        ("aggregated", "re_merged"),
        ("d43a45c550f9b2d787bd7cd953a49b9e7b73a2e8059d245fd4ca2822a97013fd",
         "34af46f9ca973cf4fd47402d9d7bbca9b8c5aceaa299d75ef4da07e5278cb374"),
        id="quantized-g-cap-1",
    ),
]


@pytest.mark.parametrize("trace, config, events, digests", PINNED)
def test_stac_replay_bits_are_pinned(trace, config, events, digests):
    structural, floats, stats = _replay_digests(synth_trace(**trace), Policy.stac(config))
    counts = stats.summary["events"]
    assert all(counts[e] > 0 for e in events), counts
    assert sum(row["retrieval"]["returned_g"] for row in stats.rows) > 0
    _assert_pinned((structural, floats), digests)


VERBATIM_TRACE = dict(seed=14, frames=42, tokens_per_frame=16, layers=1, heads=2, d_h=8,
                      motion="revisit")

VERBATIM_PINNED = [
    pytest.param(Policy.full(),
                 ("05325db4188c77197db12da09009f99ff42871fb113c07b23c363cc0838bad75",
                  "11e37d7e3d19f6dbbc5770bfe0523ec511af14d4234cd7e2f960433878c672a5"),
                 id="full"),
    pytest.param(Policy.sliding(3),
                 ("750f5d50bac8b0868c993a8934d31bfc45e930afcd622422f4ac328cc4937d8c",
                  "b534cd2d30871e3b5c1d68e2817fa72091b67ebb541375a34d3331396fe4d071"),
                 id="window-3"),
]


@pytest.mark.parametrize("policy, digests", VERBATIM_PINNED)
def test_verbatim_replay_bits_are_pinned(policy, digests):
    # 41 frames after the reference: ten chunks of four and a partial one
    structural, floats, stats = _replay_digests(synth_trace(**VERBATIM_TRACE), policy)
    assert stats.rows[-1]["frame_lo"] == stats.rows[-1]["frame_hi"]
    _assert_pinned((structural, floats), digests)


COMPARE_PINNED = ("cbdc1184283ddc8d34c3f9c2ea005d092bfd813e1420ec66db84efcd754ec756",
                  "26dcc2acb06a80a6461e65d5b8fd976885920c185b0cbe1b5332678d27518634")


def test_compare_report_bits_are_pinned():
    report = _compare_report()
    assert report["summary_b"]["events"]["evicted"] > 0
    _assert_pinned(_compare_digests(report), COMPARE_PINNED)


if __name__ == "__main__":
    for case in PINNED:
        trace, config, _, _ = case.values
        print(case.id, *_replay_digests(synth_trace(**trace), Policy.stac(config))[:2])
    for case in VERBATIM_PINNED:
        policy, _ = case.values
        print(case.id, *_replay_digests(synth_trace(**VERBATIM_TRACE), policy)[:2])
    print("compare", *_compare_digests(_compare_report()))
    print(json.dumps(host_fingerprint()))
