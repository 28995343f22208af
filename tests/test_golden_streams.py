"""Golden digests of simulator and interleaver output.

Every random draw in the package comes from a Philox stream keyed by
(seed, role, index).  Criterion 12 compares two runs of one build, so it
cannot notice a keying or sampling change that alters the streams between
versions.  These digests pin the bytes themselves: any change to how a
stream is keyed, or to the order or kind of draws taken from it, fails here.
The outputs of analyze, capacity and recover on the same trace pairs are
pinned as well, so a refactor of the pipeline must keep them byte-identical.
"""

import hashlib

import numpy as np
import pytest

from hybridchan import (
    ChannelParams,
    SimConfig,
    apply_channel,
    apply_periodic_noise,
    generate_tx,
    write_trace,
)
from hybridchan.cli import main
from hybridchan.sim import _BLOCK_WORDS
from hybridchan.trace import CRC
from hybridchan.interleaver import interleave, whiten_error_vector


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


CLI_CASES = {
    "hybrid": (
        ["--frames", 300, "--frame-len", 400, "--r", 0.1, "--s", 0.6,
         "--p", 0.02, "--skew-ppm", 50, "--offset-us", 10000,
         "--jitter-us", 50, "--seed", 601],
        "557293481b378c95a82310b2e229ba2618d2132234f3c7940a949b55bd07d82b",
        "e4eff55c71961835997e21acd4b18664bc389ce9c315d2a6d15ee3fee00c57ee",
    ),
    "periodic": (
        ["--frames", 120, "--frame-len", 600, "--periodic", "--period", 288,
         "--burst", 32, "--p-burst", 0.1, "--skew-ppm", -20,
         "--offset-us", 500, "--seed", 7],
        "1970e56f3f33495026afbc9465d05bd2dfa4915d8ba284cec50abb9d903d44d0",
        "22adfcbf18f23ccd2a54944d332570f6e797f5fa0478ab8aef3c53a4a83c7830",
    ),
    # Frames too short for the runs test's normal approximation: 16 bits
    # give small-sample rows with a z and degenerate rows, 2 bits give
    # small-sample rows without a z (one error and one clean bit).
    "short": (
        ["--frames", 200, "--frame-len", 16, "--r", 0, "--s", 0.2,
         "--p", 0.3, "--seed", 4],
        "c3c6cab9ecd72a5f0de130771c5c75a60a05ec5affd3e28907f9b8ef9d01caac",
        "2085b89dc1094341009b78f59f6928a6c50cd70bbfd2201bb232fbf0e5ae91e5",
    ),
    "two-bit": (
        ["--frames", 200, "--frame-len", 2, "--r", 0.1, "--s", 0.2,
         "--p", 0.5, "--seed", 5],
        "47b68e77424ef331ea0677d2e738ca3adbdeebda357f20bcd7691cc2f677a3f0",
        "875d209ec333be8d5d102e9daae22d31c60d0e45a9c23d5c7ba818f451e08bbb",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_simulate_cli_digests(tmp_path, case):
    flags, tx_digest, rx_digest = CLI_CASES[case]
    out = tmp_path / case
    assert main([str(a) for a in ["simulate", *flags, "--out", out]]) == 0
    assert (sha256(out / "tx.trace"), sha256(out / "rx.trace")) == (
        tx_digest, rx_digest)


def with_rssi(rx_path, out_path):
    """Copy an rx trace, giving every non-PHY record a made-up RSSI of -95..-40.

    The value is a fixed function of the line number, so the copy is
    deterministic and spreads the frames over many bins.
    """
    lines = rx_path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(" ")
        if fields[3] != "phy":
            fields[4] = str(-40 - (i * 37) % 56)
            lines[i] = " ".join(fields)
    out_path.write_text("".join(lines), encoding="utf-8")


# sha256 over the sorted (file name, bytes) of each command's output directory.
# The short-frame cases pin no recover output: on them recover --scrub
# assigns one seq to two records and exits 3.
OUTPUT_DIGESTS = {
    "hybrid": {
        "analyze":
            "f13b16e85fe465cc5a130f71c60df5517cff16086ea203533982c7777796b149",
        "analyze-raw":
            "d084bb62c03356e59941ddc25e0a5cb731f3e455c64c1fbfe433ede93cd74889",
        "capacity":
            "e0c326e63cdea4b1afd8cec5e3400631eb55463914fae8121de53fceabdf287c",
        "recover":
            "e265e5795a14e8003e1f81c7e5e10da7af517698197cda358b19a671bc26e1d7",
    },
    "periodic": {
        "analyze":
            "403d1f472de1a739d1af87f51bad43d46c4ee72f046e32b63120cd4e625714af",
        "analyze-raw":
            "becb9cdeb300ce99bbdc0c425b7aec4a96fd200c14df3cb0d172fbb6956f9ccd",
        "capacity":
            "1c49bb38fa2c0fa271a9647cd9df3685d5e34f790671a9a812a4b8d732fb9eff",
        "recover":
            "d0d9812c854ab104ca8095288cf128b0ba2f8afad013079d27167c046bfbabb8",
    },
    "short": {
        "analyze":
            "82e34caaf86b882d3c8002057a95d7a455d902ca9b3635829766a688fe7956f3",
        "analyze-raw":
            "5f99ba47425ede512a64c99b8d3723a348505ff218d6eeb1b024925737292385",
        "capacity":
            "b8ef5d2e52af1622a0c1f174aab23bb4023631e2fb7faade5a30276efb47739b",
    },
    "two-bit": {
        "analyze":
            "86c9fbc8e3e0e8def3bb33bbb9ad487e90a9a129d082608be7f31b5fe88b76fd",
        "analyze-raw":
            "fc595e6fc6c43b278a0c8e4b4d9a1b6c7557fa9773d0b2b50d3ed22028bd6509",
        "capacity":
            "aa6571c04c111d1fa0a29e7a71a311def0822a4cb1da1c517542320262f32bd6",
    },
}


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_digests(tmp_path, case):
    flags, _, _ = CLI_CASES[case]
    seed = str(flags[flags.index("--seed") + 1])
    sim = tmp_path / "sim"
    assert main([str(a) for a in ["simulate", *flags, "--out", sim]]) == 0
    pair = [str(sim / "tx.trace"), str(sim / "rx.trace")]
    with_rssi(sim / "rx.trace", tmp_path / "rx-rssi.trace")
    runs = {
        "analyze": ["analyze", *pair, "--seed", seed],
        "analyze-raw": ["analyze", *pair, "--no-interleave"],
        "capacity": ["capacity", pair[0], str(tmp_path / "rx-rssi.trace"),
                     "--rssi-bin", "1"],
        "recover": ["recover", *pair, "--scrub"],
    }
    got = {}
    for name in OUTPUT_DIGESTS[case]:
        args = runs[name]
        assert main([*args, "--out", str(tmp_path / name)]) == 0
        got[name] = tree_digest(tmp_path / name)
    assert got == OUTPUT_DIGESTS[case]


def test_drift_schedule_config_digests(tmp_path):
    def params(r, s, p):
        return ChannelParams(r=r, s=s, p=p, rate_bps=11e6, frame_len=257,
                             interval_us=1000)

    config = SimConfig(
        params=params(0.05, 0.8, 0.01),
        seed=-3,
        n_frames=240,
        clock_skew_ppm=12.5,
        clock_offset_us=-250,
        drift_schedule=((60, params(0.3, 0.5, 0.05)),
                        (150, params(0.0, 0.2, 0.002))),
        timestamp_jitter_us=20,
    )
    tx = generate_tx(config)
    write_trace(tx, tmp_path / "tx.trace")
    write_trace(apply_channel(tx, config), tmp_path / "rx.trace")
    assert sha256(tmp_path / "tx.trace") == (
        "38371e11bb1e65ab9bf6f384de58b92cd8d10cdc306484183cc75827b5560062")
    assert sha256(tmp_path / "rx.trace") == (
        "74010ea48b0ed0f9b5a30e13bfca473c7ebdce5ab58d064eb50a6294f2a8a921")


def block_rows(row_words):
    """Frames per block of the simulator's raw words."""
    return max(1, _BLOCK_WORDS // row_words)


def test_block_crossing_hybrid_digests(tmp_path):
    # 125-bit frames take 16 payload words, 3 head words (jitter, erase,
    # clean) and 128 words per corrupted frame.  The change-point at 4096
    # starts a payload block and the one at 10922 a head block.
    def params(r, s, p):
        return ChannelParams(r=r, s=s, p=p, rate_bps=11e6, frame_len=125,
                             interval_us=1000)

    config = SimConfig(
        params=params(0.1, 0.5, 0.02),
        seed=2024,
        n_frames=22000,
        clock_skew_ppm=25.0,
        clock_offset_us=-1234,
        drift_schedule=((4096, params(0.3, 0.2, 0.05)),
                        (10922, params(0.05, 0.7, 0.005))),
        timestamp_jitter_us=40,
    )
    tx = generate_tx(config)
    rx = apply_channel(tx, config)
    n_crc = int((rx.rx.status == CRC).sum())
    assert config.n_frames > 2 * block_rows(16) and 4096 % block_rows(16) == 0
    assert config.n_frames > 2 * block_rows(3) and 10922 % block_rows(3) == 0
    assert n_crc > 2 * block_rows(128)
    write_trace(tx, tmp_path / "tx.trace")
    write_trace(rx, tmp_path / "rx.trace")
    assert sha256(tmp_path / "tx.trace") == (
        "ef46b223546e09141e13741ed2e10246dd70792ae101aeb6d6fc4c62fbff9efb")
    assert sha256(tmp_path / "rx.trace") == (
        "006df828d0a44c60af4d5e3db3665329958f65812740dd792c6a80da98d874a8")


def test_block_crossing_periodic_digests(tmp_path):
    # 1000-bit frames take 125 payload words and 160 window words (ten
    # 16-bit bursts); about half the frames draw no flip.
    params = ChannelParams(r=0.0, s=1.0, p=0.0, rate_bps=11e6, frame_len=1000,
                           interval_us=1000)
    config = SimConfig(params=params, seed=99, n_frames=1000)
    assert config.n_frames > 2 * max(block_rows(125), block_rows(160))
    tx = generate_tx(config)
    rx = apply_periodic_noise(tx, 100, 16, 0.005, seed=99, clock_skew_ppm=-30.0,
                              clock_offset_us=777)
    write_trace(tx, tmp_path / "tx.trace")
    write_trace(rx, tmp_path / "rx.trace")
    assert sha256(tmp_path / "tx.trace") == (
        "3e297adfef6f72891fee11aa2ca4c162bd0a045cd53db1bb0292b1b50a2c0924")
    assert sha256(tmp_path / "rx.trace") == (
        "ceb7cac4693b84fde6275b3f3b31a92f33e6523082262d1540ba6bb707a57ffd")


def test_interleaver_digest():
    h = hashlib.sha256()
    bits = np.arange(1000, dtype=np.int64)
    for key in (0, 1, (1 << 64) - 1, 0x1234_5678_9ABC_DEF0):
        h.update(interleave(bits, key).tobytes())
    for seq in range(5):
        h.update(whiten_error_vector(bits, 33, seq).tobytes())
    assert h.hexdigest() == (
        "b6152d6d1f04dfb79bb834535e5edb409296bcf347c02e02f42eba85242de9a9")
