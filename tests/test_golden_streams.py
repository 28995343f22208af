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
from hybridchan.sim import _BLOCK_WORDS, _budget
from hybridchan.trace import CRC
from hybridchan.interleaver import interleave, whiten_error_vector


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


CLI_CASES = {
    "hybrid": (
        ["--frames", 300, "--frame-len", 400, "--r", 0.1, "--s", 0.6,
         "--p", 0.02, "--skew-ppm", 50, "--offset-us", 10000,
         "--jitter-us", 50, "--seed", 601],
        "6c0000fdaa727aae409850a28690559ef764a42c584dda249832a2eb466478af",
        "5471668249a32bed9d04703cb0b3e371d7a50c8c8ff06a64053d88fcfcbe83e3",
    ),
    "periodic": (
        ["--frames", 120, "--frame-len", 600, "--periodic", "--period", 288,
         "--burst", 32, "--p-burst", 0.1, "--skew-ppm", -20,
         "--offset-us", 500, "--seed", 7],
        "103cf40f33af3e481499cece05b630c6d6997738a45914445b046cd2d8973251",
        "79dbc7a6a8bbc03a5fe2ab725ff79698b7f9369e75dd65a8333b1a2223b2d0dd",
    ),
    # Frames too short for the runs test's normal approximation: 16 bits
    # give small-sample rows with a z, 2 bits give small-sample rows
    # without a z (one error and one clean bit) and degenerate rows (no
    # error or two).
    "short": (
        ["--frames", 200, "--frame-len", 16, "--r", 0, "--s", 0.2,
         "--p", 0.3, "--seed", 4],
        "97ae59ceb1cab61ed85fe3a380f3e99190c76fec66c1090639ea9d1c1bfbef0f",
        "83b4886014f75898bb430dc02e0410eacf6351838462b7fcbee7137e69eb9cd9",
    ),
    "two-bit": (
        ["--frames", 200, "--frame-len", 2, "--r", 0.1, "--s", 0.2,
         "--p", 0.5, "--seed", 5],
        "7caf2c2f97d3efb7113f0727869fdd46c22dd2b211bbaab6e4ac71aeeb293128",
        "2b62a39e17de48ce942604900d74070644b56ec2a6da560e8616897397e1ea18",
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
            "91b8b930a1a7786cae197aab89cd50d475a19c21bedce12e8a62f0227bdf8c49",
        "analyze-raw":
            "af067fdb23f17c7d927595d8fbf098b9602246d230ba40e321c72aba700e6222",
        "capacity":
            "9efc9c62e3dacee73ed0ba77ee8b639d90058aeab395878d64570f2687bcd86f",
        "recover":
            "a3ebb98bbb402451a4795521c1943a05ad87391099d49c37f72fc7f79ac4fe0f",
    },
    "periodic": {
        "analyze":
            "2bc00a0cddd44059c9891479ac11f9343dc81baf424a52d684fa404e2fc3a919",
        "analyze-raw":
            "299156ad84bf7bff8f27f613c5f9e25212496e5b028f444d3a72369a4d49d4f7",
        "capacity":
            "1178fbde5f06b0b384e54c0112e2fd03b4ac2fb1da970c9c2834a43cf481e765",
        "recover":
            "1352c5de017a640bbecdb82a6cb30d5f46c47650f8dabae30d118aec19db4c5c",
    },
    "short": {
        "analyze":
            "1bdfaf189540c3bff144fe65851b4d46d308e70a0bc9a3cd66e10ca677112d67",
        "analyze-raw":
            "8bc9a61cf8bd630253922777f0609c827848f7eae2fff2079ceed131ef563b17",
        "capacity":
            "f9e1363c9fc8c11ef2f3084db160c27bb142d0eb8bebba013be8bd75ac351d15",
    },
    "two-bit": {
        "analyze":
            "0e255a05ee572a02c76057b0ff9337df3d5ffce16a4fbbf44a85694be0aca437",
        "analyze-raw":
            "2f77ffd12277adaa28a9663357a81842f08748b9b6e98fc2475e32f9e93a06c9",
        "capacity":
            "a58d4370a8b65becc5ed83b72346685c82251d054a75544f245da066b4f5655d",
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
        "175571055cb47b7b4668e751a4a4a7b24a4853ac535e38d09cc71f892aba5d9a")
    assert sha256(tmp_path / "rx.trace") == (
        "cfcd77fa21dbc58e0421e25374f945aaf4eeed4d5cb8b3ed19811fa832d198f7")


def block_rows(row_words):
    """Frames per block of the simulator's raw words."""
    return max(1, _BLOCK_WORDS // row_words)


def test_block_crossing_hybrid_digests(tmp_path):
    # 125-bit frames take 2 payload words, 3 head words (jitter, erase,
    # clean) and, in the first regime, 3 + 19 words per corrupted frame.
    # The change-point at 10922 starts a head block and the one at 16384 a
    # payload block; the first regime's corrupted frames fill more than two
    # flip blocks.
    def params(r, s, p):
        return ChannelParams(r=r, s=s, p=p, rate_bps=11e6, frame_len=125,
                             interval_us=1000)

    config = SimConfig(
        params=params(0.1, 0.5, 0.02),
        seed=2024,
        n_frames=33000,
        clock_skew_ppm=25.0,
        clock_offset_us=-1234,
        drift_schedule=((10922, params(0.3, 0.2, 0.05)),
                        (16384, params(0.05, 0.7, 0.005))),
        timestamp_jitter_us=40,
    )
    tx = generate_tx(config)
    rx = apply_channel(tx, config)
    n_crc = int((rx.rx.status[:10922] == CRC).sum())
    assert config.n_frames > 2 * block_rows(2) and 16384 % block_rows(2) == 0
    assert config.n_frames > 2 * block_rows(3) and 10922 % block_rows(3) == 0
    assert _budget(125, 0.02) == 19 and n_crc > 2 * block_rows(3 + 19)
    write_trace(tx, tmp_path / "tx.trace")
    write_trace(rx, tmp_path / "rx.trace")
    assert sha256(tmp_path / "tx.trace") == (
        "046821ab2eb16f6d0d4cac923030827ac5a21067d79620cfd7f77a68c8447f94")
    assert sha256(tmp_path / "rx.trace") == (
        "5c5b2318dcdd06a7443a91f3d31a2f8d52e660d24201534bc7771d3d1b3b07b4")


def test_block_crossing_periodic_digests(tmp_path):
    # 1000-bit frames take 16 payload words and 14 gap words over 160
    # window positions (ten 16-bit bursts); about half the frames draw no
    # flip.
    params = ChannelParams(r=0.0, s=1.0, p=0.0, rate_bps=11e6, frame_len=1000,
                           interval_us=1000)
    config = SimConfig(params=params, seed=99, n_frames=5000)
    assert _budget(160, 0.005) == 14
    assert config.n_frames > 2 * max(block_rows(16), block_rows(14))
    tx = generate_tx(config)
    rx = apply_periodic_noise(tx, 100, 16, 0.005, seed=99, clock_skew_ppm=-30.0,
                              clock_offset_us=777)
    write_trace(tx, tmp_path / "tx.trace")
    write_trace(rx, tmp_path / "rx.trace")
    assert sha256(tmp_path / "tx.trace") == (
        "c5a0b1b647cbc742eba22b04181e03c9ad2504b3e23c81c5ee904ca32b09ef29")
    assert sha256(tmp_path / "rx.trace") == (
        "dd400918eb997b9cc62f0e69c825f8d19e61b42a65df17f877f4330761c15929")


def test_interleaver_digest():
    h = hashlib.sha256()
    bits = np.arange(1000, dtype=np.int64)
    for key in (0, 1, (1 << 64) - 1, 0x1234_5678_9ABC_DEF0):
        h.update(interleave(bits, key).tobytes())
    for seq in range(5):
        h.update(whiten_error_vector(bits, 33, seq).tobytes())
    assert h.hexdigest() == (
        "b6152d6d1f04dfb79bb834535e5edb409296bcf347c02e02f42eba85242de9a9")
