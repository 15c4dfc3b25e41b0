"""Golden vectors for the spinal pipeline: sessions, decodes, link, stores.

The expected values below were captured from the single-message spinal path
as it stood before the pipeline was reduced to one batch implementation
(scalar encoder, store, bubble search and probe/bisect session of their
own).  The one remaining implementation must reproduce them exactly:

- sessions: every :class:`SessionResult` field, with ``path_cost`` compared
  through ``float.hex`` (bitwise, not approximately).  A successful
  rateless session's ``path_cost`` was re-anchored when sessions began
  reporting the cost of their successful attempt instead of the last
  attempt's; every other field kept its captured value;
- decodes: sha256 of the decoded bits of every attempt in a case, plus each
  attempt's ``path_cost`` hex and symbol count;
- link: every :class:`PacketResult` field of one oracle and one framed
  packet;
- stores: sha256 of the store file the quick-profile ``smoke``,
  ``smoke_fading`` and ``smoke_link`` experiments write.

The branch costs involve only adds, multiplies and table lookups, so the
path costs are exactly rounded and portable across hosts.
"""

from __future__ import annotations

import hashlib
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.channels import AWGNChannel, BSCChannel, RayleighBlockFadingChannel
from repro.core.decoder import BubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import ReceivedSymbols
from repro.link import LinkConfig, LinkSession
from repro.simulation import SpinalSession
from repro.simulation.engine import csi_mode, received_view
from repro.utils.bitops import random_message


def _awgn(snr):
    return lambda rng: AWGNChannel(snr, rng=rng)


def _rayleigh(snr):
    return lambda rng: RayleighBlockFadingChannel(
        snr, coherence_time=10, rng=rng)


# name -> (params, decoder params, n_bits, channel factory, give_csi,
#          probe_growth, fixed passes or None)
SESSION_CASES = {
    "awgn-8way": (SpinalParams(), DecoderParams(B=16, max_passes=10), 64,
                  _awgn(8), False, 1.5, None),
    "awgn-nopunct-growth1": (
        SpinalParams(puncturing="none"), DecoderParams(B=16, max_passes=10),
        64, _awgn(6), False, 1.0, None),
    "awgn-k1-d3": (SpinalParams(k=1, puncturing="none"),
                   DecoderParams(B=8, d=3, max_passes=12), 24, _awgn(-1),
                   False, 1.5, None),
    "awgn-k8": (SpinalParams(k=8), DecoderParams(B=4, max_passes=12), 32,
                _awgn(20), False, 1.5, None),
    "awgn-k3-d2-tail1": (SpinalParams(k=3, puncturing="4-way",
                                      tail_symbols=1),
                         DecoderParams(B=8, d=2, max_passes=12), 36,
                         _awgn(10), False, 1.5, None),
    "bsc-8way": (SpinalParams.bsc(), DecoderParams(B=16, max_passes=24), 48,
                 lambda rng: BSCChannel(0.05, rng=rng), False, 1.5, None),
    "rayleigh-none": (SpinalParams(), DecoderParams(B=16, max_passes=16), 64,
                      _rayleigh(25), "none", 1.5, None),
    "rayleigh-phase": (SpinalParams(), DecoderParams(B=16, max_passes=16),
                       64, _rayleigh(15), "phase", 1.5, None),
    "rayleigh-full": (SpinalParams(), DecoderParams(B=16, max_passes=16), 64,
                      _rayleigh(15), "full", 1.5, None),
    "awgn-failure": (SpinalParams(), DecoderParams(B=8, max_passes=3), 128,
                     _awgn(-10), False, 1.5, None),
    "fixed-rate-awgn": (SpinalParams(puncturing="none", tail_symbols=2),
                        DecoderParams(B=16), 48, _awgn(8), False, 1.5, 2),
    "fixed-rate-rayleigh-full": (
        SpinalParams(puncturing="none", tail_symbols=2), DecoderParams(B=16),
        48, _rayleigh(12), "full", 1.5, 1),
}

# name -> (params, decoder params, n_bits, channel factory, give_csi,
#          subpass counts to decode at)
DECODE_CASES = {
    "awgn-8way": (SpinalParams(), DecoderParams(B=16), 64, _awgn(4), False,
                  (2, 5, 9, 16)),
    "awgn-k1-d4": (SpinalParams(k=1, puncturing="none"),
                   DecoderParams(B=4, d=4), 20, _awgn(0), False, (1, 2, 3)),
    "awgn-k8-d3-clamped": (SpinalParams(k=8, puncturing="none"),
                           DecoderParams(B=2, d=3), 16, _awgn(5), False,
                           (1, 2)),
    "bsc-nopunct-d2": (SpinalParams.bsc(puncturing="none"),
                       DecoderParams(B=16, d=2), 32,
                       lambda rng: BSCChannel(0.15, rng=rng), False,
                       (1, 3, 6)),
    "rayleigh-none": (SpinalParams(), DecoderParams(B=16), 48,
                      _rayleigh(8), "none", (3, 8, 14)),
    "rayleigh-phase": (SpinalParams(), DecoderParams(B=16), 48,
                       _rayleigh(8), "phase", (3, 8, 14)),
    "rayleigh-full": (SpinalParams(), DecoderParams(B=16), 48,
                      _rayleigh(8), "full", (3, 8, 14)),
}

N_SESSION_MESSAGES = 3


def _session_case(name: str) -> list[tuple]:
    params, dec, n_bits, make, give_csi, growth, fixed = SESSION_CASES[name]
    master = np.random.default_rng(zlib.crc32(name.encode()))
    out = []
    for _ in range(N_SESSION_MESSAGES):
        rng = np.random.default_rng(master.integers(0, 2**63))
        message = random_message(n_bits, rng)
        session = SpinalSession(params, dec, message, make(rng),
                                give_csi=give_csi, probe_growth=growth)
        r = (session.run() if fixed is None
             else session.run_fixed_rate(fixed))
        out.append((r.success, r.n_symbols, r.n_subpasses, r.n_bits,
                    r.n_attempts, r.path_cost.hex()))
    return out


def _decode_case(name: str) -> tuple[str, list[tuple[str, int]]]:
    params, dec, n_bits, make, give_csi, counts = DECODE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    message = random_message(n_bits, rng)
    channel = make(rng)
    encoder = SpinalEncoder(params, message)
    decoder = BubbleDecoder(params, dec, n_bits)
    store = ReceivedSymbols(encoder.n_spine, complex_valued=not params.is_bsc)
    checkpoints = [store.checkpoint()]
    for g in range(max(counts)):
        block = encoder.generate(g)
        values, csi = received_view(channel.transmit(block.values),
                                    csi_mode(give_csi))
        store.add_block(block.spine_indices, block.slots, values, csi=csi)
        checkpoints.append(store.checkpoint())
    bits = hashlib.sha256()
    attempts = []
    for g in counts:
        result = decoder.decode(store.prefix(checkpoints[g]))
        bits.update(result.message_bits.tobytes())
        attempts.append((result.path_cost.hex(), result.n_symbols_used))
    # The whole store, read directly rather than through a prefix view.
    full = decoder.decode(store)
    bits.update(full.message_bits.tobytes())
    attempts.append((full.path_cost.hex(), full.n_symbols_used))
    return bits.hexdigest(), attempts


def _link_packets() -> dict[str, tuple]:
    params = SpinalParams()
    dec = DecoderParams(B=16, max_passes=16)
    out = {}
    oracle = LinkSession(params, dec, AWGNChannel(6, rng=31),
                         LinkConfig(framing=False))
    framed = LinkSession(params, dec, _rayleigh(10)(np.random.default_rng(32)),
                         LinkConfig(max_block_bits=64, feedback_delay=20,
                                    give_csi=True))
    for label, session, payload in (
        ("oracle", oracle, random_message(64, 33)),
        ("framed", framed, bytes(range(7, 19))),
    ):
        p = session.send_packet(payload)
        out[label] = (p.success, p.payload_bits, p.coded_bits, p.n_blocks,
                      p.n_subpasses, p.symbols, p.wasted_symbols,
                      p.retransmissions, p.start_time, p.finish_time)
    return out


GOLDEN_SESSIONS: dict[str, list[tuple]] = {
    "awgn-8way": [
        (True, 26, 12, 64, 8, "0x1.010377a2d6f00p+2"),
        (True, 30, 14, 64, 10, "0x1.64d03c437356ep+2"),
        (True, 22, 10, 64, 8, "0x1.831bb4b015720p+1"),
    ],
    "awgn-failure": [
        (False, 99, 24, 128, 8, "nan"),
        (False, 99, 24, 128, 8, "nan"),
        (False, 99, 24, 128, 8, "nan"),
    ],
    "awgn-k1-d3": [
        (True, 25, 1, 24, 1, "0x1.a8dee682239c6p+4"),
        (True, 50, 2, 24, 2, "0x1.c0d54abfacc46p+5"),
        (True, 50, 2, 24, 2, "0x1.51852b9a9bd20p+5"),
    ],
    "awgn-k3-d2-tail1": [
        (True, 12, 4, 36, 5, "0x1.459a05120083dp+0"),
        (True, 15, 5, 36, 5, "0x1.4d4e17c046a73p+0"),
        (True, 15, 5, 36, 5, "0x1.5ef2ad8007265p+0"),
    ],
    "awgn-k8": [
        (True, 9, 13, 32, 9, "0x1.ffc94f65cf8d2p-5"),
        (True, 8, 11, 32, 8, "0x1.698e60349dcebp-4"),
        (True, 10, 15, 32, 10, "0x1.8815d85acb793p-4"),
    ],
    "awgn-nopunct-growth1": [
        (True, 34, 2, 64, 2, "0x1.f5eb4922f1e9cp+2"),
        (True, 51, 3, 64, 3, "0x1.c07bf78a2b9e7p+3"),
        (True, 34, 2, 64, 2, "0x1.8c42fa716403ep+2"),
    ],
    "bsc-8way": [
        (True, 81, 49, 48, 14, "0x1.0000000000000p+2"),
        (True, 68, 41, 48, 13, "0x1.8000000000000p+1"),
        (True, 45, 27, 48, 12, "0x0.0p+0"),
    ],
    "fixed-rate-awgn": [
        (True, 26, 2, 48, 1, "0x1.fece25fdc748cp+1"),
        (True, 26, 2, 48, 1, "0x1.3837eae7b72bdp+2"),
        (True, 26, 2, 48, 1, "0x1.36151f97c44adp+2"),
    ],
    "fixed-rate-rayleigh-full": [
        (False, 13, 1, 48, 1, "0x1.b2160647cd54cp-2"),
        (False, 13, 1, 48, 1, "0x1.963d6db43e4f9p-2"),
        (True, 13, 1, 48, 1, "0x1.61d1070f3b4e0p-1"),
    ],
    "rayleigh-full": [
        (True, 34, 16, 64, 9, "0x1.f28e1d51e3860p-1"),
        (True, 17, 8, 64, 7, "0x1.052932c61b1d5p-1"),
        (True, 39, 18, 64, 10, "0x1.9680f5df1269fp+0"),
    ],
    "rayleigh-none": [
        (False, 272, 128, 64, 12, "nan"),
        (False, 272, 128, 64, 12, "nan"),
        (False, 272, 128, 64, 12, "nan"),
    ],
    "rayleigh-phase": [
        (True, 47, 22, 64, 11, "0x1.42f40961fc727p+4"),
        (True, 54, 25, 64, 11, "0x1.f9d1d14f66a5bp+3"),
        (True, 41, 19, 64, 11, "0x1.95619cc011628p+3"),
    ],
}

GOLDEN_DECODES: dict[str, tuple[str, list[tuple[str, int]]]] = {
    "awgn-8way": (
        "f24ad59ae209c8dc637ae2dec4d0c7e78aca0999e04e0b24f36836e1c039535c",
        [
            ("0x1.091fec3652637p+0", 5),
            ("0x1.94e72174d4fbap+0", 11),
            ("0x1.db2fc280fc82ep+1", 20),
            ("0x1.b7de1dd1bb8ecp+3", 34),
            ("0x1.b7de1dd1bb8ecp+3", 34),
        ],
    ),
    "awgn-k1-d4": (
        "054c4dd41d098b67517d72b5e96042bd9877a7b20843f745cd5abc502c08f750",
        [
            ("0x1.1fe1ab59531e2p+4", 21),
            ("0x1.28fe8c31482c9p+5", 42),
            ("0x1.df186c48dfe23p+5", 63),
            ("0x1.df186c48dfe23p+5", 63),
        ],
    ),
    "awgn-k8-d3-clamped": (
        "d1c42327ededd5cdc1558f79aab7c08176daa73547f025eb8add692272b46dcf",
        [
            ("0x1.36b472d0333dep-2", 3),
            ("0x1.2512278e95266p+0", 6),
            ("0x1.2512278e95266p+0", 6),
        ],
    ),
    "bsc-nopunct-d2": (
        "76a691beea0fd9c81f0c03e1f722c429e12a754595185282d831127ff7557e19",
        [
            ("0x0.0p+0", 9),
            ("0x0.0p+0", 27),
            ("0x1.0000000000000p+2", 54),
            ("0x1.0000000000000p+2", 54),
        ],
    ),
    "rayleigh-full": (
        "7836c6bb7bb3d5ed4ee71fee05c7df8e34b116c47f3e1bfe0b9869eb6b848dce",
        [
            ("0x1.69ba0b5dc0ef4p-3", 6),
            ("0x1.c5279d801ffbdp-2", 13),
            ("0x1.2f03c3b73aeb9p+1", 23),
            ("0x1.2f03c3b73aeb9p+1", 23),
        ],
    ),
    "rayleigh-none": (
        "65419be8c2875bab6fb2a66ae20028921a7016b12d0a251159470bb3af87cfc7",
        [
            ("0x1.8c8d2ab0bbd16p-2", 6),
            ("0x1.bf5cb220f9ac0p-1", 13),
            ("0x1.2bb6a6fcce9a7p+2", 23),
            ("0x1.2bb6a6fcce9a7p+2", 23),
        ],
    ),
    "rayleigh-phase": (
        "325fab299991d8ea64a9196408a2f4f030f625b54e6e3cf667ee7ca629308033",
        [
            ("0x1.64a19fec6646ap-4", 6),
            ("0x1.dbbc338a18966p-1", 13),
            ("0x1.f3f2dd1366f96p+1", 23),
            ("0x1.f3f2dd1366f96p+1", 23),
        ],
    ),
}

GOLDEN_LINK: dict[str, tuple] = {
    "framed": (True, 96, 128, 2, 18, 78, 22, 10, 0, 76),
    "oracle": (True, 64, 64, 1, 14, 30, 0, 0, 0, 30),
}

#: sha256 of the one store file each quick-profile smoke experiment writes.
GOLDEN_STORES: dict[str, str] = {
    "smoke":
        "fd312ca04c64f614aa7d30367a5929b7f106eeff149b44c44a3783d5f90de388",
    "smoke_fading":
        "cc41c1745f104413a12beba84f8a2030d24275f05747b4764429f5044f8d253f",
    "smoke_link":
        "d0e052127734823498b3512fd6de281175537453842c36a3bf031e087a48bb27",
}


class TestSessionGolden:
    @pytest.mark.parametrize("name", sorted(SESSION_CASES))
    def test_session_results(self, name):
        assert _session_case(name) == GOLDEN_SESSIONS[name]

    def test_cases_cover_success_and_failure(self):
        outcomes = {row[0] for rows in GOLDEN_SESSIONS.values() for row in rows}
        assert outcomes == {True, False}


class TestDecodeGolden:
    @pytest.mark.parametrize("name", sorted(DECODE_CASES))
    def test_decoded_bits_and_costs(self, name):
        digest, attempts = _decode_case(name)
        want_digest, want_attempts = GOLDEN_DECODES[name]
        assert attempts == want_attempts
        assert digest == want_digest


class TestLinkGolden:
    def test_oracle_and_framed_packets(self):
        assert _link_packets() == GOLDEN_LINK


class TestStoreGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STORES))
    def test_smoke_store_bytes(self, name, tmp_path):
        from repro.experiments.cli import main

        store = tmp_path / "store"
        assert main(["run", name, "--profile", "quick", "--workers", "1",
                     "--store", str(store),
                     "--results-dir", str(tmp_path / "results"),
                     "--no-report"]) == 0
        files = sorted(Path(store).rglob("*.json"))
        assert len(files) == 1
        digest = hashlib.sha256(files[0].read_bytes()).hexdigest()
        assert digest == GOLDEN_STORES[name]
