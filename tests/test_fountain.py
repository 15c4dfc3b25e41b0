"""Tests for the Raptor stack: degree distribution, LT, precode, codec."""

import numpy as np
import pytest

from repro.channels.awgn import AWGNChannel
from repro.fountain import (
    LdpcPrecode,
    LTStream,
    RaptorCodec,
    RaptorScheme,
    ideal_soliton,
    robust_soliton,
    sample_rfc5053_degree,
)
from repro.fountain.distributions import rfc5053_degree
from repro.modulation import soft_demap
from repro.simulation import measure_scheme


class TestDegreeDistribution:
    def test_rfc_degrees_valid(self):
        rng = np.random.default_rng(0)
        degrees = sample_rfc5053_degree(rng, size=20_000)
        assert set(np.unique(degrees)) <= {1, 2, 3, 4, 10, 11, 40}

    def test_rfc_probabilities(self):
        rng = np.random.default_rng(1)
        degrees = sample_rfc5053_degree(rng, size=200_000)
        p2 = (degrees == 2).mean()
        # P(2) = (491582-10241)/2^20 = 0.459
        assert p2 == pytest.approx(0.459, abs=0.01)
        p1 = (degrees == 1).mean()
        assert p1 == pytest.approx(10241 / 2**20, abs=0.002)

    def test_scalar_draw_matches_sampler(self):
        """The scalar draw consumes the generator like a size-1 sample."""
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        scalar = [rfc5053_degree(a) for _ in range(2000)]
        sampled = [int(sample_rfc5053_degree(b)[0]) for _ in range(2000)]
        assert scalar == sampled
        assert a.bit_generator.state == b.bit_generator.state

    def test_mean_degree(self):
        """RFC 5053 average output degree is ~4.6."""
        rng = np.random.default_rng(2)
        degrees = sample_rfc5053_degree(rng, size=100_000)
        assert 4.4 < degrees.mean() < 4.9

    def test_ideal_soliton_sums_to_one(self):
        assert ideal_soliton(100).sum() == pytest.approx(1.0)

    def test_robust_soliton_sums_to_one(self):
        assert robust_soliton(100).sum() == pytest.approx(1.0)

    def test_soliton_shapes(self):
        p = ideal_soliton(50)
        assert p[1] == pytest.approx(0.5)  # P(d=2) = 1/2


class TestLTStream:
    def test_deterministic(self):
        a = LTStream(100, seed=3)
        b = LTStream(100, seed=3)
        for i in (0, 5, 17):
            assert np.array_equal(a.neighbours(i), b.neighbours(i))

    def test_neighbours_distinct_and_bounded(self):
        s = LTStream(50, seed=4)
        for i in range(200):
            nbrs = s.neighbours(i)
            assert np.unique(nbrs).size == nbrs.size
            assert nbrs.max() < 50

    def test_encode_is_xor(self):
        s = LTStream(20, seed=5)
        rng = np.random.default_rng(0)
        block = rng.integers(0, 2, size=20, dtype=np.uint8)
        out = s.encode_range(block, 0, 30)
        for i in range(30):
            assert out[i] == block[s.neighbours(i)].sum() % 2

    def test_range_consistency(self):
        s = LTStream(30, seed=6)
        block = np.ones(30, dtype=np.uint8)
        whole = s.encode_range(block, 0, 20)
        parts = np.concatenate([
            s.encode_range(block, 0, 7),
            s.encode_range(block, 7, 13),
        ])
        assert np.array_equal(whole, parts)

    def test_edges_match_neighbours(self):
        s = LTStream(40, seed=7)
        offsets, nbrs = s.edges(3, 25)
        assert offsets[0] == 0 and offsets.size == 26
        for j in range(25):
            assert np.array_equal(nbrs[offsets[j]:offsets[j + 1]],
                                  s.neighbours(3 + j))
        empty_offsets, empty = s.edges(10, 0)
        assert empty_offsets.tolist() == [0] and empty.size == 0

    def test_neighbour_views_are_read_only(self):
        s = LTStream(40, seed=8)
        nbrs = s.neighbours(2)
        s.neighbours(500)  # grows (and reallocates) the storage
        with pytest.raises(ValueError):
            nbrs[0] = 0
        with pytest.raises(ValueError):
            s.edges(0, 10)[1][0] = 0


class TestPrecode:
    def test_rate(self):
        p = LdpcPrecode(k=950, rate=0.95)
        assert p.n_intermediate == 1000
        assert p.n_parity == 50

    def test_systematic(self):
        p = LdpcPrecode(k=100, seed=1)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=100, dtype=np.uint8)
        inter = p.encode(msg)
        assert np.array_equal(inter[:100], msg)

    def test_satisfied(self):
        p = LdpcPrecode(k=100, seed=2)
        rng = np.random.default_rng(1)
        inter = p.encode(rng.integers(0, 2, size=100, dtype=np.uint8))
        assert p.satisfied(inter)
        inter[3] ^= 1
        assert not p.satisfied(inter)

    def test_check_edges_cover_left_degree(self):
        p = LdpcPrecode(k=200, left_degree=4, seed=3)
        checks, vars_ = p.check_edges()
        msg_edges = (vars_ < 200).sum()
        assert msg_edges == 200 * 4
        parity_edges = (vars_ >= 200).sum()
        assert parity_edges == p.n_parity

    def test_too_short_message(self):
        with pytest.raises(ValueError):
            LdpcPrecode(k=10, rate=0.95)


class TestRaptorCodec:
    def test_noiseless_roundtrip(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=1)
        rng = np.random.default_rng(0)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        n_sym = 120  # 480 bits for 270 intermediate: ample overhead
        y = codec.symbols(inter, 0, n_sym)
        llrs = soft_demap(codec.constellation, y, 1e-4)
        decoded, converged = codec.decode(llrs, iterations=30)
        assert converged
        assert np.array_equal(decoded, msg)

    def test_noisy_roundtrip(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=2)
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        ch = AWGNChannel(12, rng=3)
        y = ch.transmit(codec.symbols(inter, 0, 160)).values
        llrs = soft_demap(codec.constellation, y, ch.noise_power)
        decoded, _ = codec.decode(llrs, iterations=40)
        assert np.array_equal(decoded, msg)

    def test_insufficient_symbols_fail(self):
        codec = RaptorCodec(k=256, constellation="qam-16", lt_seed=4)
        rng = np.random.default_rng(2)
        msg = rng.integers(0, 2, size=256, dtype=np.uint8)
        inter = codec.encode_intermediate(msg)
        y = codec.symbols(inter, 0, 30)  # 120 bits << 256
        llrs = soft_demap(codec.constellation, y, 1e-4)
        decoded, _ = codec.decode(llrs, iterations=20)
        assert not np.array_equal(decoded, msg)


class TestRaptorScheme:
    def test_rate_reasonable_at_high_snr(self):
        scheme = RaptorScheme(k=512, constellation="qam-64")
        m = measure_scheme(
            scheme, lambda rng: AWGNChannel(20, rng=rng), 20,
            n_messages=2, seed=0,
        )
        assert m.n_success == 2
        assert 2.0 < m.rate <= 6.0

    def test_rate_increases_with_snr(self):
        lo = measure_scheme(
            RaptorScheme(k=512), lambda rng: AWGNChannel(6, rng=rng), 6,
            n_messages=2, seed=1,
        )
        hi = measure_scheme(
            RaptorScheme(k=512), lambda rng: AWGNChannel(22, rng=rng), 22,
            n_messages=2, seed=1,
        )
        assert hi.rate > lo.rate
