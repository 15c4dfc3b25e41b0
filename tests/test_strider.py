"""Tests for the Strider stack: RSC, BCJR, turbo, layered SIC."""

import numpy as np
import pytest

from repro.channels.awgn import AWGNChannel
from repro.modulation import QPSK, soft_demap
from repro.simulation import measure_scheme
from repro.strider import RscCode, StriderCodec, StriderScheme, TurboCodec
from repro.strider.bcjr import BcjrTrellis, max_log_bcjr
from repro.utils.bitops import random_message


class TestRsc:
    def test_trellis_dimensions(self):
        rsc = RscCode()
        assert rsc.memory == 3
        assert rsc.n_states == 8
        assert rsc.n_parity == 2

    def test_termination_reaches_zero(self):
        rsc = RscCode()
        rng = np.random.default_rng(0)
        for _ in range(5):
            bits = rng.integers(0, 2, size=40)
            sys, par, tail = rsc.encode(bits, terminate=True)
            assert sys.size == 43
            assert par.shape == (2, 43)
            assert tail.size == 3

    def test_systematic(self):
        rsc = RscCode()
        bits = np.array([1, 0, 1, 1, 0])
        sys, _, _ = rsc.encode(bits, terminate=False)
        assert np.array_equal(sys, bits)

    def test_recursive_state_evolution(self):
        """Feedback makes a single 1 produce an infinite parity response."""
        rsc = RscCode()
        impulse = np.zeros(30, dtype=np.int64)
        impulse[0] = 1
        _, par, _ = rsc.encode(impulse, terminate=False)
        # a non-recursive code would go quiet after the memory flushes
        assert par[0][10:].sum() > 0

    def test_next_state_is_permutation_per_input(self):
        rsc = RscCode()
        for u in (0, 1):
            assert sorted(rsc.next_state[:, u].tolist()) == list(range(8))


class TestBcjr:
    def test_clean_decode(self):
        rsc = RscCode()
        trellis = BcjrTrellis(rsc)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=60)
        sys, par, _ = rsc.encode(bits)
        scale = 8.0
        sys_llr = scale * (1.0 - 2.0 * sys)
        par_llr = scale * (1.0 - 2.0 * par)
        llr, _ = max_log_bcjr(trellis, sys_llr, par_llr)
        assert np.array_equal((llr[:60] < 0).astype(int), bits)

    def test_parity_only_decoding(self):
        """With systematic LLRs erased, parity + trellis still decode."""
        rsc = RscCode()
        trellis = BcjrTrellis(rsc)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=50)
        sys, par, _ = rsc.encode(bits)
        sys_llr = np.zeros(sys.size)
        par_llr = 8.0 * (1.0 - 2.0 * par)
        llr, _ = max_log_bcjr(trellis, sys_llr, par_llr)
        assert np.array_equal((llr[:50] < 0).astype(int), bits)

    def test_extrinsic_excludes_intrinsic(self):
        rsc = RscCode()
        trellis = BcjrTrellis(rsc)
        bits = np.zeros(20, dtype=np.int64)
        sys, par, _ = rsc.encode(bits)
        sys_llr = 4.0 * (1.0 - 2.0 * sys)
        par_llr = 4.0 * (1.0 - 2.0 * par)
        llr, ext = max_log_bcjr(trellis, sys_llr, par_llr)
        assert np.allclose(ext, llr - sys_llr)

    def test_rejects_state_with_three_incoming_branches(self):
        rsc = RscCode()
        rsc.next_state[2] = rsc.next_state[0]  # states 0 and 4 gain a third
        with pytest.raises(ValueError, match="incoming"):
            BcjrTrellis(rsc)

    def test_rejects_state_with_one_outgoing_branch(self):
        rsc = RscCode()
        rsc.next_state = rsc.next_state[:, :1]
        with pytest.raises(ValueError, match="outgoing"):
            BcjrTrellis(rsc)


class TestTurbo:
    def test_rate_one_fifth(self):
        t = TurboCodec(k=300)
        assert t.n_coded == 5 * 300 + 18
        assert 300 / t.n_coded == pytest.approx(0.2, abs=0.005)

    def test_clean_roundtrip(self):
        t = TurboCodec(k=100, interleaver_seed=1)
        msg = random_message(100, 0)
        coded = t.encode(msg)
        llrs = 8.0 * (1.0 - 2.0 * coded.astype(np.float64))
        assert np.array_equal(t.decode(llrs), msg)

    def test_decodes_below_zero_db(self):
        """Rate-1/5 QPSK should decode around -2 dB even at short length."""
        t = TurboCodec(k=200, interleaver_seed=2, iterations=8)
        qpsk = QPSK()
        msg = random_message(200, 1)
        coded = t.encode(msg)
        ch = AWGNChannel(-1, rng=2)
        y = ch.transmit(qpsk.modulate(coded)).values
        llrs = soft_demap(qpsk, y, ch.noise_power)[: t.n_coded]
        assert np.array_equal(t.decode(llrs), msg)

    def test_fails_far_below_threshold(self):
        t = TurboCodec(k=200, interleaver_seed=3, iterations=6)
        qpsk = QPSK()
        msg = random_message(200, 2)
        coded = t.encode(msg)
        ch = AWGNChannel(-9, rng=3)
        y = ch.transmit(qpsk.modulate(coded)).values
        llrs = soft_demap(qpsk, y, ch.noise_power)[: t.n_coded]
        assert not np.array_equal(t.decode(llrs), msg)

    def test_interleaver_shared(self):
        a = TurboCodec(k=50, interleaver_seed=9)
        b = TurboCodec(k=50, interleaver_seed=9)
        assert np.array_equal(a.interleaver, b.interleaver)


class TestStriderCodec:
    def test_power_ladder_normalised(self):
        p = StriderCodec._layer_powers(12, 0.45, 2)
        assert p.sum() == pytest.approx(1.0)
        assert (np.diff(p) < 0).all()  # strongest layer first
        assert p[0] / p[1] == pytest.approx(1.225)

    def test_unit_transmit_power(self):
        codec = StriderCodec(n_bits=480, n_layers=4, max_passes=8)
        layers = codec.encode_layers(random_message(480, 1))
        x = codec.pass_symbols(layers, 0)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_noiseless_sic_roundtrip(self):
        codec = StriderCodec(n_bits=480, n_layers=4, max_passes=8)
        msg = random_message(480, 2)
        layers = codec.encode_layers(msg)
        passes = [codec.pass_symbols(layers, p) for p in range(4)]
        decoded = codec.decode(passes, noise_power=1e-6)
        assert np.array_equal(decoded, msg)

    def test_partial_pass_decoding(self):
        """A truncated final pass must still be usable (Strider+)."""
        codec = StriderCodec(n_bits=480, n_layers=4, max_passes=8)
        msg = random_message(480, 3)
        layers = codec.encode_layers(msg)
        t = codec.symbols_per_layer
        passes = [codec.pass_symbols(layers, p) for p in range(4)]
        passes.append(codec.pass_symbols(layers, 4, 0, t // 2))
        decoded = codec.decode(passes, noise_power=1e-6)
        assert np.array_equal(decoded, msg)

    def test_zero_dim_array_noise_power(self):
        """A 0-d ndarray noise power is a scalar, not a per-pass list."""
        codec = StriderCodec(n_bits=480, n_layers=4, max_passes=8)
        msg = random_message(480, 4)
        layers = codec.encode_layers(msg)
        passes = [codec.pass_symbols(layers, p) for p in range(4)]
        decoded = codec.decode(passes, noise_power=np.array(1e-6))
        assert np.array_equal(decoded, msg)
        assert np.array_equal(
            decoded, codec.decode(passes, noise_power=1e-6))

    def test_layer_count_must_divide(self):
        with pytest.raises(ValueError):
            StriderCodec(n_bits=100, n_layers=3)


class TestStriderScheme:
    def test_high_snr_hits_two_pass_ceiling(self):
        scheme = StriderScheme(n_bits=960, n_layers=6, max_passes=16)
        m = measure_scheme(
            scheme, lambda rng: AWGNChannel(18, rng=rng), 18,
            n_messages=2, seed=0,
        )
        ceiling = 0.4 * 6 / 2
        assert m.rate == pytest.approx(ceiling, rel=0.1)

    def test_plus_beats_plain_between_steps(self):
        """Puncturing should never do worse than whole-pass granularity."""
        plain = measure_scheme(
            StriderScheme(n_bits=960, n_layers=6, max_passes=16),
            lambda rng: AWGNChannel(9, rng=rng), 9, n_messages=2, seed=1,
        )
        plus = measure_scheme(
            StriderScheme(n_bits=960, n_layers=6, subpasses_per_pass=4,
                          max_passes=16),
            lambda rng: AWGNChannel(9, rng=rng), 9, n_messages=2, seed=1,
        )
        assert plus.rate >= plain.rate * 0.95

    def test_rate_tracks_snr(self):
        lo = measure_scheme(
            StriderScheme(n_bits=960, n_layers=6, max_passes=24),
            lambda rng: AWGNChannel(2, rng=rng), 2, n_messages=2, seed=2,
        )
        hi = measure_scheme(
            StriderScheme(n_bits=960, n_layers=6, max_passes=24),
            lambda rng: AWGNChannel(16, rng=rng), 16, n_messages=2, seed=2,
        )
        assert hi.rate > lo.rate
