"""Tests for the rateless execution engine (§8.1)."""

import numpy as np
import pytest

from repro.channels import AWGNChannel, BSCChannel, RayleighBlockFadingChannel
from repro.core.params import DecoderParams, SpinalParams
from repro.simulation import (
    BatchSession,
    SpinalScheme,
    SpinalSession,
    measure_spinal_rate,
    snr_sweep,
)
from repro.utils.bitops import random_message


@pytest.fixture
def params():
    return SpinalParams()


@pytest.fixture
def dec():
    return DecoderParams(B=64, max_passes=24)


class TestSpinalSession:
    def test_high_snr_decodes_fast(self, params, dec):
        msg = random_message(128, 0)
        session = SpinalSession(params, dec, msg, AWGNChannel(25, rng=1))
        result = session.run()
        assert result.success
        assert result.rate > 3.0

    def test_rate_definition(self, params, dec):
        msg = random_message(128, 1)
        session = SpinalSession(params, dec, msg, AWGNChannel(15, rng=2))
        result = session.run()
        assert result.rate == pytest.approx(128 / result.n_symbols)

    def test_probe_one_matches_exhaustive_scan(self, params):
        """probe_growth=1 is the paper's per-subpass scan; the bisection
        default must land on the same minimal prefix."""
        dec = DecoderParams(B=32, max_passes=16)
        for seed in range(4):
            msg = random_message(96, seed)
            a = SpinalSession(params, dec, msg, AWGNChannel(12, rng=seed),
                              probe_growth=1.0).run()
            b = SpinalSession(params, dec, msg, AWGNChannel(12, rng=seed),
                              probe_growth=1.5).run()
            assert a.success and b.success
            assert a.n_subpasses == b.n_subpasses
            assert b.n_attempts <= a.n_attempts

    def test_give_up_counts_all_symbols(self, params):
        dec = DecoderParams(B=4, max_passes=2)
        msg = random_message(256, 3)
        session = SpinalSession(params, dec, msg, AWGNChannel(-15, rng=4))
        result = session.run()
        assert not result.success
        assert result.rate == 0.0
        assert result.n_subpasses == 2 * 8

    def test_fixed_rate_mode(self, params, dec):
        msg = random_message(128, 5)
        session = SpinalSession(params, dec, msg, AWGNChannel(20, rng=6))
        result = session.run_fixed_rate(n_passes=2)
        assert result.success
        assert result.n_attempts == 1

    def test_fixed_rate_symbol_accounting(self, params, dec):
        """Fixed-rate mode consumes exactly L passes' worth of symbols."""
        msg = random_message(128, 8)
        session = SpinalSession(params, dec, msg, AWGNChannel(20, rng=9))
        result = session.run_fixed_rate(n_passes=3)
        per_pass = session.encoder.symbols_per_pass()
        assert result.n_symbols == 3 * per_pass
        assert result.n_subpasses == 3 * session.encoder.subpasses_per_pass
        assert result.rate == pytest.approx(128 / (3 * per_pass))

    def test_fixed_rate_failure_keeps_symbols(self, params, dec):
        """An undecodable fixed-rate shot still charges its symbols."""
        msg = random_message(256, 12)
        session = SpinalSession(params, dec, msg, AWGNChannel(-10, rng=13))
        result = session.run_fixed_rate(n_passes=1)
        assert not result.success
        assert result.n_attempts == 1
        assert result.rate == 0.0
        assert result.n_symbols == session.encoder.symbols_per_pass()

    def test_bsc_session(self):
        params = SpinalParams.bsc()
        dec = DecoderParams(B=64, max_passes=24)
        msg = random_message(64, 7)
        session = SpinalSession(params, dec, msg, BSCChannel(0.05, rng=8))
        result = session.run()
        assert result.success
        # rate below BSC capacity (0.71 bits/use)
        assert 0.0 < result.rate <= 1.0

    def test_fading_with_and_without_csi(self, params):
        """CSI-aware decoding should not lose to blind decoding."""
        dec = DecoderParams(B=64, max_passes=30)
        n_with = n_without = 0
        for seed in range(3):
            msg = random_message(128, seed + 10)
            ch = RayleighBlockFadingChannel(15, coherence_time=10, rng=seed)
            r1 = SpinalSession(params, dec, msg, ch, give_csi=True).run()
            ch2 = RayleighBlockFadingChannel(15, coherence_time=10, rng=seed)
            r2 = SpinalSession(params, dec, msg, ch2, give_csi=False).run()
            n_with += r1.n_symbols if r1.success else 10**6
            n_without += r2.n_symbols if r2.success else 10**6
        assert n_with <= n_without

    def test_invalid_probe_growth(self, params, dec):
        with pytest.raises(ValueError):
            SpinalSession(params, dec, random_message(64, 0),
                          AWGNChannel(10, rng=0), probe_growth=0.5)

    @pytest.mark.parametrize("n_passes", [0, -1])
    def test_fixed_rate_rejects_fewer_than_one_pass(self, params, dec,
                                                    n_passes):
        """Zero passes used to 'decode' an all-zero message from nothing
        (success with 0 symbols); negative ones crashed or reported a
        negative subpass count."""
        zeros = np.zeros(64, dtype=np.uint8)
        session = SpinalSession(params, dec, zeros, AWGNChannel(10, rng=0))
        with pytest.raises(ValueError, match="n_passes"):
            session.run_fixed_rate(n_passes)
        cohort = BatchSession(params, dec, np.zeros((2, 64), np.uint8),
                              [AWGNChannel(10, rng=m) for m in range(2)])
        with pytest.raises(ValueError, match="n_passes"):
            cohort.run_fixed_rate(n_passes)

    @pytest.mark.parametrize("fixed_passes", [0, -2])
    def test_scheme_rejects_fewer_than_one_fixed_pass(self, params, dec,
                                                      fixed_passes):
        with pytest.raises(ValueError, match="fixed_passes"):
            SpinalScheme(params, dec, 64, fixed_passes=fixed_passes)


class TestMeasurement:
    def test_measure_aggregates(self, params):
        dec = DecoderParams(B=32, max_passes=16)
        m = measure_spinal_rate(
            params, dec, 128,
            channel_factory=lambda rng: AWGNChannel(20, rng=rng),
            snr_db=20, n_messages=4, seed=0,
        )
        assert m.n_messages == 4
        assert m.n_success == 4
        assert 2.0 < m.rate < 9.0
        assert m.gap_db < 0

    def test_measure_deterministic(self, params):
        dec = DecoderParams(B=16, max_passes=12)
        kw = dict(
            channel_factory=lambda rng: AWGNChannel(15, rng=rng),
            snr_db=15, n_messages=3, seed=11,
        )
        a = measure_spinal_rate(params, dec, 64, **kw)
        b = measure_spinal_rate(params, dec, 64, **kw)
        assert a.rate == b.rate

    def test_snr_sweep_monotone_tendency(self, params):
        """Rate at 25 dB must exceed rate at 5 dB."""
        dec = DecoderParams(B=32, max_passes=16)
        scheme = SpinalScheme(params, dec, 128)
        points = snr_sweep(
            scheme, lambda snr, rng: AWGNChannel(snr, rng=rng),
            snrs_db=[5, 25], n_messages=3, seed=1,
        )
        assert points[1].rate > points[0].rate

    def test_success_fraction(self, params):
        dec = DecoderParams(B=4, max_passes=1)
        m = measure_spinal_rate(
            params, dec, 256,
            channel_factory=lambda rng: AWGNChannel(-10, rng=rng),
            snr_db=-10, n_messages=3, seed=2,
        )
        assert m.success_fraction == 0.0
        assert m.rate == 0.0
        assert m.gap_db == float("-inf")
