"""Tests for the bubble decoder (§4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.core.decoder import BatchBubbleDecoder, BubbleDecoder
from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedSymbols, ReceivedSymbols
from repro.obs import OBS
from repro.utils.bitops import random_message


def _roundtrip(params, dec, n_bits, snr_db, n_passes, seed, channel_cls=AWGNChannel):
    """Encode, add noise, decode; return (decoded == message)."""
    msg = random_message(n_bits, seed)
    enc = SpinalEncoder(params, msg)
    block = enc.generate_passes(n_passes)
    channel = channel_cls(snr_db, rng=seed + 1)
    out = channel.transmit(block.values)
    store = ReceivedSymbols(enc.n_spine, complex_valued=not params.is_bsc)
    store.add_block(block.spine_indices, block.slots, out.values)
    decoder = BubbleDecoder(params, dec, n_bits)
    return decoder.decode(store).matches(msg)


class TestNoiselessDecoding:
    """With no noise, even B=1 greedy decoding must recover the message."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_noiseless_any_k(self, k):
        params = SpinalParams(k=k, puncturing="none", tail_symbols=1)
        msg = random_message(8 * k, 42 + k)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(1)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=1, d=1), 8 * k).decode(store)
        assert result.matches(msg)

    def test_noiseless_cost_zero(self):
        params = SpinalParams(puncturing="none", tail_symbols=1)
        msg = random_message(32, 0)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(1)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=4, d=1), 32).decode(store)
        assert result.path_cost == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_noiseless_any_depth(self, d):
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(24, 7)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(1)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=2, d=d), 24).decode(store)
        assert result.matches(msg)

    def test_depth_exceeding_tree_is_full_ml(self):
        """d >= n/k collapses to exact ML over the whole tree."""
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(8, 3)  # n_spine = 4
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(1)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=1, d=10), 8).decode(store)
        assert result.matches(msg)


class TestNoisyAWGN:
    def test_high_snr_one_pass(self):
        params = SpinalParams(puncturing="none")
        assert _roundtrip(params, DecoderParams(B=64), 64, snr_db=25,
                          n_passes=1, seed=0)

    def test_medium_snr_more_passes(self):
        params = SpinalParams(puncturing="none")
        assert _roundtrip(params, DecoderParams(B=64), 96, snr_db=8,
                          n_passes=4, seed=1)

    def test_low_snr_many_passes(self):
        params = SpinalParams(puncturing="none")
        assert _roundtrip(params, DecoderParams(B=128), 64, snr_db=0,
                          n_passes=10, seed=2)

    def test_insufficient_symbols_fails(self):
        """Below capacity symbols, decoding must (almost surely) fail."""
        params = SpinalParams(puncturing="none")
        # 1 pass at -5 dB: rate 4 >> C = 0.4 -- undecodable
        assert not _roundtrip(params, DecoderParams(B=64), 128, snr_db=-5,
                              n_passes=1, seed=3)

    def test_wider_beam_not_worse(self):
        """B=256 succeeds in a regime where B=2 fails (beam matters)."""
        params = SpinalParams(puncturing="none")
        ok_wide = sum(
            _roundtrip(params, DecoderParams(B=256), 96, 6, 3, seed=s)
            for s in range(6)
        )
        ok_narrow = sum(
            _roundtrip(params, DecoderParams(B=2), 96, 6, 3, seed=s)
            for s in range(6)
        )
        assert ok_wide > ok_narrow

    def test_gaussian_constellation(self):
        params = SpinalParams(mapping_name="gaussian", puncturing="none")
        assert _roundtrip(params, DecoderParams(B=64), 64, snr_db=15,
                          n_passes=2, seed=4)

    def test_fading_with_csi(self):
        from repro.channels.fading import RayleighBlockFadingChannel

        params = SpinalParams(puncturing="none")
        msg = random_message(64, 5)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(6)
        channel = RayleighBlockFadingChannel(20, coherence_time=10, rng=6)
        out = channel.transmit(block.values)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, out.values, csi=out.csi)
        result = BubbleDecoder(params, DecoderParams(B=128), 64).decode(store)
        assert result.matches(msg)


class TestNoisyBSC:
    def test_clean_bsc(self):
        params = SpinalParams.bsc()
        assert _roundtrip(params, DecoderParams(B=16), 64, 0.0, 6, seed=0,
                          channel_cls=BSCChannel)

    def test_noisy_bsc(self):
        """p = 0.05: C = 0.71 bits/use; 10 passes -> rate 0.4 < C."""
        params = SpinalParams.bsc()
        assert _roundtrip(params, DecoderParams(B=128), 64, 0.05, 10, seed=1,
                          channel_cls=BSCChannel)

    def test_very_noisy_bsc_fails_with_few_passes(self):
        params = SpinalParams.bsc()
        assert not _roundtrip(params, DecoderParams(B=32), 64, 0.4, 2, seed=2,
                              channel_cls=BSCChannel)


class TestPuncturedDecoding:
    def test_partial_pass_decodes_at_high_snr(self):
        """After the fix anchoring subpass 0 on the final spine value, a
        fraction of a pass suffices at high SNR (the point of §5)."""
        params = SpinalParams(puncturing="8-way", tail_symbols=2)
        msg = random_message(256, 8)
        enc = SpinalEncoder(params, msg)
        block = enc.generate(0, 4)  # half a pass
        channel = AWGNChannel(30, rng=9)
        out = channel.transmit(block.values)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, out.values)
        result = BubbleDecoder(params, DecoderParams(B=256), 256).decode(store)
        assert result.matches(msg)

    def test_missing_positions_zero_cost(self):
        """Decoding with an empty store returns *some* message with zero
        cost (all branch costs are zero)."""
        params = SpinalParams(puncturing="8-way")
        store = ReceivedSymbols(16)
        result = BubbleDecoder(params, DecoderParams(B=8), 64).decode(store)
        assert result.path_cost == 0.0
        assert result.message_bits.size == 64


class TestDepthEquivalence:
    """Fig 8-7: same node count, different (B, d) splits."""

    @pytest.mark.parametrize("B,d", [(64, 1), (8, 2), (1, 3)])
    def test_constant_work_configs_decode_high_snr(self, B, d):
        params = SpinalParams(k=3, puncturing="none")
        ok = sum(
            _roundtrip(params, DecoderParams(B=B, d=d), 96, 20, 1, seed=s)
            for s in range(4)
        )
        assert ok >= 3

    def test_d1_equals_m_algorithm_reference(self):
        """d=1 must match a straightforward M-algorithm implementation."""
        params = SpinalParams(k=2, puncturing="none", tail_symbols=1)
        msg = random_message(24, 11)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(3)
        channel = AWGNChannel(5, rng=12)
        out = channel.transmit(block.values)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, out.values)

        result = BubbleDecoder(params, DecoderParams(B=4, d=1), 24).decode(store)
        reference = _m_algorithm_reference(params, store, n_bits=24, B=4)
        assert np.array_equal(result.message_bits, reference)


def _m_algorithm_reference(params, store, n_bits, B):
    """Deliberately naive beam search used as an oracle for d=1."""
    from repro.core.rng import SpinalRNG

    k = params.k
    rng = SpinalRNG(params.hash_fn, params.c)
    mapping = params.make_mapping()
    beam = [(0.0, params.s0, [])]  # (cost, state, chunks)
    for i in range(n_bits // k):
        slots, values, _ = store.for_spine(i)
        cands = []
        for cost, state, chunks in beam:
            for e in range(1 << k):
                child = int(params.hash_fn(
                    np.array([state], np.uint32), np.array([e], np.uint32))[0])
                bc = 0.0
                for t, y in zip(slots, values):
                    w = int(rng.words(np.array([child], np.uint32), int(t))[0])
                    xi = mapping.levels[w & ((1 << params.c) - 1)]
                    xq = mapping.levels[(w >> params.c) & ((1 << params.c) - 1)]
                    bc += abs(y - (xi + 1j * xq)) ** 2
                cands.append((cost + bc, child, chunks + [e]))
        cands.sort(key=lambda t: t[0])
        beam = cands[:B]
    best = beam[0]
    from repro.utils.bitops import pack_chunks

    return pack_chunks(np.array(best[2], dtype=np.uint32), k)


class TestDecodeResult:
    def test_symbol_count_recorded(self):
        params = SpinalParams(puncturing="none", tail_symbols=1)
        msg = random_message(32, 13)
        enc = SpinalEncoder(params, msg)
        block = enc.generate_passes(2)
        store = ReceivedSymbols(enc.n_spine)
        store.add_block(block.spine_indices, block.slots, block.values)
        result = BubbleDecoder(params, DecoderParams(B=4), 32).decode(store)
        assert result.n_symbols_used == len(block)

    def test_mismatched_store_raises(self):
        params = SpinalParams()
        store = ReceivedSymbols(10)
        with pytest.raises(ValueError):
            BubbleDecoder(params, DecoderParams(), 64).decode(store)


@given(st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_roundtrip_property_high_snr(seed):
    """Any random message decodes under ample SNR and symbols."""
    params = SpinalParams(puncturing="none")
    assert _roundtrip(params, DecoderParams(B=32), 64, snr_db=20,
                      n_passes=2, seed=seed)


def _cohort_view(params, messages, make_channel, n_subpasses, seed):
    """(encoder, view) of a cohort after ``n_subpasses`` noisy subpasses,
    one channel (own noise stream) per message."""
    enc = BatchSpinalEncoder(params, messages)
    block = enc.generate_batch(0, n_subpasses)
    values = np.stack([
        make_channel(seed * 1000 + m).transmit(row).values
        for m, row in enumerate(block.values)])
    store = BatchReceivedSymbols(enc.n_spine, len(messages),
                                 complex_valued=not params.is_bsc)
    store.add_block(block.spine_indices, block.slots, values)
    return enc, store.prefix(np.arange(len(messages)), store.checkpoint())


def _awgn(snr_db):
    return lambda seed: AWGNChannel(snr_db, rng=seed)


def _bsc(p):
    return lambda seed: BSCChannel(p, rng=seed)


ABORT_CONFIGS = [
    # (params, decoder params, n_bits, channel factory, subpasses)
    pytest.param(SpinalParams(), DecoderParams(B=8), 64, _awgn(6), 12,
                 id="awgn-8way-d1"),
    pytest.param(SpinalParams(puncturing="none"), DecoderParams(B=4, d=2), 48,
                 _awgn(4), 2, id="awgn-nopunct-d2"),
    pytest.param(SpinalParams(k=2, puncturing="4-way"),
                 DecoderParams(B=4, d=3), 24, _awgn(2), 4, id="awgn-4way-d3"),
    # d=3 clamps to the tree height (2) with k=8.
    pytest.param(SpinalParams(k=8, puncturing="none"), DecoderParams(B=2, d=3),
                 16, _awgn(6), 2, id="awgn-k8-d3-clamped"),
    pytest.param(SpinalParams.bsc(), DecoderParams(B=8), 48, _bsc(0.05), 40,
                 id="bsc-8way-d1"),
    pytest.param(SpinalParams.bsc(puncturing="none"), DecoderParams(B=8, d=2),
                 32, _bsc(0.05), 4, id="bsc-nopunct-d2"),
]


class TestOracleAbort:
    """Given the true spine states, the search drops a row at the first
    selection that keeps no leaf holding its true state.  The abort must be
    sound (a dropped row fails under the full search) and invisible to the
    rows it keeps (bit-identical message and path cost)."""

    @pytest.mark.parametrize("params,dec,n_bits,make_channel,n_subpasses",
                             ABORT_CONFIGS)
    def test_dropped_rows_fail_and_kept_rows_are_identical(
            self, params, dec, n_bits, make_channel, n_subpasses):
        decoder = BatchBubbleDecoder(params, dec, n_bits)
        dropped = kept = 0
        for n_rows in (1, 8):
            for seed in range(4):
                rng = np.random.default_rng([n_rows, seed])
                messages = rng.integers(0, 2, (n_rows, n_bits), dtype=np.uint8)
                enc, view = _cohort_view(params, messages, make_channel,
                                         n_subpasses, seed)
                full = decoder.decode_batch(view)
                oracle = decoder.decode_batch(view, enc.spines)
                assert len(oracle) == n_rows
                for m in range(n_rows):
                    if oracle[m] is None:
                        dropped += 1
                        assert not full[m].matches(messages[m])
                        continue
                    kept += 1
                    assert np.array_equal(oracle[m].message_bits,
                                          full[m].message_bits)
                    assert (oracle[m].path_cost.hex()
                            == full[m].path_cost.hex())
                    assert oracle[m].n_symbols_used == full[m].n_symbols_used
        # The grid must exercise both sides of the abort.
        assert dropped and kept

    def test_every_row_aborts(self):
        params = SpinalParams()
        dec = DecoderParams(B=2)
        messages = np.random.default_rng(5).integers(
            0, 2, (8, 64), dtype=np.uint8)
        enc, view = _cohort_view(params, messages, _awgn(-10), 1, seed=5)
        decoder = BatchBubbleDecoder(params, dec, 64)
        full = decoder.decode_batch(view)
        OBS.enable()
        try:
            oracle = decoder.decode_batch(view, enc.spines)
            counters = OBS.snapshot()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
        assert oracle == [None] * 8
        assert not any(r.matches(m) for r, m in zip(full, messages))
        assert counters["decode.rows_aborted"] == 8
        assert 0 < counters["decode.row_steps_skipped"] < 8 * enc.n_spine

    def test_true_state_lost_at_step_zero(self):
        """Row 0 receives a decoy whose first chunk differs, noiselessly:
        with B=1 the first selection keeps only the decoy's state."""
        params = SpinalParams(puncturing="none")
        decoder = BatchBubbleDecoder(params, DecoderParams(B=1), 32)
        messages = random_message(64, 3).reshape(2, 32)
        decoy = messages.copy()
        decoy[0, :4] ^= 1
        sent = BatchSpinalEncoder(params, decoy)
        block = sent.generate_batch(0, 1)
        store = BatchReceivedSymbols(sent.n_spine, 2)
        store.add_block(block.spine_indices, block.slots, block.values)
        view = store.prefix(np.arange(2), store.checkpoint())
        true_spines = BatchSpinalEncoder(params, messages).spines
        OBS.enable()
        try:
            oracle = decoder.decode_batch(view, true_spines)
            counters = OBS.snapshot()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
        assert oracle[0] is None
        assert oracle[1].matches(messages[1])
        assert decoder.decode_batch(view)[0].matches(decoy[0])
        assert counters["decode.rows_aborted"] == 1
        assert counters["decode.row_steps_skipped"] == sent.n_spine - 1

    def test_true_spines_shape_checked(self):
        params = SpinalParams()
        messages = np.zeros((2, 32), dtype=np.uint8)
        enc, view = _cohort_view(params, messages, _awgn(10), 1, seed=0)
        with pytest.raises(ValueError):
            BatchBubbleDecoder(params, DecoderParams(B=4), 32).decode_batch(
                view, enc.spines[:1])
