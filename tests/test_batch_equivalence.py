"""A cohort of M messages == M one-message runs, bit for bit.

The batch engine's contract is strict: running M messages as one
:class:`BatchSession` cohort must reproduce M independent one-message
:class:`SpinalSession` runs *exactly* — same success flags, symbol counts,
subpass counts, attempt counts, and (floating-point identical) path costs —
because each message keeps its own channel/RNG and the vectorised kernels
keep every message's arithmetic on its own row.  These tests pin that
contract on AWGN, BSC and Rayleigh block fading (under every CSI policy the
receiver supports), across puncturing schedules and pruning depths,
including failing messages, and at the measurement layer
(`measure_scheme` with and without ``batch_size``).

One-message sessions, encoders, stores and decodes are the M=1 case of the
same pipeline, so the one-message side of every comparison is also pinned
to golden digests (``ONE_MESSAGE_GOLDEN``).  Those were captured from the
separate single-message implementation that earlier versions carried at
every layer (its own encoder, store, bubble search and probe/bisect
session); see also ``tests/test_spinal_golden.py``.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.channels import AWGNChannel, BSCChannel, RayleighBlockFadingChannel
from repro.core.decoder import BatchBubbleDecoder, BubbleDecoder
from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedSymbols, ReceivedSymbols
from repro.simulation import (
    BatchSession,
    SpinalScheme,
    SpinalSession,
    measure_scheme,
)
from repro.utils.bitops import random_message


def _cohort(make_channel, n_bits, n_messages, seed):
    """(messages, channels, fresh-channel factory) with per-message seeds.

    Mirrors measure_scheme's seeding: one child seed per message drives the
    channel noise and the message draw, so scalar and batch runs can be
    handed identical inputs.
    """
    master = np.random.default_rng(seed)
    seeds = [int(master.integers(0, 2**63)) for _ in range(n_messages)]

    def build(child_seed):
        rng = np.random.default_rng(child_seed)
        channel = make_channel(rng)
        message = random_message(n_bits, rng)
        return message, channel

    pairs = [build(s) for s in seeds]
    messages = np.stack([m for m, _ in pairs])
    channels = [c for _, c in pairs]
    rebuild = lambda: _cohort(make_channel, n_bits, n_messages, seed)  # noqa: E731
    return messages, channels, rebuild


def _canon(obj):
    """A hashable, exact rendering: floats via ``float.hex``, arrays as bytes."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes().hex())
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return tuple(_canon(getattr(obj, f.name))
                     for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(x) for x in obj)
    return obj


def _anchor(request, *one_message_outputs):
    """Pin a test's one-message outputs to their golden digest."""
    digest = hashlib.sha256(
        repr(_canon(one_message_outputs)).encode()).hexdigest()[:16]
    assert digest == ONE_MESSAGE_GOLDEN[request.node.name]


def _assert_results_identical(scalar_results, batch_results):
    assert len(scalar_results) == len(batch_results)
    for i, (a, b) in enumerate(zip(scalar_results, batch_results)):
        assert a.success == b.success, f"message {i}: success differs"
        assert a.n_symbols == b.n_symbols, f"message {i}: n_symbols differs"
        assert a.n_subpasses == b.n_subpasses, f"message {i}: n_subpasses differs"
        assert a.n_attempts == b.n_attempts, f"message {i}: n_attempts differs"
        assert a.n_bits == b.n_bits
        if np.isnan(a.path_cost):
            assert np.isnan(b.path_cost), f"message {i}: path_cost differs"
        else:
            # Bitwise equality, not approx: the batch kernels must preserve
            # the scalar arithmetic exactly.
            assert a.path_cost == b.path_cost, f"message {i}: path_cost differs"


CONFIGS = [
    # (params, decoder_params, n_bits, channel factory, label)
    pytest.param(
        SpinalParams(), DecoderParams(B=32, max_passes=12), 96,
        lambda rng: AWGNChannel(12, rng=rng), id="awgn-8way"),
    pytest.param(
        SpinalParams(puncturing="none"), DecoderParams(B=16, max_passes=10), 64,
        lambda rng: AWGNChannel(8, rng=rng), id="awgn-nopunct"),
    pytest.param(
        SpinalParams(k=2, puncturing="4-way"),
        DecoderParams(B=8, d=2, max_passes=12), 48,
        lambda rng: AWGNChannel(10, rng=rng), id="awgn-4way-d2"),
    pytest.param(
        SpinalParams(k=3, puncturing="2-way", tail_symbols=3),
        DecoderParams(B=16, d=3, max_passes=10), 48,
        lambda rng: AWGNChannel(14, rng=rng), id="awgn-2way-d3-tail3"),
    pytest.param(
        SpinalParams.bsc(), DecoderParams(B=32, max_passes=24), 64,
        lambda rng: BSCChannel(0.05, rng=rng), id="bsc-8way"),
    pytest.param(
        SpinalParams.bsc(puncturing="none"),
        DecoderParams(B=16, d=2, max_passes=16), 32,
        lambda rng: BSCChannel(0.1, rng=rng), id="bsc-nopunct-d2"),
    pytest.param(
        # Heavy noise + tiny budget: most messages fail (give-up path).
        SpinalParams(), DecoderParams(B=8, max_passes=3), 128,
        lambda rng: AWGNChannel(-10, rng=rng), id="awgn-failures"),
]


class TestBatchSessionEquivalence:
    @pytest.mark.parametrize("params,dec,n_bits,make_channel", CONFIGS)
    @pytest.mark.parametrize("probe_growth", [1.5, 1.0])
    def test_batch_reproduces_scalar(self, params, dec, n_bits, make_channel,
                                     probe_growth, request):
        messages, channels, rebuild = _cohort(make_channel, n_bits, 6, seed=7)
        scalar_msgs, scalar_chans, _ = rebuild()
        assert np.array_equal(messages, scalar_msgs)
        scalar = [
            SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                          probe_growth=probe_growth).run()
            for m in range(len(scalar_chans))
        ]
        _anchor(request, scalar)
        batch = BatchSession(params, dec, messages, channels,
                             probe_growth=probe_growth).run()
        _assert_results_identical(scalar, batch)

    def test_many_seeds_property(self, request):
        """Same contract over a spread of seeds (mixed success/failure)."""
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=8)
        scalars = []
        for seed in range(5):
            messages, channels, rebuild = _cohort(
                lambda rng: AWGNChannel(6, rng=rng), 64, 4, seed=100 + seed)
            scalar_msgs, scalar_chans, _ = rebuild()
            scalar = [
                SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m]).run()
                for m in range(4)
            ]
            batch = BatchSession(params, dec, messages, channels).run()
            _assert_results_identical(scalar, batch)
            scalars.append(scalar)
        _anchor(request, scalars)

    @pytest.mark.parametrize("give_csi", ["none", "phase", "full"])
    @pytest.mark.parametrize("tau", [1, 10, 100])
    def test_fading_batches_identically(self, give_csi, tau, request):
        """Rayleigh cohorts batch under every CSI policy, bit for bit.

        Block fading is stateful (the coherence block spans transmit
        calls), but its state is private to each message's channel — the
        cohort preserves per-channel call sequences exactly, so the batch
        path must reproduce scalar sessions including the per-symbol
        coefficients the "full" decoder consumes and the derotation the
        "phase" receiver applies.
        """
        params = SpinalParams()
        dec = DecoderParams(B=32, max_passes=16)
        make = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
            18, coherence_time=tau, rng=rng)
        messages, channels, rebuild = _cohort(make, 64, 4, seed=3)
        assert not all(c.memoryless for c in channels)
        session = BatchSession(params, dec, messages, channels,
                               give_csi=give_csi)
        assert session._can_batch()
        scalar_msgs, scalar_chans, _ = rebuild()
        scalar = [
            SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                          give_csi=give_csi).run()
            for m in range(4)
        ]
        _anchor(request, scalar)
        _assert_results_identical(scalar, session.run())

    @pytest.mark.parametrize("give_csi", ["none", "phase", "full"])
    def test_fading_punctured_and_failure_cohorts(self, give_csi, request):
        """Fading batch equivalence holds off the happy path too: sparse
        puncturing with pruning depth d=2, and a low-SNR/tiny-budget cohort
        where most messages give up (the failure bookkeeping path)."""
        make = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
            16, coherence_time=10, rng=rng)
        punct = (SpinalParams(k=2, puncturing="4-way"),
                 DecoderParams(B=8, d=2, max_passes=12))
        make_fail = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
            -5, coherence_time=10, rng=rng)
        fail = (SpinalParams(), DecoderParams(B=8, max_passes=3))
        scalars = []
        for (params, dec), factory in ((punct, make), (fail, make_fail)):
            messages, channels, rebuild = _cohort(factory, 48, 5, seed=11)
            scalar_msgs, scalar_chans, _ = rebuild()
            scalar = [
                SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                              give_csi=give_csi).run()
                for m in range(5)
            ]
            batch = BatchSession(params, dec, messages, channels,
                                 give_csi=give_csi).run()
            _assert_results_identical(scalar, batch)
            scalars.append(scalar)
        _anchor(request, scalars)

    @pytest.mark.parametrize("n_passes", [1, 3])
    def test_fixed_rate_batch_reproduces_scalar(self, n_passes, request):
        """The rated (Figure 8-2) cohort path: L passes, one batched decode."""
        params = SpinalParams(puncturing="none", tail_symbols=2)
        dec = DecoderParams(B=16, max_passes=12)
        scalars = []
        for make, give_csi in (
            (lambda rng: AWGNChannel(8, rng=rng), False),
            (lambda rng: RayleighBlockFadingChannel(
                15, coherence_time=10, rng=rng), "full"),
        ):
            messages, channels, rebuild = _cohort(make, 48, 4, seed=13)
            scalar_msgs, scalar_chans, _ = rebuild()
            scalar = [
                SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                              give_csi=give_csi).run_fixed_rate(n_passes)
                for m in range(4)
            ]
            batch = BatchSession(params, dec, messages, channels,
                                 give_csi=give_csi).run_fixed_rate(n_passes)
            _assert_results_identical(scalar, batch)
            scalars.append(scalar)
        _anchor(request, scalars)

    def test_csi_mode_batches_over_memoryless_channels(self, request):
        """A decoder that wants to *see* CSI batches fine — over AWGN the
        channel reports no coefficients and the store stays CSI-less."""
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=8)
        make = lambda rng: AWGNChannel(12, rng=rng)  # noqa: E731
        messages, channels, rebuild = _cohort(make, 64, 3, seed=9)
        session = BatchSession(params, dec, messages, channels,
                               give_csi="full")
        assert session._can_batch()
        scalar_msgs, scalar_chans, _ = rebuild()
        scalar = [
            SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m],
                          give_csi="full").run()
            for m in range(3)
        ]
        _anchor(request, scalar)
        _assert_results_identical(scalar, session.run())

    def test_shared_state_channel_falls_back_to_scalar(self, request):
        """Channels whose state is coupled across instances (the
        shared-medium clock) must run as one-message cohorts in turn."""
        from repro.channels import SharedChannel

        params = SpinalParams()
        dec = DecoderParams(B=8, max_passes=6)
        messages, channels, _ = _cohort(
            lambda rng: SharedChannel(AWGNChannel(12, rng=rng)), 32, 3, seed=2)
        session = BatchSession(params, dec, messages, channels)
        assert not session._can_batch()
        results = session.run()
        assert all(r.success for r in results)
        _anchor(request, results)

    def test_mixed_family_cohort_falls_back_to_scalar(self, request):
        """A cohort mixing CSI-reporting and CSI-less channels is valid per
        message but unrepresentable in the batch store's all-or-nothing CSI
        plane — it must transparently run as one-message cohorts."""
        params = SpinalParams()
        dec = DecoderParams(B=8, max_passes=6)
        def make(rng):
            if make.calls % 2 == 0:
                ch = AWGNChannel(12, rng=rng)
            else:
                ch = RayleighBlockFadingChannel(12, coherence_time=10, rng=rng)
            make.calls += 1
            return ch
        make.calls = 0
        messages, channels, rebuild = _cohort(make, 32, 4, seed=5)
        session = BatchSession(params, dec, messages, channels)
        assert not session._can_batch()
        make.calls = 0
        scalar_msgs, scalar_chans, _ = rebuild()
        scalar = [
            SpinalSession(params, dec, scalar_msgs[m], scalar_chans[m]).run()
            for m in range(4)
        ]
        _anchor(request, scalar)
        _assert_results_identical(scalar, session.run())

    def test_duplicate_channel_instance_falls_back_to_scalar(self):
        """One channel instance reused across rows is not per-message
        ownership: interleaved cohort transmits would consume its RNG in a
        different order than M sequential scalar sessions."""
        params = SpinalParams()
        dec = DecoderParams(B=8, max_passes=6)
        rng = np.random.default_rng(0)
        messages = np.stack([random_message(32, rng) for _ in range(3)])
        shared = AWGNChannel(12, rng=1)
        session = BatchSession(params, dec, messages, [shared] * 3)
        assert not session._can_batch()


class TestBatchDecoderEquivalence:
    @pytest.mark.parametrize("params,dec,n_bits,make_channel", CONFIGS[:6])
    def test_decode_batch_matches_scalar_decode(self, params, dec, n_bits,
                                                make_channel, request):
        """One shared prefix: batch decode == per-message scalar decode."""
        M = 4
        rng = np.random.default_rng(11)
        messages = np.stack([random_message(n_bits, rng) for _ in range(M)])
        channels = [make_channel(np.random.default_rng(50 + m))
                    for m in range(M)]
        batch_enc = BatchSpinalEncoder(params, messages)
        n_subpasses = 2 * batch_enc.subpasses_per_pass
        block = batch_enc.generate_batch(0, n_subpasses)
        received = np.stack([
            channels[m].transmit(block.values[m]).values for m in range(M)
        ])

        batch_store = BatchReceivedSymbols(
            batch_enc.n_spine, M, complex_valued=not params.is_bsc)
        batch_store.add_block(block.spine_indices, block.slots, received)
        batch_dec = BatchBubbleDecoder(params, dec, n_bits)
        batch_results = batch_dec.decode_batch(
            batch_store.prefix(np.arange(M), batch_store.checkpoint()))

        scalar_dec = BubbleDecoder(params, dec, n_bits)
        refs = []
        for m in range(M):
            store = ReceivedSymbols(
                batch_enc.n_spine, complex_valued=not params.is_bsc)
            store.add_block(block.spine_indices, block.slots, received[m])
            ref = scalar_dec.decode(store)
            assert np.array_equal(ref.message_bits,
                                  batch_results[m].message_bits)
            assert ref.path_cost == batch_results[m].path_cost
            assert ref.n_symbols_used == batch_results[m].n_symbols_used
            refs.append(ref)
        _anchor(request, refs)

    def test_batch_encoder_matches_scalar_encoder(self, request):
        refs = []
        for params in (SpinalParams(), SpinalParams.bsc()):
            rng = np.random.default_rng(2)
            messages = np.stack([random_message(48, rng) for _ in range(3)])
            batch_enc = BatchSpinalEncoder(params, messages)
            block = batch_enc.generate_batch(0, 5)
            for m in range(3):
                enc = SpinalEncoder(params, messages[m])
                ref = enc.generate(0, 5)
                assert np.array_equal(ref.spine_indices, block.spine_indices)
                assert np.array_equal(ref.slots, block.slots)
                assert np.array_equal(ref.values, block.values[m])
                assert np.array_equal(enc.spine, batch_enc.spines[m])
                refs.append((ref, enc.spine))
        _anchor(request, refs)


class TestMeasureSchemeBatching:
    def _measure(self, batch_size, channel, reference="awgn"):
        params = SpinalParams() if reference == "awgn" else SpinalParams.bsc()
        dec = DecoderParams(B=16, max_passes=10)
        return measure_scheme(
            SpinalScheme(params, dec, 64), channel,
            snr_db=10.0, n_messages=7, seed=5,
            batch_size=batch_size, capacity_reference=reference,
        )

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 16])
    def test_batched_measurement_identical_awgn(self, batch_size, request):
        factory = lambda rng: AWGNChannel(10, rng=rng)  # noqa: E731
        scalar = self._measure(None, factory)
        _anchor(request, scalar)
        batched = self._measure(batch_size, factory)
        assert scalar == batched  # dataclass equality: every field

    def test_batched_measurement_identical_bsc(self, request):
        factory = lambda rng: BSCChannel(0.05, rng=rng)  # noqa: E731
        scalar = self._measure(None, factory, reference="bsc")
        _anchor(request, scalar)
        batched = self._measure(4, factory, reference="bsc")
        assert scalar == batched

    @pytest.mark.parametrize("give_csi", ["none", "phase", "full"])
    def test_batched_measurement_identical_fading(self, give_csi, request):
        """The fig8_4/8_5-style sweep shape: fading factory + CSI policy,
        measured with and without batching, field-for-field identical."""
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=10)
        scheme = SpinalScheme(params, dec, 64, give_csi=give_csi)
        factory = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
            14, coherence_time=10, rng=rng)
        kwargs = dict(snr_db=14.0, n_messages=6, seed=8,
                      capacity_reference="rayleigh")
        scalar = measure_scheme(scheme, factory, **kwargs)
        _anchor(request, scalar)
        batched = measure_scheme(scheme, factory, batch_size=6, **kwargs)
        assert scalar == batched

    def test_invalid_batch_size(self):
        factory = lambda rng: AWGNChannel(10, rng=rng)  # noqa: E731
        with pytest.raises(ValueError):
            self._measure(0, factory)


class TestIncrementalStoreSession:
    """The per-attempt store-rebuild bugfix: one incremental store with a
    prefix cursor must leave attempt counts and results unchanged."""

    def _reference_run(self, params, dec, message, channel, probe_growth):
        """The pre-fix engine: rebuild a fresh store for every attempt."""
        import math

        encoder = SpinalEncoder(params, message)
        decoder = BubbleDecoder(params, dec, message.size)
        blocks = []

        def ensure(count):
            while len(blocks) < count:
                block = encoder.generate(len(blocks))
                out = channel.transmit(block.values)
                blocks.append((block, out.values))

        attempts = 0
        hi_cost = float("nan")

        def attempt(n):
            # A success records its path cost: the session reports the cost
            # of the successful attempt at hi.
            nonlocal attempts, hi_cost
            ensure(n)
            store = ReceivedSymbols(
                encoder.n_spine, complex_valued=not params.is_bsc)
            for block, values in blocks[:n]:
                store.add_block(block.spine_indices, block.slots, values)
            result = decoder.decode(store)
            attempts += 1
            ok = result.matches(message)
            if ok:
                hi_cost = result.path_cost
            return ok

        w = encoder.subpasses_per_pass
        max_subpasses = dec.max_passes * w
        lo, g, hi = 0, 1, None
        while g <= max_subpasses:
            if attempt(g):
                hi = g
                break
            lo = g
            if probe_growth == 1.0:
                g += 1
            else:
                g = min(max(g + 1, math.ceil(g * probe_growth)), max_subpasses)
                if g == lo:
                    break
        if hi is None:
            return (False, None, attempts, hi_cost)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if attempt(mid):
                hi = mid
            else:
                lo = mid
        return (True, hi, attempts, hi_cost)

    @pytest.mark.parametrize("probe_growth", [1.0, 1.5])
    @pytest.mark.parametrize("snr_db", [15, 6])
    def test_attempts_and_results_unchanged(self, probe_growth, snr_db,
                                            request):
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=8)
        results = []
        for seed in range(3):
            message = random_message(64, seed)
            session = SpinalSession(
                params, dec, message, AWGNChannel(snr_db, rng=seed),
                probe_growth=probe_growth)
            result = session.run()
            results.append(result)
            success, hi, attempts, hi_cost = self._reference_run(
                params, dec, message, AWGNChannel(snr_db, rng=seed),
                probe_growth)
            assert result.success == success
            assert result.n_attempts == attempts
            if success:
                assert result.n_subpasses == hi
                assert result.path_cost == hi_cost
        _anchor(request, results)

    def test_prefix_view_decode_equals_fresh_store(self, request):
        """Decoding any checkpointed prefix == decoding a rebuilt store."""
        params = SpinalParams()
        dec = DecoderParams(B=32)
        message = random_message(64, 21)
        encoder = SpinalEncoder(params, message)
        channel = AWGNChannel(10, rng=22)
        decoder = BubbleDecoder(params, dec, 64)

        store = ReceivedSymbols(encoder.n_spine)
        checkpoints = [store.checkpoint()]
        blocks = []
        for g in range(10):
            block = encoder.generate(g)
            values = channel.transmit(block.values).values
            blocks.append((block, values))
            store.add_block(block.spine_indices, block.slots, values)
            checkpoints.append(store.checkpoint())
        decodes = []
        for n in range(1, 11):
            fresh = ReceivedSymbols(encoder.n_spine)
            for block, values in blocks[:n]:
                fresh.add_block(block.spine_indices, block.slots, values)
            a = decoder.decode(store.prefix(checkpoints[n]))
            b = decoder.decode(fresh)
            assert np.array_equal(a.message_bits, b.message_bits)
            assert a.path_cost == b.path_cost
            assert a.n_symbols_used == b.n_symbols_used == fresh.n_symbols
            decodes.append(a)
        _anchor(request, decodes)


class TestSessionResultFields:
    @pytest.mark.parametrize("params,dec,n_bits,make_channel", CONFIGS)
    def test_success_cost_is_the_decode_at_n_subpasses(
            self, params, dec, n_bits, make_channel):
        """A successful session reports the path cost of its successful
        attempt: a full decode of its first ``n_subpasses`` subpasses."""
        messages, channels, rebuild = _cohort(make_channel, n_bits, 6, seed=11)
        results = BatchSession(params, dec, messages, channels).run()
        _, fresh_channels, _ = rebuild()
        decoder = BubbleDecoder(params, dec, n_bits)
        for m, result in enumerate(results):
            if not result.success:
                assert np.isnan(result.path_cost)
                continue
            encoder = SpinalEncoder(params, messages[m])
            store = ReceivedSymbols(encoder.n_spine,
                                    complex_valued=not params.is_bsc)
            # One transmit per subpass, as the session sends them, so the
            # row's noise stream is replayed exactly.
            for g in range(result.n_subpasses):
                block = encoder.generate(g)
                values = fresh_channels[m].transmit(block.values).values
                store.add_block(block.spine_indices, block.slots, values)
            decoded = decoder.decode(store)
            assert decoded.matches(messages[m])
            assert decoded.path_cost.hex() == result.path_cost.hex()

    def test_n_subpasses_is_int(self):
        """Sessions that end on a bisection midpoint report a Python int."""
        params = SpinalParams()
        dec = DecoderParams(B=16, max_passes=8)
        for seed in range(6):
            message = random_message(64, seed)
            for run in (lambda s: s.run(), lambda s: s.run_fixed_rate(2)):
                session = SpinalSession(params, dec, message,
                                        AWGNChannel(8, rng=seed))
                assert type(run(session).n_subpasses) is int


class TestColumnarStore:
    def test_scatter_preserves_arrival_order(self):
        """Multi-subpass blocks with repeated spine positions keep per-spine
        insertion order (the RNG slot replay depends on it)."""
        store = ReceivedSymbols(4, complex_valued=False)
        store.add_block(
            np.array([2, 0, 3, 3, 2]),
            np.array([0, 0, 0, 1, 1]),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        )
        store.add_block(
            np.array([2, 1]), np.array([2, 0]), np.array([6.0, 7.0]))
        slots, values, csi = store.for_spine(2)
        assert slots.tolist() == [0, 1, 2]
        assert values.tolist() == [1.0, 5.0, 6.0]
        assert csi is None
        slots3, values3, _ = store.for_spine(3)
        assert slots3.tolist() == [0, 1]
        assert values3.tolist() == [3.0, 4.0]
        assert store.n_symbols == 7

    def test_store_validation_errors(self):
        store = ReceivedSymbols(2)
        with pytest.raises(ValueError):
            store.add_block(np.array([0]), np.array([0, 1]), np.array([1.0]))
        with pytest.raises(IndexError):
            store.add_block(np.array([5]), np.array([0]), np.array([1.0 + 0j]))
        store.add_block(np.array([0]), np.array([0]), np.array([1.0 + 0j]),
                        csi=np.array([1.0 + 0j]))
        with pytest.raises(ValueError):  # CSI must keep coming once given
            store.add_block(np.array([1]), np.array([0]), np.array([1.0 + 0j]))

    def test_csi_cannot_start_late(self):
        """Zero-filling CSI for pre-CSI symbols would silently corrupt
        branch costs — the store must refuse instead."""
        store = ReceivedSymbols(2)
        store.add_block(np.array([0]), np.array([0]), np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="first block"):
            store.add_block(np.array([1]), np.array([0]),
                            np.array([1.0 + 0j]), csi=np.array([1.0 + 0j]))

    def test_prefix_checkpoint_validation(self):
        store = ReceivedSymbols(2)
        foreign = np.array([5, 5])
        with pytest.raises(ValueError):
            store.prefix(foreign)

    def test_batch_store_rows_subset(self):
        """Rows absent from an add never pollute another row's view."""
        store = BatchReceivedSymbols(2, 3, complex_valued=False)
        store.add_block(np.array([0, 1]), np.array([0, 0]),
                        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        ckpt1 = store.checkpoint()
        store.add_block(np.array([0, 1]), np.array([1, 1]),
                        np.array([[7.0, 8.0]]), rows=np.array([1]))
        view_all = store.prefix(np.arange(3), ckpt1)
        slots, vals, csi = view_all.for_spine(0)
        assert slots.tolist() == [0]
        assert vals[:, 0].tolist() == [1.0, 3.0, 5.0]
        assert csi is None
        view_row1 = store.prefix(np.array([1]), store.checkpoint())
        slots, vals, _ = view_row1.for_spine(0)
        assert slots.tolist() == [0, 1]
        assert vals[0].tolist() == [3.0, 7.0]

    def test_batch_store_csi_plane(self):
        """The batch store's CSI plane scatters per (spine, row, slot) and
        obeys the scalar store's all-or-nothing discipline."""
        store = BatchReceivedSymbols(2, 2)
        store.add_block(
            np.array([0, 1]), np.array([0, 0]),
            np.array([[1.0 + 0j, 2.0], [3.0, 4.0]]),
            csi=np.array([[1.0 + 1j, 2.0 + 2j], [3.0 + 3j, 4.0 + 4j]]),
        )
        assert store.has_csi
        with pytest.raises(ValueError, match="keep providing"):
            store.add_block(np.array([0]), np.array([1]),
                            np.array([[5.0 + 0j], [6.0]]))
        store.add_block(np.array([0]), np.array([1]),
                        np.array([[5.0 + 0j]]), rows=np.array([1]),
                        csi=np.array([[5.0 + 5j]]))
        view = store.prefix(np.array([1]), store.checkpoint())
        slots, vals, csi = view.for_spine(0)
        assert slots.tolist() == [0, 1]
        assert vals[0].tolist() == [3.0, 5.0]
        assert csi[0].tolist() == [3.0 + 3j, 5.0 + 5j]
        late = BatchReceivedSymbols(2, 2)
        late.add_block(np.array([0]), np.array([0]),
                       np.array([[1.0 + 0j], [2.0]]))
        with pytest.raises(ValueError, match="first block"):
            late.add_block(np.array([1]), np.array([0]),
                           np.array([[1.0 + 0j], [2.0]]),
                           csi=np.array([[1.0 + 0j], [1.0 + 0j]]))


class TestCapacityReference:
    def _measurement(self, reference, snr_db=0.05, rate_bits=160,
                     symbols=400):
        from repro.simulation import RateMeasurement

        return RateMeasurement(
            label="x", snr_db=snr_db, n_messages=10, n_success=10,
            total_bits=rate_bits, total_symbols=symbols,
            capacity_reference=reference,
        )

    def test_bsc_fraction_uses_bsc_capacity(self):
        from repro.channels import bsc_capacity

        m = self._measurement("bsc", snr_db=0.05)
        assert m.capacity == pytest.approx(bsc_capacity(0.05))
        assert m.fraction_of_capacity == pytest.approx(
            m.rate / bsc_capacity(0.05))

    def test_bsc_gap_db_raises(self):
        m = self._measurement("bsc", snr_db=0.05)
        with pytest.raises(ValueError, match="AWGN"):
            m.gap_db

    def test_rayleigh_fraction(self):
        from repro.channels import rayleigh_capacity

        m = self._measurement("rayleigh", snr_db=10.0)
        assert m.fraction_of_capacity == pytest.approx(
            m.rate / rayleigh_capacity(10.0))
        with pytest.raises(ValueError):
            m.gap_db

    def test_awgn_default_unchanged(self):
        from repro.channels import awgn_capacity, gap_to_capacity_db

        m = self._measurement("awgn", snr_db=10.0)
        assert m.gap_db == pytest.approx(gap_to_capacity_db(m.rate, 10.0))
        assert m.fraction_of_capacity == pytest.approx(
            m.rate / awgn_capacity(10.0))

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError, match="capacity reference"):
            self._measurement("laplace")

    def test_zero_capacity_point(self):
        """BSC at p=0.5 has zero capacity — no ZeroDivisionError."""
        m = self._measurement("bsc", snr_db=0.5)
        assert m.capacity == 0.0
        assert m.fraction_of_capacity == float("inf")
        zero = self._measurement("bsc", snr_db=0.5, rate_bits=0)
        assert zero.fraction_of_capacity == 0.0


class TestFlowStatsFold:
    def test_single_pass_fold_matches_naive(self):
        from repro.link.protocol import PacketResult
        from repro.link.stats import FlowStats

        rng = np.random.default_rng(0)
        stats = FlowStats("f")
        for i in range(50):
            stats.add(PacketResult(
                flow="f", seq=i, success=bool(rng.integers(0, 2)),
                payload_bits=int(rng.integers(8, 128)),
                coded_bits=int(rng.integers(128, 256)),
                n_blocks=1, n_subpasses=int(rng.integers(1, 10)),
                symbols=int(rng.integers(10, 500)),
                wasted_symbols=int(rng.integers(0, 50)),
                retransmissions=int(rng.integers(0, 4)),
                start_time=0, finish_time=int(rng.integers(1, 1000)),
            ))
        rs = stats.results
        assert stats.n_delivered == sum(r.success for r in rs)
        assert stats.payload_bits_offered == sum(r.payload_bits for r in rs)
        assert stats.payload_bits_delivered == sum(
            r.payload_bits for r in rs if r.success)
        assert stats.symbols == sum(r.symbols for r in rs)
        assert stats.wasted_symbols == sum(r.wasted_symbols for r in rs)
        assert stats.retransmissions == sum(r.retransmissions for r in rs)
        # cache invalidates on add
        before = stats.symbols
        stats.add(PacketResult(
            flow="f", seq=50, success=True, payload_bits=8, coded_bits=16,
            n_blocks=1, n_subpasses=1, symbols=100, wasted_symbols=0,
            retransmissions=0, start_time=0, finish_time=5))
        assert stats.symbols == before + 100


def _edge_configs(n_configs, seed=2026):
    """A seeded sample of the edge-case grid: k in {1, 3, 8}, 1-5 spine
    values, B in {1, 4}, d up to 9 (past the tree height), puncturing
    none/8-way, 1-2 tail symbols, AWGN/BSC/Rayleigh x CSI none/phase/full,
    probe growth 1/1.5, rateless and fixed-rate.  Depths whose subtrees
    would exceed 2^12 leaves are redrawn to keep the sample fast."""
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < n_configs:
        k = int(rng.choice([1, 3, 8]))
        n_spine = int(rng.integers(1, 6))
        d = int(rng.integers(1, 10))
        if k * (min(d, n_spine) - 1) > 12:
            continue
        family = str(rng.choice(["awgn", "bsc", "rayleigh"]))
        code = dict(k=k, puncturing=str(rng.choice(["none", "8-way"])),
                    tail_symbols=int(rng.integers(1, 3)))
        params = (SpinalParams.bsc(**code) if family == "bsc"
                  else SpinalParams(**code))
        dec = DecoderParams(B=int(rng.choice([1, 4])), d=d,
                            max_passes=int(rng.integers(1, 4)))
        x = float(rng.uniform(0.02, 0.2) if family == "bsc"
                  else rng.uniform(-2.0, 20.0))
        configs.append(dict(
            params=params, dec=dec, n_bits=k * n_spine, family=family, x=x,
            give_csi=str(rng.choice(["none", "phase", "full"])),
            probe_growth=float(rng.choice([1.0, 1.5])),
            fixed_passes=(None if rng.random() < 0.5
                          else int(rng.integers(1, 4))),
        ))
    return configs


def _make_channel(family, x):
    if family == "awgn":
        return lambda rng: AWGNChannel(x, rng=rng)
    if family == "bsc":
        return lambda rng: BSCChannel(x, rng=rng)
    return lambda rng: RayleighBlockFadingChannel(x, coherence_time=3, rng=rng)


class TestCohortEqualsOneMessageCohorts:
    """The invariant behind the single pipeline: a cohort of M messages
    gives each message exactly what a cohort of that message alone gives."""

    @pytest.mark.parametrize("index", range(60))
    def test_edge_grid_sample(self, index):
        cfg = _edge_configs(60)[index]
        make = _make_channel(cfg["family"], cfg["x"])
        messages, channels, rebuild = _cohort(make, cfg["n_bits"], 3,
                                              seed=500 + index)
        kwargs = dict(give_csi=cfg["give_csi"],
                      probe_growth=cfg["probe_growth"])

        def run(session):
            if cfg["fixed_passes"] is None:
                return session.run()
            return session.run_fixed_rate(cfg["fixed_passes"])

        cohort = run(BatchSession(cfg["params"], cfg["dec"], messages,
                                  channels, **kwargs))
        single_msgs, single_chans, _ = rebuild()
        singles = [
            r for m in range(3)
            for r in run(BatchSession(cfg["params"], cfg["dec"],
                                      single_msgs[m:m + 1],
                                      [single_chans[m]], **kwargs))
        ]
        _assert_results_identical(singles, cohort)


#: sha256 prefixes of each test's one-message outputs (see the module
#: docstring), keyed by test id.  Digests that cover a successful rateless
#: session were re-anchored when sessions began reporting the path cost of
#: their successful attempt instead of the last attempt's; with path_cost
#: left out, those outputs are unchanged.
ONE_MESSAGE_GOLDEN: dict[str, str] = {
    "test_attempts_and_results_unchanged[15-1.0]":
        "be001ecefa6553d9",
    "test_attempts_and_results_unchanged[15-1.5]":
        "8c8c9d8fca6519b7",
    "test_attempts_and_results_unchanged[6-1.0]":
        "b9005f16d539c81c",
    "test_attempts_and_results_unchanged[6-1.5]":
        "417ff566b7b27552",
    "test_batch_encoder_matches_scalar_encoder":
        "f64ca7a21d27a515",
    "test_batch_reproduces_scalar[1.0-awgn-2way-d3-tail3]":
        "21d5890bb6ace9e9",
    "test_batch_reproduces_scalar[1.0-awgn-4way-d2]":
        "1cf340dfbc953f43",
    "test_batch_reproduces_scalar[1.0-awgn-8way]":
        "7dd8a2516915e611",
    "test_batch_reproduces_scalar[1.0-awgn-failures]":
        "c51d95f0bd68556a",
    "test_batch_reproduces_scalar[1.0-awgn-nopunct]":
        "00be214612c9525e",
    "test_batch_reproduces_scalar[1.0-bsc-8way]":
        "2760e34fd8f6687d",
    "test_batch_reproduces_scalar[1.0-bsc-nopunct-d2]":
        "9bd94020419bc5f4",
    "test_batch_reproduces_scalar[1.5-awgn-2way-d3-tail3]":
        "21d5890bb6ace9e9",
    "test_batch_reproduces_scalar[1.5-awgn-4way-d2]":
        "1cf340dfbc953f43",
    "test_batch_reproduces_scalar[1.5-awgn-8way]":
        "271792f5e648c059",
    "test_batch_reproduces_scalar[1.5-awgn-failures]":
        "63f66b1e83dbeade",
    "test_batch_reproduces_scalar[1.5-awgn-nopunct]":
        "00be214612c9525e",
    "test_batch_reproduces_scalar[1.5-bsc-8way]":
        "f9528ea344a54b89",
    "test_batch_reproduces_scalar[1.5-bsc-nopunct-d2]":
        "e012b11b883aefbe",
    "test_batched_measurement_identical_awgn[16]":
        "5dde22ae9d5e0f70",
    "test_batched_measurement_identical_awgn[1]":
        "5dde22ae9d5e0f70",
    "test_batched_measurement_identical_awgn[3]":
        "5dde22ae9d5e0f70",
    "test_batched_measurement_identical_awgn[7]":
        "5dde22ae9d5e0f70",
    "test_batched_measurement_identical_bsc":
        "f809c67a9fa37a2f",
    "test_batched_measurement_identical_fading[full]":
        "a29e1f6d1fdf1855",
    "test_batched_measurement_identical_fading[none]":
        "8d3940374855dd6e",
    "test_batched_measurement_identical_fading[phase]":
        "d0db3eab8392ad3a",
    "test_csi_mode_batches_over_memoryless_channels":
        "45c06f4b601fff1c",
    "test_decode_batch_matches_scalar_decode[awgn-2way-d3-tail3]":
        "789c0cb79d16b223",
    "test_decode_batch_matches_scalar_decode[awgn-4way-d2]":
        "7cac756d11923379",
    "test_decode_batch_matches_scalar_decode[awgn-8way]":
        "cc9f47422fd804dc",
    "test_decode_batch_matches_scalar_decode[awgn-nopunct]":
        "0422669b5d740176",
    "test_decode_batch_matches_scalar_decode[bsc-8way]":
        "cd86ef86eedd3cb2",
    "test_decode_batch_matches_scalar_decode[bsc-nopunct-d2]":
        "f2ba542a4bd09f25",
    "test_fading_batches_identically[1-full]":
        "8c64ddf86d939b9e",
    "test_fading_batches_identically[1-none]":
        "6aa733677d4a4156",
    "test_fading_batches_identically[1-phase]":
        "ba4e142f553b8c3a",
    "test_fading_batches_identically[10-full]":
        "374dc971b0060afe",
    "test_fading_batches_identically[10-none]":
        "6aa733677d4a4156",
    "test_fading_batches_identically[10-phase]":
        "80cfb08d6d316488",
    "test_fading_batches_identically[100-full]":
        "b9269268af5a8d6a",
    "test_fading_batches_identically[100-none]":
        "6aa733677d4a4156",
    "test_fading_batches_identically[100-phase]":
        "b8b4be5b9f495464",
    "test_fading_punctured_and_failure_cohorts[full]":
        "90efd1276308cdc1",
    "test_fading_punctured_and_failure_cohorts[none]":
        "7aa65ebad06e8d29",
    "test_fading_punctured_and_failure_cohorts[phase]":
        "2cf3c7c54eb4ede4",
    "test_fixed_rate_batch_reproduces_scalar[1]":
        "55dae98791857d1f",
    "test_fixed_rate_batch_reproduces_scalar[3]":
        "de30514dbc8832aa",
    "test_many_seeds_property":
        "55d2a0ddc846b13f",
    "test_mixed_family_cohort_falls_back_to_scalar":
        "3daf89b76092983f",
    "test_prefix_view_decode_equals_fresh_store":
        "55de2f7a863754aa",
    "test_shared_state_channel_falls_back_to_scalar":
        "250505435fb22723",
}
