"""Decode hot-path throughput: batched cohorts vs the scalar loops.

Measures messages/second through the full rateless Monte-Carlo loop
(encode, channel, probe + bisect decode) for three engines on AWGN:

- ``scalar_rebuild`` — one message at a time, rebuilding a fresh
  received-symbol store from every transmitted block on every decode
  attempt (the pre-batching session shape, kept here as the regression
  baseline);
- ``scalar`` — one-message sessions: one incremental store per session,
  prefix-view decode attempts;
- ``batch`` — ``measure_scheme(batch_size=...)``: whole cohorts decoded by
  one vectorised bubble search;

and for the two current engines on Rayleigh block fading with full CSI at
the receiver (the Figure 8-4 configuration) — fading cohorts used to bail
out of the batch pipeline entirely, so ``fading_speedup_batch_vs_scalar``
is the one to watch for the paper's slowest sweeps.

Every engine pair produces the *same* :class:`RateMeasurement` (asserted),
so this is a pure speed comparison.  Writes ``bench_results/BENCH_decoder_throughput.json``
including the speedups and records it into the bench history
(``bench_results/history/``); regression gating lives in
``python -m repro.obs.perf compare`` — noise-aware thresholds against
the committed baselines replaced the old hand-tuned ``--min-speedup`` /
``--min-fading-speedup`` flags, so CI runs ``--quick`` here and gates in
a separate step.
"""

import argparse
import sys

import numpy as np

from repro.backend import get_backend, set_backend, use_backend
from repro.channels import AWGNChannel, RayleighBlockFadingChannel
from repro.core.decoder import BubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import ReceivedSymbols
from repro.obs import clock
from repro.simulation import SpinalScheme, measure_scheme
from repro.simulation.engine import probe_schedule
from repro.utils.bitops import random_message

from _common import write_json


def _legacy_run_message(params, dec, message, channel, probe_growth):
    """Pre-batching session shape: rebuild the whole store on every attempt."""
    encoder = SpinalEncoder(params, message)
    decoder = BubbleDecoder(params, dec, message.size)
    blocks = []

    def ensure(count):
        while len(blocks) < count:
            block = encoder.generate(len(blocks))
            blocks.append((block, channel.transmit(block.values).values))

    def attempt(n):
        ensure(n)
        store = ReceivedSymbols(encoder.n_spine)
        for block, values in blocks[:n]:
            store.add_block(block.spine_indices, block.slots, values)
        return decoder.decode(store).matches(message)

    w = encoder.subpasses_per_pass
    max_subpasses = dec.max_passes * w
    lo, hi = 0, None
    for g in probe_schedule(probe_growth, max_subpasses):
        if attempt(g):
            hi = g
            break
        lo = g
    if hi is None:
        ensure(max_subpasses)
        return 0, sum(len(b[0]) for b in blocks)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if attempt(mid):
            hi = mid
        else:
            lo = mid
    return message.size, sum(len(b[0]) for b in blocks[:hi])


def _measure_legacy(params, dec, n_bits, snr_db, n_messages, seed, probe_growth):
    """The pre-batching measure_scheme loop, with identical seeding."""
    master = np.random.default_rng(seed)
    total_bits = total_symbols = n_success = 0
    for _ in range(n_messages):
        rng = np.random.default_rng(master.integers(0, 2**63))
        channel = AWGNChannel(snr_db, rng=rng)
        message = random_message(n_bits, rng)
        bits, symbols = _legacy_run_message(
            params, dec, message, channel, probe_growth)
        total_bits += bits
        total_symbols += symbols
        n_success += bits > 0
    return total_bits, total_symbols, n_success


def _timed(fn):
    # benchmarks time through repro.obs.clock like library code — the
    # recorded benchmarks-directory policy in repro.lint.config
    t0 = clock()
    out = fn()
    return out, clock() - t0


def run(quick: bool) -> dict:
    n_messages = 48 if quick else 192
    batch_size = 48
    n_bits, snr_db, seed, probe_growth = 128, 8.0, 0, 1.5
    params = SpinalParams()
    dec = DecoderParams(B=64, max_passes=16)
    scheme = SpinalScheme(params, dec, n_bits, probe_growth=probe_growth)

    legacy, t_legacy = _timed(lambda: _measure_legacy(
        params, dec, n_bits, snr_db, n_messages, seed, probe_growth))
    scalar, t_scalar = _timed(lambda: measure_scheme(
        scheme, lambda rng: AWGNChannel(snr_db, rng=rng), snr_db,
        n_messages, seed=seed))
    batch, t_batch = _timed(lambda: measure_scheme(
        scheme, lambda rng: AWGNChannel(snr_db, rng=rng), snr_db,
        n_messages, seed=seed, batch_size=batch_size))

    # All three engines are the same measurement — only speed may differ.
    assert legacy == (batch.total_bits, batch.total_symbols, batch.n_success)
    assert scalar == batch

    payload = {
        "config": {
            "n_bits": n_bits, "snr_db": snr_db, "B": dec.B,
            "max_passes": dec.max_passes, "probe_growth": probe_growth,
            "n_messages": n_messages, "batch_size": batch_size,
            "profile": "quick" if quick else "full",
            "backend": get_backend().name,
        },
        "rate_bits_per_symbol": round(batch.rate, 9),
        "scalar_rebuild_msgs_per_sec": round(n_messages / t_legacy, 3),
        "scalar_msgs_per_sec": round(n_messages / t_scalar, 3),
        "batch_msgs_per_sec": round(n_messages / t_batch, 3),
        "speedup_batch_vs_scalar_rebuild": round(t_legacy / t_batch, 3),
        "speedup_batch_vs_scalar": round(t_scalar / t_batch, 3),
        "speedup_scalar_vs_scalar_rebuild": round(t_legacy / t_scalar, 3),
    }
    payload.update(run_fading(quick=quick))
    return payload


def run_fading(quick: bool) -> dict:
    """Rayleigh + full CSI (the Figure 8-4 shape): scalar vs batch.

    Before the fading/CSI batch path existed, ``batch_size`` silently fell
    back to the scalar engine here, so ``scalar`` doubles as the pre-batch
    baseline for this case.
    """
    n_messages = 48 if quick else 192
    batch_size = 48
    n_bits, snr_db, tau, seed, probe_growth = 128, 13.0, 10, 0, 1.5
    params = SpinalParams()
    dec = DecoderParams(B=64, max_passes=16)
    scheme = SpinalScheme(params, dec, n_bits, give_csi="full",
                          probe_growth=probe_growth)
    factory = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
        snr_db, coherence_time=tau, rng=rng)

    scalar, t_scalar = _timed(lambda: measure_scheme(
        scheme, factory, snr_db, n_messages, seed=seed,
        capacity_reference="rayleigh"))
    batch, t_batch = _timed(lambda: measure_scheme(
        scheme, factory, snr_db, n_messages, seed=seed,
        batch_size=batch_size, capacity_reference="rayleigh"))

    # The batched fading pipeline must be bit-identical to the scalar one.
    assert scalar == batch

    return {
        "fading_config": {
            "n_bits": n_bits, "snr_db": snr_db, "coherence_time": tau,
            "give_csi": "full", "B": dec.B, "max_passes": dec.max_passes,
            "probe_growth": probe_growth, "n_messages": n_messages,
            "batch_size": batch_size,
            "profile": "quick" if quick else "full",
        },
        "fading_rate_bits_per_symbol": round(batch.rate, 9),
        "fading_scalar_msgs_per_sec": round(n_messages / t_scalar, 3),
        "fading_batch_msgs_per_sec": round(n_messages / t_batch, 3),
        "fading_speedup_batch_vs_scalar": round(t_scalar / t_batch, 3),
    }


def run_backend_compare(quick: bool, backend: str) -> dict:
    """End-to-end cohort decode: ``backend`` vs the numpy reference.

    Runs the *same* batched AWGN and fading sweeps under each backend with
    identical seeding and asserts the measurements are equal — the
    cross-backend bit-exactness contract at full-pipeline scale — then
    reports the wall-time ratio as ``backend_speedup_batch_vs_numpy``
    (machine-free, gated against the ``decoder_throughput_numba``
    baseline by ``repro.obs.perf compare``).
    """
    n_messages = 48 if quick else 192
    batch_size = 48
    n_bits, snr_db, seed, probe_growth = 128, 8.0, 0, 1.5
    params = SpinalParams()
    dec = DecoderParams(B=64, max_passes=16)
    scheme = SpinalScheme(params, dec, n_bits, probe_growth=probe_growth)

    def batch_awgn():
        return measure_scheme(
            scheme, lambda rng: AWGNChannel(snr_db, rng=rng), snr_db,
            n_messages, seed=seed, batch_size=batch_size)

    with use_backend("numpy"):
        ref, t_numpy = _timed(batch_awgn)
    with use_backend(backend):
        cur, t_backend = _timed(batch_awgn)
    # Backends are bit-identical by contract: same decodes, same symbol
    # counts, same rate — only the wall time may differ.
    assert ref == cur

    tau = 10
    fading_scheme = SpinalScheme(params, dec, n_bits, give_csi="full",
                                 probe_growth=probe_growth)
    factory = lambda rng: RayleighBlockFadingChannel(  # noqa: E731
        13.0, coherence_time=tau, rng=rng)

    def batch_fading():
        return measure_scheme(
            fading_scheme, factory, 13.0, n_messages, seed=seed,
            batch_size=batch_size, capacity_reference="rayleigh")

    with use_backend("numpy"):
        fref, tf_numpy = _timed(batch_fading)
    with use_backend(backend):
        fcur, tf_backend = _timed(batch_fading)
    assert fref == fcur

    return {
        "config": {
            "n_bits": n_bits, "snr_db": snr_db, "B": dec.B,
            "max_passes": dec.max_passes, "probe_growth": probe_growth,
            "n_messages": n_messages, "batch_size": batch_size,
            "profile": "quick" if quick else "full",
            "backend": backend,
        },
        "rate_bits_per_symbol": round(ref.rate, 9),
        "numpy_batch_msgs_per_sec": round(n_messages / t_numpy, 3),
        "backend_batch_msgs_per_sec": round(n_messages / t_backend, 3),
        "backend_speedup_batch_vs_numpy": round(t_numpy / t_backend, 3),
        "fading_rate_bits_per_symbol": round(fref.rate, 9),
        "fading_numpy_batch_msgs_per_sec": round(n_messages / tf_numpy, 3),
        "fading_backend_batch_msgs_per_sec": round(
            n_messages / tf_backend, 3),
        "fading_backend_speedup_batch_vs_numpy": round(
            tf_numpy / tf_backend, 3),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small message count (the CI smoke profile)")
    ap.add_argument("--backend", default="numpy",
                    help="array-kernel backend (see repro.backend). With a "
                         "non-numpy backend the bench switches to a "
                         "backend-vs-numpy comparison of the batched "
                         "cohort path and writes "
                         "BENCH_decoder_throughput_numba.json")
    args = ap.parse_args(argv)

    resolved = set_backend(args.backend).name
    if resolved != "numpy":
        payload = run_backend_compare(quick=args.quick, backend=resolved)
        for key, value in payload.items():
            print(f"{key}: {value}")
        write_json("BENCH_decoder_throughput_numba", payload)
        print(f"ok: {resolved} batch path "
              f"{payload['backend_speedup_batch_vs_numpy']}x over numpy "
              f"(fading "
              f"{payload['fading_backend_speedup_batch_vs_numpy']}x), "
              f"measurements identical")
        return 0
    if args.backend != resolved:
        # requested backend fell back (e.g. numba missing): the comparison
        # would gate numpy against itself, so fail loudly instead
        print(f"requested backend {args.backend!r} resolved to "
              f"{resolved!r}; aborting backend comparison", file=sys.stderr)
        return 1

    payload = run(quick=args.quick)
    for key, value in payload.items():
        print(f"{key}: {value}")
    write_json("BENCH_decoder_throughput", payload)

    # Regression gating moved to `python -m repro.obs.perf compare`:
    # write_json recorded this run into the bench history, which the gate
    # judges against the committed baselines with noise-aware thresholds.
    print(f"ok: batch path {payload['speedup_batch_vs_scalar_rebuild']}x "
          f"over the per-attempt-rebuild loop, fading batch "
          f"{payload['fading_speedup_batch_vs_scalar']}x over scalar")
    return 0


if __name__ == "__main__":
    sys.exit(main())
