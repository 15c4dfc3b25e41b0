"""The benchmark's workloads: operating points built from a seed.

A workload is a *round* of points, repeated with fresh per-point seeds.
Every round has the same composition (series x operating point, in a
fixed interleaved order), and runs execute whole rounds, so that each
position in the round (a *slot*) is timed once per round and a run's
throughput can be taken from the median time of every slot.  Rounds are
short (3-11 s on a 2-core box) so that a run holds several of them.

Why these three workloads: each stresses different layers, so that an
optimisation of one layer has a workload that exercises it and one that
bypasses it (see ``baseline.json`` for the layer -> metric mapping).

- ``spinal_awgn``: the Figure 8-1 spinal series (n=256 and n=1024, k=4,
  c=6, B=256, d=1) on AWGN, one batched cohort of 16-32 messages per
  point.  The ``backend`` kernels do almost all the work; the baseline
  codecs are idle.  The -5 and 0 dB end of the paper's grid is left out: one 16-message
  cohort there takes 19 s (n=256) and 80 s (n=1024) on a 2-core box,
  longer than a whole run.
- ``baselines_awgn``: Raptor (k=2048, QAM-256) at 5 dB, Strider+ at 15 dB
  and Strider at 25 dB (n=1920, G=12) through their default one-message
  ``run_cohort`` loop.  ``strider.bcjr`` and ``ldpc.bp_decode`` dominate;
  spinal kernels idle.  One point per codec keeps the round short enough
  for several rounds per run.
- ``link_arq_fading``: CRC-framed ARQ link points on Rayleigh block fading
  with full CSI.  Same spinal kernels as ``spinal_awgn`` but one message
  per decode (M=1, scalar path), a decode after every subpass, and the CSI
  branch-cost metric; also the only workload that runs ``link`` and
  ``core.framing``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.experiments import ChannelSpec, PointSpec, SchemeSpec

SPINAL_DECODER = {"B": 256, "d": 1, "max_passes": 40}

RAPTOR = SchemeSpec("raptor", {"k": 2048})
STRIDER = SchemeSpec(
    "strider", {"n_bits": 1920, "n_layers": 12, "max_passes": 30})
STRIDER_PLUS = SchemeSpec(
    "strider", {"n_bits": 1920, "n_layers": 12, "subpasses_per_pass": 4,
                "max_passes": 30})

LINK_OPTIONS = {
    "payload_bytes": 16,
    "decoder": {"B": 64, "max_passes": 32},
    "config": {"max_block_bits": 512, "feedback_delay": 64,
               "give_csi": True},
}
LINK_CHANNEL = ChannelSpec("rayleigh", {"coherence_time": 10})


def point_seed(seed: int, round_index: int, slot: int) -> int:
    """Per-point seed: a pure function of the run seed and the position."""
    return int(np.random.SeedSequence(
        [seed, round_index, slot]).generate_state(1)[0])


def _spinal(n_bits: int, snr: float, seed: int, n_messages: int) -> PointSpec:
    return PointSpec(
        series=f"spinal n={n_bits}", x=snr, seed=seed,
        scheme=SchemeSpec("spinal", {
            "n_bits": n_bits, "decoder": SPINAL_DECODER,
            "probe_growth": 1.5}),
        channel=ChannelSpec("awgn"),
        n_messages=n_messages, batch_size=n_messages,
    )


def _baseline(series: str, scheme: SchemeSpec, snr: float, seed: int,
              n_messages: int) -> PointSpec:
    # batch_size=None: the scheme's default one-message-at-a-time loop
    return PointSpec(series=series, x=snr, seed=seed, scheme=scheme,
                     channel=ChannelSpec("awgn"), n_messages=n_messages)


def _link(snr: float, seed: int, n_packets: int) -> PointSpec:
    options = dict(LINK_OPTIONS, n_packets=n_packets,
                   job_id=f"arq_snr{snr:g}")
    return PointSpec(series="link arq", x=snr, seed=seed, kind="link",
                     channel=LINK_CHANNEL, options=options)


# Each round's points in execution order.  Message (packet) counts grow
# with SNR so that every point of a round takes about the same time: the
# median point time then sits among many similar points instead of between
# two unlike ones, which keeps it steady from run to run.
_SPINAL_ROUND = ((256, 5.0, 16), (1024, 20.0, 16), (256, 20.0, 32),
                 (1024, 35.0, 16))
_BASELINE_ROUND = (("raptor/qam-256", RAPTOR, 5.0, 1),
                   ("strider+", STRIDER_PLUS, 15.0, 1),
                   ("strider", STRIDER, 25.0, 1))
_LINK_ROUND = ((5.0, 3), (10.0, 6), (15.0, 9), (20.0, 12), (25.0, 16))


def spinal_awgn(seed: int, rnd: int, small: bool) -> list[PointSpec]:
    if small:
        return [_spinal(64, 15.0, point_seed(seed, rnd, 0), 2)]
    return [_spinal(n, snr, point_seed(seed, rnd, i), n_messages)
            for i, (n, snr, n_messages) in enumerate(_SPINAL_ROUND)]


def baselines_awgn(seed: int, rnd: int, small: bool) -> list[PointSpec]:
    if small:
        return [
            _baseline("raptor", SchemeSpec("raptor", {"k": 256}), 25.0,
                      point_seed(seed, rnd, 0), 1),
            _baseline("strider", SchemeSpec("strider", {
                "n_bits": 240, "n_layers": 2, "max_passes": 30}), 25.0,
                point_seed(seed, rnd, 1), 1),
        ]
    return [_baseline(series, scheme, snr, point_seed(seed, rnd, i), n)
            for i, (series, scheme, snr, n) in enumerate(_BASELINE_ROUND)]


def link_arq_fading(seed: int, rnd: int, small: bool) -> list[PointSpec]:
    if small:
        return [_link(25.0, point_seed(seed, rnd, 0), 1)]
    return [_link(snr, point_seed(seed, rnd, i), n_packets)
            for i, (snr, n_packets) in enumerate(_LINK_ROUND)]


#: workload name -> ``round(seed, round_index, small) -> points``
WORKLOADS: dict[str, Callable[[int, int, bool], list[PointSpec]]] = {
    "spinal_awgn": spinal_awgn,
    "baselines_awgn": baselines_awgn,
    "link_arq_fading": link_arq_fading,
}


#: Wall time of one full-size round on a 2-core x86 box with numpy and
#: OpenBLAS (no numba); sizes the fixed number of rounds of a traced run.
ROUND_SECONDS = {"spinal_awgn": 11.0, "baselines_awgn": 4.6,
                 "link_arq_fading": 2.8}


def messages_in(point: PointSpec) -> int:
    """Messages a point delivers or gives up on (packets for a link point)."""
    if point.kind == "link":
        return int(point.options["n_packets"])
    return int(point.n_messages)
