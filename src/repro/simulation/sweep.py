"""Rate measurement across messages and SNRs (paper §8.1 metrics).

Every code in the comparison implements :class:`RatelessScheme` — "all
codes run through the same engine".  The measured rate at an operating
point is total bits delivered / total symbols transmitted, aggregated over
messages; undecoded messages burn their symbols and deliver zero bits,
exactly as a give-up does in the paper's framework.

The engine runs messages either one at a time or in batched cohorts
(``measure_scheme(batch_size=...)``): a cohort shares one vectorised decode
pipeline (see :class:`~repro.simulation.engine.BatchSession`) while every
message keeps its own channel and RNG, so the two paths produce identical
:class:`RateMeasurement` records from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.channels.base import Channel
from repro.channels.capacity import (
    awgn_capacity,
    bsc_capacity,
    gap_to_capacity_db,
    rayleigh_capacity,
)
from repro.core.params import DecoderParams, SpinalParams
from repro.simulation.engine import BatchSession, SpinalSession
from repro.utils.bitops import random_message

__all__ = [
    "RateMeasurement",
    "RatelessScheme",
    "SpinalScheme",
    "measure_scheme",
    "measure_spinal_rate",
    "merge_measurements",
    "run_messages",
    "snr_sweep",
]

ChannelFactory = Callable[[np.random.Generator], Channel]

#: capacity_reference -> capacity in bits/symbol from the operating point.
#: "awgn"/"rayleigh" interpret ``snr_db`` as an SNR; "bsc" interprets it as
#: the flip probability (the only operating-point knob a BSC has).
_CAPACITY_FNS = {
    "awgn": awgn_capacity,
    "bsc": bsc_capacity,
    "rayleigh": rayleigh_capacity,
}


@dataclass
class RateMeasurement:
    """Aggregated performance of one code at one operating point.

    ``capacity_reference`` names the channel family whose Shannon limit the
    relative metrics compare against: "awgn" (default), "bsc" (then
    ``snr_db`` carries the flip probability) or "rayleigh".  Comparing a
    BSC sweep against AWGN capacity silently produced wrong gaps before
    this knob existed.
    """

    label: str
    snr_db: float
    n_messages: int
    n_success: int
    total_bits: int          # bits delivered (successes only)
    total_symbols: int       # symbols transmitted (incl. failed messages)
    capacity_reference: str = "awgn"

    def __post_init__(self):
        if self.capacity_reference not in _CAPACITY_FNS:
            raise ValueError(
                f"unknown capacity reference {self.capacity_reference!r}; "
                f"expected one of {sorted(_CAPACITY_FNS)}"
            )

    @property
    def rate(self) -> float:
        """Bits per symbol (the paper's headline metric)."""
        if self.total_symbols == 0:
            return 0.0
        return self.total_bits / self.total_symbols

    @property
    def success_fraction(self) -> float:
        return self.n_success / self.n_messages if self.n_messages else 0.0

    @property
    def capacity(self) -> float:
        """Shannon limit (bits/symbol) of the reference channel here."""
        return float(_CAPACITY_FNS[self.capacity_reference](self.snr_db))

    @property
    def gap_db(self) -> float:
        """Gap to AWGN capacity at this SNR (negative; §8.1).

        Only defined against AWGN — the dB axis is an SNR shift, which has
        no meaning for a BSC flip probability; raises otherwise.
        """
        if self.capacity_reference != "awgn":
            raise ValueError(
                "gap_db is defined against AWGN capacity only; use "
                "fraction_of_capacity for "
                f"{self.capacity_reference!r} measurements"
            )
        if self.rate <= 0.0:
            return float("-inf")
        return gap_to_capacity_db(self.rate, self.snr_db)

    @property
    def fraction_of_capacity(self) -> float:
        capacity = self.capacity
        if capacity == 0.0:  # e.g. BSC at flip probability 0.5
            return 0.0 if self.rate == 0.0 else float("inf")
        return self.rate / capacity

    def as_dict(self) -> dict:
        """JSON-safe record (the experiment store's on-disk point format)."""
        return {
            "label": self.label,
            "snr_db": float(self.snr_db),
            "n_messages": int(self.n_messages),
            "n_success": int(self.n_success),
            "total_bits": int(self.total_bits),
            "total_symbols": int(self.total_symbols),
            "capacity_reference": self.capacity_reference,
            "rate": self.rate,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RateMeasurement":
        return cls(
            label=record["label"],
            snr_db=float(record["snr_db"]),
            n_messages=int(record["n_messages"]),
            n_success=int(record["n_success"]),
            total_bits=int(record["total_bits"]),
            total_symbols=int(record["total_symbols"]),
            capacity_reference=record.get("capacity_reference", "awgn"),
        )


def merge_measurements(
    measurements: Sequence["RateMeasurement"],
) -> "RateMeasurement":
    """Pool several cohorts of the *same* operating point into one record.

    This is the growth half of the adaptive-sampling API: run extra
    message cohorts (each with its own seed), then merge the counts.  All
    inputs must agree on label, operating point, and capacity reference —
    merging different points would silently average apples and oranges.
    """
    if not measurements:
        raise ValueError("need at least one measurement to merge")
    head = measurements[0]
    for m in measurements[1:]:
        if (m.label, m.snr_db, m.capacity_reference) != (
                head.label, head.snr_db, head.capacity_reference):
            raise ValueError(
                "refusing to merge measurements of different points: "
                f"{(head.label, head.snr_db, head.capacity_reference)} vs "
                f"{(m.label, m.snr_db, m.capacity_reference)}"
            )
    return RateMeasurement(
        label=head.label,
        snr_db=head.snr_db,
        n_messages=sum(m.n_messages for m in measurements),
        n_success=sum(m.n_success for m in measurements),
        total_bits=sum(m.total_bits for m in measurements),
        total_symbols=sum(m.total_symbols for m in measurements),
        capacity_reference=head.capacity_reference,
    )


class RatelessScheme:
    """One code plugged into the shared measurement engine.

    Subclasses run a single message over a fresh channel and report
    ``(bits_delivered, symbols_used)``.  Schemes that can decode many
    messages in one vectorised pipeline additionally override
    :meth:`run_cohort`.
    """

    name = "scheme"

    def run_message(
        self, channel: Channel, rng: np.random.Generator
    ) -> tuple[int, int]:
        raise NotImplementedError

    def run_cohort(
        self, channels: Sequence[Channel], rngs: Sequence[np.random.Generator]
    ) -> list[tuple[int, int]]:
        """Run one message per (channel, rng) pair; default is a one-message loop."""
        return [self.run_message(ch, rng) for ch, rng in zip(channels, rngs)]


class SpinalScheme(RatelessScheme):
    """Spinal code adapter for the shared engine.

    ``fixed_passes`` switches off ratelessness: transmit exactly that many
    passes and decode once (the "rated" curves of Figure 8-2).  ``None``
    (the default) runs the usual rateless probe-and-bisect session.
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        n_bits: int,
        give_csi: bool | str = False,
        probe_growth: float = 1.5,
        label: str | None = None,
        fixed_passes: int | None = None,
    ):
        if fixed_passes is not None and fixed_passes < 1:
            raise ValueError("fixed_passes must be >= 1")
        self.params = params
        self.decoder_params = decoder_params
        self.n_bits = n_bits
        self.give_csi = give_csi
        self.probe_growth = probe_growth
        self.fixed_passes = fixed_passes
        self.name = label or f"spinal n={n_bits} k={params.k} B={decoder_params.B}"

    def run_message(
        self, channel: Channel, rng: np.random.Generator
    ) -> tuple[int, int]:
        message = random_message(self.n_bits, rng)
        session = SpinalSession(
            self.params, self.decoder_params, message, channel,
            give_csi=self.give_csi, probe_growth=self.probe_growth,
        )
        if self.fixed_passes is None:
            result = session.run()
        else:
            result = session.run_fixed_rate(self.fixed_passes)
        return (self.n_bits if result.success else 0), result.n_symbols

    def run_cohort(
        self, channels: Sequence[Channel], rngs: Sequence[np.random.Generator]
    ) -> list[tuple[int, int]]:
        """Batched cohort: one vectorised decode pipeline for all messages.

        Messages are drawn per-rng in cohort order — the same draws the
        one-message loop makes — and :class:`BatchSession` runs one-message
        cohorts in sequence itself when a channel's state is not
        message-private, so this is always result-identical to the
        base-class loop.
        """
        messages = np.stack([random_message(self.n_bits, rng) for rng in rngs])
        session = BatchSession(
            self.params, self.decoder_params, messages, list(channels),
            give_csi=self.give_csi, probe_growth=self.probe_growth,
        )
        if self.fixed_passes is None:
            results = session.run()
        else:
            results = session.run_fixed_rate(self.fixed_passes)
        return [
            ((self.n_bits if r.success else 0), r.n_symbols)
            for r in results
        ]


def run_messages(
    scheme: RatelessScheme,
    channel_factory: ChannelFactory,
    n_messages: int,
    seed: int = 0,
    batch_size: int | None = None,
) -> list[tuple[int, int]]:
    """Per-message ``(bits_delivered, symbols_used)`` outcomes at one point.

    The primitive both :func:`measure_scheme` and the adaptive sampler
    build on: every message's RNG derives from the master ``seed`` in
    message order, so the outcome list is a pure function of
    ``(scheme, factory, n_messages, seed)`` regardless of batching.
    ``batch_size`` groups messages into cohorts handed to the scheme's
    :meth:`~RatelessScheme.run_cohort` (vectorised decoding for schemes
    that support it); ``None`` keeps the one-message-at-a-time loop.  Both
    paths consume the master seed identically, so the outcomes are the
    same either way.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    master = np.random.default_rng(seed)
    outcomes: list[tuple[int, int]] = []
    done = 0
    while done < n_messages:
        cohort = 1 if batch_size is None else min(batch_size, n_messages - done)
        rngs = [
            np.random.default_rng(master.integers(0, 2**63))
            for _ in range(cohort)
        ]
        channels = [channel_factory(rng) for rng in rngs]
        if batch_size is None:
            outcomes.append(scheme.run_message(channels[0], rngs[0]))
        else:
            outcomes.extend(scheme.run_cohort(channels, rngs))
        done += cohort
    return outcomes


def measure_scheme(
    scheme: RatelessScheme,
    channel_factory: ChannelFactory,
    snr_db: float,
    n_messages: int,
    seed: int = 0,
    batch_size: int | None = None,
    capacity_reference: str = "awgn",
) -> RateMeasurement:
    """Run ``n_messages`` through a scheme at one operating point.

    A thin aggregation over :func:`run_messages` (which documents the
    seeding and batching contract).
    """
    outcomes = run_messages(
        scheme, channel_factory, n_messages, seed, batch_size)
    total_bits = sum(bits for bits, _ in outcomes)
    total_symbols = sum(symbols for _, symbols in outcomes)
    n_success = sum(bits > 0 for bits, _ in outcomes)
    return RateMeasurement(
        label=scheme.name,
        snr_db=snr_db,
        n_messages=n_messages,
        n_success=n_success,
        total_bits=total_bits,
        total_symbols=total_symbols,
        capacity_reference=capacity_reference,
    )


def measure_spinal_rate(
    params: SpinalParams,
    decoder_params: DecoderParams,
    n_bits: int,
    channel_factory: ChannelFactory,
    snr_db: float,
    n_messages: int,
    seed: int = 0,
    give_csi: bool = False,
    probe_growth: float = 1.5,
    batch_size: int | None = None,
    capacity_reference: str = "awgn",
) -> RateMeasurement:
    """Convenience wrapper for spinal-only experiments."""
    scheme = SpinalScheme(
        params, decoder_params, n_bits,
        give_csi=give_csi, probe_growth=probe_growth,
    )
    return measure_scheme(
        scheme, channel_factory, snr_db, n_messages, seed,
        batch_size=batch_size, capacity_reference=capacity_reference,
    )


def snr_sweep(
    scheme: RatelessScheme,
    make_channel: Callable[[float, np.random.Generator], Channel],
    snrs_db: Sequence[float],
    n_messages: int,
    seed: int = 0,
    batch_size: int | None = None,
    capacity_reference: str = "awgn",
) -> list[RateMeasurement]:
    """Measure a scheme across an SNR range (1 dB steps in the paper)."""
    out = []
    for i, snr in enumerate(snrs_db):
        factory = lambda rng, s=snr: make_channel(s, rng)  # noqa: E731
        out.append(
            measure_scheme(
                scheme, factory, snr, n_messages, seed=seed + 7919 * i,
                batch_size=batch_size, capacity_reference=capacity_reference,
            )
        )
    return out
