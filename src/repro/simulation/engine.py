"""Rateless sessions: encoder -> channel -> bubble decoder.

The paper's receiver attempts a decode after (roughly) every punctured
subpass and stops at the first success (§5, §8.4).  Replaying a decode
attempt after literally every subpass is what the hardware does, but in a
software harness the cost of attempts dominates; this engine instead finds
the *same answer* — the minimal number of subpasses after which decoding
succeeds — with geometric probing followed by bisection.  Decode success is
(near-)monotone in the received prefix, so the bisected minimum matches the
exhaustive scan with overwhelming probability while running ~5x fewer
attempts.  (Set ``probe_growth=1`` to force the exhaustive per-subpass scan
the paper describes.)

:class:`BatchSession` is the one session implementation: it runs M
independent messages as a cohort.  At every probe point all
still-undecoded messages are decoded together by one vectorised bubble
search (and bisection steps are grouped by probe point), which amortises
the per-step numpy call overhead over the whole cohort.  The cohort owns
**one** incremental symbol store: subpasses are appended as they are
transmitted and every decode attempt reads an O(1) prefix view of it (a
per-subpass checkpoint cursor), so probing and bisection never rebuild
symbol storage.  :class:`SpinalSession` is the one-message cohort (M=1).

A cohort of M > 1 requires **per-message channel ownership**
(``Channel.private_state``, and no instance shared between rows): each
message's channel state and RNG stream must be a pure function of that
message's own transmit sequence, which the cohort preserves — a row
transmits the same subpass blocks, in the same order, as it would alone,
and leaves the cohort at exactly the subpass where it would stop alone.
That makes stateful-but-private models (Rayleigh block fading, whose
coherence block spans transmit calls) batchable, and CSI-consuming decodes
batch too: the store carries a per-message CSI plane and the decoder the
coherent ``|y - h x|^2`` metric (the "phase" policy derotates at receive
time).  Cohorts whose channels share state *across* instances — the
shared-medium symbol clock — run as M one-message cohorts in sequence,
which reproduces each message's transmit order exactly.

Success is judged against the transmitted message (oracle mode, standard
for rate curves — it measures code performance without protocol overhead).
CRC-based realistic framing lives in :mod:`repro.core.framing`.

Oracle mode also lets a rateless attempt stop early: :meth:`BatchSession.run`
hands the bubble search the cohort's transmitted spine states, and the
search drops a row at the step where its true state leaves the beam, after
which the attempt cannot succeed (the soundness argument is in
:mod:`repro.core.decoder`).  Success flags, symbol, subpass and attempt
counts are exactly those of the full search.  A successful session reports
the path cost of its successful attempt (the one at the minimal prefix).
:meth:`BatchSession.run_fixed_rate` keeps the full search, because a failed
fixed-rate shot reports the cost of the path it settled on; so do the
CRC-framed link decodes and direct ``BubbleDecoder.decode`` calls, which
need the decoded bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.channels.base import Channel, ChannelOutput, transmit_batch
from repro.core.decoder import BatchBubbleDecoder
from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedSymbols
from repro.obs import OBS

__all__ = [
    "SpinalSession",
    "BatchSession",
    "SessionResult",
    "csi_mode",
    "received_view",
    "probe_schedule",
]


def csi_mode(give_csi: bool | str) -> str:
    """Normalise the CSI knob: True -> 'full', False -> 'none'."""
    if give_csi is True:
        return "full"
    if give_csi is False:
        return "none"
    if give_csi in ("full", "phase", "none"):
        return give_csi
    raise ValueError(f"unknown CSI mode {give_csi!r}")


def received_view(out: ChannelOutput, mode: str) -> tuple[np.ndarray, np.ndarray | None]:
    """What the receiver actually sees under a CSI policy.

    Returns ``(values, csi)``: with ``"full"`` CSI the decoder is shown the
    exact per-symbol coefficients (Figure 8-4); with ``"phase"`` the carrier
    is recovered (derotation) but amplitude stays unknown (Figure 8-5); with
    ``"none"`` the raw observations are decoded as plain AWGN.  Shared by the
    single-message engine and the packet link layer so both receivers treat
    fading identically.
    """
    values, csi = out.values, None
    if out.csi is not None:
        if mode == "full":
            csi = out.csi
        elif mode == "phase":
            # Carrier recovery: derotate, stay blind to |h|.
            values = values * np.exp(-1j * np.angle(out.csi))
    return values, csi


def probe_schedule(probe_growth: float, max_subpasses: int) -> list[int]:
    """Subpass counts at which a session attempts a decode.

    The schedule is the same for every message at an operating point, which
    is what lets :class:`BatchSession` decode a whole cohort per probe.
    """
    schedule: list[int] = []
    g = 1
    while g <= max_subpasses:
        schedule.append(g)
        if probe_growth == 1.0:
            g += 1
        else:
            nxt = min(max(g + 1, math.ceil(g * probe_growth)), max_subpasses)
            if nxt == g:
                break
            g = nxt
    return schedule


@dataclass
class SessionResult:
    """Outcome of transmitting one message ratelessly."""

    success: bool
    n_symbols: int          # symbols consumed (minimal prefix on success)
    n_subpasses: int        # subpasses consumed
    n_bits: int             # message length
    n_attempts: int         # decode attempts executed
    # Cost of the decode at n_subpasses: the successful attempt, or the
    # fixed-rate shot; NaN for a rateless message never decoded.
    path_cost: float = float("nan")

    @property
    def rate(self) -> float:
        """Bits per symbol delivered (0 when the message was given up)."""
        if not self.success or self.n_symbols == 0:
            return 0.0
        return self.n_bits / self.n_symbols


class BatchSession:
    """Runs M independent rateless sessions as one decode cohort.

    Every message gets its own channel (and therefore its own noise
    stream); the decode pipeline is shared.  At each probe point of the
    common schedule, all still-undecoded messages are decoded in one
    batched bubble search; bisection steps are grouped by probe point the
    same way.  Per message, the outcome — success flag, symbol, subpass
    and attempt counts, path cost — is the one that message gets in a
    cohort of its own.

    A cohort of more than one message runs batched when its channels are
    per-message (``Channel.private_state``, one distinct instance per row)
    and either all or none report CSI; otherwise (shared-medium channels,
    one instance reused across rows, mixed channel families) it runs as M
    one-message cohorts in sequence — see the module docstring for why.

    Parameters
    ----------
    params, decoder_params: code and decoder configuration.
    messages: uint8 array of shape (M, n_bits).
    channels: one :class:`~repro.channels.base.Channel` per message.
    give_csi, probe_growth: as in :class:`SpinalSession`.
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        messages: np.ndarray,
        channels: list[Channel],
        give_csi: bool | str = False,
        probe_growth: float = 1.5,
    ):
        self.params = params
        self.dec = decoder_params
        self.messages = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
        if len(channels) != self.messages.shape[0]:
            raise ValueError("one channel per message required")
        self.channels = list(channels)
        self.csi_mode = csi_mode(give_csi)
        if probe_growth < 1.0:
            raise ValueError("probe_growth must be >= 1")
        self.probe_growth = probe_growth

    @property
    def n_messages(self) -> int:
        return self.messages.shape[0]

    def _can_batch(self) -> bool:
        # One message is always its own cohort.  For more, the real
        # precondition is per-message channel ownership: a row's transmit
        # stream must depend only on its own call sequence (which the
        # cohort reproduces exactly), so stateful-but-private models like
        # block fading batch fine.  Shared-state channels cannot, and
        # neither can one instance reused across rows — interleaved cohort
        # transmits would consume its RNG/state in a different order than
        # M sequential sessions.  The cohort must also be CSI-homogeneous
        # (the store's CSI plane is all-or-nothing across rows).
        return (self.n_messages == 1
                or (all(ch.private_state for ch in self.channels)
                    and len({id(ch) for ch in self.channels}) == self.n_messages
                    and len({ch.reports_csi for ch in self.channels}) == 1))

    def _singles(self) -> list[BatchSession]:
        """One one-message cohort per row, to run in sequence."""
        return [
            BatchSession(self.params, self.dec, self.messages[m:m + 1],
                         [channel], give_csi=self.csi_mode,
                         probe_growth=self.probe_growth)
            for m, channel in enumerate(self.channels)
        ]

    def run(self) -> list[SessionResult]:
        """Rateless transmission of the cohort; one result per message."""
        if not self._can_batch():
            return [r for single in self._singles() for r in single.run()]
        M = self.n_messages
        cohort = _Cohort(self)
        max_subpasses = self.dec.max_passes * cohort.subpasses_per_pass
        lo = np.zeros(M, dtype=np.int64)
        hi: list[int | None] = [None] * M
        # The path cost of each row's decode at hi: its successful attempt.
        hi_cost = np.full(M, float("nan"))

        # Geometric probing, whole cohort at a time.
        active = np.arange(M, dtype=np.intp)
        for g in probe_schedule(self.probe_growth, max_subpasses):
            if active.size == 0:
                break
            ok, cost = cohort.attempt(active, g, oracle=True)
            for m in active[ok]:
                hi[m] = g
            hi_cost[active[ok]] = cost[ok]
            lo[active[~ok]] = g
            active = active[~ok]

        # Bisection, grouped by probe point so equal mids share one decode.
        pending = [m for m in range(M) if hi[m] is not None]
        while True:
            mids: dict[int, list[int]] = {}
            for m in pending:
                if hi[m] - lo[m] > 1:
                    mids.setdefault((lo[m] + hi[m]) // 2, []).append(m)
            if not mids:
                break
            for mid, members in sorted(mids.items()):
                ok, cost = cohort.attempt(
                    np.asarray(members, dtype=np.intp), mid, oracle=True)
                for j, m in enumerate(members):
                    if ok[j]:
                        hi[m] = mid
                        hi_cost[m] = cost[j]
                    else:
                        lo[m] = mid

        # A message never decoded was sent every probe point, the last of
        # which is max_subpasses.
        return [
            cohort.result(m, max_subpasses, False) if hi[m] is None
            else cohort.result(m, hi[m], True, hi_cost[m])
            for m in range(M)
        ]

    def run_fixed_rate(self, n_passes: int) -> list[SessionResult]:
        """Fixed-rate cohort (Figure 8-2): L passes each, one batched decode."""
        if n_passes < 1:
            raise ValueError("n_passes must be >= 1")
        if not self._can_batch():
            return [r for single in self._singles()
                    for r in single.run_fixed_rate(n_passes)]
        cohort = _Cohort(self)
        n_subpasses = n_passes * cohort.subpasses_per_pass
        # The full search: a failed shot still reports the cost of the path
        # it settled on.
        ok, cost = cohort.attempt(np.arange(self.n_messages, dtype=np.intp),
                                  n_subpasses, oracle=False)
        return [cohort.result(m, n_subpasses, bool(ok[m]), cost[m])
                for m in range(self.n_messages)]


class _Cohort:
    """The shared pipeline of one batched cohort: encoder, incremental
    store with per-subpass checkpoints, decoder, and per-row attempt
    bookkeeping."""

    def __init__(self, session: BatchSession):
        self._session = session
        self._encoder = BatchSpinalEncoder(session.params, session.messages)
        self._decoder = BatchBubbleDecoder(
            session.params, session.dec, session.messages.shape[1])
        self._store = BatchReceivedSymbols(
            self._encoder.n_spine, session.n_messages,
            complex_valued=not session.params.is_bsc)
        self._checkpoints = [self._store.checkpoint()]
        self._cum_symbols = [0]
        self.subpasses_per_pass = self._encoder.subpasses_per_pass
        self.n_attempts = np.zeros(session.n_messages, dtype=np.int64)

    def _ensure(self, rows: np.ndarray, count: int) -> None:
        """Transmit up to ``count`` subpasses for the messages in rows.

        Only still-active rows transmit — a decoded message's channel
        stops drawing noise at exactly the subpass where it would stop
        alone.
        """
        session = self._session
        while len(self._checkpoints) - 1 < count:
            block = self._encoder.generate_batch(
                len(self._checkpoints) - 1, rows=rows)
            received = transmit_batch(
                [session.channels[m] for m in rows], block.values)
            values, csi = received_view(received, session.csi_mode)
            self._store.add_block(block.spine_indices, block.slots, values,
                                  rows=rows, csi=csi)
            self._checkpoints.append(self._store.checkpoint())
            self._cum_symbols.append(self._cum_symbols[-1] + len(block))

    def attempt(self, rows: np.ndarray, n_subpasses: int,
                oracle: bool) -> tuple[np.ndarray, np.ndarray]:
        """Batched decode of ``rows`` at a prefix.

        Returns the success mask and each row's path cost.  With
        ``oracle`` the search is given the transmitted spines and drops a
        row as soon as it cannot succeed (NaN cost); without it every row
        is searched in full.
        """
        self._ensure(rows, n_subpasses)
        view = self._store.prefix(rows, self._checkpoints[n_subpasses])
        true_spines = self._encoder.spines[rows] if oracle else None
        OBS.counter("decode.attempts", rows.size)
        with OBS.span("decode.cohort", rows=int(rows.size),
                      subpasses=int(n_subpasses)):
            results = self._decoder.decode_batch(view, true_spines)
        messages = self._session.messages
        ok = np.zeros(rows.size, dtype=bool)
        cost = np.full(rows.size, float("nan"))
        for j, m in enumerate(rows):
            self.n_attempts[m] += 1
            result = results[j]
            if result is not None:
                ok[j] = result.matches(messages[m])
                cost[j] = result.path_cost
        return ok, cost

    def result(self, m: int, n_subpasses: int, success: bool,
               path_cost: float = float("nan")) -> SessionResult:
        """Row ``m``'s outcome after ``n_subpasses`` subpasses."""
        return SessionResult(
            success=success,
            n_symbols=self._cum_symbols[n_subpasses],
            n_subpasses=int(n_subpasses),
            n_bits=self._session.messages.shape[1],
            n_attempts=int(self.n_attempts[m]),
            path_cost=float(path_cost),
        )


class SpinalSession:
    """Drives one message through the rateless loop: a one-message
    :class:`BatchSession`.

    Parameters
    ----------
    params, decoder_params: code and decoder configuration.
    message_bits: the n-bit message to convey.
    channel: a :class:`repro.channels.Channel`; transmitted through in
        subpass order so stateful models (fading) behave correctly.
    give_csi: CSI available to the decoder when the channel reports
        coefficients: ``True``/"full" = exact per-symbol h (Figure 8-4);
        "phase" = carrier-phase recovery only, amplitude unknown — the
        realistic "no detailed fading information" receiver of Figure 8-5;
        ``False``/"none" = decode the raw observations as plain AWGN.
    probe_growth: geometric factor for the decode-attempt schedule
        (1 = attempt after every subpass, exactly as in the paper).
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        message_bits: np.ndarray,
        channel: Channel,
        give_csi: bool | str = False,
        probe_growth: float = 1.5,
    ):
        self.params = params
        self.message_bits = np.asarray(message_bits, dtype=np.uint8)
        self._session = BatchSession(
            params, decoder_params, self.message_bits[None, :], [channel],
            give_csi=give_csi, probe_growth=probe_growth,
        )

    @cached_property
    def encoder(self) -> SpinalEncoder:
        """This message's encoder (built on first access, for inspection)."""
        return SpinalEncoder(self.params, self.message_bits)

    def run(self) -> SessionResult:
        """Rateless transmission until decoded or ``max_passes`` exhausted."""
        return self._session.run()[0]

    def run_fixed_rate(self, n_passes: int) -> SessionResult:
        """Fixed-rate variant (Figure 8-2): send exactly L passes, decode once."""
        return self._session.run_fixed_rate(n_passes)[0]
