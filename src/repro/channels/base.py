"""Channel interface shared by the simulation engine.

A channel transforms a block of transmitted symbols into received
observations.  Channels are stateful where the model demands it (block
fading keeps its coefficient across call boundaries) and own their noise
RNG so experiments are reproducible from a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Channel", "ChannelOutput", "transmit_batch"]


@dataclass
class ChannelOutput:
    """Received values plus per-symbol channel state information.

    ``csi`` is the complex channel coefficient for each symbol when the
    model has one (fading); ``None`` for memoryless channels.  Whether the
    *decoder* is shown the CSI is the experiment's choice (Figures 8-4 vs
    8-5), not the channel's.
    """

    values: np.ndarray
    csi: np.ndarray | None = None


class Channel:
    """Base channel. Subclasses implement :meth:`transmit`."""

    #: True when inputs/outputs live on the I-Q plane.
    complex_valued = True

    #: True when the channel draws each output independently of earlier
    #: blocks (AWGN, BSC).  Stateful models (block fading, the shared-medium
    #: clock) set this False.
    memoryless = True

    #: True when :meth:`transmit` reports per-symbol coefficients in
    #: ``ChannelOutput.csi`` (fading models).  The batch engine uses this
    #: to keep cohorts CSI-homogeneous — its store's CSI plane is
    #: all-or-nothing across rows, so mixed cohorts run one message at a
    #: time.
    reports_csi = False

    @property
    def private_state(self) -> bool:
        """True when any channel state is private to this instance.

        The batched Monte-Carlo engine requires each message's output
        stream to be a pure function of its channel's constructor
        arguments and its own sequence of :meth:`transmit` calls; it
        runs channels that can't promise this one message at a time.
        Memoryless channels qualify trivially (the conservative default
        this property derives).  Stateful models qualify only if
        their state is *not* coupled across instances or flows, and must
        opt in with an explicit class attribute after auditing — block
        fading does (its coherence block is per-instance); the
        shared-medium symbol clock must not (its state is shared across
        flows).
        """
        return self.memoryless

    def transmit(self, symbols: np.ndarray) -> ChannelOutput:
        raise NotImplementedError

    def __call__(self, symbols: np.ndarray) -> ChannelOutput:
        return self.transmit(symbols)

    def reset(self) -> None:
        """Clear any cross-block state (default: nothing to clear)."""


def transmit_batch(
    channels: list[Channel], values: np.ndarray
) -> ChannelOutput:
    """Transmit row ``m`` of ``values`` through ``channels[m]``.

    Each message keeps its *own* channel (and noise generator), so the draws
    are exactly the ones a one-message run would make for that message — the
    invariant the batched Monte-Carlo engine's bit-identical guarantee rests
    on.  Returns one :class:`ChannelOutput` whose rows stack the per-message
    outputs; ``csi`` stacks the per-symbol coefficients when the channels
    report them (fading cohorts) and is ``None`` when they don't.  A cohort
    must be homogeneous: some channels reporting CSI and others not would
    leave rows of the CSI plane silently meaningless, so that raises.
    """
    if len(channels) != values.shape[0]:
        raise ValueError("one channel per message row required")
    out = np.empty(values.shape, dtype=np.float64
                   if not channels[0].complex_valued else np.complex128)
    csi: np.ndarray | None = None
    for m, channel in enumerate(channels):
        received = channel.transmit(values[m])
        out[m] = received.values
        if received.csi is not None:
            if m == 0:
                csi = np.empty(values.shape, dtype=np.complex128)
            elif csi is None:
                raise ValueError("cohort mixes CSI-reporting and CSI-less channels")
            csi[m] = received.csi
        elif csi is not None:
            raise ValueError("cohort mixes CSI-reporting and CSI-less channels")
    return ChannelOutput(out, csi=csi)
