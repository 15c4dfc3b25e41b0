"""Declarative experiment specs (the orchestration subsystem's vocabulary).

A Monte-Carlo sweep is described entirely by data: which scheme (by
registry name plus JSON-safe constructor options), which channel family
(by :mod:`repro.channels.registry` name), which operating points, how many
messages, which seeds.  Because the description is pure data it can be

- **pickled** to worker processes (the orchestrator's unit of work is one
  :class:`PointSpec`),
- **hashed** to a canonical content address (the store file name and the
  per-point result key), and
- **rebuilt** bit-identically later — the same spec always reruns the
  same simulation, which is what lets the store skip completed points.

Seeds are explicit per point, not derived from grid position at run time,
so a spec can reproduce any legacy benchmark's exact seeding policy (the
migrated benches carry ``seed = base + stride * i`` and
``seed = int(snr) + tau`` style formulas into their specs verbatim).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.channels.registry import channel_family
from repro.core.params import DecoderParams, SpinalParams
from repro.simulation.sweep import RatelessScheme, SpinalScheme
from repro.utils.results import canonical_json

__all__ = [
    "ADAPTIVE_INTERVALS",
    "AdaptivePolicy",
    "ChannelSpec",
    "ExperimentSpec",
    "PointSpec",
    "SchemeSpec",
    "grid",
    "make_scheme",
    "point_hash",
    "register_scheme",
    "scheme_kinds",
    "spec_hash",
]


def grid(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive-endpoint arithmetic grid (the paper sweeps SNR in 1 dB
    steps from ``lo`` to ``hi``; the endpoint must not fall off the edge
    to float error)."""
    return [float(x) for x in np.arange(lo, hi + 1e-9, step)]


# --------------------------------------------------------------------------
# scheme registry: name -> factory over JSON-safe options
# --------------------------------------------------------------------------

SchemeFactory = Callable[..., RatelessScheme]

_SCHEMES: dict[str, SchemeFactory] = {}


def register_scheme(kind: str, factory: SchemeFactory) -> None:
    """Register a scheme constructor reachable by name from a spec."""
    _SCHEMES[kind] = factory


def scheme_kinds() -> list[str]:
    return sorted(_SCHEMES)


def _make_spinal(
    n_bits: int,
    params: Mapping | None = None,
    decoder: Mapping | None = None,
    give_csi: bool | str = False,
    probe_growth: float = 1.5,
    label: str | None = None,
    fixed_passes: int | None = None,
) -> RatelessScheme:
    return SpinalScheme(
        SpinalParams(**dict(params or {})),
        DecoderParams(**dict(decoder or {})),
        n_bits,
        give_csi=give_csi,
        probe_growth=probe_growth,
        label=label,
        fixed_passes=fixed_passes,
    )


def _make_raptor(**options: object) -> RatelessScheme:
    from repro.fountain import RaptorScheme
    return RaptorScheme(**options)


def _make_strider(**options: object) -> RatelessScheme:
    from repro.strider import StriderScheme
    return StriderScheme(**options)


register_scheme("spinal", _make_spinal)
register_scheme("raptor", _make_raptor)
register_scheme("strider", _make_strider)


# --------------------------------------------------------------------------
# spec dataclasses
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    """A scheme by registry name plus JSON-safe constructor options."""

    kind: str
    options: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, record: Mapping) -> "SchemeSpec":
        return cls(kind=record["kind"], options=dict(record.get("options", {})))


def make_scheme(spec: SchemeSpec) -> RatelessScheme:
    """Instantiate the live scheme a spec describes (in the worker)."""
    try:
        factory = _SCHEMES[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown scheme kind {spec.kind!r}; "
            f"expected one of {scheme_kinds()}"
        ) from None
    return factory(**spec.options)


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family by registry name plus family options."""

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        channel_family(self.kind)  # fail at spec-build time, not in workers

    def as_dict(self) -> dict:
        return {"kind": self.kind, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, record: Mapping) -> "ChannelSpec":
        return cls(kind=record["kind"], options=dict(record.get("options", {})))


#: Interval estimators the adaptive sampler supports.  ``"mean"`` targets
#: the mean per-message rate (the original behaviour); ``"ratio"`` targets
#: the pooled bits/symbols rate the final ``RateMeasurement`` actually
#: reports, via the delta-method variance of the ratio estimator.
ADAPTIVE_INTERVALS = ("mean", "ratio")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Sequential-sampling stopping rule for one operating point.

    Messages are run in growing cohorts until the normal-approximation
    confidence half-width of the chosen rate estimator falls to
    ``target_half_width`` (or ``max_messages`` is reached).  All cohort
    seeds derive from the point seed, so the trial count at which sampling
    stops is deterministic.

    ``interval`` picks the estimator the half-width is computed for:
    ``"mean"`` (default) is the mean of per-message ``bits/symbols``
    rates; ``"ratio"`` is the pooled ``sum(bits)/sum(symbols)`` rate via
    the delta method.  The default is unchanged so existing spec hashes
    and stopping points stay stable (``as_dict`` omits the field at its
    default for the same reason).
    """

    target_half_width: float
    confidence: float = 0.95
    initial_messages: int = 8
    growth: float = 2.0
    max_messages: int = 512
    interval: str = "mean"

    def __post_init__(self) -> None:
        if self.target_half_width <= 0:
            raise ValueError("target_half_width must be > 0")
        if self.initial_messages < 2:
            raise ValueError("initial_messages must be >= 2 (need a variance)")
        if self.growth <= 1.0:
            raise ValueError("growth must be > 1")
        if self.max_messages < self.initial_messages:
            raise ValueError("max_messages must be >= initial_messages")
        if self.interval not in ADAPTIVE_INTERVALS:
            raise ValueError(
                f"unknown interval {self.interval!r}; "
                f"expected one of {ADAPTIVE_INTERVALS}")

    def as_dict(self) -> dict:
        record = {
            "target_half_width": self.target_half_width,
            "confidence": self.confidence,
            "initial_messages": self.initial_messages,
            "growth": self.growth,
            "max_messages": self.max_messages,
        }
        if self.interval != "mean":
            # keep pre-existing content hashes stable: specs written before
            # the knob existed hash a 5-field policy
            record["interval"] = self.interval
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "AdaptivePolicy":
        return cls(**dict(record))


@dataclass(frozen=True)
class PointSpec:
    """One fully-specified operating point (the orchestrator's job unit).

    ``kind`` selects the job runner:

    - ``"measure"`` feeds a scheme through
      :func:`repro.simulation.sweep.measure_scheme` (pooled
      ``RateMeasurement`` record);
    - ``"ldpc_envelope"`` evaluates the fixed-rate LDPC best envelope
      (which reports a rate directly rather than per-message outcomes);
    - ``"link"`` runs one :class:`repro.link.runner.LinkJob` — a
      packet-level ARQ flow with framing/feedback cost — through the same
      deterministic worker pool (``options``: ``job_id``, ``n_packets``,
      ``payload_bytes``, ``params``, ``decoder``, ``config``);
    - ``"symbol_cdf"`` records the distributional payload behind Figure
      8-11: per-message symbol counts of successful decodes (``options``:
      ``n_bits``, ``params``, ``decoder``, ``probe_growth``);
    - ``"papr"`` measures an OFDM PAPR table row (``options``:
      ``constellation``, ``n_ofdm_symbols``).

    ``x`` is the channel family's operating-point scalar — SNR in dB, or
    flip probability for a BSC (for ``"papr"`` it is just the table row
    index).  ``options`` carries the kind-specific extras listed above
    (for the envelope: ``n_blocks``, ``iterations``).
    """

    series: str
    x: float
    seed: int
    kind: str = "measure"
    scheme: SchemeSpec | None = None
    channel: ChannelSpec | None = None
    n_messages: int = 1
    batch_size: int | None = None
    capacity_reference: str = "awgn"
    adaptive: AdaptivePolicy | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind == "measure" and (
                self.scheme is None or self.channel is None):
            raise ValueError("measure points need a scheme and a channel")
        if self.kind in ("link", "symbol_cdf") and self.channel is None:
            raise ValueError(f"{self.kind} points need a channel")

    def as_dict(self) -> dict:
        return {
            "series": self.series,
            "x": float(self.x),
            "seed": int(self.seed),
            "kind": self.kind,
            "scheme": self.scheme.as_dict() if self.scheme else None,
            "channel": self.channel.as_dict() if self.channel else None,
            "n_messages": int(self.n_messages),
            "batch_size": self.batch_size,
            "capacity_reference": self.capacity_reference,
            "adaptive": self.adaptive.as_dict() if self.adaptive else None,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "PointSpec":
        return cls(
            series=record["series"],
            x=float(record["x"]),
            seed=int(record["seed"]),
            kind=record.get("kind", "measure"),
            scheme=(SchemeSpec.from_dict(record["scheme"])
                    if record.get("scheme") else None),
            channel=(ChannelSpec.from_dict(record["channel"])
                     if record.get("channel") else None),
            n_messages=int(record.get("n_messages", 1)),
            batch_size=record.get("batch_size"),
            capacity_reference=record.get("capacity_reference", "awgn"),
            adaptive=(AdaptivePolicy.from_dict(record["adaptive"])
                      if record.get("adaptive") else None),
            options=dict(record.get("options", {})),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep: metadata plus the flat list of operating points."""

    experiment_id: str
    title: str
    profile: str
    points: tuple[PointSpec, ...]

    def as_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "profile": self.profile,
            "points": [p.as_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "ExperimentSpec":
        return cls(
            experiment_id=record["experiment_id"],
            title=record["title"],
            profile=record.get("profile", "quick"),
            points=tuple(PointSpec.from_dict(p) for p in record["points"]),
        )

    def series_labels(self) -> list[str]:
        seen: list[str] = []
        for p in self.points:
            if p.series not in seen:
                seen.append(p.series)
        return seen


def _digest(payload: object) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def _hash_payload(point: PointSpec) -> dict:
    """The result-determining fields of a point.

    ``batch_size`` is an execution-strategy knob, not part of the result:
    a cohort is bit-identical to one-message runs (the
    ``run_messages`` contract, asserted by ``tests/test_batch_equivalence``
    for every channel family), so rebatching a sweep must keep its content
    address — otherwise tuning the knob silently discards every cached
    point.
    """
    payload = point.as_dict()
    del payload["batch_size"]
    return payload


def point_hash(point: PointSpec) -> str:
    """Content address of one operating point (the store's result key)."""
    return _digest(_hash_payload(point))


def spec_hash(spec: ExperimentSpec) -> str:
    """Content address of the whole spec (the store's file name)."""
    payload = spec.as_dict()
    payload["points"] = [_hash_payload(p) for p in spec.points]
    return _digest(payload)
