"""Per-layer timing for the traced benchmark run, from outside ``src/``.

:func:`install` wraps the public functions of every layer in timing
wrappers.  Nothing in the library changes: functions imported by name are
rebound at their import sites, methods are replaced on their classes, and
the decode kernels are reached by swapping a ``dataclasses.replace`` of the
active :class:`repro.backend.Backend` into the registry (decoders bind the
backend when they are constructed, so :func:`install` must run before any
decoder is built).

Every wrapped call is a span.  A span's *self* time is its duration minus
the duration of the wrapped spans it encloses, so the self times of all
layers plus the unattributed remainder add up to the traced wall time.  A
layer's ``calls`` and ``busy_s`` count only entries from outside the layer
(a layer calling itself adds self time, not a second call).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import time
from typing import Callable

import numpy as np


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counters: dict[str, float] = dataclasses.field(default_factory=dict)


#: ``count(counters, args, kwargs)``: adds work counts derived from a call's
#: arguments, before the call runs.
Counter = Callable[[dict, tuple, dict], None]


class Tracer:
    """The layer table and the open-span stack the wrappers share."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self._child_time: list[float] = []   # one accumulator per open span
        self._open: dict[str, int] = {}

    def stats(self, layer: str) -> LayerStats:
        return self.layers.setdefault(layer, LayerStats())

    def wrap(self, layer: str, fn: Callable, count: Counter | None = None
             ) -> Callable:
        """``fn`` timed as a span of ``layer``."""
        stats = self.stats(layer)
        child_time = self._child_time
        open_spans = self._open
        open_spans.setdefault(layer, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(stats.counters, args, kwargs)
            outer = open_spans[layer] == 0
            open_spans[layer] += 1
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats.self_s += dt - child_time.pop()
                open_spans[layer] -= 1
                if outer:
                    stats.calls += 1
                    stats.busy_s += dt
                if child_time:
                    child_time[-1] += dt

        return traced

    def counting(self, layer: str, fn: Callable, count: Counter) -> Callable:
        """``fn`` untimed, adding ``count`` to ``layer``'s counters."""
        counters = self.stats(layer).counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count(counters, args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def self_total(self) -> float:
        return math.fsum(s.self_s for s in self.layers.values())


def _add(counters: dict, key: str, n: float) -> None:
    counters[key] = counters.get(key, 0) + n


def _hash_words(counters: dict, args: tuple, kwargs: dict) -> None:
    # h(state, data) broadcasts; one output word per broadcast element
    shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
    _add(counters, "words", math.prod(shape))


def _symbol_evals(counters: dict, args: tuple, kwargs: dict) -> None:
    # branch_costs(states, slots, ...): every state against every slot
    _add(counters, "symbol_evals", np.size(args[0]) * np.size(args[1]))


def _one_row(counters: dict, args: tuple, kwargs: dict) -> None:
    _add(counters, "rows", 1)


def _view_rows(counters: dict, args: tuple, kwargs: dict) -> None:
    _add(counters, "rows", args[1].n_rows)


def _iteration(counters: dict, args: tuple, kwargs: dict) -> None:
    _add(counters, "iterations", 1)


def _packet(counters: dict, args: tuple, kwargs: dict) -> None:
    _add(counters, "packets", 1)


#: Functions imported by name: (module, name, layer).
_REBOUND = (
    ("repro.simulation.engine", "transmit_batch", "channels"),
    ("repro.strider.turbo", "max_log_bcjr", "strider.bcjr"),
    ("repro.fountain.raptor", "soft_demap", "modulation.soft_demap"),
    ("repro.strider.strider", "soft_demap", "modulation.soft_demap"),
    ("repro.simulation.sweep", "run_messages", "simulation"),
    ("repro.experiments.orchestrator", "measure_scheme", "simulation"),
    ("repro.experiments.orchestrator", "run_point", "experiments.orchestrator"),
    ("repro.experiments.orchestrator", "run_experiment",
     "experiments.orchestrator"),
)

#: Methods: (module, class, methods, layer, counter).
_METHODS: tuple[tuple[str, str, tuple[str, ...], str, Counter | None], ...] = (
    ("repro.core.decoder", "BubbleDecoder", ("decode",), "core.decoder",
     _one_row),
    ("repro.core.decoder", "BatchBubbleDecoder", ("decode_batch",),
     "core.decoder", _view_rows),
    ("repro.core.encoder", "SpinalEncoder", ("__init__", "generate"),
     "core.encoder", None),
    ("repro.core.encoder", "BatchSpinalEncoder",
     ("__init__", "generate_batch"), "core.encoder", None),
    ("repro.core.symbols", "ReceivedSymbols",
     ("add_block", "prefix", "for_spine"), "core.symbols", None),
    ("repro.core.symbols", "ReceivedPrefix", ("for_spine",), "core.symbols",
     None),
    ("repro.core.symbols", "BatchReceivedSymbols", ("add_block", "prefix"),
     "core.symbols", None),
    ("repro.core.symbols", "BatchReceivedView", ("for_spine",),
     "core.symbols", None),
    ("repro.channels.awgn", "AWGNChannel", ("transmit",), "channels", None),
    ("repro.channels.fading", "RayleighBlockFadingChannel", ("transmit",),
     "channels", None),
    ("repro.channels.shared", "SharedChannel", ("transmit", "advance"),
     "channels", None),
    ("repro.simulation.sweep", "SpinalScheme", ("run_message", "run_cohort"),
     "simulation", None),
    ("repro.simulation.engine", "SpinalSession", ("run", "run_fixed_rate"),
     "simulation", None),
    ("repro.simulation.engine", "BatchSession", ("run", "run_fixed_rate"),
     "simulation", None),
    # The baselines' rateless probe/bisect drivers live beside their codecs
    # but are the same engine layer as the spinal sessions.
    ("repro.fountain.raptor", "RaptorScheme", ("run_message",), "simulation",
     None),
    ("repro.strider.strider", "StriderScheme", ("run_message",),
     "simulation", None),
    ("repro.fountain.raptor", "RaptorCodec", ("__init__",), "fountain.build",
     None),
    ("repro.fountain.raptor", "RaptorCodec", ("encode_intermediate",
                                              "symbols"),
     "fountain.encode", None),
    ("repro.fountain.raptor", "RaptorCodec", ("decode",), "fountain.decode",
     None),
    ("repro.ldpc.bp", "BeliefPropagation", ("__init__",), "ldpc.bp_build",
     None),
    ("repro.ldpc.bp", "BeliefPropagation", ("decode",), "ldpc.bp_decode",
     None),
    ("repro.strider.strider", "StriderCodec", ("__init__",), "strider.build",
     None),
    ("repro.strider.strider", "StriderCodec", ("encode_layers",
                                               "pass_symbols"),
     "strider.encode", None),
    ("repro.strider.strider", "StriderCodec", ("decode",), "strider.decode",
     None),
    ("repro.strider.turbo", "TurboCodec", ("decode",), "strider.turbo", None),
    ("repro.core.framing", "FrameEncoder", ("__init__", "frame", "encoders"),
     "core.framing", None),
    ("repro.core.framing", "FrameDecoder",
     ("__init__", "receive_block_symbols", "try_decode", "try_decode_all",
      "reassemble"), "core.framing", None),
    ("repro.link.protocol", "LinkSession", ("send_packet",), "link", _packet),
    ("repro.link.protocol", "PacketTransmitter", ("__init__",), "link", None),
    ("repro.link.protocol", "PacketTransmitter", ("step",), "link.step", None),
    ("repro.experiments.store", "ResultStore", ("load", "save"),
     "experiments.store", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions; call before building decoders."""
    import repro.backend as registry
    from repro.backend import numpy_backend
    from repro.ldpc.bp import BeliefPropagation

    for module_name, name, layer in _REBOUND:
        module = importlib.import_module(module_name)
        setattr(module, name, tracer.wrap(layer, getattr(module, name)))

    for module_name, cls_name, methods, layer, count in _METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        for method in methods:
            setattr(cls, method, tracer.wrap(layer, cls.__dict__[method], count))

    # One BP iteration computes one set of variable sums.
    BeliefPropagation._var_sums = tracer.counting(
        "ldpc.bp_decode", BeliefPropagation._var_sums, _iteration)

    def traced_hashes(table: dict) -> dict:
        return {name: tracer.wrap("backend.hash", fn, _hash_words)
                for name, fn in table.items()}

    active = registry.get_backend()
    registry._active = dataclasses.replace(
        active,
        hash_fns=traced_hashes(active.hash_fns),
        branch_costs=tracer.wrap("backend.branch_cost", active.branch_costs,
                                 _symbol_evals),
        branch_costs_batch=tracer.wrap(
            "backend.branch_cost", active.branch_costs_batch, _symbol_evals),
        select_beams=tracer.wrap("backend.select", active.select_beams),
    )
    # The numpy branch-cost kernels hash through their own module table,
    # bound lazily on first use: bind it, then wrap it.
    numpy_backend._hash_fn(next(iter(active.hash_fns)))
    numpy_backend._HASHES = traced_hashes(numpy_backend._HASHES)


#: Every traced layer, in report order.
LAYERS = (
    "experiments.orchestrator", "experiments.store", "simulation",
    "core.encoder", "channels", "core.symbols", "core.decoder",
    "backend.hash", "backend.branch_cost", "backend.select",
    "fountain.build", "fountain.encode", "fountain.decode",
    "ldpc.bp_build", "ldpc.bp_decode",
    "strider.build", "strider.encode", "strider.decode", "strider.turbo",
    "strider.bcjr", "modulation.soft_demap", "core.framing",
    "link", "link.step",
)


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    untraced_wall_s: float,
    delivered: int,
    link_totals: dict[str, int],
) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric of a traced run.

    ``delivered`` counts messages (packets) decoded in the traced run and
    ``link_totals`` sums the link records' ``symbols``, ``wasted_symbols``
    and ``retransmissions``.
    """
    def layer(name: str) -> LayerStats:
        return tracer.layers.get(name, LayerStats())

    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        stats = layer(name)
        out[f"{name}.calls"] = (stats.calls, "count")
        out[f"{name}.busy_s"] = (stats.busy_s, "s")
        out[f"{name}.self_s"] = (stats.self_s, "s")
    counters = {name: layer(name).counters for name in LAYERS}
    out["backend.hash.words"] = (counters["backend.hash"].get("words", 0),
                                 "count")
    out["backend.branch_cost.symbol_evals"] = (
        counters["backend.branch_cost"].get("symbol_evals", 0), "count")
    decoder = layer("core.decoder")
    rows = counters["core.decoder"].get("rows", 0)
    out["core.decoder.rows_per_call"] = (
        rows / decoder.calls if decoder.calls else 0.0, "rows")
    attempts = (rows + layer("fountain.decode").calls
                + layer("strider.decode").calls)
    out["simulation.attempts"] = (attempts, "count")
    out["simulation.useful_attempt_frac"] = (
        delivered / attempts if attempts else 0.0, "frac")
    out["ldpc.bp_decode.iterations"] = (
        counters["ldpc.bp_decode"].get("iterations", 0), "count")
    out["link.packets"] = (counters["link"].get("packets", 0), "count")
    symbols = link_totals.get("symbols", 0)
    out["link.wasted_symbol_frac"] = (
        link_totals.get("wasted_symbols", 0) / symbols if symbols else 0.0,
        "frac")
    out["link.retransmissions"] = (link_totals.get("retransmissions", 0),
                                   "count")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.unattributed_s"] = (wall_s - tracer.self_total(), "s")
    out["trace.overhead_frac"] = (wall_s / untraced_wall_s - 1.0, "frac")
    return out
