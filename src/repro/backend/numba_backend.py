"""The numba backend: JIT-compiled scalar loops for the decode hot path.

The numpy reference kernels are many-pass: ``one_at_a_time`` alone makes
~30 full-array sweeps per call, and the branch-cost evaluation adds the
hash, two gather passes, and the distance arithmetic as separate
traversals.  This backend fuses each family into a single ``@njit``
scalar loop — one pass over the candidate states, hash and distance
computed per element in registers — which is where the ≥5x ``kernel.hash``
/ ≥3x cohort-decode targets gated by ``repro.obs.perf compare`` come from.

Bit-identical output is the contract (see :mod:`repro.backend.base`):

- Hash words: all integer math runs in ``uint64`` with explicit mod-2^32
  masking.  Intermediates never leave ``[0, 2^64)`` — subtraction is
  rewritten ``x - y  ->  x + (2^32 - y)`` — so the arithmetic is exact in
  both the compiled and the pure-Python (numba-absent) form, and equals
  the reference's native ``uint32`` wrap-around.  The committed golden
  vectors in ``tests/test_backend.py`` are the instant red/green signal.
- Branch costs: the fused loop keeps the reference float64 operation
  order — per slot ``fl(fl(dr*dr) + fl(dq*dq))`` accumulated in ascending
  slot order (numpy's leading-axis reduction is sequential over slots),
  and the coherent CSI metric decomposes the complex product exactly as
  numpy does (``re = h.re*x_i - h.im*x_q``, ``im = h.re*x_q + h.im*x_i``).
  numba's default (no fastmath) does not contract into FMAs, so every
  rounding step matches IEEE-wise.
- Beam selection: shared with the numpy backend — ``argpartition``
  introselect *order* is part of the decode contract, so it is not
  re-implemented here.

When numba is absent, ``@njit`` degrades to an identity decorator (the
kernels stay importable and unit-testable as pure Python) and
:func:`make_backend` returns the numpy backend with a one-time
:class:`~repro.backend.base.BackendFallbackWarning`.

Observability: the fused kernel cannot split hash time from distance
time, so a branch-cost call is timed wholly as ``kernel.branch_cost``;
``kernel.hash`` then counts only the decoder's tree-expansion hashes.
The numpy backend keeps the historical split — compare like with like.
"""

from __future__ import annotations

import warnings
from typing import Any

import numpy as np

from repro.backend.base import Backend, BackendFallbackWarning, HashFn
from repro.obs import OBS, clock

__all__ = ["NUMBA_AVAILABLE", "make_backend"]

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via the CI numba leg
    NUMBA_AVAILABLE = False

    def njit(*args: Any, **kwargs: Any) -> Any:  # type: ignore[misc]
        """Identity decorator: keeps the kernels testable without numba."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn: Any) -> Any:
            return fn

        return wrap


_M32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(0x100000000)

# Hash dispatch ids: numba specializes on the int, avoiding function-valued
# arguments (which defeat cache=True).
_HASH_IDS = {"one_at_a_time": 0, "lookup3": 1, "salsa20": 2}


@njit(cache=True)
def _rotl(x: np.uint64, k: np.uint64) -> np.uint64:
    """32-bit left rotation of a masked (< 2^32) uint64 value."""
    return ((x << k) & _M32) | (x >> (np.uint64(32) - k))


@njit(cache=True)
def _oaat_word(s: np.uint64, d: np.uint64) -> np.uint64:
    """Jenkins one-at-a-time of the 4+4 little-endian bytes of (s, d)."""
    h = np.uint64(0)
    for w in (s, d):
        for shift in (np.uint64(0), np.uint64(8), np.uint64(16),
                      np.uint64(24)):
            h = (h + ((w >> shift) & np.uint64(0xFF))) & _M32
            h = (h + (h << np.uint64(10))) & _M32
            h = h ^ (h >> np.uint64(6))
    h = (h + (h << np.uint64(3))) & _M32
    h = h ^ (h >> np.uint64(11))
    h = (h + (h << np.uint64(15))) & _M32
    return h


@njit(cache=True)
def _lookup3_word(s: np.uint64, d: np.uint64) -> np.uint64:
    """Jenkins lookup3 ``hashword`` of the two words (s, d).

    Each ``final()`` step is ``x = (x ^ y) - rot(y, k)`` mod 2^32, written
    as ``+ (2^32 - rot)`` so the uint64 intermediate never underflows.
    """
    init = np.uint64(0xDEADBEEF + (2 << 2))
    a = (init + s) & _M32
    b = (init + d) & _M32
    c = init
    c = ((c ^ b) + (_TWO32 - _rotl(b, np.uint64(14)))) & _M32
    a = ((a ^ c) + (_TWO32 - _rotl(c, np.uint64(11)))) & _M32
    b = ((b ^ a) + (_TWO32 - _rotl(a, np.uint64(25)))) & _M32
    c = ((c ^ b) + (_TWO32 - _rotl(b, np.uint64(16)))) & _M32
    a = ((a ^ c) + (_TWO32 - _rotl(c, np.uint64(4)))) & _M32
    b = ((b ^ a) + (_TWO32 - _rotl(a, np.uint64(14)))) & _M32
    c = ((c ^ b) + (_TWO32 - _rotl(b, np.uint64(24)))) & _M32
    return c


@njit(cache=True)
def _salsa20_word(s: np.uint64, d: np.uint64) -> np.uint64:
    """Salsa20 core (20 rounds) as a (state, data) -> word mixer.

    Input block: "expand 32-byte k" constants on the diagonal, state in
    word 1, data in word 2, rest zero; output is word 0 of the
    feed-forward xored with word 1, matching the reference exactly.
    """
    x0 = np.uint64(0x61707865)
    x1 = s
    x2 = d
    x3 = np.uint64(0)
    x4 = np.uint64(0)
    x5 = np.uint64(0x3320646E)
    x6 = np.uint64(0)
    x7 = np.uint64(0)
    x8 = np.uint64(0)
    x9 = np.uint64(0)
    x10 = np.uint64(0x79622D32)
    x11 = np.uint64(0)
    x12 = np.uint64(0)
    x13 = np.uint64(0)
    x14 = np.uint64(0)
    x15 = np.uint64(0x6B206574)
    for _ in range(10):
        # column round: quadruples (0,4,8,12) (5,9,13,1) (10,14,2,6) (15,3,7,11)
        x4 = x4 ^ _rotl((x0 + x12) & _M32, np.uint64(7))
        x8 = x8 ^ _rotl((x4 + x0) & _M32, np.uint64(9))
        x12 = x12 ^ _rotl((x8 + x4) & _M32, np.uint64(13))
        x0 = x0 ^ _rotl((x12 + x8) & _M32, np.uint64(18))
        x9 = x9 ^ _rotl((x5 + x1) & _M32, np.uint64(7))
        x13 = x13 ^ _rotl((x9 + x5) & _M32, np.uint64(9))
        x1 = x1 ^ _rotl((x13 + x9) & _M32, np.uint64(13))
        x5 = x5 ^ _rotl((x1 + x13) & _M32, np.uint64(18))
        x14 = x14 ^ _rotl((x10 + x6) & _M32, np.uint64(7))
        x2 = x2 ^ _rotl((x14 + x10) & _M32, np.uint64(9))
        x6 = x6 ^ _rotl((x2 + x14) & _M32, np.uint64(13))
        x10 = x10 ^ _rotl((x6 + x2) & _M32, np.uint64(18))
        x3 = x3 ^ _rotl((x15 + x11) & _M32, np.uint64(7))
        x7 = x7 ^ _rotl((x3 + x15) & _M32, np.uint64(9))
        x11 = x11 ^ _rotl((x7 + x3) & _M32, np.uint64(13))
        x15 = x15 ^ _rotl((x11 + x7) & _M32, np.uint64(18))
        # row round: quadruples (0,1,2,3) (5,6,7,4) (10,11,8,9) (15,12,13,14)
        x1 = x1 ^ _rotl((x0 + x3) & _M32, np.uint64(7))
        x2 = x2 ^ _rotl((x1 + x0) & _M32, np.uint64(9))
        x3 = x3 ^ _rotl((x2 + x1) & _M32, np.uint64(13))
        x0 = x0 ^ _rotl((x3 + x2) & _M32, np.uint64(18))
        x6 = x6 ^ _rotl((x5 + x4) & _M32, np.uint64(7))
        x7 = x7 ^ _rotl((x6 + x5) & _M32, np.uint64(9))
        x4 = x4 ^ _rotl((x7 + x6) & _M32, np.uint64(13))
        x5 = x5 ^ _rotl((x4 + x7) & _M32, np.uint64(18))
        x11 = x11 ^ _rotl((x10 + x9) & _M32, np.uint64(7))
        x8 = x8 ^ _rotl((x11 + x10) & _M32, np.uint64(9))
        x9 = x9 ^ _rotl((x8 + x11) & _M32, np.uint64(13))
        x10 = x10 ^ _rotl((x9 + x8) & _M32, np.uint64(18))
        x12 = x12 ^ _rotl((x15 + x14) & _M32, np.uint64(7))
        x13 = x13 ^ _rotl((x12 + x15) & _M32, np.uint64(9))
        x14 = x14 ^ _rotl((x13 + x12) & _M32, np.uint64(13))
        x15 = x15 ^ _rotl((x14 + x13) & _M32, np.uint64(18))
    # Feed-forward on the two words we consume (word 1 held the state).
    out0 = (x0 + np.uint64(0x61707865)) & _M32
    out1 = (x1 + s) & _M32
    return out0 ^ out1


@njit(cache=True)
def _hash_word(hid: int, s: np.uint64, d: np.uint64) -> np.uint64:
    if hid == 0:
        return _oaat_word(s, d)
    elif hid == 1:
        return _lookup3_word(s, d)
    return _salsa20_word(s, d)


@njit(cache=True)
def _hash_flat(hid: int, states: np.ndarray, datas: np.ndarray,
               out: np.ndarray) -> None:
    """Elementwise hash of equal-length flat uint32 arrays into ``out``."""
    for i in range(states.size):
        out[i] = _hash_word(hid, np.uint64(states[i]), np.uint64(datas[i]))


@njit(cache=True)
def _branch_awgn_batch(hid: int, states: np.ndarray, slots: np.ndarray,
                       vre: np.ndarray, vim: np.ndarray, cre: np.ndarray,
                       cim: np.ndarray, have_csi: bool,
                       levels: np.ndarray, c: int,
                       out: np.ndarray) -> None:
    """Fused AWGN/fading branch costs: states (M, n), per-message rows (M, s).

    Slot loop ascends so the accumulation order equals numpy's sequential
    leading-axis reduction; ``cre``/``cim`` are ignored unless
    ``have_csi``.
    """
    cmask = (np.uint64(1) << np.uint64(c)) - np.uint64(1)
    cshift = np.uint64(c)
    for m in range(states.shape[0]):
        for i in range(states.shape[1]):
            s = np.uint64(states[m, i])
            acc = 0.0
            for t in range(slots.size):
                w = _hash_word(hid, s, np.uint64(slots[t]))
                x_i = levels[np.intp(w & cmask)]
                x_q = levels[np.intp((w >> cshift) & cmask)]
                if have_csi:
                    f_r = cre[m, t] * x_i - cim[m, t] * x_q
                    f_q = cre[m, t] * x_q + cim[m, t] * x_i
                    d_r = vre[m, t] - f_r
                    d_q = vim[m, t] - f_q
                else:
                    d_r = vre[m, t] - x_i
                    d_q = vim[m, t] - x_q
                acc = acc + (d_r * d_r + d_q * d_q)
            out[m, i] = acc


@njit(cache=True)
def _branch_bsc_batch(hid: int, states: np.ndarray, slots: np.ndarray,
                      values: np.ndarray, out: np.ndarray) -> None:
    """Fused BSC branch costs (Hamming distance on the low hash bit)."""
    for m in range(states.shape[0]):
        for i in range(states.shape[1]):
            s = np.uint64(states[m, i])
            acc = 0.0
            for t in range(slots.size):
                w = _hash_word(hid, s, np.uint64(slots[t]))
                bit = np.float64(w & np.uint64(1))
                acc = acc + abs(bit - values[m, t])
            out[m, i] = acc


def _make_hash(hid: int) -> HashFn:
    """Broadcasting ``h(state, data) -> word`` wrapper over the flat kernel."""

    def h(state: np.ndarray, data: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=np.uint32)
        data = np.asarray(data, dtype=np.uint32)
        shape = np.broadcast(state, data).shape
        flat_s = np.broadcast_to(state, shape).ravel()
        flat_d = np.broadcast_to(data, shape).ravel()
        out = np.empty(flat_s.size, dtype=np.uint32)
        _hash_flat(hid, flat_s, flat_d, out)
        return out.reshape(shape)

    return h


def branch_costs(
    states: np.ndarray,
    slots: np.ndarray,
    values: np.ndarray,
    csi: np.ndarray | None,
    *,
    hash_name: str,
    levels: np.ndarray,
    c: int,
    is_bsc: bool,
) -> np.ndarray:
    """One message's branch costs, states (n,) -> (n,): the M=1 case of
    :func:`branch_costs_batch`."""
    return branch_costs_batch(
        np.asarray(states)[None, :], slots, np.asarray(values)[None, :],
        None if csi is None else np.asarray(csi)[None, :],
        hash_name=hash_name, levels=levels, c=c, is_bsc=is_bsc,
    )[0]


def branch_costs_batch(
    states: np.ndarray,
    slots: np.ndarray,
    values: np.ndarray,
    csi: np.ndarray | None,
    *,
    hash_name: str,
    levels: np.ndarray,
    c: int,
    is_bsc: bool,
) -> np.ndarray:
    """Branch costs of M messages via the fused kernels: (M, n) -> (M, n)."""
    states = np.ascontiguousarray(states, dtype=np.uint32)
    n_msgs, n_states = states.shape
    if slots.size == 0:
        return np.zeros((n_msgs, n_states), dtype=np.float64)
    hid = _HASH_IDS[hash_name]
    slots_u = np.ascontiguousarray(slots, dtype=np.uint32)
    out = np.empty((n_msgs, n_states), dtype=np.float64)
    _on = OBS.enabled
    if _on:
        t0 = clock()
    if is_bsc:
        _branch_bsc_batch(hid, states, slots_u,
                          np.ascontiguousarray(values, dtype=np.float64), out)
    else:
        vre = np.ascontiguousarray(values.real)
        vim = np.ascontiguousarray(values.imag)
        if csi is None:
            _branch_awgn_batch(hid, states, slots_u, vre, vim, vre, vim,
                               False, levels, c, out)
        else:
            _branch_awgn_batch(hid, states, slots_u, vre, vim,
                               np.ascontiguousarray(csi.real),
                               np.ascontiguousarray(csi.imag), True,
                               levels, c, out)
    if _on:
        OBS.add_time("kernel.branch_cost", clock() - t0)
    return out


_warmed = False


def _warmup() -> None:
    """Compile (or load from the on-disk cache) every kernel signature.

    Run once at backend construction so JIT latency lands here — timed as
    ``backend.warmup`` when metrics are on — instead of inside the first
    decode's kernel timings.
    """
    global _warmed
    if _warmed:
        return
    _on = OBS.enabled
    if _on:
        t0 = clock()
    states = np.arange(4, dtype=np.uint32)
    slots = np.arange(2, dtype=np.uint32)
    levels = np.array([-1.0, 1.0], dtype=np.float64)
    out_w = np.empty(4, dtype=np.uint32)
    states2 = states.reshape(2, 2)
    v2 = np.zeros((2, 2), dtype=np.float64)
    out_f2 = np.empty((2, 2), dtype=np.float64)
    for hid in sorted(_HASH_IDS.values()):
        _hash_flat(hid, states, states, out_w)
    _branch_awgn_batch(0, states2, slots, v2, v2, v2, v2, False, levels, 1,
                       out_f2)
    _branch_bsc_batch(0, states2, slots, v2, out_f2)
    _warmed = True
    if _on:
        OBS.add_time("backend.warmup", clock() - t0)


_BACKEND: Backend | None = None
_warned_fallback = False


def make_backend() -> Backend:
    """The (cached) numba backend — or numpy with a one-time warning."""
    global _BACKEND, _warned_fallback
    if not NUMBA_AVAILABLE:
        if not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                "backend 'numba' requested but numba is not installed; "
                "falling back to the 'numpy' backend "
                "(install the [numba] extra for the JIT fast path)",
                BackendFallbackWarning,
                stacklevel=3,
            )
        from repro.backend import numpy_backend

        return numpy_backend.make_backend()
    if _BACKEND is None:
        from repro.backend import numpy_backend

        _warmup()
        _BACKEND = Backend(
            name="numba",
            hash_fns={name: _make_hash(hid)
                      for name, hid in _HASH_IDS.items()},
            branch_costs=branch_costs,
            branch_costs_batch=branch_costs_batch,
            # argpartition introselect order is part of the decode
            # contract; selection stays on the shared reference kernel.
            select_beams=numpy_backend.select_beams,
        )
    return _BACKEND
