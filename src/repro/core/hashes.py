"""Hash functions used to build the spine (paper §3.2, §7.1).

The paper requires a pairwise-independent-style hash ``h`` mapping a ν-bit
state plus k message bits to a new ν-bit state.  Its implementation fixes
ν = 32 and evaluates three concrete functions (§7.1):

- Jenkins *one-at-a-time* — the one used for all experiments (cheapest);
- Jenkins *lookup3*;
- the *Salsa20* core, a cryptographic-strength mixer.

The paper reports no measurable performance difference between them, a claim
``benchmarks/bench_ablation_hash.py`` re-checks.

All three are implemented here with one unified signature::

    h(state: uint32 ndarray, data: uint32 ndarray) -> uint32 ndarray

where ``data`` carries either the k message bits of an edge (spine
construction) or a symbol index (RNG use, see :mod:`repro.core.rng`).  The
implementations are fully vectorised: the bubble decoder hashes beams of
thousands of candidate states per call, and every operation is a numpy
``uint32`` op with natural mod-2^32 wrap-around.  ``lookup3`` and
``salsa20`` run each op at the broadcast shape of ``(state, data)``;
``one_at_a_time`` runs the rounds that read only ``state`` at
``state.shape`` and broadcasts afterwards, because the decoder's calls pair
many states with few data words (or the other way round).

These are the **reference** kernels — the bit-exactness contract of the
backend seam (:mod:`repro.backend`).  :func:`get_hash` dispatches through
the active backend, so callers transparently pick up e.g. the numba JIT
kernels when that backend is selected; :func:`reference_hashes` always
returns the numpy implementations below.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backend.u32 import rotl32

__all__ = [
    "one_at_a_time",
    "lookup3",
    "salsa20",
    "get_hash",
    "available_hashes",
    "reference_hashes",
    "HashFn",
]

HashFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

_U32 = np.uint32
_MASK8 = _U32(0xFF)


def _as_u32(x: np.ndarray | int) -> np.ndarray:
    """Coerce to a uint32 ndarray (scalars become 0-d arrays)."""
    return np.asarray(x, dtype=np.uint32)


def one_at_a_time(state: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Jenkins one-at-a-time hash of (state, data), 4+4 little-endian bytes.

    This is the hash used in the paper's software implementation and FPGA
    prototype: "6 XORs, 15 bit shifts and 10 additions per application".

    The four state-byte rounds depend only on ``state``, so they run at
    ``state.shape``; the data-byte rounds and the finalisation run at the
    broadcast shape.  The decoder hashes ``(M, B, 1, 1)`` beams against the
    ``2^k`` edges and ``(1, M, n)`` children against ``s`` slot indices, so
    the state rounds touch ``1/2^k`` and ``1/s`` of the output elements.
    Each ``h += h << j`` is spelled ``h *= 2^j + 1``, one ufunc instead of
    two.  uint32 arithmetic is exact — the words are those of the byte loop.
    """
    state = _as_u32(state)
    data = _as_u32(data)
    # In-place updates with one scratch buffer per shape: the decoder calls
    # this on beam-sized arrays thousands of times per message, so avoiding
    # full-size temporaries measurably speeds the hot path.  ``h`` is always
    # an ndarray (0-d included): in-place ops on a numpy scalar would
    # silently rebind instead of writing.
    h = np.zeros(state.shape, dtype=np.uint32)
    scratch = np.empty_like(h)
    for shift in (0, 8, 16, 24):
        h += (state >> _U32(shift)) & _MASK8
        _mix(h, scratch)
    out = np.empty(np.broadcast_shapes(state.shape, data.shape), np.uint32)
    np.add(h, data & _MASK8, out=out)
    h = out
    scratch = np.empty_like(h)
    _mix(h, scratch)
    for shift in (8, 16, 24):
        h += (data >> _U32(shift)) & _MASK8  # byte temp broadcasts, stays small
        _mix(h, scratch)
    h *= _U32(9)           # h += h << 3
    np.right_shift(h, _U32(11), out=scratch)
    h ^= scratch
    h *= _U32(32769)       # h += h << 15
    return h


def _mix(h: np.ndarray, scratch: np.ndarray) -> None:
    """One one-at-a-time round after the byte add, in place on ``h``."""
    h *= _U32(1025)        # h += h << 10
    np.right_shift(h, _U32(6), out=scratch)
    h ^= scratch


def lookup3(state: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Jenkins lookup3 ``hashword`` applied to the two words (state, data).

    Like :func:`one_at_a_time`, the mixing runs in place over two scratch
    buffers (each ``x = (x ^ y) - rot(y, k)`` step of ``final()`` would
    otherwise allocate three full-size temporaries).  uint32 arithmetic is
    exact — results are unchanged.
    """
    state = _as_u32(state)
    data = _as_u32(data)
    init = _U32(0xDEADBEEF + (2 << 2))
    shape = np.broadcast(state, data).shape
    a = np.full(shape, init, dtype=np.uint32)
    a += state
    b = np.full(shape, init, dtype=np.uint32)
    b += data
    c = np.full(shape, init, dtype=np.uint32)
    rot = np.empty(shape, dtype=np.uint32)
    scratch = np.empty(shape, dtype=np.uint32)

    def mix(x: np.ndarray, y: np.ndarray, k: int) -> None:
        """x = (x ^ y) - rot(y, k), in place (y is never modified)."""
        rotl32(y, k, out=rot, scratch=scratch)
        x ^= y
        x -= rot

    # final(a, b, c)
    mix(c, b, 14)
    mix(a, c, 11)
    mix(b, a, 25)
    mix(c, b, 16)
    mix(a, c, 4)
    mix(b, a, 14)
    mix(c, b, 24)
    return c


# Salsa20 "expand 32-byte k" diagonal constants.
_SALSA_CONST = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)

# (a, b, c, d) index quadruples for one double round.
_SALSA_ROUNDS = (
    # column round
    (0, 4, 8, 12), (5, 9, 13, 1), (10, 14, 2, 6), (15, 3, 7, 11),
    # row round
    (0, 1, 2, 3), (5, 6, 7, 4), (10, 11, 8, 9), (15, 12, 13, 14),
)


def salsa20(state: np.ndarray, data: np.ndarray, rounds: int = 20) -> np.ndarray:
    """Salsa20 core as a (state, data) -> word mixer.

    The 16-word input block holds the Salsa20 constants on the diagonal, the
    spine state in word 1 and the data word in word 2 (remaining words zero);
    the output is word 0 of the usual feed-forward sum.  This matches the
    paper's use of Salsa20 purely as a strong mixing function.

    The quarter-round updates run in place over two scratch buffers: at 20
    rounds the expression form allocates ~480 full-size temporaries per
    call, which dominates the cost on beam-sized inputs.  uint32 arithmetic
    is exact — results are unchanged.
    """
    state = _as_u32(state)
    data = _as_u32(data)
    shape = np.broadcast(state, data).shape
    x = [np.zeros(shape, dtype=np.uint32) for _ in range(16)]
    for pos, const in zip((0, 5, 10, 15), _SALSA_CONST):
        x[pos][...] = const
    x[1] += state
    x[2] += data
    orig0 = x[0].copy()
    orig1 = x[1].copy()
    rot = np.empty(shape, dtype=np.uint32)
    scratch = np.empty(shape, dtype=np.uint32)

    def quarter(xt: np.ndarray, u: np.ndarray, v: np.ndarray, k: int) -> None:
        """xt ^= rot(u + v, k), in place (u and v are never modified)."""
        np.add(u, v, out=scratch)
        # scratch doubles as rotl32's right-shift buffer — legal because
        # the left shift reads it first (see repro.backend.u32).
        rotl32(scratch, k, out=rot, scratch=scratch)
        xt ^= rot

    for _ in range(rounds // 2):
        for a, b, c, d in _SALSA_ROUNDS:
            quarter(x[b], x[a], x[d], 7)
            quarter(x[c], x[b], x[a], 9)
            quarter(x[d], x[c], x[b], 13)
            quarter(x[a], x[d], x[c], 18)
    # Feed-forward on the two words we consume keeps this non-invertible.
    x[0] += orig0
    x[1] += orig1
    x[0] ^= x[1]
    return x[0]


_REGISTRY: dict[str, HashFn] = {
    "one_at_a_time": one_at_a_time,
    "lookup3": lookup3,
    "salsa20": salsa20,
}


def available_hashes() -> tuple[str, ...]:
    """Names accepted by :func:`get_hash`."""
    return tuple(_REGISTRY)


def reference_hashes() -> dict[str, HashFn]:
    """The numpy reference implementations, by name.

    This is the bit-exactness contract of the backend seam: every backend's
    ``hash_fns`` must reproduce these words exactly (``tests/test_backend.py``
    pins golden vectors and cross-backend equality against them).
    """
    return dict(_REGISTRY)


def get_hash(name: str) -> HashFn:
    """The active backend's kernel for a hash (see :func:`available_hashes`).

    Under the default numpy backend this returns the reference function
    itself; other backends return their own bit-identical kernel.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown hash {name!r}; available: {sorted(_REGISTRY)}"
        )
    from repro.backend import get_backend

    return get_backend().hash_fns[name]
