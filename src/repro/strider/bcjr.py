"""Max-log-MAP (BCJR) decoding of one RSC constituent code.

The forward and backward recursions are inherently sequential in time, so
they run as one loop over time; the branch metrics before it and the final
LLR extraction after it are vectorised over time.  Max-log (max instead of
log-sum-exp) costs ~0.1 dB versus exact log-MAP and is what
high-throughput turbo implementations use.

The two recursions share one loop of T steps: step t advances alpha from
time t to t+1 and beta from time T-t to T-1-t.  Every state of an RSC
trellis has exactly two incoming and two outgoing branches, so one step of
both is a gather from the flat row ``[alpha_t | beta_{T-t}]`` through a
precomputed ``(2, n_states, 2)`` index, an add of the matching branch
metrics, a maximum over each state's pair of candidates (with ``_NEG`` as
the initial value), and a per-row normalisation.

This is bit-identical to the textbook form, which scatters every branch
candidate into a fresh row of ``_NEG`` with ``np.maximum.at``: that yields
``max(_NEG, c0, c1)`` for a state's two candidates, and max is exact and
independent of order, so the pair reduction with initial ``_NEG`` gives
the same value.  The normalisation subtracts the same row maximum, and
gamma and the posterior metrics are formed with the same additions in the
same order.

The loop is split off into a small C kernel (``repro/native/bcjr.c``,
built and loaded by :mod:`repro.native`), because in numpy it costs five
calls per step and is bound by their overhead.  Gamma, ``step_gamma`` and
the posterior stay in numpy.  The numpy loop (:func:`_recursion_numpy`)
is kept as the reference and runs when the kernel cannot be built (no C
compiler), which :mod:`repro.native` announces with one
:class:`~repro.backend.base.BackendFallbackWarning`.

The kernel is bit-identical to the numpy loop.  It performs the same
adds, maxima and subtractions, on the same operands, in the same order.
It has no multiplies, each of those operations is exactly rounded, and
the compiler may neither contract nor reorder them, so finite inputs give
the same bits.  Non-finite inputs are the trap: ``a > b ? a : b`` drops a
NaN that ``np.maximum`` keeps.  The kernel follows numpy's NaN rules
exactly.  An add or subtract returns its first NaN operand.
``np.maximum`` keeps the first NaN it meets.  ``np.maximum.reduce``
returns numpy's canonical NaN when the part it folds with SIMD vectors
holds a NaN.  How long that part is depends on the CPU numpy dispatches
for, so it is measured from numpy once per process
(:func:`_reduce_nan_rule`).

LLR convention matches the rest of the library: positive favours bit 0.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from repro import native
from repro.strider.rsc import RscCode

__all__ = ["max_log_bcjr", "BcjrTrellis"]

_NEG = -1e30


class BcjrTrellis:
    """Precomputed branch arrays and recursion gather tables for an RSC.

    Branches are numbered ``2 * from_state + input_bit``.  Raises
    ``ValueError`` unless every state has exactly two incoming and two
    outgoing branches, the shape the gather tables assume.
    """

    def __init__(self, code: RscCode):
        self.code = code
        ns = code.n_states
        next_state = np.asarray(code.next_state, dtype=np.int64)
        if next_state.shape != (ns, 2):
            raise ValueError("every state needs exactly two outgoing branches")
        self.from_state = np.repeat(np.arange(ns, dtype=np.int64), 2)
        self.input_bit = np.tile(np.arange(2, dtype=np.int64), ns)
        self.to_state = next_state.reshape(-1)
        if np.any(np.bincount(self.to_state, minlength=ns) != 2):
            raise ValueError("every state needs exactly two incoming branches")
        # +1 when the bit hypothesis is 0 (positive LLR favours 0)
        self.sys_sign = 1.0 - 2.0 * self.input_bit
        par = np.asarray(code.parity_out, dtype=np.float64).reshape(
            2 * ns, -1)  # (n_branches, n_parity)
        self.par_sign = 1.0 - 2.0 * par
        self.n_states = ns
        self.n_branches = 2 * ns
        #: (ns, 2): the two branches entering / leaving each state
        self.in_branches = np.argsort(self.to_state, kind="stable").reshape(
            ns, 2)
        self.out_branches = np.arange(2 * ns, dtype=np.int64).reshape(ns, 2)
        #: (2, ns, 2) gather into ``[alpha | beta]``: the source states of
        #: each state's incoming branches, then (offset by ns) the
        #: destination states of its outgoing branches; read-only, since the
        #: compiled recursion indexes with it unchecked
        self.gather = np.ascontiguousarray(np.stack(
            [self.from_state[self.in_branches],
             ns + self.to_state[self.out_branches]]), dtype=np.int64)
        self.gather.flags.writeable = False


#: ``(ab, step_gamma, gather)`` -> None: fills ``ab[1:]`` in place
Recursion = Callable[[np.ndarray, np.ndarray, np.ndarray], None]

#: the recursion in use, chosen on first call: compiled, else the numpy loop
_KERNEL: Recursion | None = None


def _reduce_nan_rule() -> tuple[int, float]:
    """``(lanes, nan)``: what ``np.maximum.reduce`` does to a NaN here.

    numpy seeds a SIMD accumulator with the first value and folds whole
    vectors of ``lanes`` values before a scalar tail; the SIMD part returns
    one canonical ``nan`` when it holds any NaN, the scalar tail keeps the
    NaN it meets.  ``lanes`` is the fewest values after the first for
    which a NaN among them comes back changed; 0 when it never does.
    """
    odd = np.array([0xFFF800000000BEEF], dtype=np.uint64).view(np.float64)
    for lanes in range(1, 65):
        row = np.zeros(lanes + 1)
        row[lanes] = odd[0]
        top = np.maximum.reduce(row)
        if top.tobytes() != odd.tobytes():
            return lanes, float(top)
    return 0, float(odd[0])


def _load_kernel() -> Recursion | None:
    """The compiled recursion; None, with a warning, if it can't be built."""
    lib = native.load("bcjr")
    if lib is None:
        return None
    fn = lib.bcjr_recursion
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                   ctypes.c_double]
    lanes, nan = _reduce_nan_rule()

    def recursion(ab: np.ndarray, step_gamma: np.ndarray,
                  gather: np.ndarray) -> None:
        step_gamma = np.ascontiguousarray(step_gamma)
        t_len, ns = step_gamma.shape[0], ab.shape[2]
        if not (ab.dtype == np.float64 and ab.flags.c_contiguous
                and ab.shape == (t_len + 1, 2, ns)
                and gather.dtype == np.int64 and gather.flags.c_contiguous
                and gather.shape == step_gamma.shape[1:] == (2, ns, 2)
                and step_gamma.dtype == np.float64):
            raise ValueError("bcjr recursion: unexpected array layout")
        fn(t_len, ns, gather.ctypes.data,
           step_gamma.ctypes.data, ab.ctypes.data, lanes, nan)

    return recursion


def _recursion() -> Recursion:
    """The compiled recursion, or the numpy loop when it can't be built."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _load_kernel() or _recursion_numpy
    return _KERNEL


def _recursion_numpy(ab: np.ndarray, step_gamma: np.ndarray,
                     gather: np.ndarray) -> None:
    """The reference loop: ``ab[t + 1]`` from ``ab[t]``, for every t."""
    row_max = np.maximum.reduce
    flat = ab.reshape(ab.shape[0], -1)
    for prev, row, metrics in zip(flat[:-1], ab[1:], step_gamma):
        cand = prev[gather]
        cand += metrics
        row_max(cand, axis=2, initial=_NEG, out=row)
        row -= row_max(row, axis=1, keepdims=True)  # normalise against drift


def max_log_bcjr(
    trellis: BcjrTrellis,
    sys_llrs: np.ndarray,
    parity_llrs: np.ndarray,
    a_priori: np.ndarray | None = None,
    terminated: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode one constituent code.

    Parameters
    ----------
    trellis: precomputed :class:`BcjrTrellis`.
    sys_llrs: (T,) systematic LLRs (including tail positions).
    parity_llrs: (n_parity, T) parity LLRs.
    a_priori: (T,) extrinsic input from the other decoder (0 if None).
    terminated: trellis ends in state 0 (tail transmitted).

    Returns
    -------
    (posterior_llrs, extrinsic_llrs), both (T,).  The extrinsic output is
    posterior − systematic − a-priori, ready to feed the peer decoder.
    """
    sys_llrs = np.asarray(sys_llrs, dtype=np.float64)
    parity_llrs = np.asarray(parity_llrs, dtype=np.float64)
    t_len = sys_llrs.size
    if a_priori is None:
        a_priori = np.zeros(t_len)
    ns = trellis.n_states

    # gamma[t, branch]: all branch metrics, vectorised over time upfront
    sys_term = 0.5 * (sys_llrs + a_priori)[:, None] * trellis.sys_sign[None, :]
    par_term = 0.5 * np.einsum(
        "pt,bp->tb", parity_llrs, trellis.par_sign
    )
    gamma = sys_term + par_term  # (T, n_branches)

    # step_gamma[t]: metrics of the branches entering each state at time t
    # (alpha) and of those leaving each state at time T-1-t (beta), filled
    # in place so the array is contiguous for the compiled recursion
    step_gamma = np.empty((t_len, 2, ns, 2))
    step_gamma[:, 0] = gamma[:, trellis.in_branches]
    step_gamma[:, 1] = gamma[::-1][:, trellis.out_branches]

    # ab[t] = [alpha_t | beta_{T-t}], one flat row per step
    ab = np.empty((t_len + 1, 2, ns))
    ab[0] = _NEG
    ab[0, 0, 0] = 0.0
    if terminated:
        ab[0, 1, 0] = 0.0
    else:
        ab[0, 1] = 0.0
    _recursion()(ab, step_gamma, trellis.gather)
    alpha = ab[:, 0]
    beta = ab[::-1, 1]

    # posterior LLRs, vectorised over time
    frm, to = trellis.from_state, trellis.to_state
    metric = alpha[:-1][:, frm] + gamma + beta[1:][:, to]  # (T, n_branches)
    zero_mask = trellis.input_bit == 0
    llr = metric[:, zero_mask].max(axis=1) - metric[:, ~zero_mask].max(axis=1)
    extrinsic = llr - sys_llrs - a_priori
    return llr, extrinsic
