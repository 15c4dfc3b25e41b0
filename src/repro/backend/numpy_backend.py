"""The numpy reference backend — the bit-exactness contract.

One vectorised branch-cost body over a leading message axis (a single
message is the M=1 case), the ``argpartition`` beam selection, and the
reference hash implementations of :mod:`repro.core.hashes`.  Every other
backend is judged against this one — same uint32 words, same float64
reduction order (the slot axis leads, so the sum over received symbols
accumulates in slot order), same introselect selection order.

The AWGN costs (no CSI) read ``(y - level)^2`` from per-(slot, message)
distance tables of ``2^c`` entries instead of recomputing it per candidate
word.  The tables hold the results of the same subtract-then-square, and
the gathered entries are added and summed in the same order, so the float64
costs are bit-identical to the direct per-word form (and to the numba
kernel, which computes that form scalar by scalar).  The CSI and BSC costs
keep the direct form.

Observability follows the decode hot-loop discipline (see ``repro.obs``):
the hash inside a branch-cost evaluation is timed as ``kernel.hash`` and
the distance arithmetic as ``kernel.branch_cost``, exactly as the
pre-seam decoder reported them.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Backend, HashFn
from repro.obs import OBS, clock

__all__ = ["branch_costs", "branch_costs_batch", "select_beams", "make_backend"]

_U32 = np.uint32

# Lazily bound reference-hash registry (resolving it at import time would
# close the hashes -> backend -> hashes import cycle the wrong way round).
# Bound once: the decoder calls the branch-cost kernel per spine position
# per attempt, so per-call registry rebuilds would be pure overhead.
_HASHES: dict[str, HashFn] | None = None


def _hash_fn(name: str) -> HashFn:
    global _HASHES
    if _HASHES is None:
        from repro.core.hashes import reference_hashes

        _HASHES = reference_hashes()
    return _HASHES[name]


def select_beams(group_costs: np.ndarray, n_beam: int) -> np.ndarray:
    """Indices of the ``n_beam`` cheapest candidates of each row.

    ``group_costs`` is ``(M, n)``, one row of flattened candidate-subtree
    costs per message; selection runs ``argpartition`` along axis 1 with
    introselect order preserved — the surviving index sets *and their
    order* are part of the decode contract, so all backends share this
    implementation.
    """
    n_keep = min(n_beam, group_costs.shape[1])
    if n_keep < group_costs.shape[1]:
        return np.argpartition(group_costs, n_keep - 1, axis=1)[:, :n_keep]
    return np.broadcast_to(np.arange(group_costs.shape[1]), group_costs.shape)


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
    """One message's branch costs, ``states (n,)`` -> ``costs (n,)``: the
    M=1 case of :func:`branch_costs_batch`."""
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
    """Branch costs of M messages: ``states (M, n)`` -> ``costs (M, n)``.

    Sums, over the received symbols of one spine position (all passes plus
    tail symbols arrive as distinct slots, evaluated in one broadcast hash
    of shape ``(n_slots, M, n_states)``), the squared distance (AWGN;
    coherent ``|y - h x|^2`` with CSI) or Hamming distance (BSC) between
    each candidate state's symbols and the received values.  The slot axis
    leads, so the sum accumulates in slot order for every message, the
    same order the numba kernel uses.
    """
    states = np.asarray(states, dtype=np.uint32)
    n_msgs, n_states = states.shape
    if slots.size == 0:
        return np.zeros((n_msgs, n_states), dtype=np.float64)
    _on = OBS.enabled
    if _on:
        t0 = clock()
    hash_fn = _hash_fn(hash_name)
    words = hash_fn(states[None, :, :],
                    np.asarray(slots, np.uint32)[:, None, None])
    if _on:
        t1 = clock()
        OBS.add_time("kernel.hash", t1 - t0)
    if is_bsc:
        bits = (words & _U32(1)).astype(np.float64)
        out = np.abs(bits - values.T[:, :, None]).sum(axis=0)
    elif csi is None:
        out = _awgn_costs(words, values, levels, c)
    else:
        c_mask = _U32((1 << c) - 1)
        x_i = levels[(words & c_mask).astype(np.intp)]
        x_q = levels[((words >> _U32(c)) & c_mask).astype(np.intp)]
        # Coherent metric |y - h x|^2 (§8.3) with the complex product h*x
        # spelled as separately-rounded real ufuncs.  numpy's
        # complex-multiply loop may contract into FMAs on hosts that have
        # them, which would make the reference costs machine-dependent in
        # the last ulp — explicit real ops pin one rounding sequence
        # everywhere, and it is the sequence a scalar kernel (numba)
        # reproduces exactly.  The product mixes I and Q, so the
        # per-symbol tables of _awgn_costs do not apply.
        f_r = csi.real.T[:, :, None] * x_i - csi.imag.T[:, :, None] * x_q
        f_q = csi.real.T[:, :, None] * x_q + csi.imag.T[:, :, None] * x_i
        d_r = values.real.T[:, :, None] - f_r
        d_q = values.imag.T[:, :, None] - f_q
        out = (d_r * d_r + d_q * d_q).sum(axis=0)
    if _on:
        OBS.add_time("kernel.branch_cost", clock() - t1)
    return out


def _awgn_costs(
    words: np.ndarray, values: np.ndarray, levels: np.ndarray, c: int
) -> np.ndarray:
    """AWGN branch costs of ``words (n_slots, M, n)`` -> ``(M, n)``.

    Each word's I and Q coordinates are ``levels`` entries picked by its
    two c-bit fields, so ``(y - level)^2`` takes only ``2^c`` values per
    (slot, message) and per dimension.  Those go into ``(n_slots, M, 2^c)``
    tables, computed with the same subtract-then-square as the direct form
    ``(y_r - x_i)^2 + (y_q - x_q)^2``; each word then gathers its two
    entries (one flat ``np.take`` per dimension, with a per-(slot, message)
    offset folded into the index), adds them, and the slot axis is summed
    as before.  Same IEEE operations on the same operands in the same
    order: the costs are bit-identical to the direct form.
    """
    n_slots, n_msgs, _ = words.shape
    n_levels = levels.size  # 2^c: the Mapping guarantees it
    c_mask = _U32((1 << c) - 1)
    d_i = values.real.T[:, :, None] - levels
    d_q = values.imag.T[:, :, None] - levels
    # uint32 indices cannot overflow: a table of 2^32 float64 entries
    # (32 GiB) could not have been allocated.
    offsets = np.arange(0, n_slots * n_msgs * n_levels, n_levels,
                        dtype=np.uint32).reshape(n_slots, n_msgs, 1)
    idx = words & c_mask
    idx += offsets
    out = np.take((d_i * d_i).ravel(), idx)
    np.right_shift(words, _U32(c), out=idx)
    idx &= c_mask
    idx += offsets
    out += np.take((d_q * d_q).ravel(), idx)
    return out.sum(axis=0)


_BACKEND: Backend | None = None


def make_backend() -> Backend:
    """The (cached) numpy reference backend."""
    global _BACKEND
    if _BACKEND is None:
        from repro.core.hashes import reference_hashes

        _BACKEND = Backend(
            name="numpy",
            hash_fns=reference_hashes(),
            branch_costs=branch_costs,
            branch_costs_batch=branch_costs_batch,
            select_beams=select_beams,
        )
    return _BACKEND
