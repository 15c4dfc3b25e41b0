"""Spine construction (paper §3.1, Figure 3-1).

The spine is the sequence of ν-bit states obtained by hashing k-bit message
chunks sequentially::

    s_i = h(s_{i-1}, m̄_i),     s_0 known to both ends.

Because each state depends on *all* preceding message bits, the code's
"constraint length" reaches back to the start of the message — the property
that makes tree decoding work.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashes import HashFn

__all__ = ["spine_states", "spine_states_batch", "expand_states"]


def spine_states(
    hash_fn: HashFn, k: int, message_bits: np.ndarray, s0: int = 0
) -> np.ndarray:
    """Compute all n/k spine values for a message (encoder side).

    Returns a ``(n/k,)`` uint32 array; entry i is ``s_{i+1}`` in the paper's
    numbering (the state *after* absorbing chunk i).  The M=1 case of
    :func:`spine_states_batch`.
    """
    bits = np.asarray(message_bits, dtype=np.uint8)
    return spine_states_batch(hash_fn, k, bits[None, :], s0)[0]


def spine_states_batch(
    hash_fn: HashFn, k: int, messages: np.ndarray, s0: int = 0
) -> np.ndarray:
    """Spines of M equal-length messages in one pass: ``(M, n/k)`` uint32.

    One hash call per spine step covers the whole batch, so building M
    spines costs the same number of numpy calls as building one.
    """
    messages = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
    n_msgs, n_bits = messages.shape
    if n_bits % k:
        raise ValueError(f"bit count {n_bits} not divisible by k={k}")
    weights = (1 << np.arange(k - 1, -1, -1)).astype(np.uint32)
    chunks = (
        messages.reshape(n_msgs, -1, k).astype(np.uint32) * weights
    ).sum(axis=2, dtype=np.uint32)
    states = np.empty((n_msgs, n_bits // k), dtype=np.uint32)
    s = np.full(n_msgs, s0, dtype=np.uint32)
    for i in range(n_bits // k):
        s = hash_fn(s, chunks[:, i])
        states[:, i] = s
    return states


def expand_states(hash_fn: HashFn, k: int, states: np.ndarray) -> np.ndarray:
    """All 2^k child states of each input state (decoder-side expansion).

    ``states`` has shape ``(...,)``; the result has shape ``(..., 2^k)``
    where the last axis indexes the k-bit edge value.
    """
    states = np.asarray(states, dtype=np.uint32)
    edges = np.arange(1 << k, dtype=np.uint32)
    return hash_fn(states[..., None], edges)
