"""The bubble decoder: approximate-ML tree search (paper §4).

Decoding is breadth-first search over the tree of message prefixes.  Each
tree node at depth ``i`` is a candidate spine state; the edge to a child
carries k message bits and costs the squared distance (AWGN) or Hamming
distance (BSC) between the received symbols for spine position ``i`` and
the symbols the candidate state would have produced.  The *bubble* decoder
(§4.3) prunes with two knobs:

- beam width ``B``: how many subtrees survive each step;
- depth ``d``: pruning granularity — candidates are depth-d subtrees scored
  by their best leaf, so larger ``d`` buys cheaper pruning (fewer, coarser
  selections) at some throughput cost (Figure 8-7).

``d = 1`` is the classical M-algorithm / beam search; ``d = n/k`` recovers
exact ML decoding.

There is one search, and it is vectorised over messages as well as over
the tree: the beam is an ``(M, n_beam, W)`` array of uint32 leaf states for
M independent messages, with ``W = 2^(k(d-1))`` leaves per surviving
subtree.  One step hashes all ``M * n_beam * W * 2^k`` children at once,
folds in branch costs over every received symbol of that spine position
(all passes and tail symbols in a single broadcast hash), takes subtree
minima, and keeps the best ``B`` subtrees of each message with its own
``argpartition`` row.  Amortising the fixed cost of each numpy call over M
messages is what makes Monte-Carlo cohorts fast; a single message is the
M=1 case.  Backtracking records the surviving candidate per step; missing
spine positions (puncturing) simply contribute zero branch cost, which
matches §5 exactly.

:meth:`BubbleDecoder.decode` searches one message's
:class:`~repro.core.symbols.ReceivedSymbols` (or a prefix of it);
:meth:`BatchBubbleDecoder.decode_batch` searches a
:class:`~repro.core.symbols.BatchReceivedView` of a cohort.  Both run the
same search, and each message's result depends only on its own row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import get_backend
from repro.core.hashes import get_hash
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedView, ReceivedPrefix, ReceivedSymbols
from repro.obs import OBS, clock
from repro.utils.bitops import pack_chunks

__all__ = ["BubbleDecoder", "BatchBubbleDecoder", "DecodeResult", "select_beams"]


def select_beams(group_costs: np.ndarray, n_beam: int) -> np.ndarray:
    """Indices of the ``n_beam`` cheapest candidate subtrees of each row.

    The beam-selection kernel: ``group_costs`` is ``(M, n_candidates)``,
    one row per message.  Delegates to the active backend
    (:mod:`repro.backend`); every backend preserves the reference
    ``argpartition`` introselect order, so the surviving index sets — and
    therefore decode results — are backend-invariant.
    """
    return get_backend().select_beams(group_costs, n_beam)


@dataclass
class DecodeResult:
    """Outcome of one decode attempt."""

    message_bits: np.ndarray
    path_cost: float
    n_symbols_used: int

    def matches(self, true_bits: np.ndarray) -> bool:
        return bool(np.array_equal(self.message_bits, np.asarray(true_bits, np.uint8)))


class BubbleDecoder:
    """Bubble decoder for a fixed message length.

    Parameters
    ----------
    params: code parameters (must match the encoder's).
    decoder_params: beam width B, pruning depth d.
    n_bits: message length in bits (divisible by k).
    """

    def __init__(
        self,
        params: SpinalParams,
        decoder_params: DecoderParams,
        n_bits: int,
    ):
        self.params = params
        self.dec = decoder_params
        self.n_bits = n_bits
        self.n_spine = params.n_spine(n_bits)
        self.k = params.k
        self._mapping = params.make_mapping()
        self._levels = self._mapping.levels
        # The backend is bound once at construction (repro.backend): all
        # hot kernels — spine hash, branch costs, beam selection — come
        # from this object for the decoder's lifetime.
        self._backend = get_backend()
        self._hash_fn = get_hash(params.hash_name)
        # Depth cannot exceed the tree height; clamping keeps tiny-n cases
        # (and the full-ML limit) working through the same code path.
        self.d = min(decoder_params.d, self.n_spine)
        self._W = (1 << self.k) ** (self.d - 1)

    def decode(self, received: ReceivedSymbols | ReceivedPrefix) -> DecodeResult:
        """Run the full bubble search over one message's stored symbols."""
        return self._search(received.batch_view())[0]

    def _search(self, received: BatchReceivedView) -> list[DecodeResult]:
        """The bubble search over every row of a batch view."""
        if received.n_spine != self.n_spine:
            raise ValueError("received-symbol store has mismatched spine length")
        k, K, d, W = self.k, 1 << self.k, self.d, self._W
        M = received.n_rows
        edges = np.arange(K, dtype=np.uint32)
        hash_fn = self._hash_fn
        backend = self._backend
        params = self.params
        # Kernel timing accumulates in locals and flushes once at the end
        # (repro.obs hot-loop discipline: disabled cost is one branch per
        # step, no allocations).
        _on = OBS.enabled
        t_hash = t_sel = 0.0
        n_hash = n_sel = 0

        leaf_states = np.full((M, 1, 1), params.s0, dtype=np.uint32)
        leaf_costs = np.zeros((M, 1, 1), dtype=np.float64)
        sel_hist: list[np.ndarray] = []
        row_idx = np.arange(M)[:, None]
        for step in range(self.n_spine):
            n_beam = leaf_states.shape[1]
            if _on:
                t0 = clock()
            children = hash_fn(leaf_states[:, :, :, None], edges)
            if _on:
                t_hash += clock() - t0
                n_hash += 1
            # Cost of the edge into each child: the backend kernel sums over
            # every received symbol of this spine position.
            slots, values, csi = received.for_spine(step)
            bc = backend.branch_costs_batch(
                children.reshape(M, -1), slots, values, csi,
                hash_name=params.hash_name, levels=self._levels,
                c=params.c, is_bsc=params.is_bsc,
            )
            totals = leaf_costs[:, :, :, None] + bc.reshape(children.shape)
            if step < d - 1:
                # Unpruned expansion of the first d-1 levels (the initial
                # partial tree of Figure 4-1(a)).
                leaf_states = children.reshape(M, 1, -1)
                leaf_costs = totals.reshape(M, 1, -1)
                continue
            # Flat child index w*K+e spells the d base-2^k path digits with
            # the first edge most significant, so a row-major reshape to
            # (n_beam*K, W) groups children by (parent, first edge) =
            # candidate subtree.
            totals = totals.reshape(M, n_beam * K, W)
            if _on:
                t0 = clock()
            # d=1 (W=1): each subtree is one leaf, and its min is itself.
            group = totals[:, :, 0] if W == 1 else totals.min(axis=2)
            sel = backend.select_beams(group, self.dec.B)
            leaf_states = children.reshape(M, n_beam * K, W)[row_idx, sel]
            leaf_costs = totals[row_idx, sel]
            if _on:
                t_sel += clock() - t0
                n_sel += 1
            # The selection may be a view into the full (M, n_beam*K)
            # argpartition output; keep only the kept indices alive.
            sel_hist.append(sel.copy())
        if _on:
            OBS.add_time("kernel.hash", t_hash, n_hash)
            OBS.add_time("kernel.select", t_sel, n_sel)

        # Best leaf of each message, then backtrack: a kept candidate
        # s = parent*K + edge names its parent beam slot and its edge.
        flat_costs = leaf_costs.reshape(M, -1)
        flat_best = np.argmin(flat_costs, axis=1)
        results: list[DecodeResult] = []
        for m in range(M):
            b, w = divmod(int(flat_best[m]), W)
            chunks: list[int] = []
            for sel in reversed(sel_hist):
                b, edge = divmod(int(sel[m, b]), K)
                chunks.append(edge)
            chunks.reverse()
            # Within-subtree path: the d-1 base-2^k digits of w, MSB first.
            chunks.extend((w // K**j) % K for j in reversed(range(d - 1)))
            message = pack_chunks(np.asarray(chunks, dtype=np.uint32), k)
            results.append(DecodeResult(
                message, float(flat_costs[m, flat_best[m]]), received.n_symbols))
        return results


class BatchBubbleDecoder(BubbleDecoder):
    """Bubble decoder over a batch axis: M independent messages at once.

    Every message's result is exactly what :meth:`BubbleDecoder.decode`
    gives for that message alone: branch costs keep the slot axis leading
    (same reduction order in the sum over received symbols), and selection
    and argmin work on contiguous per-message rows.
    """

    def decode_batch(self, received: BatchReceivedView) -> list[DecodeResult]:
        """Decode every message of a batch view in one vectorised search."""
        return self._search(received)
