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

**Oracle early abort.**  Rate curves judge an attempt by whether the
decoded message equals the transmitted one (oracle mode), and most
attempts fail.  Given the transmitted spine states, the search stops
spending work on a row as soon as its failure is certain.  The decoded path
ends at a kept leaf and backtracks through one kept subtree per step, so
its node at depth ``i+1`` is a leaf kept by the selection at step ``i``
(for ``d > 1``, one of the W leaves of a kept subtree).  A correct decode
is the transmitted path, so if the true state ``s_{i+1}`` is on none of
the kept leaves, the attempt has already failed.  After each selection the
search drops such rows and compacts the beam arrays, the backtracking
rows and the received-symbol view to the survivors; a dropped row is
reported as failed with no bits and no cost.  The check compares state
values, so a hash collision can only keep a doomed row running: the abort
never drops a row that would succeed, and a row it keeps gets exactly the
full search's bits and cost.  Three callers need the bits or the cost of
a failed decode and keep the full search: fixed-rate shots
(``BatchSession.run_fixed_rate``, whose failed shots report their cost),
CRC-framed link decodes (the CRC needs the bits), and direct
:meth:`BubbleDecoder.decode` calls.
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
        result = self._search(received.batch_view())[0]
        assert result is not None  # only an oracle search drops rows
        return result

    def _search(
        self,
        received: BatchReceivedView,
        true_spines: np.ndarray | None = None,
    ) -> list[DecodeResult | None]:
        """The bubble search over every row of a batch view.

        With ``true_spines`` (the ``(M, n_spine)`` transmitted spine
        states), a row is dropped at the first selection that keeps no leaf
        holding its true state, and its entry is None (see the module
        docstring); every other entry is what the full search returns.
        """
        if received.n_spine != self.n_spine:
            raise ValueError("received-symbol store has mismatched spine length")
        if true_spines is not None and true_spines.shape != (
                received.n_rows, self.n_spine):
            raise ValueError("true spines must be (n_rows, n_spine)")
        k, K, d, W = self.k, 1 << self.k, self.d, self._W
        M = n_rows = received.n_rows
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
        steps_skipped = 0

        leaf_states = np.full((M, 1, 1), params.s0, dtype=np.uint32)
        leaf_costs = np.zeros((M, 1, 1), dtype=np.float64)
        sel_hist: list[np.ndarray] = []
        # live[j]: the received row that search row j decodes.
        live = np.arange(M)
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
            if true_spines is None:
                continue
            # Oracle early abort: a row whose true state at depth step+1 is
            # on no kept leaf cannot decode correctly; drop it and compact
            # every per-row array to the survivors.
            kept = (leaf_states.reshape(M, -1)
                    == true_spines[:, step, None]).any(axis=1)
            if kept.all():
                continue
            keep = np.flatnonzero(kept)
            steps_skipped += (M - keep.size) * (self.n_spine - 1 - step)
            live = live[keep]
            M = live.size
            row_idx = np.arange(M)[:, None]
            true_spines = true_spines[keep]
            leaf_states = leaf_states[keep]
            leaf_costs = leaf_costs[keep]
            sel_hist = [h[keep] for h in sel_hist]
            received = received.take(keep)
            if M == 0:
                break
        if _on:
            OBS.add_time("kernel.hash", t_hash, n_hash)
            OBS.add_time("kernel.select", t_sel, n_sel)
            if true_spines is not None:
                OBS.counter("decode.rows_aborted", n_rows - M)
                OBS.counter("decode.row_steps_skipped", steps_skipped)
        results: list[DecodeResult | None] = [None] * n_rows
        if M == 0:
            return results

        # Best leaf of each message, then backtrack: a kept candidate
        # s = parent*K + edge names its parent beam slot and its edge.
        flat_costs = leaf_costs.reshape(M, -1)
        flat_best = np.argmin(flat_costs, axis=1)
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
            results[live[m]] = DecodeResult(
                message, float(flat_costs[m, flat_best[m]]), received.n_symbols)
        return results


class BatchBubbleDecoder(BubbleDecoder):
    """Bubble decoder over a batch axis: M independent messages at once.

    Every message's result is exactly what :meth:`BubbleDecoder.decode`
    gives for that message alone: branch costs keep the slot axis leading
    (same reduction order in the sum over received symbols), and selection
    and argmin work on contiguous per-message rows.
    """

    def decode_batch(
        self,
        received: BatchReceivedView,
        true_spines: np.ndarray | None = None,
    ) -> list[DecodeResult | None]:
        """Decode every message of a batch view in one vectorised search.

        ``true_spines``, the ``(M, n_spine)`` transmitted spine states,
        turns on the oracle early abort: a row that cannot decode correctly
        is dropped at the step where it becomes certain, and its entry is
        None.  Without it every entry is a :class:`DecodeResult`.
        """
        return self._search(received, true_spines)
