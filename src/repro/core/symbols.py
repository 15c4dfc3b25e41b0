"""Receiver-side symbol storage (paper §4.2, §7.1).

"The decoder stores the received symbols, and uses them to rebuild the tree
in each run" — this container is that store.  Received values are grouped by
spine position, keeping the slot index of each symbol (so the decoder can
replay the exact RNG draws) and, for fading channels, the per-symbol channel
coefficient when the decoder is given fading information (§8.3).

There is one store, :class:`BatchReceivedSymbols`: M messages that share
one transmission plan (same spine indices and slots per subpass, e.g. a
Monte-Carlo cohort over i.i.d. channels) keep their received values in
``(n_spine, M, capacity)`` arrays plus per-spine fill counts.  Its
:meth:`~BatchReceivedSymbols.add_block` is a vectorised group-by-spine
scatter (one ``argsort`` + one fancy assignment per block, no Python loop
over symbols), and :meth:`~BatchReceivedSymbols.prefix` hands out O(1)
views of any earlier fill state for any subset of rows, which is what lets
a rateless session keep a single incremental store across all of its
decode attempts.  An optional per-symbol CSI plane of the same shape
carries fading coefficients under an all-or-nothing discipline: CSI must
arrive with the first block and keep arriving.

:class:`ReceivedSymbols` and :class:`ReceivedPrefix` are the one-message
faces of that store (M=1): 1-D blocks in, 1-D ``for_spine`` panels out,
and :meth:`ReceivedSymbols.batch_view` / :meth:`ReceivedPrefix.batch_view`
for the bubble decoder, which always searches a batch view.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReceivedSymbols", "ReceivedPrefix", "BatchReceivedSymbols", "BatchReceivedView"]

_INITIAL_CAPACITY = 4


def _scatter_layout(
    spine_indices: np.ndarray, n_spine: int, counts: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column assignment for a block of incoming symbols.

    Returns ``(order, rows, cols, uniq, cnt)``: storing symbol ``order[j]``
    at ``[rows[j], cols[j]]`` appends every symbol to its spine position in
    arrival order (the stable sort keeps within-position order), after which
    ``counts[uniq] += cnt`` advances the fill counts.  ``order`` is None
    when the block is already in spine order — the common case, since
    ``transmission_plan`` emits each subpass's positions ascending — so
    callers can skip the gather entirely.
    """
    arr = np.asarray(spine_indices, dtype=np.intp).ravel()
    n = arr.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return None, arr, empty, arr, empty
    lo, hi = int(arr.min()), int(arr.max())
    if lo < 0 or hi >= n_spine:
        bad = lo if lo < 0 else hi
        raise IndexError(f"spine index {bad} out of range")
    if np.all(arr[1:] >= arr[:-1]):
        # Already grouped: group boundaries fall out of one diff.
        order, rows = None, arr
        start = np.concatenate(([0], np.flatnonzero(np.diff(arr)) + 1))
        uniq = arr[start]
        cnt = np.diff(np.concatenate((start, [n])))
    else:
        order = np.argsort(arr, kind="stable")
        rows = arr[order]
        uniq, start, cnt = np.unique(rows, return_index=True, return_counts=True)
    offsets = np.arange(n, dtype=np.int64) - np.repeat(start, cnt)
    cols = counts[rows] + offsets
    return order, rows, cols, uniq, cnt


def _grown(arr: np.ndarray, capacity: int) -> np.ndarray:
    """Copy of ``arr`` with its last axis grown to ``capacity`` columns."""
    shape = arr.shape[:-1] + (capacity,)
    out = np.zeros(shape, dtype=arr.dtype)
    out[..., : arr.shape[-1]] = arr
    return out


class BatchReceivedSymbols:
    """Columnar store for M messages sharing one transmission plan.

    All messages receive symbols for the same (spine, slot) layout — the
    i.i.d.-channel Monte-Carlo setting — so slots are stored once and values
    carry a leading message axis.  Rows (messages) may stop receiving at
    different subpasses (a decoded message leaves the cohort); a
    :meth:`prefix` view pairs a row subset with a per-spine count snapshot,
    and only columns below that snapshot are ever read for those rows.
    Column arrays grow by doubling.
    """

    def __init__(self, n_spine: int, n_messages: int, complex_valued: bool = True):
        self.n_spine = n_spine
        self.n_messages = n_messages
        self.complex_valued = complex_valued
        self._capacity = _INITIAL_CAPACITY
        self._slots = np.zeros((n_spine, self._capacity), dtype=np.uint32)
        self._values = np.zeros(
            (n_spine, n_messages, self._capacity),
            dtype=np.complex128 if complex_valued else np.float64,
        )
        self._csi: np.ndarray | None = None
        self._has_csi = False
        self._counts = np.zeros(n_spine, dtype=np.int64)

    @property
    def has_csi(self) -> bool:
        return self._has_csi

    @property
    def n_symbols(self) -> int:
        """Symbols in the shared layout (per message that received them all)."""
        return int(self._counts.sum())

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        self._slots = _grown(self._slots, capacity)
        self._values = _grown(self._values, capacity)
        if self._csi is not None:
            self._csi = _grown(self._csi, capacity)
        self._capacity = capacity

    def checkpoint(self) -> np.ndarray:
        """Snapshot of the per-spine fill counts (give to :meth:`prefix`)."""
        return self._counts.copy()

    def add_block(
        self,
        spine_indices: np.ndarray,
        slots: np.ndarray,
        values: np.ndarray,
        rows: np.ndarray | None = None,
        csi: np.ndarray | None = None,
    ) -> None:
        """Scatter one subpass block for the messages in ``rows``.

        ``values`` (and ``csi`` when given) have shape
        ``(len(rows), block_length)``.  Advances the shared layout counts
        once, regardless of how many rows are active.
        """
        spine_indices = np.asarray(spine_indices)
        slots = np.asarray(slots)
        values = np.asarray(values)
        if rows is None:
            rows_idx = np.arange(self.n_messages, dtype=np.intp)
        else:
            rows_idx = np.asarray(rows, dtype=np.intp)
        if slots.size != spine_indices.size:
            raise ValueError("spine_indices and slots must align")
        if values.shape != (rows_idx.size, spine_indices.size):
            raise ValueError("values must have shape (n_rows, block_length)")
        if csi is not None:
            csi = np.asarray(csi)
            if csi.shape != values.shape:
                raise ValueError("csi must align with values")
            if not self._has_csi and self._counts.any():
                # Earlier symbols have no coefficient; zero-filling them
                # would silently corrupt branch costs.
                raise ValueError(
                    "store already holds CSI-less symbols; CSI must be "
                    "provided from the first block"
                )
            self._has_csi = True
            if self._csi is None:
                self._csi = np.zeros(
                    (self.n_spine, self.n_messages, self._capacity),
                    dtype=np.complex128,
                )
        elif self._has_csi and spine_indices.size:
            raise ValueError("store already holds CSI; blocks must keep providing it")
        if spine_indices.size == 0:
            return
        order, srows, cols, uniq, cnt = _scatter_layout(
            spine_indices, self.n_spine, self._counts
        )
        self._ensure_capacity(int(cols.max()) + 1)
        slots = slots.ravel()
        if order is not None:
            slots, values = slots[order], values[:, order]
        self._slots[srows, cols] = slots
        self._values[srows[None, :], rows_idx[:, None], cols[None, :]] = values
        if csi is not None:
            if order is not None:
                csi = csi[:, order]
            self._csi[srows[None, :], rows_idx[:, None], cols[None, :]] = csi
        self._counts[uniq] += cnt

    def prefix(self, rows: np.ndarray, counts: np.ndarray) -> "BatchReceivedView":
        """Panel view: message subset ``rows`` at fill state ``counts``.

        The view shares the underlying arrays; it stays valid as more blocks
        are appended (appends only touch columns past the checkpoint).
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n_spine,) or (counts > self._counts).any():
            raise ValueError("checkpoint does not match this store")
        return BatchReceivedView(self, np.asarray(rows, dtype=np.intp), counts)


class BatchReceivedView:
    """What :class:`repro.core.decoder.BubbleDecoder` searches: a row subset
    of a :class:`BatchReceivedSymbols` at one checkpoint."""

    def __init__(
        self, store: BatchReceivedSymbols, rows: np.ndarray, counts: np.ndarray
    ):
        self._store = store
        self.rows = rows
        # Every row in store order (a whole cohort, or a one-message
        # store) reads as a slice instead of a row gather.
        self._sel: slice | np.ndarray = (
            slice(None) if np.array_equal(rows, np.arange(store.n_messages))
            else rows)
        self._counts = counts
        self.n_spine = store.n_spine
        self.n_rows = rows.size
        self.complex_valued = store.complex_valued
        self.n_symbols = int(counts.sum())  # per message

    @property
    def has_csi(self) -> bool:
        return self._store.has_csi

    def take(self, keep: np.ndarray) -> "BatchReceivedView":
        """This checkpoint for the rows at positions ``keep`` of this view."""
        return BatchReceivedView(self._store, self.rows[keep], self._counts)

    def for_spine(
        self, i: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(slots, values, csi-or-None); values/csi shaped ``(n_rows, n_slots)``."""
        c = self._counts[i]
        store = self._store
        csi = store._csi[i, self._sel, :c] if store.has_csi else None
        return store._slots[i, :c], store._values[i, self._sel, :c], csi


_ROW0 = np.zeros(1, dtype=np.intp)


def _one_row(
    panel: tuple[np.ndarray, np.ndarray, np.ndarray | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A one-row ``for_spine`` panel as 1-D ``(slots, values, csi)``."""
    slots, values, csi = panel
    return slots, values[0], None if csi is None else csi[0]


class ReceivedSymbols:
    """One message's store of (slot, value[, csi]) observations.

    The M=1 case of :class:`BatchReceivedSymbols`: blocks arrive as 1-D
    arrays and :meth:`for_spine` returns 1-D panels.
    """

    def __init__(self, n_spine: int, complex_valued: bool = True):
        self._batch = BatchReceivedSymbols(n_spine, 1, complex_valued)
        self.n_spine = n_spine
        self.complex_valued = complex_valued

    def __len__(self) -> int:
        return self.n_symbols

    @property
    def n_symbols(self) -> int:
        return self._batch.n_symbols

    @property
    def has_csi(self) -> bool:
        return self._batch.has_csi

    def checkpoint(self) -> np.ndarray:
        """Snapshot of the per-spine fill counts (give to :meth:`prefix`)."""
        return self._batch.checkpoint()

    def add_block(
        self,
        spine_indices: np.ndarray,
        slots: np.ndarray,
        values: np.ndarray,
        csi: np.ndarray | None = None,
    ) -> None:
        """Record a received symbol block (one or more subpasses)."""
        spine_indices = np.asarray(spine_indices).ravel()
        if np.size(values) != spine_indices.size:
            raise ValueError("spine_indices, slots and values must align")
        if csi is not None:
            csi = np.reshape(csi, (1, -1))
        self._batch.add_block(
            spine_indices, np.ravel(slots), np.reshape(values, (1, -1)),
            csi=csi,
        )

    def batch_view(self) -> BatchReceivedView:
        """The whole store as a one-row batch view (what the decoder reads)."""
        return self._batch.prefix(_ROW0, self._batch.checkpoint())

    def for_spine(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(slots, values, csi-or-None) arrays for spine position ``i``."""
        return _one_row(self.batch_view().for_spine(i))

    def prefix(self, counts: np.ndarray) -> "ReceivedPrefix":
        """O(1) view of the store as it was at a :meth:`checkpoint`."""
        return ReceivedPrefix(self._batch.prefix(_ROW0, counts))


class ReceivedPrefix:
    """Read-only view of a :class:`ReceivedSymbols` prefix (one checkpoint).

    Implements the store interface the decoders consume (``n_spine``,
    ``n_symbols``, ``for_spine``, ``batch_view``), so a session can decode
    "the symbols of the first g subpasses" without copying anything.
    """

    def __init__(self, view: BatchReceivedView):
        self._view = view
        self.n_spine = view.n_spine
        self.complex_valued = view.complex_valued
        self.n_symbols = view.n_symbols

    def __len__(self) -> int:
        return self.n_symbols

    @property
    def has_csi(self) -> bool:
        return self._view.has_csi

    def batch_view(self) -> BatchReceivedView:
        return self._view

    def for_spine(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        return _one_row(self._view.for_spine(i))
