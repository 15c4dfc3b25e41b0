"""LT code: the rateless inner layer of Raptor (Luby 2002; paper §2, §8).

Each output symbol XORs a random subset of intermediate symbols: a degree
drawn from the RFC 5053 table, then that many distinct neighbours chosen
uniformly.  The neighbour stream is generated deterministically from a
shared seed so the transmitter and receiver construct identical graphs —
the fountain-code analogue of the spinal RNG being shared state (§3.2).

The neighbour sets are stored in compressed sparse row (CSR) form: one
flat array of neighbour indices, output after output, plus the offset at
which each output's set starts.  Both arrays grow (with doubling capacity)
as later outputs are requested, drawing from the RNG in the same order as
generating one output at a time, so an output's neighbours never depend on
how the stream was extended.  Range queries are then slices: the Raptor
decoder takes its LT edges straight from :meth:`LTStream.edges`.
"""

from __future__ import annotations

import numpy as np

from repro.fountain.distributions import rfc5053_degree

__all__ = ["LTStream"]


def _reserve(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` itself, or a copy with room for at least ``size`` items."""
    if array.size >= size:
        return array
    grown = np.empty(max(size, 2 * array.size), dtype=array.dtype)
    grown[: array.size] = array
    return grown


class LTStream:
    """Deterministic, index-addressable stream of LT output equations.

    Parameters
    ----------
    n_intermediate: number of intermediate symbols the LT code covers.
    seed: shared seed; both ends derive the same neighbour sets.
    """

    def __init__(self, n_intermediate: int, seed: int):
        if n_intermediate < 2:
            raise ValueError("need at least 2 intermediate symbols")
        self.n_intermediate = n_intermediate
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._count = 0                                   # outputs generated
        self._offsets = np.zeros(1, dtype=np.int64)       # capacity >= count+1
        self._flat = np.empty(0, dtype=np.int64)          # capacity >= offsets[count]

    def _extend_to(self, count: int) -> None:
        first = self._count
        if count <= first:
            return
        rng, n = self._rng, self.n_intermediate
        sets = [rng.choice(n, size=min(rfc5053_degree(rng), n), replace=False)
                for _ in range(count - first)]
        degrees = [s.size for s in sets]
        # sort each output's neighbours: one lexsort keyed by output
        nbrs = np.concatenate(sets)
        owner = np.repeat(np.arange(len(sets)), degrees)
        nbrs = nbrs[np.lexsort((nbrs, owner))]

        base = self._offsets[first]
        end = base + nbrs.size
        self._offsets = _reserve(self._offsets, count + 1)
        self._offsets[first + 1:count + 1] = base + np.cumsum(degrees)
        self._flat = _reserve(self._flat, end)
        self._flat.flags.writeable = True
        self._flat[base:end] = nbrs
        # views handed out (neighbours, edges) stay read-only
        self._flat.flags.writeable = False
        self._count = count

    def neighbours(self, index: int) -> np.ndarray:
        """Intermediate indices XOR-ed into output symbol ``index``."""
        self._extend_to(index + 1)
        return self._flat[self._offsets[index]:self._offsets[index + 1]]

    def edges(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR slice for outputs ``start .. start+count-1``.

        Returns ``(offsets, neighbours)``: output ``start + j`` covers
        ``neighbours[offsets[j]:offsets[j + 1]]``, and ``offsets[0]`` is 0.
        ``neighbours`` is a read-only view of the stream's storage.
        """
        self._extend_to(start + count)
        bounds = self._offsets[start:start + count + 1]
        lo = bounds[0]
        return bounds - lo, self._flat[lo:bounds[-1]]

    def encode_range(
        self, intermediate_bits: np.ndarray, start: int, count: int
    ) -> np.ndarray:
        """Output bits for a range of output indices."""
        intermediate_bits = np.asarray(intermediate_bits, dtype=np.uint8)
        if intermediate_bits.size != self.n_intermediate:
            raise ValueError("intermediate block size mismatch")
        if count == 0:
            return np.empty(0, dtype=np.uint8)
        offsets, nbrs = self.edges(start, count)
        # every output has degree >= 1, so no reduceat segment is empty
        sums = np.add.reduceat(intermediate_bits[nbrs], offsets[:-1],
                               dtype=np.int64)
        return (sums & 1).astype(np.uint8)
