"""Generic belief propagation over parity-style factor graphs.

One engine serves both baselines that need it:

- **LDPC** (§8 "forty full iterations ... floating point"): every check is
  a pure parity constraint.
- **Raptor** (§8.2): LT output nodes are parity checks *with a channel
  observation attached* — the received symbol's LLR enters the check update
  as one extra tanh factor.  Precode checks remain pure parity.

The engine is edge-vectorised: messages live on flat edge arrays ordered by
check, with a cached permutation to variable order, so each iteration is a
handful of ``np.add.reduceat`` calls regardless of graph shape.

Everything that does not change between iterations is prepared once: the
segment boundaries and the empty-segment handling in ``__init__``, the
per-edge check observations at the top of :meth:`BeliefPropagation.decode`.
The iterations work in place where they can.  Every magnitude goes through
the same floating-point operations in the same order as the plain
formulation; signs are combined as parities, which is exact because they
are products of +-1.

LLR convention: positive favours bit value 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BeliefPropagation"]

_TANH_CLIP = 1.0 - 1e-12
_TANH_FLOOR = 1e-30  # |tanh| floor: zero-LLR messages must multiply to ~0, not NaN
_LLR_CLIP = 40.0


def _live_segments(starts: np.ndarray, n_edges: int) -> np.ndarray | None:
    """Indices of the non-empty reduceat segments; None if all are."""
    live = np.diff(np.append(starts, n_edges)) > 0
    return None if live.all() else np.flatnonzero(live)


def _reduce_segments(
    ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray,
    live: np.ndarray | None,
) -> np.ndarray:
    """``ufunc`` reduced over each segment; an empty segment gives 0."""
    if live is None:
        return ufunc.reduceat(values, starts)
    reduced = ufunc.reduceat(values, starts[live])
    out = np.zeros(starts.size, dtype=reduced.dtype)
    out[live] = reduced
    return out


class BeliefPropagation:
    """Sum-product decoder on a bipartite (check, variable) graph.

    Parameters
    ----------
    check_index, var_index:
        Edge lists: edge e connects check ``check_index[e]`` to variable
        ``var_index[e]``.
    n_checks, n_vars:
        Graph dimensions (checks/variables with no edges are allowed).
    """

    def __init__(
        self,
        check_index: np.ndarray,
        var_index: np.ndarray,
        n_checks: int,
        n_vars: int,
    ):
        check_index = np.asarray(check_index, dtype=np.int64)
        var_index = np.asarray(var_index, dtype=np.int64)
        if check_index.shape != var_index.shape:
            raise ValueError("edge arrays must align")
        # (check, var) order; one stable argsort of a combined key is the
        # same permutation as np.lexsort((var_index, check_index)), faster
        span = int(var_index.max()) + 1 if var_index.size else 1
        order = np.argsort(check_index * span + var_index, kind="stable")
        self.check_index = check_index[order]
        self.var_index = var_index[order]
        self.n_edges = self.check_index.size
        self.n_checks = n_checks
        self.n_vars = n_vars
        # reduceat boundaries for check-ordered sums
        self._check_starts = np.searchsorted(
            self.check_index, np.arange(n_checks)
        )
        # permutation into variable order and its boundaries
        self._to_var_order = np.argsort(self.var_index, kind="stable")
        self._var_sorted_vars = self.var_index[self._to_var_order]
        self._var_starts = np.searchsorted(
            self._var_sorted_vars, np.arange(n_vars)
        )
        # reduceat cannot express an empty segment (it repeats a neighbour's
        # value, or fails past the last edge): the non-empty segments, or
        # None when there is no empty one
        self._live_checks = _live_segments(self._check_starts, self.n_edges)
        self._live_vars = _live_segments(self._var_starts, self.n_edges)

    # -- helpers -----------------------------------------------------------

    def _check_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-check sums of an edge array (check order)."""
        return _reduce_segments(np.add, edge_values, self._check_starts,
                                self._live_checks)

    def _var_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-variable sums of an edge array (check order in, var totals out)."""
        in_var_order = edge_values[self._to_var_order]
        return _reduce_segments(np.add, in_var_order, self._var_starts,
                                self._live_vars)

    # -- main loop ---------------------------------------------------------

    def decode(
        self,
        channel_llrs: np.ndarray,
        iterations: int = 40,
        check_obs_llrs: np.ndarray | None = None,
        early_exit: bool = True,
        algorithm: str = "sum-product",
        min_sum_scale: float = 0.8,
    ) -> tuple[np.ndarray, bool]:
        """Run BP; returns (hard bits, all-parity-checks-satisfied).

        Parameters
        ----------
        channel_llrs: per-variable intrinsic LLRs (0 for unobserved vars).
        iterations: full sum-product iterations (paper: 40).
        check_obs_llrs: optional per-check observation LLRs (Raptor LT
            output nodes); +inf (the default) is a hard parity check.
        early_exit: stop when hard decisions satisfy all pure parity
            checks (only meaningful when every check is pure parity).
        algorithm: "sum-product" (the paper's floating-point decoder) or
            "min-sum" (normalised min-sum, the usual hardware
            approximation; pure parity checks only).
        min_sum_scale: the min-sum normalisation factor alpha.
        """
        if algorithm not in ("sum-product", "min-sum"):
            raise ValueError(f"unknown BP algorithm {algorithm!r}")
        if algorithm == "min-sum" and check_obs_llrs is not None:
            raise ValueError("min-sum supports pure parity checks only")
        chan = np.clip(np.asarray(channel_llrs, dtype=np.float64),
                       -_LLR_CLIP, _LLR_CLIP)
        if chan.size != self.n_vars:
            raise ValueError("channel_llrs must have one entry per variable")
        if check_obs_llrs is None:
            obs_sign = np.ones(self.n_checks)
            obs_logmag = np.zeros(self.n_checks)
            pure_parity = True
        else:
            obs = np.asarray(check_obs_llrs, dtype=np.float64)
            t = np.tanh(np.clip(obs, -_LLR_CLIP, _LLR_CLIP) / 2.0)
            t = np.clip(t, -_TANH_CLIP, _TANH_CLIP)
            obs_sign = np.sign(t)
            obs_sign[obs_sign == 0] = 1.0
            obs_logmag = np.log(np.maximum(np.abs(t), _TANH_FLOOR))
            infinite = ~np.isfinite(obs) & (obs > 0)
            obs_logmag[infinite] = 0.0
            obs_sign[infinite] = 1.0
            pure_parity = False

        check_index = self.check_index
        var_index = self.var_index
        # per-edge observation terms, constant over the iterations
        edge_obs_logmag = obs_logmag[check_index]
        edge_obs_sign = obs_sign[check_index]
        track_syndrome = early_exit and pure_parity

        v2c = chan[var_index]
        posterior = chan
        for _ in range(iterations):
            if algorithm == "min-sum":
                c2v = self._min_sum_check_update(v2c, min_sum_scale)
            else:
                # ---- check update (sign/log-magnitude split) ----
                t = v2c / 2.0
                np.tanh(t, out=t)
                np.clip(t, -_TANH_CLIP, _TANH_CLIP, out=t)
                neg = (t < 0).view(np.uint8)
                logmag = np.abs(t, out=t)
                np.maximum(logmag, _TANH_FLOOR, out=logmag)
                np.log(logmag, out=logmag)
                total_logmag = self._check_sums(logmag)
                # a check's sign is -1 when it has an odd count of
                # negative factors
                check_odd = self._check_sums(neg) & 1
                e_logmag = total_logmag[check_index] - logmag
                e_logmag += edge_obs_logmag
                # leave-one-out sign check_sign * sign as +-1.0: products
                # of +-1 are exact, so this equals multiplying the signs
                e_sign = (check_odd[check_index] ^ neg).astype(np.float64)
                e_sign *= -2.0
                e_sign += 1.0
                e_sign *= edge_obs_sign
                prod = np.minimum(e_logmag, 0.0, out=e_logmag)
                np.exp(prod, out=prod)
                prod *= e_sign
                np.clip(prod, -_TANH_CLIP, _TANH_CLIP, out=prod)
                c2v = np.arctanh(prod, out=prod)
                c2v *= 2.0
                np.clip(c2v, -_LLR_CLIP, _LLR_CLIP, out=c2v)

            # ---- variable update ----
            var_total = self._var_sums(c2v)
            posterior = chan + var_total
            v2c = posterior[var_index]
            v2c -= c2v
            np.clip(v2c, -_LLR_CLIP, _LLR_CLIP, out=v2c)

            if track_syndrome:
                hard = (posterior < 0).astype(np.uint8)
                if self.syndrome_ok(hard):
                    return hard, True

        hard = (posterior < 0).astype(np.uint8)
        ok = pure_parity and self.syndrome_ok(hard)
        return hard, ok

    def _min_sum_check_update(
        self, v2c: np.ndarray, scale: float
    ) -> np.ndarray:
        """Normalised min-sum: c2v = alpha * prod(signs) * min(|others|).

        The leave-one-out minimum is the segment minimum for every edge
        except the (first) minimal edge itself, which takes the second
        minimum; on ties the second minimum equals the first, so ties are
        handled for free.
        """
        starts, live = self._check_starts, self._live_checks
        vabs = np.abs(v2c)
        m1 = _reduce_segments(np.minimum, vabs, starts, live)
        # first occurrence of the minimum within each check segment
        is_min = vabs == m1[self.check_index]
        csum = np.cumsum(is_min)
        seg_base = (csum - is_min)[starts[self.check_index]]
        first_min = is_min & (csum - seg_base == 1)
        masked = np.where(first_min, np.inf, vabs)
        m2 = _reduce_segments(np.minimum, masked, starts, live)
        excl_min = np.where(first_min, m2[self.check_index],
                            m1[self.check_index])

        neg = (v2c < 0).astype(np.float64)
        total_neg = self._check_sums(neg)
        check_sign = np.where(total_neg % 2 == 1, -1.0, 1.0)
        e_sign = check_sign[self.check_index] * np.where(v2c < 0, -1.0, 1.0)
        c2v = scale * e_sign * excl_min
        # a degree-1 check has no "others": its message is vacuous
        c2v[~np.isfinite(c2v)] = 0.0
        return np.clip(c2v, -_LLR_CLIP, _LLR_CLIP)

    def syndrome_ok(self, bits: np.ndarray) -> bool:
        """True when every check's variables XOR to zero."""
        parities = self._check_sums(
            bits[self.var_index].astype(np.float64)
        ) % 2
        return not parities.any()
