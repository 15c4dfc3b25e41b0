"""Golden vectors for the baseline decode kernels.

The digests below were captured from the straightforward implementations of
the max-log BCJR, belief propagation and LT kernels (separate forward and
backward recursions, per-iteration gathers, per-output neighbour lists).
Any optimisation of those kernels must reproduce them exactly: each digest
is the sha256 of the ``.tobytes()`` of the kernel's outputs.

Floating-point outputs are hashed only where every operation is exactly
rounded (adds, multiplies by +-1/2, max).  Belief propagation runs through
``tanh``/``log``/``arctanh``, whose last bit may differ between CPUs, so
its cases hash hard decisions instead, at several iteration counts, which
still pins the per-iteration message flow.  Min-sum has no transcendental
step, so its per-iteration variable sums are hashed as floats.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.fountain.lt import LTStream
from repro.fountain.raptor import RaptorCodec
from repro.ldpc.bp import BeliefPropagation
from repro.ldpc.construction import make_qc_ldpc
from repro.modulation import soft_demap
from repro.strider.bcjr import BcjrTrellis, max_log_bcjr
from repro.strider.rsc import RscCode
from repro.strider.turbo import TurboCodec


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# -- max-log BCJR -----------------------------------------------------------

_BCJR_CODES = {"rsc13": (13, (15, 17)), "rsc7": (7, (5,))}
_BCJR_SCALES = (0.1, 1.0, 5.0, 40.0)


def _bcjr_case(code: str, terminated: bool, with_apriori: bool) -> str:
    feedback, feedforward = _BCJR_CODES[code]
    rsc = RscCode(feedback=feedback, feedforward=feedforward)
    trellis = BcjrTrellis(rsc)
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=45)
    sys_bits, par_bits, _ = rsc.encode(bits, terminate=terminated)
    outputs = []
    for scale in _BCJR_SCALES:
        sys_llr = scale * (1.0 - 2.0 * sys_bits) + rng.normal(
            0.0, scale, sys_bits.size)
        par_llr = scale * (1.0 - 2.0 * par_bits) + rng.normal(
            0.0, scale, par_bits.shape)
        apri = rng.normal(0.0, scale, sys_bits.size) if with_apriori else None
        llr, ext = max_log_bcjr(trellis, sys_llr, par_llr, apri,
                                terminated=terminated)
        outputs += [llr, ext]
    return _digest(*outputs)


# -- belief propagation -----------------------------------------------------

class _Recording(BeliefPropagation):
    """Keeps every per-variable sum the decoder computes."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sums: list[np.ndarray] = []

    def _var_sums(self, edge_values):
        out = super()._var_sums(edge_values)
        self.sums.append(out.copy())
        return out


def _raptor_graph() -> tuple[BeliefPropagation, np.ndarray, np.ndarray]:
    """An LT + precode graph with demapped observations and +inf checks."""
    codec = RaptorCodec(128, "qam-16", lt_seed=3, precode_seed=4)
    rng = np.random.default_rng(5)
    message = rng.integers(0, 2, size=128, dtype=np.uint8)
    intermediate = codec.encode_intermediate(message)
    n_out = 180
    out_bits = codec.lt.encode_range(intermediate, 0, n_out)
    obs = 2.5 * (1.0 - 2.0 * out_bits) + rng.normal(0.0, 2.0, n_out)
    checks, vars_ = [], []
    for j in range(n_out):
        nbrs = codec.lt.neighbours(j)
        checks.append(np.full(nbrs.size, j))
        vars_.append(nbrs)
    pc_c, pc_v = codec.precode.check_edges()
    n_pc = codec.precode.n_parity
    bp = BeliefPropagation(
        np.concatenate(checks + [pc_c + n_out]),
        np.concatenate(vars_ + [pc_v]),
        n_out + n_pc, codec.precode.n_intermediate)
    obs_all = np.concatenate([obs, np.full(n_pc, np.inf)])
    return bp, np.zeros(codec.precode.n_intermediate), obs_all


def _ldpc_llrs(sigma: float, seed: int) -> tuple[tuple, np.ndarray]:
    ci, vi, n, m = make_qc_ldpc("1/2", z=27, seed=2012)
    rng = np.random.default_rng(seed)
    # the all-zero word is a codeword of every linear code
    llrs = 2.0 / sigma**2 * (1.0 + rng.normal(0.0, sigma, n))
    return (ci, vi, m, n), llrs


def _bp_sweep(bp: BeliefPropagation, chan, iterations=(1, 2, 3, 5, 8, 40),
              **kwargs) -> list[np.ndarray]:
    outputs = []
    for it in iterations:
        hard, ok = bp.decode(chan, iterations=it, **kwargs)
        outputs += [hard, np.array([ok])]
    return outputs


def _bp_case(name: str) -> str:
    if name == "raptor-sum-product":
        bp, chan, obs = _raptor_graph()
        return _digest(*_bp_sweep(bp, chan, check_obs_llrs=obs,
                                  early_exit=False))
    if name == "parity-early-exit":
        outputs = []
        for sigma, seed in ((0.8, 1), (0.95, 2), (1.3, 3)):
            graph, llrs = _ldpc_llrs(sigma, seed)
            outputs += _bp_sweep(BeliefPropagation(*graph), llrs)
        return _digest(*outputs)
    if name == "min-sum":
        graph, llrs = _ldpc_llrs(0.9, 4)
        bp = _Recording(*graph)
        outputs = _bp_sweep(bp, llrs, iterations=(3, 20),
                            algorithm="min-sum", early_exit=False)
        return _digest(*outputs, *bp.sums)
    if name == "empty-check-and-variable":
        # check 1 and variable 3 have no edges
        checks = np.array([0, 0, 2, 2, 2, 3, 3])
        vars_ = np.array([0, 1, 1, 2, 4, 0, 4])
        chan = np.array([1.5, -0.4, 0.7, 2.0, -0.9])
        obs = np.array([0.6, -1.0, np.inf, -2.5])
        outputs = _bp_sweep(BeliefPropagation(checks, vars_, 4, 5), chan,
                            check_obs_llrs=obs, early_exit=False)
        outputs += _bp_sweep(BeliefPropagation(checks, vars_, 4, 5), chan)
        bp = _Recording(checks, vars_, 4, 5)
        outputs += _bp_sweep(bp, chan, algorithm="min-sum")
        return _digest(*outputs, *bp.sums)
    raise KeyError(name)


# -- LT stream and the Raptor codec -----------------------------------------

def _lt_case(name: str) -> str:
    lt = LTStream(50, seed=9)
    block = np.random.default_rng(10).integers(0, 2, size=50, dtype=np.uint8)
    if name == "encode-split-ranges":
        # out of order, empty and overlapping ranges, growing the stream
        # in uneven steps
        ranges = ((0, 0), (37, 0), (5, 17), (0, 37), (37, 63), (0, 100),
                  (150, 0), (120, 40))
        return _digest(*(lt.encode_range(block, s, c) for s, c in ranges))
    if name == "neighbours":
        late = lt.neighbours(80)   # grows the stream past 0..79 first
        sets = [lt.neighbours(j) for j in range(120)]
        return _digest(late, *sets, np.array([s.size for s in sets]))
    raise KeyError(name)


def _raptor_decode_case() -> str:
    codec = RaptorCodec(128, "qam-16", lt_seed=11, precode_seed=12)
    rng = np.random.default_rng(13)
    message = rng.integers(0, 2, size=128, dtype=np.uint8)
    intermediate = codec.encode_intermediate(message)
    syms = codec.symbols(intermediate, 0, 60)
    noise_power = 0.05
    rx = syms + np.sqrt(noise_power / 2) * (
        rng.normal(size=syms.size) + 1j * rng.normal(size=syms.size))
    outputs = [syms]
    for count in (30, 45, 60):
        llrs = soft_demap(codec.constellation, rx[:count], noise_power)
        bits, ok = codec.decode(llrs, iterations=40)
        outputs += [bits, np.array([ok])]
    return _digest(*outputs)


def _turbo_case() -> str:
    turbo = TurboCodec(64, interleaver_seed=3, iterations=4)
    rng = np.random.default_rng(14)
    coded = turbo.encode(rng.integers(0, 2, size=64, dtype=np.uint8))
    llrs = 1.2 * (1.0 - 2.0 * coded) + rng.normal(0.0, 1.6, coded.size)
    return _digest(turbo.decode(llrs))


CASES = {
    **{f"bcjr-{code}-{'term' if term else 'open'}-"
       f"{'apriori' if apri else 'none'}":
       (lambda code=code, term=term, apri=apri: _bcjr_case(code, term, apri))
       for code in _BCJR_CODES for term in (True, False)
       for apri in (True, False)},
    **{f"bp-{name}": (lambda name=name: _bp_case(name))
       for name in ("raptor-sum-product", "parity-early-exit", "min-sum",
                    "empty-check-and-variable")},
    **{f"lt-{name}": (lambda name=name: _lt_case(name))
       for name in ("encode-split-ranges", "neighbours")},
    "raptor-decode": _raptor_decode_case,
    "turbo-decode": _turbo_case,
}

GOLDEN = {
    "bcjr-rsc13-open-apriori": "4cf19a2d3065106ddd39dd2c3d1eeef054e2c4c5bbafee4ed5e06f0c8aeae4e6",
    "bcjr-rsc13-open-none": "8b4b4f3f99bb5db7cac5e1df65090ce4eea094127f4effae892843960da3e7ca",
    "bcjr-rsc13-term-apriori": "84b2c7b238159873c258b7e15e1ace127323befcd4640d44533b2119bc3726b8",
    "bcjr-rsc13-term-none": "047ed0d96327fa3f57d264c8c7ab8812ca93430bb180acb6f8a01153af343930",
    "bcjr-rsc7-open-apriori": "dff04141b96e2bd335fa9cdfd4bc2c12deb6cf8b5b4676d2c40026387a6b255a",
    "bcjr-rsc7-open-none": "41b5555001868912f78a08a1ee46dd4762b36e19f8bf3abdcabd5efdb692fbe4",
    "bcjr-rsc7-term-apriori": "f8eba955571b29cd3fda6f4611c08ce6d0fa07dd6dcd252e4235fd6da30997f7",
    "bcjr-rsc7-term-none": "b593d78d616e9ecef01d1ad22e26922d234036bacacf0e7d8657f280ded9a205",
    "bp-empty-check-and-variable": "a7ac546adf10aa3cf26ed5659e17ddc3f96b35cc9664147fda1071e2c1e01544",
    "bp-min-sum": "54e3aa808f0e1fb5e68c670fabe2811332ae0223f845d959a4e2a5f5d4c64222",
    "bp-parity-early-exit": "554937a4e1a9e837389f8d56b2571329491e11aefa4f4b476489865f896cd75e",
    "bp-raptor-sum-product": "4204feda5e13a204e5fe17eae922e2c090818a04358153eb371b490dfa5e50b1",
    "lt-encode-split-ranges": "f211f8e9fec9a9b632387ec57553a8a30508c9c28906e99707d0372c07681aaa",
    "lt-neighbours": "5e64a7a05b95f5f72e7bf98f3f79bc82015f60cdc87492c144cab5f8302152ba",
    "raptor-decode": "1c71bd4fac80453c148776878b5a246092288975b528fed1e382e5ccc6119b19",
    "turbo-decode": "9785c49ce0657379fa6a8b747a6c2e083ae2ae0720601ddbc44c45ec1e12d788",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert CASES[name]() == GOLDEN[name]


def test_every_case_has_a_digest():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    # Prints the digest table; paste it over GOLDEN only when the kernels'
    # outputs are meant to change.
    for case in sorted(CASES):
        print(f'    "{case}": "{CASES[case]()}",')
