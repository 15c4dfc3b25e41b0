"""Per-kernel microbenchmarks for the decode hot path, per backend.

The bubble decoder spends its time in three kernels — the spine hash, the
branch-cost evaluation, and beam selection — and ``repro.obs`` now reports
their live shares per run (``--metrics``).  This suite tracks each kernel
in isolation with pytest-benchmark so a regression is attributable to one
kernel, not just "decode got slower":

- ``hash``: every registered spine hash (:func:`repro.core.hashes.
  available_hashes`) over beam-sized and cohort-sized uint32 state arrays,
  the exact shapes the tree expansion hashes each step; plus
  one-at-a-time on the decoder's broadcast shapes (a beam against the
  edges, children against the slots), where its state rounds run at the
  smaller state shape;
- ``branch_cost``: the backend's ``branch_costs_batch`` kernel on one
  message's panel of one spine position, exactly what a decoder step
  passes it — broadcast hash + distance arithmetic over all received
  symbols of that position — for the paper's AWGN code, the rate-1/3 BSC
  code, and a fading store with per-symbol CSI;
- ``select``: :func:`repro.core.decoder.select_beams` (argpartition
  subtree pruning) for one message (a one-row input) and a 16-message
  cohort;
- ``bcjr``: one max-log BCJR call of Strider's turbo decoder (the 8-state
  RSC over T=163 trellis steps, a 160-bit layer plus its tail), once on
  the numpy reference loop and once on the compiled recursion
  (:mod:`repro.native`, record suffix ``@c``).

The hash and branch-cost benchmarks run once per available backend
(:mod:`repro.backend`): numpy always, numba when installed.  numpy records
keep their historical names (so the committed ``kernels`` baseline stays
comparable); numba records get an ``@numba`` name suffix plus a
``backend`` field.  Selection is backend-shared by contract and measured
once.

Run with ``pytest benchmarks/bench_kernels.py``; a session teardown writes
``bench_results/BENCH_kernels.json`` (mean/stddev/rounds per kernel) and,
when both backends ran, ``bench_results/BENCH_kernels_backend.json`` with
per-kernel numpy/numba timing pairs and their machine-free speedup ratios
— the numbers ``repro.obs.perf compare`` gates against the committed
``kernels_backend`` baseline.  Not collected by the tier-1 suite
(``testpaths = ["tests"]``).
"""

import numpy as np
import pytest

from _common import write_json
from repro.backend import get_backend, use_backend
from repro.backend.numba_backend import NUMBA_AVAILABLE
from repro.channels import AWGNChannel, BSCChannel
from repro.core.decoder import select_beams
from repro.core.encoder import SpinalEncoder
from repro.core.hashes import available_hashes, get_hash
from repro.core.params import SpinalParams
from repro.core.symbols import ReceivedSymbols
from repro.strider import bcjr
from repro.strider.rsc import RscCode
from repro.utils.bitops import random_message

# Array sizes matching what one tree-expansion step hashes: a full beam of
# B=256 subtrees x 2^k children, and a 16-message batch cohort of the same.
BEAM = 256 * 16
COHORT = 16 * BEAM

#: ``branch_cost`` configurations: (code params, message bits, SNR-ish x).
CONFIGS = {
    "awgn_k4_c6": (SpinalParams(), 32, 8.0),
    "bsc_k4": (SpinalParams.bsc(), 32, 0.05),
}

BACKENDS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("numba", id="numba", marks=pytest.mark.skipif(
        not NUMBA_AVAILABLE, reason="numba not installed")),
]


@pytest.fixture(scope="session")
def kernel_records():
    """Collects one record per benchmark; written to JSON at teardown."""
    records = []
    yield records
    write_json("BENCH_kernels", {
        "suite": "kernels",
        "records": sorted(records, key=lambda r: (r["group"], r["name"])),
    })
    # Cross-backend speedup pairs (numpy mean / numba mean per kernel):
    # only when the numba leg actually ran, so numpy-only hosts never
    # write a partial kernels_backend payload.
    numba_recs = {
        (r["group"], r["name"][:-len("@numba")]): r
        for r in records
        if r.get("backend") == "numba" and r["name"].endswith("@numba")
    }
    if not numba_recs:
        return
    pairs = []
    for r in records:
        if r.get("backend") != "numpy":
            continue
        other = numba_recs.get((r["group"], r["name"]))
        if other is None or "mean_s" not in r or "mean_s" not in other:
            continue
        pairs.append({
            "group": r["group"],
            "name": r["name"],
            "numpy_mean_s": r["mean_s"],
            "numba_mean_s": other["mean_s"],
            "speedup": r["mean_s"] / other["mean_s"],
        })
    write_json("BENCH_kernels_backend", {
        "suite": "kernels_backend",
        "pairs": sorted(pairs, key=lambda p: (p["group"], p["name"])),
    })


def _record(kernel_records, benchmark, group, name, **meta):
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    record = {"group": group, "name": name, **meta}
    if stats is not None:
        record.update(
            mean_s=float(stats.mean),
            stddev_s=float(stats.stddev),
            rounds=int(stats.rounds),
        )
    kernel_records.append(record)


def _suffix(backend):
    """numpy keeps the historical metric names; others are suffixed."""
    return "" if backend == "numpy" else f"@{backend}"


# ---------------------------------------------------------------------------
# hash kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_states", [BEAM, COHORT], ids=["beam", "cohort"])
@pytest.mark.parametrize("hash_name", available_hashes())
def test_hash_kernel(benchmark, kernel_records, hash_name, n_states, backend):
    rng = np.random.default_rng(7)
    states = rng.integers(0, 2**32, size=n_states, dtype=np.uint32)
    data = rng.integers(0, 2**16, size=n_states, dtype=np.uint32)
    with use_backend(backend):
        hash_fn = get_hash(hash_name)
        out = benchmark(hash_fn, states, data)
    assert out.shape == states.shape and out.dtype == np.uint32
    _record(kernel_records, benchmark, "hash",
            f"{hash_name}/{n_states}{_suffix(backend)}",
            hash=hash_name, n_states=n_states, backend=backend)


#: Decoder-shaped one-at-a-time calls, ``name -> (state shape, data shape)``:
#: a beam of B=256 states against the 2^4 edges (the children hash), and a
#: beam's 4096 children against 8 received slots (the branch-cost hash).
#: Unlike the same-shape cases above, these see that the state-byte rounds
#: run at the state's shape.
DECODER_SHAPES = {
    "children": ((256, 1), (16,)),
    "slots": ((1, BEAM), (8, 1)),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(DECODER_SHAPES))
def test_hash_kernel_decoder_shaped(benchmark, kernel_records, case, backend):
    state_shape, data_shape = DECODER_SHAPES[case]
    rng = np.random.default_rng(8)
    states = rng.integers(0, 2**32, size=state_shape, dtype=np.uint32)
    data = rng.integers(0, 2**16, size=data_shape, dtype=np.uint32)
    with use_backend(backend):
        hash_fn = get_hash("one_at_a_time")
        out = benchmark(hash_fn, states, data)
    assert out.shape == np.broadcast_shapes(state_shape, data_shape)
    assert out.dtype == np.uint32
    _record(kernel_records, benchmark, "hash",
            f"one_at_a_time/{case}{_suffix(backend)}",
            hash="one_at_a_time", n_states=int(out.size), backend=backend)


# ---------------------------------------------------------------------------
# branch-cost kernel
# ---------------------------------------------------------------------------

def _filled_store(params, n_bits, x, n_subpasses=4, seed=99):
    """A received-symbol store holding ``n_subpasses`` noisy subpasses."""
    rng = np.random.default_rng(seed)
    encoder = SpinalEncoder(params, random_message(n_bits, rng))
    if params.is_bsc:
        channel = BSCChannel(x, rng=rng)
    else:
        channel = AWGNChannel(x, rng=rng)
    store = ReceivedSymbols(encoder.n_spine, complex_valued=not params.is_bsc)
    block = encoder.generate(0, n_subpasses)
    store.add_block(block.spine_indices, block.slots,
                    channel.transmit(block.values).values)
    return store


def _branch_cost_step(params, store, states):
    """One decoder step's branch-cost call: spine position 1 of ``store``.

    Binds the active backend now, as a decoder does at construction.
    """
    kernel = get_backend().branch_costs_batch
    slots, values, csi = store.batch_view().for_spine(1)
    levels = params.make_mapping().levels
    return lambda: kernel(
        states[None, :], slots, values, csi, hash_name=params.hash_name,
        levels=levels, c=params.c, is_bsc=params.is_bsc)[0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", sorted(CONFIGS), ids=sorted(CONFIGS))
def test_branch_cost_kernel(benchmark, kernel_records, config, backend):
    params, n_bits, x = CONFIGS[config]
    store = _filled_store(params, n_bits, x)
    states = np.random.default_rng(3).integers(
        0, 2**32, size=BEAM, dtype=np.uint32)
    with use_backend(backend):
        costs = benchmark(_branch_cost_step(params, store, states))
    assert costs.shape == (BEAM,) and np.all(costs >= 0.0)
    _record(kernel_records, benchmark, "branch_cost",
            f"{config}{_suffix(backend)}",
            config=config, n_states=BEAM, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_branch_cost_kernel_fading_csi(benchmark, kernel_records, backend):
    """Fading branch costs: the CSI multiply is extra work worth tracking."""
    params = SpinalParams()
    store = _filled_store(params, 32, 8.0)
    # Rebuild the same symbols with unit-magnitude per-symbol CSI attached.
    csi_store = ReceivedSymbols(store.n_spine, complex_valued=True)
    rng = np.random.default_rng(11)
    for i in range(store.n_spine):
        slots, values, _ = store.for_spine(i)
        if slots.size == 0:
            continue
        phases = np.exp(2j * np.pi * rng.random(slots.size))
        csi_store.add_block(np.full(slots.size, i), slots, values, csi=phases)
    states = np.random.default_rng(3).integers(
        0, 2**32, size=BEAM, dtype=np.uint32)
    with use_backend(backend):
        costs = benchmark(_branch_cost_step(params, csi_store, states))
    assert costs.shape == (BEAM,) and np.all(costs >= 0.0)
    _record(kernel_records, benchmark, "branch_cost",
            f"awgn_k4_c6_csi{_suffix(backend)}",
            config="awgn_k4_c6_csi", n_states=BEAM, backend=backend)


# ---------------------------------------------------------------------------
# selection kernel (backend-shared by contract; measured once)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_rows", [1, 16], ids=["one_message", "batch16"])
def test_select_kernel(benchmark, kernel_records, n_rows):
    n_beam = 256
    costs = np.random.default_rng(5).random((n_rows, BEAM))
    kept = benchmark(select_beams, costs, n_beam)
    assert kept.shape == (n_rows, n_beam)
    # one message keeps its historical "<n>/B<beam>" record name
    shape = (BEAM,) if n_rows == 1 else (n_rows, BEAM)
    _record(kernel_records, benchmark, "select",
            f"{'x'.join(map(str, shape))}/B{n_beam}",
            shape=[n_rows, BEAM], n_beam=n_beam)


# ---------------------------------------------------------------------------
# max-log BCJR (Strider's turbo decoder)
# ---------------------------------------------------------------------------

RECURSIONS = {"numpy": bcjr._recursion_numpy, "c": bcjr._load_kernel()}


@pytest.mark.parametrize("recursion", [
    pytest.param("numpy", id="numpy"),
    pytest.param("c", id="c", marks=pytest.mark.skipif(
        RECURSIONS["c"] is None, reason="no C compiler")),
])
def test_bcjr_kernel(benchmark, kernel_records, monkeypatch, recursion):
    trellis = bcjr.BcjrTrellis(RscCode(feedback=13, feedforward=(15, 17)))
    rng = np.random.default_rng(12)
    t_len = 163
    sys_llr = rng.normal(2.0, 2.0, t_len)
    par_llr = rng.normal(2.0, 2.0, (2, t_len))
    apri = rng.normal(0.0, 2.0, t_len)
    monkeypatch.setattr(bcjr, "_KERNEL", RECURSIONS[recursion])
    llr, _ = benchmark(bcjr.max_log_bcjr, trellis, sys_llr, par_llr, apri)
    assert llr.shape == (t_len,)
    _record(kernel_records, benchmark, "bcjr",
            f"strider.bcjr/T{t_len}{'' if recursion == 'numpy' else '@c'}",
            t_len=t_len, recursion=recursion)
