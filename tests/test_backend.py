"""The backend seam: golden vectors, bit-identity, selection plumbing.

The contract under test (see :mod:`repro.backend.base`): every backend
produces bit-identical output — hash words, float64 branch costs, beam
selections, and therefore whole ``DecodeResult``s and store bytes.  The
numba backend's kernels are additionally covered here *without* numba
installed: its ``@njit`` decorator degrades to an identity decorator, so
the same scalar loops run as pure Python against the numpy reference.
When numba is installed (the CI ``bench-smoke (numba)`` leg), the full
cross-backend decode matrix runs against the real compiled kernels.
"""

import os
import warnings

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    BackendFallbackWarning,
    available_backends,
    get_backend,
    reset_backend,
    set_backend,
    use_backend,
)
from repro.backend import numba_backend as nbm
from repro.backend import numpy_backend as npb
from repro.backend.base import Backend
from repro.backend.numba_backend import NUMBA_AVAILABLE
from repro.backend.u32 import MASK32, rotl32
from repro.channels import AWGNChannel, BSCChannel
from repro.core.decoder import BatchBubbleDecoder, BubbleDecoder
from repro.core.encoder import BatchSpinalEncoder, SpinalEncoder
from repro.core.hashes import available_hashes, get_hash, reference_hashes
from repro.core.params import DecoderParams, SpinalParams
from repro.core.symbols import BatchReceivedSymbols, ReceivedSymbols
from repro.utils.bitops import random_message


@pytest.fixture(autouse=True)
def _backend_state():
    """Isolate every test from the process-global backend selection."""
    prev = backend_mod._active
    prev_env = os.environ.get(backend_mod.ENV_VAR)
    yield
    backend_mod._active = prev
    if prev_env is None:
        os.environ.pop(backend_mod.ENV_VAR, None)
    else:
        os.environ[backend_mod.ENV_VAR] = prev_env


def _pure_python_numba_backend() -> Backend:
    """The numba backend's kernels as plain Python (no JIT required).

    With numba absent ``@njit`` is an identity decorator, so these are the
    exact algorithms the compiled backend runs — activating them through
    ``repro.backend._active`` exercises the whole decode path through the
    alternate kernels on any host.
    """
    return Backend(
        name="numba",
        hash_fns={name: nbm._make_hash(hid)
                  for name, hid in nbm._HASH_IDS.items()},
        branch_costs=nbm.branch_costs,
        branch_costs_batch=nbm.branch_costs_batch,
        select_beams=npb.select_beams,
    )


def _alternate_backends():
    """Backends to test against the numpy reference.

    Always the pure-Python form of the numba kernels; additionally the
    real (compiled) numba backend when installed.
    """
    alts = [pytest.param(_pure_python_numba_backend, id="numba-pure-python")]
    if NUMBA_AVAILABLE:
        alts.append(pytest.param(
            lambda: set_backend("numba"), id="numba-jit"))
    return alts


# ---------------------------------------------------------------------------
# golden hash vectors (satellite: instant red/green for backend authors)
# ---------------------------------------------------------------------------

#: (state, data) -> digest, computed from the reference implementations.
GOLDEN_VECTORS = {
    "one_at_a_time": [
        (0x00000000, 0x00000000, 0x00000000),
        (0x00000001, 0x00000002, 0xA8B86EFF),
        (0xDEADBEEF, 0x00001234, 0xFCFED454),
        (0xFFFFFFFF, 0xFFFFFFFF, 0x39229C66),
        (0x12345678, 0x9ABCDEF0, 0x1AA2D8D9),
        (0x12345678, 0x00000007, 0x1F7A91A7),
    ],
    "lookup3": [
        (0x00000000, 0x00000000, 0x58C184BF),
        (0x00000001, 0x00000002, 0x8B4C7979),
        (0xDEADBEEF, 0x00001234, 0xFC210BE8),
        (0xFFFFFFFF, 0xFFFFFFFF, 0x52648E85),
        (0x12345678, 0x9ABCDEF0, 0x74C82AB8),
        (0x12345678, 0x00000007, 0x944D011D),
    ],
    "salsa20": [
        (0x00000000, 0x00000000, 0x4084DB01),
        (0x00000001, 0x00000002, 0x51595E9D),
        (0xDEADBEEF, 0x00001234, 0x7102621A),
        (0xFFFFFFFF, 0xFFFFFFFF, 0x26FFD7DA),
        (0x12345678, 0x9ABCDEF0, 0x70C12A13),
        (0x12345678, 0x00000007, 0x23232BFA),
    ],
}


class TestGoldenVectors:
    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    def test_reference_implementation(self, hash_name):
        fn = reference_hashes()[hash_name]
        states, datas, digests = map(
            np.uint32, zip(*GOLDEN_VECTORS[hash_name]))
        assert np.array_equal(fn(states, datas), digests)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    @pytest.mark.parametrize("make_backend", _alternate_backends())
    def test_alternate_backend(self, hash_name, make_backend):
        fn = make_backend().hash_fns[hash_name]
        states, datas, digests = map(
            np.uint32, zip(*GOLDEN_VECTORS[hash_name]))
        assert np.array_equal(fn(states, datas), digests)

    def test_vectors_cover_every_registered_hash(self):
        assert set(GOLDEN_VECTORS) == set(available_hashes())

    def test_broadcasting_preserved(self):
        """Backend hash wrappers keep the reference broadcast semantics."""
        ref = reference_hashes()["one_at_a_time"]
        alt = _pure_python_numba_backend().hash_fns["one_at_a_time"]
        states = np.arange(6, dtype=np.uint32).reshape(2, 3, 1)
        datas = np.arange(4, dtype=np.uint32)
        a, b = ref(states, datas), alt(states, datas)
        assert a.shape == b.shape == (2, 3, 4)
        assert np.array_equal(a, b)
        # 0-d in, 0-d out
        s = np.uint32(7)
        assert alt(s, s).shape == ()
        assert alt(s, s) == ref(s, s)


# ---------------------------------------------------------------------------
# the shared u32 rotate (satellite: one rotate implementation)
# ---------------------------------------------------------------------------

class TestRotl32:
    def test_matches_python_reference(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2**32, size=64, dtype=np.uint32)
        for k in (1, 7, 13, 18, 31):
            expect = np.uint32([
                ((int(v) << k) | (int(v) >> (32 - k))) & MASK32 for v in x])
            assert np.array_equal(rotl32(x, k), expect)

    def test_in_place_form_matches_expression_form(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2**32, size=33, dtype=np.uint32)
        out = np.empty_like(x)
        scratch = np.empty_like(x)
        for k in (1, 14, 25):
            assert rotl32(x, k, out=out, scratch=scratch) is out
            assert np.array_equal(out, rotl32(x, k))

    def test_scratch_may_alias_x(self):
        """Callers done with x may pass scratch=x (documented legality)."""
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2**32, size=17, dtype=np.uint32)
        expect = rotl32(x, 9)
        out = np.empty_like(x)
        assert np.array_equal(rotl32(x, 9, out=out, scratch=x), expect)

    def test_out_without_scratch_rejected(self):
        with pytest.raises(ValueError, match="scratch"):
            rotl32(np.uint32([1]), 3, out=np.empty(1, np.uint32))


# ---------------------------------------------------------------------------
# branch-cost kernel bit-identity (numba algorithms vs numpy reference)
# ---------------------------------------------------------------------------

class TestBranchCostBitIdentity:
    LEVELS = np.linspace(-1.5, 1.5, 8)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    @pytest.mark.parametrize("with_csi", [False, True],
                             ids=["awgn", "fading-csi"])
    def test_scalar(self, hash_name, with_csi):
        rng = np.random.default_rng(3)
        states = rng.integers(0, 2**32, size=37, dtype=np.uint32)
        slots = rng.integers(0, 100, size=5, dtype=np.uint32)
        values = rng.normal(size=5) + 1j * rng.normal(size=5)
        csi = (rng.normal(size=5) + 1j * rng.normal(size=5)
               if with_csi else None)
        kwargs = dict(hash_name=hash_name, levels=self.LEVELS,
                      c=3, is_bsc=False)
        a = npb.branch_costs(states, slots, values, csi, **kwargs)
        b = nbm.branch_costs(states, slots, values, csi, **kwargs)
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b)  # bitwise, not approx

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    @pytest.mark.parametrize("with_csi", [False, True],
                             ids=["awgn", "fading-csi"])
    def test_batch(self, hash_name, with_csi):
        rng = np.random.default_rng(4)
        states = rng.integers(0, 2**32, size=(4, 21), dtype=np.uint32)
        slots = rng.integers(0, 100, size=5, dtype=np.uint32)
        values = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        csi = (rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
               if with_csi else None)
        kwargs = dict(hash_name=hash_name, levels=self.LEVELS,
                      c=3, is_bsc=False)
        a = npb.branch_costs_batch(states, slots, values, csi, **kwargs)
        b = nbm.branch_costs_batch(states, slots, values, csi, **kwargs)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    def test_bsc(self, hash_name):
        rng = np.random.default_rng(5)
        states = rng.integers(0, 2**32, size=37, dtype=np.uint32)
        slots = rng.integers(0, 100, size=6, dtype=np.uint32)
        values = rng.integers(0, 2, size=6).astype(np.float64)
        kwargs = dict(hash_name=hash_name, levels=self.LEVELS,
                      c=1, is_bsc=True)
        assert np.array_equal(
            npb.branch_costs(states, slots, values, None, **kwargs),
            nbm.branch_costs(states, slots, values, None, **kwargs))
        st2 = states.reshape(-1, 37)[:1].repeat(3, axis=0)
        v2 = rng.integers(0, 2, size=(3, 6)).astype(np.float64)
        assert np.array_equal(
            npb.branch_costs_batch(st2, slots, v2, None, **kwargs),
            nbm.branch_costs_batch(st2, slots, v2, None, **kwargs))

    @pytest.mark.parametrize("hash_name", sorted(GOLDEN_VECTORS))
    @pytest.mark.parametrize("with_csi", [False, True],
                             ids=["awgn", "fading-csi"])
    def test_decoder_shaped(self, hash_name, with_csi):
        """The paper's c=6 code on one decoder step: the children of a
        2-message beam of B=4 (k=4) against one position's slots."""
        params = SpinalParams(c=6, hash_name=hash_name)
        rng = np.random.default_rng(6)
        beam = rng.integers(0, 2**32, size=(2, 4, 1, 1), dtype=np.uint32)
        children = reference_hashes()[hash_name](
            beam, np.arange(1 << params.k, dtype=np.uint32)).reshape(2, -1)
        slots = np.array([1, 33, 65, 97], dtype=np.uint32)
        values = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        csi = (rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
               if with_csi else None)
        kwargs = dict(hash_name=hash_name,
                      levels=params.make_mapping().levels,
                      c=params.c, is_bsc=False)
        a = npb.branch_costs_batch(children, slots, values, csi, **kwargs)
        b = nbm.branch_costs_batch(children, slots, values, csi, **kwargs)
        assert np.array_equal(a, b)

    def test_empty_slots(self):
        """Punctured spine positions cost zero through every backend."""
        states = np.arange(5, dtype=np.uint32)
        slots = np.empty(0, dtype=np.uint32)
        values = np.empty(0, dtype=np.complex128)
        kwargs = dict(hash_name="one_at_a_time", levels=self.LEVELS,
                      c=3, is_bsc=False)
        for mod in (npb, nbm):
            out = mod.branch_costs(states, slots, values, None, **kwargs)
            assert np.array_equal(out, np.zeros(5))
            out2 = mod.branch_costs_batch(
                np.tile(states, (2, 1)), slots,
                values.reshape(2, 0) if mod is nbm else values.reshape(2, 0),
                None, **kwargs)
            assert np.array_equal(out2, np.zeros((2, 5)))


def _direct_awgn_costs(states, slots, values, *, hash_name, levels, c):
    """The per-word AWGN cost formula the distance tables replace:
    gather each word's levels, subtract, square, add, sum over slots."""
    words = reference_hashes()[hash_name](
        states[None, :, :], slots[:, None, None])
    mask = np.uint32((1 << c) - 1)
    x_i = levels[(words & mask).astype(np.intp)]
    x_q = levels[((words >> np.uint32(c)) & mask).astype(np.intp)]
    d_r = values.real.T[:, :, None] - x_i
    d_q = values.imag.T[:, :, None] - x_q
    return (d_r * d_r + d_q * d_q).sum(axis=0)


class TestAwgnTableCosts:
    """The numpy AWGN kernel's distance tables are exact to the bit."""

    @pytest.mark.parametrize("mapping", ["uniform", "gaussian"])
    @pytest.mark.parametrize("c", range(1, 9))
    def test_matches_direct_formula(self, c, mapping):
        levels = SpinalParams(c=c, mapping_name=mapping).make_mapping().levels
        kwargs = dict(hash_name="one_at_a_time", levels=levels, c=c)
        rng = np.random.default_rng(c)
        for n_slots in (0, 1, 2, 5):
            for n_msgs in (1, 3):
                states = rng.integers(0, 2**32, size=(n_msgs, 40),
                                      dtype=np.uint32)
                slots = rng.integers(0, 2**32, size=n_slots, dtype=np.uint32)
                real = 3.0 * rng.normal(size=(n_msgs, n_slots))
                imag = 3.0 * rng.normal(size=(n_msgs, n_slots))
                for values in (real, real + 1j * imag):
                    got = npb.branch_costs_batch(
                        states, slots, values, None, is_bsc=False, **kwargs)
                    expect = _direct_awgn_costs(states, slots, values,
                                                **kwargs)
                    assert got.dtype == np.float64
                    assert got.shape == (n_msgs, 40)
                    assert np.array_equal(got, expect)  # bitwise
                    one = npb.branch_costs(
                        states[0], slots, values[0], None, is_bsc=False,
                        **kwargs)
                    assert np.array_equal(one, expect[0])


# ---------------------------------------------------------------------------
# selection plumbing (satellite: env/CLI precedence, errors, fallback)
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
        reset_backend()
        assert get_backend().name == "numpy"

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "numpy")
        reset_backend()
        assert get_backend().name == "numpy"

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError) as err:
            set_backend("fortran")
        msg = str(err.value)
        assert "fortran" in msg
        for name in available_backends():
            assert name in msg

    def test_unknown_env_var_fails_at_resolution(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "bogus")
        reset_backend()
        with pytest.raises(ValueError, match="bogus"):
            get_backend()

    def test_set_backend_beats_env_var(self, monkeypatch):
        """Explicit selection (the CLI flag path) wins over the env var,
        and exports the resolved name for spawned workers."""
        monkeypatch.setenv(backend_mod.ENV_VAR, "bogus")
        reset_backend()
        b = set_backend("numpy")
        assert b.name == "numpy"
        assert os.environ[backend_mod.ENV_VAR] == "numpy"
        assert get_backend() is b

    def test_cli_flag_rejects_unknown_backend(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(ValueError) as err:
            main(["run", "smoke", "--backend", "bogus",
                  "--store", str(tmp_path / "store"),
                  "--results-dir", str(tmp_path)])
        assert "bogus" in str(err.value)
        for name in available_backends():
            assert name in str(err.value)

    def test_use_backend_restores_state(self, monkeypatch):
        monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
        reset_backend()
        before = get_backend()
        with use_backend("numpy") as inner:
            assert get_backend() is inner
        assert get_backend() is before
        assert backend_mod.ENV_VAR not in os.environ

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="needs numba absent")
    def test_numba_absent_falls_back_with_one_warning(self, monkeypatch):
        monkeypatch.setattr(nbm, "_warned_fallback", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = set_backend("numba")
            second = set_backend("numba")
        assert first.name == "numpy"
        assert second.name == "numpy"
        # the exported env var records the *resolved* backend
        assert os.environ[backend_mod.ENV_VAR] == "numpy"
        fallback = [w for w in caught
                    if issubclass(w.category, BackendFallbackWarning)]
        assert len(fallback) == 1  # exactly one, not one per construction
        assert "numba" in str(fallback[0].message)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="needs numba")
    def test_numba_backend_selected_when_available(self):
        assert set_backend("numba").name == "numba"
        assert get_hash("one_at_a_time") is not reference_hashes()[
            "one_at_a_time"]

    def test_get_hash_numpy_identity_preserved(self):
        """Under the default backend, get_hash returns the references."""
        set_backend("numpy")
        for name, fn in reference_hashes().items():
            assert get_hash(name) is fn

    def test_get_hash_unknown_name_still_rejected(self):
        set_backend("numpy")
        with pytest.raises(ValueError, match="unknown hash"):
            get_hash("md5")


# ---------------------------------------------------------------------------
# cross-backend decode equivalence matrix
# ---------------------------------------------------------------------------

def _scalar_store(params, n_bits, x, seed=99, csi_phases=False,
                  n_subpasses=3):
    rng = np.random.default_rng(seed)
    encoder = SpinalEncoder(params, random_message(n_bits, rng))
    channel = (BSCChannel(x, rng=rng) if params.is_bsc
               else AWGNChannel(x, rng=rng))
    store = ReceivedSymbols(encoder.n_spine,
                            complex_valued=not params.is_bsc)
    block = encoder.generate(0, n_subpasses)
    values = channel.transmit(block.values).values
    csi = None
    if csi_phases:
        csi = np.exp(2j * np.pi * rng.random(values.size))
    store.add_block(block.spine_indices, block.slots, values, csi=csi)
    return store


def _batch_store(params, n_bits, x, M=3, seed=17, csi_phases=False,
                 n_subpasses=3):
    rng = np.random.default_rng(seed)
    messages = np.stack([random_message(n_bits, rng) for _ in range(M)])
    encoder = BatchSpinalEncoder(params, messages)
    block = encoder.generate_batch(0, n_subpasses)
    received = np.stack([
        (BSCChannel(x, rng=np.random.default_rng(seed + 1 + m))
         if params.is_bsc
         else AWGNChannel(x, rng=np.random.default_rng(seed + 1 + m)))
        .transmit(block.values[m]).values
        for m in range(M)
    ])
    store = BatchReceivedSymbols(encoder.n_spine, M,
                                 complex_valued=not params.is_bsc)
    csi = None
    if csi_phases:
        csi = np.exp(2j * np.pi * rng.random(received.shape))
    store.add_block(block.spine_indices, block.slots, received, csi=csi)
    return store.prefix(np.arange(M), store.checkpoint())


def _decode_configs(hashes):
    configs = []
    for hash_name in hashes:
        configs.extend([
            pytest.param(SpinalParams(hash_name=hash_name), 8.0, False,
                         id=f"awgn-{hash_name}"),
            pytest.param(SpinalParams(hash_name=hash_name), 10.0, True,
                         id=f"fading-csi-{hash_name}"),
            pytest.param(SpinalParams.bsc(hash_name=hash_name), 0.05, False,
                         id=f"bsc-{hash_name}"),
        ])
    return configs


class TestCrossBackendDecode:
    """Identical ``DecodeResult``s from every backend, scalar and batch.

    Locally the alternate backend is the numba algorithms run as pure
    Python (hash ``one_at_a_time`` only — interpreted salsa20 is far too
    slow for a decode); with numba installed the full hash matrix runs
    compiled.
    """

    N_BITS = 32
    DEC = DecoderParams(B=4, d=1)

    def _assert_equal_results(self, a, b):
        assert np.array_equal(a.message_bits, b.message_bits)
        assert a.path_cost == b.path_cost  # bitwise
        assert a.n_symbols_used == b.n_symbols_used

    @pytest.mark.parametrize(
        "params,x,csi",
        _decode_configs(available_hashes() if NUMBA_AVAILABLE
                        else ["one_at_a_time"]))
    def test_scalar_and_batch_decode_identical(self, params, x, csi):
        store = _scalar_store(params, self.N_BITS, x, csi_phases=csi)
        view = _batch_store(params, self.N_BITS, x, csi_phases=csi)

        set_backend("numpy")
        ref_dec = BubbleDecoder(params, self.DEC, self.N_BITS)
        ref = ref_dec.decode(store)
        ref_batch = BatchBubbleDecoder(
            params, self.DEC, self.N_BITS).decode_batch(view)

        if NUMBA_AVAILABLE:
            set_backend("numba")
            assert get_backend().name == "numba"
        else:
            backend_mod._active = _pure_python_numba_backend()
        alt_dec = BubbleDecoder(params, self.DEC, self.N_BITS)
        assert alt_dec._backend.name == "numba"
        self._assert_equal_results(ref, alt_dec.decode(store))
        alt_batch = BatchBubbleDecoder(
            params, self.DEC, self.N_BITS).decode_batch(view)
        assert len(ref_batch) == len(alt_batch)
        for a, b in zip(ref_batch, alt_batch):
            self._assert_equal_results(a, b)


# ---------------------------------------------------------------------------
# end-to-end: store bytes and metrics are backend-attributed
# ---------------------------------------------------------------------------

def _store_files(root):
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, root)] = f.read()
    return found


class TestStoreBackendInvariance:
    def test_smoke_store_bytes_invariant(self, tmp_path):
        """The same spec run under each backend writes identical bytes.

        Locally ``--backend numba`` resolves to the numpy fallback (the
        plumbing is still exercised end to end); on the CI numba leg this
        compares real numba output against numpy.
        """
        from repro.experiments.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendFallbackWarning)
            assert main(["run", "smoke", "--backend", "numpy",
                         "--store", str(tmp_path / "store_a"),
                         "--results-dir", str(tmp_path / "res_a"),
                         "--workers", "2", "--no-report"]) == 0
            assert main(["run", "smoke", "--backend", "numba",
                         "--store", str(tmp_path / "store_b"),
                         "--results-dir", str(tmp_path / "res_b"),
                         "--workers", "2", "--no-report"]) == 0
        a = _store_files(tmp_path / "store_a")
        b = _store_files(tmp_path / "store_b")
        assert a and set(a) == set(b)
        for rel in a:
            assert a[rel] == b[rel], f"store file {rel} differs by backend"

    def test_metrics_payload_carries_backend(self, tmp_path):
        from repro.experiments.cli import main

        assert main(["run", "smoke", "--backend", "numpy",
                     "--store", str(tmp_path / "store"),
                     "--results-dir", str(tmp_path),
                     "--workers", "2", "--no-report", "--metrics"]) == 0
        import json

        with open(tmp_path / "smoke.metrics.json", encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["backend"] == "numpy"
