"""Tests for the spine hash functions (paper §3.2, §7.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashes import (
    available_hashes,
    get_hash,
    lookup3,
    one_at_a_time,
    salsa20,
)

ALL_HASHES = [one_at_a_time, lookup3, salsa20]


def _scalar(hash_fn, s, d):
    return int(hash_fn(np.array([s], np.uint32), np.array([d], np.uint32))[0])


class TestReferenceValues:
    """Pin down outputs so the code is stable across refactors (encoder and
    decoder must agree forever once a protocol is standardised, §7)."""

    def test_one_at_a_time_pinned(self):
        assert _scalar(one_at_a_time, 0, 0) == _oaat_reference(0, 0)
        assert _scalar(one_at_a_time, 1, 2) == _oaat_reference(1, 2)
        assert _scalar(one_at_a_time, 0xDEADBEEF, 0x1234) == _oaat_reference(
            0xDEADBEEF, 0x1234
        )

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_one_at_a_time_matches_reference(self, s, d):
        assert _scalar(one_at_a_time, s, d) == _oaat_reference(s, d)


def _oaat_reference(state: int, data: int) -> int:
    """Plain-Python Jenkins one-at-a-time over 8 little-endian bytes."""
    h = 0
    mask = 0xFFFFFFFF
    payload = list(state.to_bytes(4, "little")) + list(data.to_bytes(4, "little"))
    for byte in payload:
        h = (h + byte) & mask
        h = (h + (h << 10)) & mask
        h ^= h >> 6
    h = (h + (h << 3)) & mask
    h ^= h >> 11
    h = (h + (h << 15)) & mask
    return h


def _oaat_reference_array(state: np.ndarray, data: np.ndarray) -> np.ndarray:
    """:func:`_oaat_reference` over the broadcast of two uint32 arrays."""
    s_b, d_b = np.broadcast_arrays(np.asarray(state, np.uint32),
                                   np.asarray(data, np.uint32))
    flat = [_oaat_reference(int(a), int(b))
            for a, b in zip(s_b.ravel(), d_b.ravel())]
    return np.array(flat, dtype=np.uint32).reshape(s_b.shape)


class TestOneAtATimeShapes:
    """The state rounds run at ``state.shape`` and broadcast afterwards;
    every shape the decoder (and anything else) passes must still give the
    byte loop's words, in a fresh writable uint32 array."""

    @staticmethod
    def _check(state, data):
        out = one_at_a_time(state, data)
        expect = _oaat_reference_array(state, data)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.uint32
        assert out.shape == expect.shape
        assert out.flags.writeable
        assert not np.shares_memory(out, np.asarray(state))
        assert not np.shares_memory(out, np.asarray(data))
        assert np.array_equal(out, expect)
        return out

    def test_children_shape(self):
        rng = np.random.default_rng(10)
        states = rng.integers(0, 2**32, size=(3, 5, 1, 1), dtype=np.uint32)
        self._check(states, np.arange(16, dtype=np.uint32))

    def test_branch_cost_shape(self):
        rng = np.random.default_rng(11)
        states = rng.integers(0, 2**32, size=(1, 3, 7), dtype=np.uint32)
        slots = rng.integers(0, 2**32, size=(4, 1, 1), dtype=np.uint32)
        self._check(states, slots)

    def test_data_larger_than_state(self):
        rng = np.random.default_rng(12)
        datas = rng.integers(0, 2**32, size=(6, 9), dtype=np.uint32)
        self._check(np.uint32([0xDEADBEEF]), datas)
        self._check(rng.integers(0, 2**32, size=(6, 1), dtype=np.uint32),
                    datas)

    def test_zero_d_inputs(self):
        out = self._check(np.uint32(0x12345678), np.uint32(7))
        assert out.shape == ()
        out = self._check(np.array(0xFFFFFFFF, np.uint32),
                          np.arange(5, dtype=np.uint32))
        assert out.shape == (5,)
        out = self._check(np.arange(5, dtype=np.uint32), np.uint32(3))
        assert out.shape == (5,)
        assert self._check(3, 4).shape == ()

    def test_empty_arrays(self):
        assert self._check(np.empty(0, np.uint32),
                           np.empty(0, np.uint32)).shape == (0,)
        assert self._check(np.empty((2, 0, 1), np.uint32),
                           np.arange(16, dtype=np.uint32)).shape == (2, 0, 16)
        assert self._check(np.arange(4, dtype=np.uint32)[:, None],
                           np.empty(0, np.uint32)).shape == (4, 0)

    def test_inputs_unchanged(self):
        states = np.arange(8, dtype=np.uint32).reshape(2, 4, 1)
        datas = np.arange(3, dtype=np.uint32)
        before = states.copy(), datas.copy()
        self._check(states, datas)
        assert np.array_equal(states, before[0])
        assert np.array_equal(datas, before[1])


class TestVectorisation:
    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_vector_matches_scalar(self, hash_fn):
        rng = np.random.default_rng(0)
        states = rng.integers(0, 2**32, size=100, dtype=np.uint32)
        datas = rng.integers(0, 2**32, size=100, dtype=np.uint32)
        vec = hash_fn(states, datas)
        for i in range(100):
            assert int(vec[i]) == _scalar(hash_fn, int(states[i]), int(datas[i]))

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_broadcasting(self, hash_fn):
        states = np.arange(5, dtype=np.uint32)
        datas = np.arange(3, dtype=np.uint32)
        out = hash_fn(states[:, None], datas[None, :])
        assert out.shape == (5, 3)
        assert int(out[2, 1]) == _scalar(hash_fn, 2, 1)

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_dtype(self, hash_fn):
        out = hash_fn(np.array([1], np.uint32), np.array([2], np.uint32))
        assert out.dtype == np.uint32


class TestMixingProperties:
    """The code's distance properties rest on hash outputs looking random."""

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_single_bit_input_change_flips_many_output_bits(self, hash_fn):
        rng = np.random.default_rng(1)
        states = rng.integers(0, 2**32, size=2000, dtype=np.uint32)
        data = rng.integers(0, 16, size=2000, dtype=np.uint32)
        base = hash_fn(states, data)
        flipped = hash_fn(states, data ^ np.uint32(1))
        diff_bits = np.unpackbits(
            (base ^ flipped).view(np.uint8).reshape(-1, 4), axis=1
        ).sum(axis=1)
        # Avalanche: average Hamming distance should be near 16 of 32 bits.
        assert 13.0 < diff_bits.mean() < 19.0
        assert (diff_bits > 0).all()

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_output_bits_balanced(self, hash_fn):
        rng = np.random.default_rng(2)
        states = rng.integers(0, 2**32, size=4000, dtype=np.uint32)
        out = hash_fn(states, np.uint32(5))
        bits = np.unpackbits(out.view(np.uint8).reshape(-1, 4), axis=1)
        means = bits.mean(axis=0)
        assert (means > 0.40).all() and (means < 0.60).all()

    @pytest.mark.parametrize("hash_fn", ALL_HASHES)
    def test_collision_rate_small(self, hash_fn):
        """~N^2/2^33 birthday collisions expected; assert no blow-up."""
        rng = np.random.default_rng(3)
        states = rng.integers(0, 2**32, size=20_000, dtype=np.uint32)
        out = hash_fn(states, np.uint32(9))
        n_unique = np.unique(out).size
        assert 20_000 - n_unique < 20  # expected ~0.05 collisions


class TestRegistry:
    def test_names(self):
        assert set(available_hashes()) == {"one_at_a_time", "lookup3", "salsa20"}

    def test_lookup(self):
        assert get_hash("one_at_a_time") is one_at_a_time

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown hash"):
            get_hash("md5")
