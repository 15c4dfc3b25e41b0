"""Tests for repro.native: building, caching and loading the C kernels, and
the numpy fallback when a kernel cannot be built."""

import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.backend.base import BackendFallbackWarning
from repro.strider import bcjr
from repro.strider.bcjr import BcjrTrellis, max_log_bcjr
from repro.strider.rsc import RscCode
from test_baseline_golden import CASES, GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"


def _case():
    trellis = BcjrTrellis(RscCode(feedback=13, feedforward=(15, 17)))
    rng = np.random.default_rng(3)
    return trellis, rng.normal(0.0, 2.0, 50), rng.normal(0.0, 2.0, (2, 50))


def _reference():
    trellis, sys_llr, par_llr = _case()
    llr, ext = max_log_bcjr(trellis, sys_llr, par_llr)
    return llr.tobytes() + ext.tobytes()


def _decode_twice():
    """Decode twice with a fresh kernel memo; the outputs and the fallback
    warnings the two calls raised."""
    trellis, sys_llr, par_llr = _case()
    outs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            llr, ext = max_log_bcjr(trellis, sys_llr, par_llr)
            outs.append(llr.tobytes() + ext.tobytes())
    fallbacks = [w for w in caught
                 if issubclass(w.category, BackendFallbackWarning)]
    return outs, fallbacks


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A fresh kernel memo, an empty cache, and the numpy reference output."""
    monkeypatch.setattr(bcjr, "_KERNEL", bcjr._recursion_numpy)
    reference = _reference()
    monkeypatch.setattr(bcjr, "_KERNEL", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return reference


def test_source_ships_as_package_resource():
    src = native.source("bcjr")
    assert src.is_file()
    assert "bcjr_recursion" in src.read_text()


def test_compiled_kernel_is_cached(fresh, tmp_path):
    if bcjr._load_kernel() is None:
        pytest.skip("the native bcjr kernel could not be built")
    (lib,) = (tmp_path / "cache" / "repro" / "native").glob("bcjr-*.so")
    stamp = lib.stat().st_mtime_ns
    outs, fallbacks = _decode_twice()
    assert outs == [fresh, fresh] and not fallbacks
    assert bcjr._KERNEL is not bcjr._recursion_numpy
    assert lib.stat().st_mtime_ns == stamp  # loaded, not rebuilt


def test_missing_compiler_falls_back_to_numpy(fresh, monkeypatch):
    monkeypatch.setattr(native, "compiler", lambda: ["/nonexistent/cc"])
    outs, fallbacks = _decode_twice()
    assert outs == [fresh, fresh]
    assert len(fallbacks) == 1
    assert "/nonexistent/cc" in str(fallbacks[0].message)
    assert bcjr._KERNEL is bcjr._recursion_numpy


def test_failing_compile_falls_back_to_numpy(fresh, monkeypatch, tmp_path):
    broken = tmp_path / "bcjr.c"
    broken.write_text("this is not C;\n")
    monkeypatch.setattr(native, "source", lambda name: broken)
    outs, fallbacks = _decode_twice()
    assert outs == [fresh, fresh]
    assert len(fallbacks) == 1
    assert bcjr._KERNEL is bcjr._recursion_numpy
    assert not list((tmp_path / "cache").rglob("*.so"))  # no half build


def test_unwritable_cache_dir_uses_temp_dir(fresh, monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")  # a file where the cache directory would go
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    if native.load("bcjr") is None:
        pytest.skip("the native bcjr kernel could not be built")
    monkeypatch.setattr(bcjr, "_KERNEL", None)
    outs, fallbacks = _decode_twice()
    assert outs == [fresh, fresh] and not fallbacks
    assert bcjr._KERNEL is not bcjr._recursion_numpy
    assert list((tmp_path / "tmp").glob("repro-native-*/bcjr-*.so"))


_RACER = """
import numpy as np
from repro.strider import bcjr
from repro.strider.bcjr import BcjrTrellis, max_log_bcjr
from repro.strider.rsc import RscCode

kernel = bcjr._load_kernel()
assert kernel is not None
trellis = BcjrTrellis(RscCode(feedback=13, feedforward=(15, 17)))
rng = np.random.default_rng(3)
sys_llr, par_llr = rng.normal(0.0, 2.0, 50), rng.normal(0.0, 2.0, (2, 50))
outs = []
for recursion in (kernel, bcjr._recursion_numpy):
    bcjr._KERNEL = recursion
    outs.append([a.tobytes() for a in max_log_bcjr(trellis, sys_llr, par_llr)])
assert outs[0] == outs[1]
"""


def test_concurrent_builds_each_load_a_valid_library(tmp_path):
    if native.load("bcjr") is None:
        pytest.skip("the native bcjr kernel could not be built")
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "XDG_CACHE_HOME": str(tmp_path / "cache")}
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-c", _RACER]
    racers = [subprocess.Popen(cmd, env=env, stderr=subprocess.PIPE)
              for _ in range(2)]
    for racer in racers:
        _, err = racer.communicate(timeout=120)
        assert racer.returncode == 0, err.decode()
    built = list((tmp_path / "cache" / "repro" / "native").iterdir())
    assert len(built) == 1 and built[0].name.startswith("bcjr-")


_BCJR_GOLDEN = sorted(n for n in CASES if n.startswith(("bcjr-", "turbo-")))


@pytest.mark.parametrize("path", ["compiled", "numpy-fallback"])
@pytest.mark.parametrize("name", _BCJR_GOLDEN)
def test_golden_vectors_on_each_path(monkeypatch, name, path):
    if path == "compiled":
        kernel = bcjr._load_kernel()
        if kernel is None:
            pytest.skip("the native bcjr kernel could not be built")
    else:
        kernel = bcjr._recursion_numpy
    monkeypatch.setattr(bcjr, "_KERNEL", kernel)
    assert CASES[name]() == GOLDEN[name]
