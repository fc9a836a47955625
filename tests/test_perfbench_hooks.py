"""The names the benchmark reaches into still exist.

`perfbench/workloads.py` and `perfbench/tracer.py` are loaded by file path,
read-only, and exercised the way `perfbench/run.py` uses them: reset the
caches, read the preset cache statistics, install the tracer and take it
out again.  A refactor that renames something they reach into fails here.
"""

import importlib.util
import sys
from pathlib import Path

from qheis import presets
from qheis.presets import params

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    tracer_mod = _load("tracer", monkeypatch)
    workloads.reset_caches()
    infos = [getattr(presets, name).cache_info() for name in workloads.PRESET_CACHES]
    assert all(info.currsize == 0 for info in infos)
    original = presets.make_S
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        s = presets.make_S(params(1, 1))
        s.multiply(s.gen("Ep"), s.gen("cp"))
    finally:
        tracer.uninstall()
    assert presets.make_S is original
    assert tracer.agg["presets.build"][0] >= 1 and tracer.agg["rewrite.multiply"][0] == 1
    assert tracer.live_pair_cache_entries() >= 1
