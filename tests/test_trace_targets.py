"""bench/layers.py: every function the benchmark's trace wraps still exists in the checkout."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """``bench/layers.py`` and ``bench/tracer.py`` as modules, without running the
    benchmark; the path entry and the benchmark's modules are removed afterwards,
    and the copies of the two that another test module imported are put back."""
    saved = list(sys.path)
    before = set(sys.modules)
    replaced = {name: sys.modules[name] for name in ("tracer", "layers") if name in sys.modules}
    sys.path.insert(0, str(BENCH))
    try:
        tracer = _load("tracer")
        yield _load("layers"), tracer
    finally:
        sys.path[:] = saved
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]
        sys.modules.update(replaced)


def test_every_trace_target_resolves(bench):
    layers, tracer = bench
    missing = [target for target, _, _ in layers.TARGETS if tracer._resolve(target) is None]
    assert not missing, f"the trace wraps names the program no longer has: {missing}"
