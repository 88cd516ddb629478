"""bench/layers.py: every function the benchmark's trace wraps still exists in the checkout
and is still called where a workload runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

import distnav.cli
import distnav.engine
import distnav.oracle
from distnav.collision import CollisionKernel
from helpers import gaussian_densities_1d, gaussian_sets_1d

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


# Targets that no workload calls. The solve reads its objective off its own
# products, so nothing has called joint_expected_penalty since the one-pass
# objective; ROADMAP item 6 decides whether its span goes.
UNCALLED = {"distnav.engine.joint_expected_penalty"}


def test_every_trace_target_is_on_a_workload_path(bench, tmp_path):
    """One tiny ``simulate``, one tiny ``replay``, one ``distnav.engine.solve``
    and one ``distnav.oracle.exact_update``, traced with one span per target,
    call every target the trace wraps but the ``UNCALLED`` ones."""
    layers, tracer_module = bench
    tracer = tracer_module.Tracer()
    for target, _, counter in layers.TARGETS:
        assert tracer.wrap(target, target, counter)
    dataset = tmp_path / "ds.txt"
    dataset.write_text("".join(f"{k} 1 {k * 0.52:.6f} 0.0\n{k} 2 {k * 0.52:.6f} 1.0\n" for k in range(40)))
    config = tmp_path / "tiny.yaml"
    config.write_text("samples_per_agent: 20\nsolver: {critical_threshold: 0.0}\nscenario: {time_cap_s: 1.2}\n")
    tracer.enabled = True
    try:
        for argv in (["simulate", "--runs", 1, "--pedestrians", 2, "--out", tmp_path / "sim"],
                     ["replay", "--dataset", dataset, "--limit", 1, "--out", tmp_path / "replay"]):
            assert distnav.cli.main([str(a) for a in [*argv, "--config", config]]) == 0
        distnav.engine.solve(gaussian_sets_1d((-1.0, 0.0, 1.0), 0.5, 30, seed=0), CollisionKernel())
        distnav.oracle.exact_update(gaussian_densities_1d((-1.0, 1.0), 0.5, n=201), CollisionKernel(), 1)
    finally:
        tracer.restore()
    called = set(tracer.totals())
    missed = [target for target, _, _ in layers.TARGETS if target not in called | UNCALLED]
    assert not missed, f"no workload path reaches these trace targets: {missed}"
    assert not called & UNCALLED, f"called now, so no longer exempt: {sorted(called & UNCALLED)}"
