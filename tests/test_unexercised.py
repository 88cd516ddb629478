"""tools/unexercised.py: which statements of a traced module count as never run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unexercised.py"

PROBE = '''"""A module docstring."""
import functools


def f(x):
    """A docstring."""
    if x > 0:
        return 1
    elif x < 0:
        raise ValueError(x)
    else:
        y = (2 +
             x)
        return y


@functools.lru_cache
def g():
    return 3


class C:
    """A class docstring."""

    def h(self):
        try:
            return 4
        finally:
            pass
'''


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_the_statements_a_run_never_reached(tmp_path):
    tool = load(TOOL, "unexercised")
    probe = tmp_path / "probe.py"
    probe.write_text(PROBE)
    hit = tool.traced_lines(lambda: load(probe, "probe").f(1), tmp_path)
    lines = PROBE.splitlines()
    # the elif, both lines of the else branch, g's body and all of h: docstrings
    # and the raise do not count, and module code ran on import
    want = [k + 1 for k, text in enumerate(lines) if text.strip() in (
        "elif x < 0:", "y = (2 +", "return y", "return 3", "try:", "return 4", "pass")]
    assert tool.missed(probe, hit[str(probe)]) == want


def test_a_statement_on_several_lines_ran_when_any_of_them_did(tmp_path):
    tool = load(TOOL, "unexercised")
    probe = tmp_path / "probe.py"
    probe.write_text(PROBE)
    hit = tool.traced_lines(lambda: load(probe, "probe").f(0), tmp_path)
    assert "y = (2 +" not in [PROBE.splitlines()[k - 1].strip() for k in tool.missed(probe, hit[str(probe)])]
