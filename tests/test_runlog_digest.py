"""tools/runlog_digest.py: which lines ``--expect`` gates, checked without making the runs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "runlog_digest.py"
LINES = {"total": "a" * 64, "human": "b" * 64, "oracle": "c" * 64, "evolve1d": "e" * 64}
# The program's four gated outputs, in --expect's order. A change that moves an
# output updates this constant and records the move in CHANGES.md.
PINNED = (
    "fe9fde42e92e283ed16303d8f4f8fc708b0ad76d44288f7511d13a738bc3ea51",
    "d29bfd5823052d34a52bb7be0525e6cc2bd3f820be821fac13a52bed4f3bbeb4",
    "a15d8e4ef267e989fb45ae0332ae66d7c5d21b700c43bd23d623ca471cff8d92",
    "ea951f121bc47bea027fb95bd71307ea4c4d622de5113beb3db5b9499c2982e7",
)


@pytest.fixture
def tool(monkeypatch):
    """The tool as a module, its runs replaced by four fixed hashes.

    Importing it pins BLAS threads in the environment, puts ``src/`` and
    ``bench/`` on the path and imports the benchmark's modules; all three are
    undone afterwards.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("runlog_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "digests", lambda: dict(LINES))
    yield module
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == TOOL.parents[1] / "bench":
            del sys.modules[name]


class TestExpect:
    def test_a_wrong_oracle_hash_exits_1_and_names_that_line(self, tool, capsys):
        assert tool.main(["--expect", LINES["total"], LINES["human"], "d" * 64]) == 1
        err = capsys.readouterr().err
        assert f"oracle {LINES['oracle']} differs from the expected {'d' * 64}" in err
        assert "total" not in err and "human" not in err and "evolve1d" not in err

    def test_a_wrong_evolve1d_hash_exits_1_and_names_that_line(self, tool, capsys):
        assert tool.main(["--expect", LINES["total"], LINES["human"], LINES["oracle"], "d" * 64]) == 1
        err = capsys.readouterr().err
        assert f"evolve1d {LINES['evolve1d']} differs from the expected {'d' * 64}" in err
        assert "total" not in err and "human" not in err and "oracle" not in err

    def test_every_differing_line_is_named(self, tool, capsys):
        assert tool.main(["--expect", "x", "y"]) == 1
        err = capsys.readouterr().err
        assert "total" in err and "human" in err and "oracle" not in err and "evolve1d" not in err

    @pytest.mark.parametrize("given", [0, 1, 2, 3, 4])
    def test_matching_hashes_exit_0(self, tool, given):
        expect = list(LINES.values())[:given]
        assert tool.main(["--expect", *expect] if expect else []) == 0

    def test_more_than_four_hashes_refused(self, tool):
        with pytest.raises(SystemExit) as exc:
            tool.main(["--expect", *LINES.values(), "d" * 64])
        assert exc.value.code == 2


class TestSameReport:
    def test_equal_reports_pass(self, tool, tmp_path):
        (tmp_path / "made.json").write_text('{"runs": 4}\n')
        (tmp_path / "written.json").write_text('{"runs": 4}\n')
        tool.same_report(tmp_path / "made.json", tmp_path / "written.json")

    def test_a_report_one_byte_off_exits_with_a_message(self, tool, tmp_path):
        (tmp_path / "made.json").write_text('{"runs": 4}\n')
        (tmp_path / "written.json").write_text('{"runs": 5}\n')
        with pytest.raises(SystemExit) as exc:
            tool.same_report(tmp_path / "made.json", tmp_path / "written.json")
        assert "distnav metrics --logs" in str(exc.value.code) and "made.json" in str(exc.value.code)


def test_the_program_gives_the_pinned_outputs():
    # in its own process, so that the tool pins BLAS threads before numpy loads
    done = subprocess.run([sys.executable, str(TOOL), "--expect", *PINNED], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
