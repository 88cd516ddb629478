"""Fingerprint the run logs of three fixed closed-loop runs, and the oracle's outputs.

    python3 tools/runlog_digest.py [--expect TOTAL [HUMAN [ORACLE [EVOLVE1D]]]]

Runs, under ``--no-timing`` and into a temporary directory:

- ``distnav replay`` over the benchmark's plaza file of seed 7, 4 partial
  runs at m=100;
- ``distnav simulate`` with the benchmark's crowd config, 2 episodes from
  seed 28;
- ``distnav simulate`` with the default config, 3 runs from seed 3.

Prints the sha256 of every file written, then one total over all of them.
Three last lines, outside the total, give the sha256 of ``human_report.json``
from a ``--human-baseline`` replay of the same plaza file (seed 7, 4 partial
runs, m=100), of the sample weights after the benchmark's ``oracle1d_large_m``
solve of seed 7 (the inputs of its timed rounds), and of the three files
``distnav evolve1d --compare-sampler`` writes at defaults (``evolution.csv``,
``jc_trace.csv``, ``ks_summary.json``, hashed as the total is); no run log
covers any of them. A change meant to leave the program's outputs alone must
leave all four unchanged. After the total, ``distnav metrics --logs`` rereads
the replay's run logs into a report outside the hashed tree; the command
exits with a message unless that report equals the replay's own
``metrics_report.json`` byte for byte. With ``--expect TOTAL [HUMAN [ORACLE [EVOLVE1D]]]``
the command still prints every line, then exits 1 when any line given
differs, and names each line that differs on stderr. Uses the checkout's own
``src/`` and ``bench/`` and pins BLAS to one thread, as the benchmark does.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import distnav.cli  # noqa: E402
import workloads  # noqa: E402


# the lines --expect can gate, in the order it takes their hashes
GATED = ("total", "human", "oracle", "evolve1d")


def _distnav(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = distnav.cli.main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"distnav {' '.join(map(str, argv))} exited {code}")


def oracle_weights_digest() -> str:
    oracle = workloads.Oracle1dLargeM(workloads.FULL, 7, None)
    sets = oracle._sets((1,))  # the draws every timed round solves
    oracle._solve(sets)
    digest = hashlib.sha256()
    for s in sets:
        digest.update(s.weights.tobytes())
    return digest.hexdigest()


def same_report(made: Path, written: Path) -> None:
    """Exit with a message unless the report ``made`` from reread run logs
    holds the bytes of the report ``written`` by the runs themselves."""
    if made.read_bytes() != written.read_bytes():
        sys.exit(f"runlog_digest: distnav metrics --logs gave {made}, which differs from {written}")


def tree_digest(root: Path, show: bool = False) -> str:
    """sha256 over the lines ``<path> <sha256>`` of every file under root, in
    path order; with show, print each file's line first."""
    total = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        total.update(f"{name} {digest}\n".encode())
        if show:
            print(f"{digest}  {name}")
    return total.hexdigest()


def digests() -> dict:
    """Make the runs and print every line; returns the four gated hashes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        plaza = workloads.ReplaySparse(workloads.FULL, 7, inputs)
        plaza.setup()
        crowd = workloads.SfmCrowd(workloads.FULL, 28, inputs)
        crowd.setup()
        out = tmp / "out"
        _distnav("replay", "--dataset", plaza.plaza, "--limit", 4, "--m", 100, "--seed", 7,
                 "--out", out / "replay", "--jobs", 1, "--no-timing")
        _distnav("simulate", "--config", crowd.config, "--runs", 2, "--seed", 28,
                 "--out", out / "crowd", "--jobs", 1, "--no-timing")
        _distnav("simulate", "--runs", 3, "--seed", 3, "--out", out / "default", "--jobs", 1,
                 "--no-timing")

        total = tree_digest(out, show=True)
        print(f"{total}  total")
        _distnav("metrics", "--logs", out / "replay", "--out", tmp / "metrics_report.json")
        same_report(tmp / "metrics_report.json", out / "replay" / "metrics_report.json")
        human = tmp / "human"
        _distnav("replay", "--dataset", plaza.plaza, "--limit", 4, "--m", 100, "--seed", 7,
                 "--out", human, "--jobs", 1, "--no-timing", "--human-baseline")
        human_digest = hashlib.sha256((human / "human_report.json").read_bytes()).hexdigest()
        print(f"{human_digest}  human_report.json (replay --human-baseline)")
        oracle = oracle_weights_digest()
        print(f"{oracle}  oracle1d_large_m seed 7 weights")
        _distnav("evolve1d", "--compare-sampler", "--out", tmp / "evolve1d")
        evolve1d = tree_digest(tmp / "evolve1d")
        print(f"{evolve1d}  evolve1d --compare-sampler")
    return {"total": total, "human": human_digest, "oracle": oracle, "evolve1d": evolve1d}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", nargs="+", metavar="HASH",
                        help="TOTAL [HUMAN [ORACLE [EVOLVE1D]]]: exit 1 unless each line given matches")
    args = parser.parse_args(argv)
    expect = args.expect or []
    if len(expect) > len(GATED):
        parser.error("--expect takes at most four hashes: TOTAL [HUMAN [ORACLE [EVOLVE1D]]]")
    got = digests()
    differ = [(name, want) for name, want in zip(GATED, expect) if got[name] != want]
    for name, want in differ:
        print(f"runlog_digest: {name} {got[name]} differs from the expected {want}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
