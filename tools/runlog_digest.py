"""Fingerprint the run logs of three fixed closed-loop runs.

    python3 tools/runlog_digest.py

Runs, under ``--no-timing`` and into a temporary directory:

- ``distnav replay`` over the benchmark's plaza file of seed 7, 4 partial
  runs at m=100;
- ``distnav simulate`` with the benchmark's crowd config, 2 episodes from
  seed 28;
- ``distnav simulate`` with the default config, 3 runs from seed 3.

Prints the sha256 of every file written, then one total over all of them.
A last line, outside the total, gives the sha256 of the sample weights after
the benchmark's ``oracle1d_large_m`` solve of seed 7 (the inputs of its timed
rounds), which no run log covers. A change meant to leave the program's
outputs alone must leave both unchanged. Uses the checkout's own ``src/`` and
``bench/`` and pins BLAS to one thread, as the benchmark does.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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


def main() -> int:
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

        total = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            name = path.relative_to(out).as_posix()
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            total.update(f"{name} {digest}\n".encode())
            print(f"{digest}  {name}")
        print(f"{total.hexdigest()}  total")
    print(f"{oracle_weights_digest()}  oracle1d_large_m seed 7 weights")
    return 0


if __name__ == "__main__":
    sys.exit(main())
