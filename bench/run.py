"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload sfm_crowd --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from the seed, runs one untimed warm-up
operation, then whole rounds, each the same work on the same inputs, until
``--seconds`` have passed and the workload's minimum of operations is
reached, checking every round's output. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs each round twice, untraced
then traced, and reports the per-layer metrics. Every metric is printed as
``name value unit``; the last line of stdout is one JSON object. See
README.md.
"""

import os

# One BLAS/OpenMP thread: with the interpreter's own thread the process stays
# within the 2 cores of the reference machine, and timings do not depend on
# how a pool is scheduled next to other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_program() -> None:
    """Put the checkout's own ``src`` first on the path; fail when it is missing."""
    if not (SRC / "distnav" / "__init__.py").is_file():
        sys.exit(f"bench: program source not found at {SRC / 'distnav'}")
    sys.path.insert(0, str(SRC))
    import distnav

    if Path(distnav.__file__).resolve().parent != (SRC / "distnav").resolve():
        sys.exit(f"bench: imported distnav from {distnav.__file__}, not from {SRC}")


def fresh_import() -> None:
    """Import the program's CLI in a fresh interpreter, as a user's first command does."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import distnav.cli"
    subprocess.run([sys.executable, "-c", code], check=True)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir, sizes=None) -> dict:
    """One measured run; returns the result object the benchmark prints."""
    import layers
    from workloads import FULL, WORKLOADS

    sizes = sizes or FULL
    workdir = Path(workdir)
    tracer = layers.install() if trace else None
    wl = WORKLOADS[workload](sizes, seed, workdir)

    setup_s = []

    def set_up() -> None:
        t0 = time.perf_counter()
        fresh_import()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    # Untraced runs repeat set-up between the first rounds rather than back to
    # back, so that its median spans more of the machine's load swings; the
    # repeats do not count against --seconds. The traced run sets up once.
    setups = 1 if trace else sizes.setup_repeats
    try:
        if tracer:
            tracer.enabled = True  # the 1D reference's exact_update runs in set-up
        set_up()
        setup_totals = {}
        if tracer:
            setup_totals = dict(tracer.totals())
            tracer.enabled = False
            tracer.clear()

        wl.warm_up()
        rounds, overhead_s, plain_ops, traced_ops = [], 0.0, 0, 0
        start = time.perf_counter()
        r = 0
        while True:
            plain = wl.run_round(f"{r}_plain")
            rounds.append(plain)
            plain_ops += plain.ops
            if tracer:
                before = len(tracer.spans)
                tracer.enabled = True
                traced = wl.run_round(f"{r}_traced")
                tracer.enabled = False
                traced.failed = min(traced.ops, traced.failed + layers.violations_since(tracer, before))
                rounds.append(traced)
                overhead_s += traced.wall_s - plain.wall_s
                traced_ops += traced.ops
            r += 1
            if len(setup_s) < setups:
                t0 = time.perf_counter()
                set_up()
                start += time.perf_counter() - t0
            if time.perf_counter() - start >= seconds and plain_ops >= wl.min_ops:
                break
        while len(setup_s) < setups:
            set_up()
    finally:
        if tracer:
            tracer.restore()

    ops = sum(x.ops for x in rounds)
    failed = sum(x.failed for x in rounds)
    if tracer:
        metrics = layers.metrics(tracer, workload, traced_ops, setup_totals, overhead_s)
    else:
        op_ms = [ms for x in rounds for ms in x.op_ms]
        metrics = {
            "replan_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "replan_ms_p90": {"value": float(np.percentile(op_ms, 90)), "unit": "ms"},
            "replans_per_s": {"value": ops / sum(x.wall_s for x in rounds), "unit": "1/s"},
            # wall time per operation of each call into the program, median over calls:
            # dividing by the call's operations keeps episode length out of it
            "solve_s_p50": {"value": statistics.median(x.wall_s / x.ops for x in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    quality = {}
    for x in rounds:
        for key, value in x.quality.items():
            quality[key] = quality.get(key, 0) + value
    failures = [msg for x in rounds for msg in x.failures]
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "quality": quality,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in result["failures"][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {result['rounds']} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    if result["quality"]:
        print("quality (reported, not asserted): "
              + ", ".join(f"{k} {v}" for k, v in result["quality"].items()))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
