"""Run one benchmark workload of `stratrace` and print its metrics.

    python3 perfbench/run.py --workload trace-ladders --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
The workload's operations repeat in whole rounds until `--seconds` would be
exceeded, every output is checked, and the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the layer
functions are wrapped in spans and the per-layer metrics are printed instead,
and the spans are written to `perfbench/out/trace-<workload>.npz`.
"""

import os
import sys
import time

# one thread everywhere: pin the BLAS/OpenMP pools before numpy is loaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("STRC_CACHE_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
WORKLOAD_NAMES = ("trace-ladders", "mc-sampling", "cli-runs")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks N and paths, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the clock, exit (used to time set-up)")
    return p.parse_args(argv)


def load_package():
    """Import `stratrace` from this checkout's `src/`, nowhere else."""
    if not (SRC / "stratrace" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stratrace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import stratrace

    if Path(stratrace.__file__).resolve().parent != (SRC / "stratrace").resolve():
        raise SystemExit(f"perfbench: imported stratrace from {stratrace.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(workloads, args, workdir: Path):
    """Inputs from the seed and one small warm-up call (the imports are done)."""
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tiny=args.size == "tiny")
    workload.warmup()
    return workload


def time_setup(args) -> list:
    """Process start to ready-for-the-first-operation, in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - started)
    return samples


def run_rounds(workloads, workload, seconds: float, tracer):
    """Whole rounds of the operation list until the next would overrun."""
    op_times, round_times = [], []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + seconds
    while True:
        round_started = time.perf_counter()
        workload.begin_round()
        busy = 0.0
        for op in workload.ops:
            attempted += 1
            if tracer is not None:
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # the operation failed: count it and go on
                failed += 1
                print(f"perfbench: {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.recording = False
            op_times.append(elapsed)
            busy += elapsed
            try:
                op.check(out)
            except Exception as exc:  # a wrong result, or a check that could not run
                correct = False
                kind = "wrong result" if isinstance(exc, workloads.CheckFailed) else "check error"
                print(f"perfbench: {op.name}: {kind}: {exc}", file=sys.stderr)
        workload.end_round()
        round_times.append(busy)
        now = time.perf_counter()
        if now + (now - round_started) > deadline:
            break
    return op_times, round_times, attempted, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    workloads = load_package()
    if args.setup_probe:
        try:
            set_up(workloads, args, workdir)
            print(time.perf_counter())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_samples = time_setup(args)
    workload = set_up(workloads, args, workdir)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        op_times, round_times, attempted, failed, correct = run_rounds(
            workloads, workload, args.seconds, tracer)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if not op_times:
        correct = False
    wall_s = statistics.median(round_times)
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_s_p50": {"value": statistics.median(op_times) if op_times else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        tracer.uninstall()
        rounds = len(round_times)
        metrics = tracer.metrics(rounds)
        tracer.write(OUT / f"trace-{args.workload}", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "traced_wall_s": wall_s, "round_s": round_times, "metrics": metrics})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
