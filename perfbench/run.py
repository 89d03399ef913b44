"""quadndr benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload claim_pipeline --seed 1 --seconds 20 --trace 0

The package is imported from ``./src``; nothing is installed. Set-up (import,
input generation, warm-up) is repeated ``SETUP_REPS`` times and reported as
its median. The timed part then repeats the workload's iteration until
``--seconds`` have passed (at least one iteration) and reports the median
iteration wall time. With ``--trace 1`` the first half of the time runs
untraced and the second half traced, so ``trace_overhead_s`` is the
difference of the two medians and the per-layer numbers are per traced
iteration.

Everything but the last line of standard output is for people: a table of
every metric with its unit, and a ``record:`` line of JSON with the
environment, the computed counts and the full trace summary. The last line is
the result object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1      # one BLAS thread: two stall each other when anything else runs
SETUP_REPS = 3

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(root: Path) -> float:
    """Import quadndr from ``root/src``; returns the import time in seconds."""
    src = root / "src"
    if not (src / "quadndr" / "__init__.py").is_file():
        fail(f"no quadndr sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import quadndr  # noqa: F401  (also imports numpy and every submodule)
    import quadndr.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    if Path(quadndr.__file__).resolve().parent != (src / "quadndr").resolve():
        fail(f"imported quadndr from {quadndr.__file__}, not from {src}")
    return seconds


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": BLAS_THREADS, "threads": None}
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_iterations(workload, seconds: float, tracer=None) -> list[float]:
    walls = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.iteration = len(walls)
        gc.collect()  # start every iteration from the same heap state
        t0 = time.perf_counter()
        workload.iterate()
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    import_s = import_program(root)

    sys.path.insert(0, str(HERE))
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    # the program's own progress lines go to stderr; stdout is the result
    with contextlib.redirect_stdout(sys.stderr):
        try:
            setup_times = []
            for _ in range(SETUP_REPS):
                shutil.rmtree(workdir, ignore_errors=True)
                t0 = time.perf_counter()
                workload = cls(args.seed, workdir)
                workload.setup()
                setup_times.append(time.perf_counter() - t0)

            if args.trace:
                untraced = run_iterations(workload, args.seconds / 2)
                with Tracer() as tracer:
                    tracer.install(layers.TRACED)
                    walls = run_iterations(workload, args.seconds / 2, tracer)
            else:
                walls = run_iterations(workload, args.seconds)
            rss = peak_rss_mb()
            computed = workload.computed()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()

    setup_s = import_s + statistics.median(setup_times)
    wall_s = statistics.median(walls)
    end_to_end = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss}
    tally = workload.tally
    extra = dict(workload.metrics())
    extra["error_rate"] = (tally.failed / tally.attempted, "failed/attempted")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root),
        "import_s": import_s, "setup_reps_s": setup_times, "iteration_walls_s": walls,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "computed": {**computed, "src_lines": src_lines(root),
                     "note": "derived from shapes and files, not timed"},
        "errors": tally.errors[:20],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        per_layer = layers.layer_metrics(tracer, len(walls))
        per_layer["trace_overhead_s"] = wall_s - statistics.median(untraced)
        record["untraced_walls_s"] = untraced
        record["trace_summary_per_iteration"] = layers.full_summary(tracer, len(walls))
        record["expected_calls_per_iteration"] = workload.expected_calls()
        record["trace_missing"] = tracer.missing
        record["counter_errors"] = tracer.counter_errors[:20]
        shown = {m["name"]: per_layer[m["name"]] for m in spec["per_layer"]}
    else:
        shown = {m["name"]: end_to_end[m["name"]] for m in spec["end_to_end"]}

    for name, value in end_to_end.items():
        print(f"{name:<44} {value:>14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    if args.trace:
        for name, value in shown.items():
            print(f"{name:<44} {value:>14.6g} {units[name]}")
    for err in tally.errors[:5]:
        print(f"failed: {err}", file=sys.stderr)
    print("record: " + json.dumps(record, default=float))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
