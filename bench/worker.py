"""One benchmark process: set a workload up, and optionally measure it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --workdir DIR [--setup-only]

``run.py`` starts this in a fresh process with a clean environment.  It
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import calibration
import tracer as tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package() -> float:
    """Import the package from this checkout's src/ only; returns milliseconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import spectral_cascade.cli  # noqa: F401

    elapsed_ms = (time.perf_counter() - start) * 1e3
    origin = Path(sys.modules["spectral_cascade"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"spectral_cascade imported from {origin}, not from {SRC}")
    return elapsed_ms


def machine_info() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "load_threads": 1,
    }


def _round_summary(rec, wall: float) -> dict:
    return {
        "wall_s": wall,
        "seconds": rec.seconds,
        "time_scale": calibration.time_scale(rec.calibration) if rec.calibration else 1.0,
        "kernel_s": rec.calibration,
        "attempted": rec.attempted,
        "errors": rec.errors,
        "wrong": rec.wrong,
    }


def _rounds(workload, until: float, calibrate: bool) -> list:
    """Run whole rounds until the clock passes ``until`` (at least one)."""
    from workloads import Recorder

    done = []
    while True:
        rec = Recorder(calibrate)
        r0 = time.perf_counter()
        workload.run_round(rec)
        r1 = time.perf_counter()
        done.append((r0, r1, rec))
        if r1 >= until:
            return done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_ms = _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    out = {"import_ms": import_ms}

    tracer = None
    if args.trace:
        from layers import HOOKS

        tracer = tracing.Tracer(HOOKS)
        tracer.install()
    elif tracing.installed_wrappers():
        raise SystemExit("tracing wrappers installed in an untraced run")

    before = [] if tracer else [calibration.sample() for _ in range(calibration.SETUP_SAMPLES)]
    s0 = time.perf_counter()
    workload.setup()
    s1 = time.perf_counter()
    out["setup_s"] = s1 - s0
    if tracer is None:
        out["setup_time_scale"] = calibration.time_scale(
            before + [calibration.sample() for _ in range(calibration.SETUP_SAMPLES)])
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if tracer is None:
        untraced = _rounds(workload, time.perf_counter() + args.seconds, True)
        traced = []
    else:
        # Untraced rounds fill the first half of the run and traced rounds
        # the second; their ratio is the tracing overhead.
        tracer.uninstall()
        if tracing.installed_wrappers():
            raise SystemExit("tracing wrappers left installed after uninstall")
        untraced = _rounds(workload, s1 + args.seconds / 2, False)
        tracer.install()
        traced = _rounds(workload, s1 + args.seconds, False)
        tracer.uninstall()

    out["rounds"] = [_round_summary(rec, r1 - r0) for r0, r1, rec in untraced + traced]
    out["traced_rounds"] = len(traced)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["machine"] = machine_info()
    if tracer is not None:
        from layers import per_layer, span_calls

        out["per_layer"] = per_layer(
            tracer, (s0, s1), [(r0, r1) for r0, r1, _ in traced],
            [r1 - r0 for r0, r1, _ in untraced], import_ms)
        out["span_calls"] = span_calls(tracer)
        trace_file = Path(args.workdir).parent / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_file)
        out["trace_file"] = str(trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
