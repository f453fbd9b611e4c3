#!/usr/bin/env python3
"""Benchmark entry point for spectral_cascade.

    python3 bench/run.py --workload decompose-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
with SPECTRAL_CASCADE_THREADS removed and BLAS/OpenMP pinned to one thread:
SETUP_SAMPLES - 1 processes that only set the workload up, then one that
sets up and measures whole rounds for ``--seconds``.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are the per-layer metrics of a traced run.  The line
before it holds the run's report: machine, failures by kind, per-round
values and, when traced, span counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decompose-sweep", "prove-verify")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class WorkerFailed(Exception):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPECTRAL_CASCADE_THREADS", "PYTHONPATH")}
    env.update(PINNED_ENV)
    return env


def _spawn(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("worker exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round_medians(rounds, kind: str, scale: bool) -> list:
    """Median over rounds of each timed operation of ``kind``.

    Operation i of every round is the same operation, so its median over
    the rounds drops a stall that hit one round without dropping the
    operation; summing the medians gives a steady time for one round.
    With ``scale``, each time is first multiplied by its round's
    ``time_scale`` (see calibration.py).
    """
    columns = zip(*([None if t is None else t * (r["time_scale"] if scale else 1.0)
                     for t in r["seconds"].get(kind, [])] for r in rounds))
    return [statistics.median(ts)
            for ts in ([t for t in c if t is not None] for c in columns) if ts]


def end_to_end(setups, result, ok_ratio: float, scale: bool = True) -> dict:
    """The end-to-end metrics, with times scaled to the reference host speed.

    ``setups`` holds one worker output per set-up sample.  With ``scale``
    false the times are the raw wall times.  See calibration.py.
    """
    rounds = result["rounds"]
    decompose = round_medians(rounds, "decompose", scale)
    values = {
        "setup_s": (statistics.median(
            s["setup_s"] * (s["setup_time_scale"] if scale else 1.0) for s in setups), "s"),
        "decompose_per_s": (len(decompose) / sum(decompose), "1/s"),
        "prove_s": (sum(round_medians(rounds, "prove", scale)), "s"),
        "verify_s": (sum(round_medians(rounds, "verify", scale)), "s"),
        "ok_ratio": (ok_ratio, "fraction"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spectral_cascade" / "__init__.py").is_file():
        print(f"error: no spectral_cascade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, workdir, deadline, True))
        result = _spawn(args, workdir, deadline, False)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result["rounds"]
    wrong = sum(sum(r["wrong"].values()) for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(sum(r["errors"].values()) for r in rounds) + wrong
    setups.append(result)
    ok_ratio = (attempted - failed) / attempted
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = end_to_end(setups, result, ok_ratio)

    by_kind: dict = {}
    for r in rounds:
        for key, n in list(r["errors"].items()) + list(r["wrong"].items()):
            by_kind[key] = by_kind.get(key, 0) + n
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": result["machine"],
        "rounds": len(rounds), "traced_rounds": result["traced_rounds"],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "failed_ratio": failed / attempted,
        "failures": by_kind,
    }
    if args.trace:
        report["span_calls"] = result["span_calls"]
        report["trace_file"] = result["trace_file"]
    else:
        report["unscaled"] = {k: v["value"] for k, v in
                              end_to_end(setups, result, ok_ratio, scale=False).items()}
        report["kernel_s_median"] = statistics.median(
            d for r in rounds for d in r["kernel_s"])
    print("report " + json.dumps(report))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
