#!/usr/bin/env python3
"""End-to-end demo: generate an instance, run the full proof pipeline, verify.

Generates a random instance for the requested block structure, searches the
arithmetic progression n = a*k + b for exponents where the full product
spectrum is real and simple, prints the certified hits, and re-verifies the
serialized report through the independent verification path.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import spectral_cascade as sc
from spectral_cascade.errors import VerificationFailure
from spectral_cascade.serialize import (
    load_artifact,
    prove_report_to_json,
    save_artifact,
)
from spectral_cascade.verify import verify_artifact


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--structure", default="1,2,2",
                    help="comma-separated block sizes (1 or 2 each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--a", type=int, default=2, help="progression slope")
    ap.add_argument("--b", type=int, default=1, help="progression offset")
    ap.add_argument("--count", type=int, default=3, help="hits to collect")
    ap.add_argument("--n-max", type=int, default=100_000)
    ap.add_argument("--eps0", type=float, default=1e-3)
    args = ap.parse_args(argv)

    sizes = tuple(int(s) for s in args.structure.split(","))
    base = sc.generate_instance(sizes, seed=args.seed)
    spec = sc.InstanceSpec(model=base.model, L=base.L, law=base.law,
                           a=args.a, b=args.b)
    print(f"instance: structure {sizes}, d = {spec.model.d}, "
          f"progression n = {args.a}*k + {args.b}")

    report = sc.prove_instance(spec, eps0=args.eps0, count=args.count,
                               n_max=args.n_max)
    cascade = report.cascade
    print(f"parameters: n0 = {cascade.n0}, k0 = {cascade.k0}, "
          f"{len(cascade.stages)} stage(s)")
    for level in spec.model.structure.rotation_indices:
        window = cascade.windows.get(level)
        print(f"  level {level}: " + ("no window (det < 0)" if window is None else
                                      f"eps_hat = {window.eps_hat:.4f} turns (det > 0)"))

    print(f"\nexamined {report.search.examined} exponents, "
          f"{len(report.search.hits)} certified hits:")
    for hit in report.search.hits:
        print(f"  n = {hit.n:6d}  min relative gap {hit.min_gap:.3e}  "
              f"oracle mismatch {hit.oracle_mismatch:.3e}")

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "prove.json")
        save_artifact(path, prove_report_to_json(report, args.eps0))
        try:
            verify_artifact(load_artifact(path))
        except VerificationFailure as exc:
            print(f"\nindependent re-verification FAILED: {exc}")
            return 1
    print("\nindependent re-verification: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
