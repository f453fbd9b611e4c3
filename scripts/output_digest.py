#!/usr/bin/env python3
"""Write the outputs a numerically neutral change must keep byte-identical.

For the pinned (1,2,2) and (2,2,2) seed-3 instances this runs, through the
command line in-process:

    gen, then prove --count C --csv --out   (C = 40 and 10 by default)
    cascade --n N at k = k0                 (N = 1e2, 1e3, 1e4, 1e5)
    split --level l --n N at k = k0         (every level l = 1..m-1)

and prints one sha256 per file written to --out.  Run it on two checkouts
and compare the printed lines:

    PYTHONPATH=src python scripts/output_digest.py --out /tmp/digest
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

from spectral_cascade import cli

INSTANCES = (("1,2,2", 3, 40), ("2,2,2", 3, 10))  # structure, seed, prove count
CASCADE_NS = (100, 1_000, 10_000, 100_000)


def _run(argv) -> None:
    """Run one command quietly; raise with its error output on exit != 0."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for the outputs")
    ap.add_argument("--count", type=int, default=None,
                    help="hits per prove run (default: 40 for (1,2,2), 10 for (2,2,2))")
    ap.add_argument("--n", type=int, nargs="+", default=list(CASCADE_NS),
                    help="cascade and split exponents")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for structure, seed, count in INSTANCES:
        tag = structure.replace(",", "")
        inst = out / f"instance{tag}.json"
        _run(["gen", "--structure", structure, "--seed", seed, "--out", inst])
        prove, scan = out / f"prove{tag}.json", out / f"scan{tag}.csv"
        _run(["prove", "--instance", inst, "--count", args.count or count,
              "--csv", scan, "--out", prove])
        written += [inst, prove, scan]
        for n in args.n:
            path = out / f"cascade{tag}_{n}.json"
            _run(["cascade", "--instance", inst, "--n", n, "--out", path])
            written.append(path)
            for level in range(1, structure.count(",") + 1):
                path = out / f"split{tag}_level{level}_{n}.json"
                _run(["split", "--instance", inst, "--level", level, "--n", n, "--out", path])
                written.append(path)
    for path in written:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
