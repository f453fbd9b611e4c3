#!/usr/bin/env python3
"""Write the outputs a numerically neutral change must keep byte-identical.

For the pinned (1,2,2) and (2,2,2) seed-3 instances this runs, through the
command line in-process:

    gen, then check --instance              (its output holds the margins)
    prove --count C --csv --out             (C = 40 and 10 by default)
    cascade --n N at k = k0                 (N = 1e2, 1e3, 1e4, 1e5, 1e9)
    split --level l --n N at k = k0         (every level l = 1..m-1)

and prints one sha256 per file written to --out.  Each JSON artifact it
writes (instance, prove report, cascade result, split certificate) is then
run through ``verify --artifact``; if one is rejected, the script names it
on standard error and exits 1.  Run it on two checkouts and compare the
printed lines:

    PYTHONPATH=src python scripts/output_digest.py --out /tmp/digest

When the digests differ, ``--compare BASE HEAD`` tells layout from content:
for each output of HEAD whose bytes differ from BASE's, it prints whether
a JSON output parses to the same object on both sides (NaN-aware), then a
summary line:

    PYTHONPATH=src python scripts/output_digest.py --compare /tmp/base /tmp/head
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from spectral_cascade import cli

INSTANCES = (("1,2,2", 3, 40), ("2,2,2", 3, 10))  # structure, seed, prove count
CASCADE_NS = (100, 1_000, 10_000, 100_000, 1_000_000_000)


def _run(argv) -> str:
    """Run one command and return its standard output; raise with its error
    output on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _content(path: Path) -> str:
    """The parsed object of a JSON file in one canonical text: sorted keys,
    floats by repr, so NaN equals NaN and 1 differs from 1.0."""
    return json.dumps(json.loads(path.read_text()), sort_keys=True)


def compare(base: Path, head: Path) -> list:
    """Lines naming each output of head whose bytes differ from base's: for
    a JSON output, whether both parse to the same object; then a summary."""
    lines, changed, json_changed, content_changed = [], 0, 0, 0
    names = sorted(p.name for p in head.iterdir() if p.is_file())
    for name in names:
        old, new = base / name, head / name
        if old.is_file() and old.read_bytes() == new.read_bytes():
            continue
        changed += 1
        if not old.is_file():
            verdict = "missing on base"
        elif new.suffix != ".json":
            verdict = "bytes differ"
        else:
            json_changed += 1
            try:
                same = _content(old) == _content(new)
            except ValueError:
                same = False
            content_changed += not same
            verdict = "same content" if same else "content differs"
        lines.append(f"{name}: {verdict}")
    lines.append(f"{changed} of {len(names)} outputs differ in bytes; "
                 f"{content_changed} of the {json_changed} JSON outputs among them differ in content")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="directory for the outputs")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                      help="compare two --out directories instead")
    ap.add_argument("--count", type=int, default=None,
                    help="hits per prove run (default: 40 for (1,2,2), 10 for (2,2,2))")
    ap.add_argument("--n", type=int, nargs="+", default=list(CASCADE_NS),
                    help="cascade and split exponents")
    args = ap.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*map(Path, args.compare))))
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for structure, seed, count in INSTANCES:
        tag = structure.replace(",", "")
        inst = out / f"instance{tag}.json"
        _run(["gen", "--structure", structure, "--seed", seed, "--out", inst])
        check = out / f"check{tag}.txt"
        check.write_text(_run(["check", "--instance", inst]))
        prove, scan = out / f"prove{tag}.json", out / f"scan{tag}.csv"
        _run(["prove", "--instance", inst, "--count", args.count or count,
              "--csv", scan, "--out", prove])
        written += [inst, check, prove, scan]
        for n in args.n:
            path = out / f"cascade{tag}_{n}.json"
            _run(["cascade", "--instance", inst, "--n", n, "--out", path])
            written.append(path)
            for level in range(1, structure.count(",") + 1):
                path = out / f"split{tag}_level{level}_{n}.json"
                _run(["split", "--instance", inst, "--level", level, "--n", n, "--out", path])
                written.append(path)
    rejected = []
    for path in written:
        if path.suffix == ".json":
            try:
                _run(["verify", "--artifact", path])
            except RuntimeError as exc:
                rejected.append(f"{path.name}: {exc}")
    for path in written:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    for line in rejected:
        print(f"verify rejects {line}", file=sys.stderr)
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
