"""The two benchmark workloads and the per-operation correctness checks.

decompose-sweep  library calls: checked decompositions over a window of
                 exponents and a ladder up to n = 1e5, plus split-certificate
                 probes.  Most time goes to cascade, graph_transform, model and
                 linalg; the oracle only checks the window on its numpy route.
prove-verify     the command line as users run it, through
                 ``spectral_cascade.cli.main(argv)``: prove and verify on the
                 pinned (1,2,2) and (2,2,2) seed-3 instances, then cascade and
                 verify at n = 1e2, 1e3, 1e4.  Most time goes to the
                 high-precision oracle.

A workload runs ``setup()`` once, then ``run_round(recorder)`` repeatedly;
every round performs the same operations.  A failed check is recorded on the
recorder and never stops the round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import spectral_cascade as sc
from spectral_cascade import cli, serialize
from spectral_cascade.cascade import stage_input

import calibration

EPS0 = 1e-3
ORACLE_TOL = 1e-6

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


class Recorder:
    """Outcome and wall time of every operation in one round.

    ``seconds[kind]`` lists one entry per attempted operation of that kind,
    in order: its wall time, or None when it failed or is not timed.  Every
    round attempts the same operations, so entry i of two rounds times the
    same operation.  A failure is an error (the operation raised or exited
    nonzero) or a wrong answer (a check on its output failed).  With
    ``calibrate``, kernel sample times are interleaved into ``calibration``.
    """

    def __init__(self, calibrate: bool):
        self.seconds: dict = {}
        self.attempted = 0
        self.errors: dict = {}
        self.wrong: dict = {}
        self.calibration: list = []
        self._next_calibration = 0.0 if calibrate else math.inf

    def run(self, kind: str, op, check=None, timed: bool = True):
        """Time ``op()``; ``check(result)`` returns a problem string or None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
            elapsed = time.perf_counter() - start
            problem = check(result) if check is not None else None
        except Exception as exc:  # the benchmark counts the failure and goes on
            result = problem = elapsed = None
            _count(self.errors, f"{kind}: {type(exc).__name__}")
        if problem is not None:
            _count(self.wrong, f"{kind}: {problem}")
            result = elapsed = None
        self.seconds.setdefault(kind, []).append(elapsed if timed else None)
        while time.perf_counter() >= self._next_calibration:
            self._calibrate()
        return result

    def _calibrate(self) -> None:
        """Take one kernel sample; a long operation owes several."""
        self.calibration.append(calibration.sample())
        self._next_calibration = (max(self._next_calibration, time.perf_counter()
                                      - 10 * calibration.INTERVAL_S)
                                  + calibration.INTERVAL_S)


def _count(counter: dict, key: str) -> None:
    counter[key] = counter.get(key, 0) + 1


def _flip_signs(L: np.ndarray, sizes, rng) -> np.ndarray:
    """S L S for a random block-diagonal signature S = diag(+-I_{i_j}).

    S commutes with every block of T, so S L S T^n = S (L T^n) S has the
    spectrum of L T^n, and every corner block keeps its singular values.
    The perturbation law is not conjugated, which moves L_k T^n only by
    c rho^k (below 1e-16 at the searched k >= n0), so the hit list stays
    the same while the numbers fed to the program change with the seed.
    """
    signs = np.concatenate([np.full(s, rng.choice((-1.0, 1.0))) for s in sizes])
    return signs[:, None] * L * signs[None, :]


# --------------------------------------------------------------------------
# decompose-sweep


PATTERNS = ((1, 2), (2, 1), (1, 1, 2), (2, 2), (1, 2, 2), (2, 2, 2))
SEEDS_PER_PATTERN = 2
WINDOW = 21
LADDER = (1_000, 10_000, 100_000)
PROBE_NS = (None, 100, 1_000, 3_000, 10_000, 100_000)  # None stands for n0
# Probes above this exponent raise PowerOverflow at the seed commit.  They
# stay in the workload as failed operations but out of the timed sums, so
# that fixing them does not read as a slowdown.
TIMED_PROBE_MAX_N = 1_000


class DecomposeSweep:
    name = "decompose-sweep"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.instances: list = []

    def setup(self) -> None:
        for pattern in PATTERNS:
            for i in range(SEEDS_PER_PATTERN):
                inst_seed = SEEDS_PER_PATTERN * self.seed + i
                spec = sc.generate_instance(pattern, seed=inst_seed)
                report = sc.check_L_conditions(spec.L, spec.model.structure)
                if not report.passed:
                    raise RuntimeError(f"{pattern} seed {inst_seed} fails its conditions")
                casc = sc.choose_parameters(spec.model, spec.L, EPS0, law=spec.law)
                self.instances.append((spec, casc))

    def run_round(self, rec: Recorder) -> None:
        for spec, casc in self.instances:
            model = spec.model
            for k in (casc.k0, casc.k0 + 5):
                L_k = spec.L_n(k)
                for n in range(casc.n0, casc.n0 + WINDOW):
                    rec.run("decompose", lambda n=n: _checked_decompose(L_k, n, model, casc),
                            lambda mismatch: (None if mismatch < ORACLE_TOL
                                              else "oracle mismatch"))
                for n in LADDER:
                    rec.run("decompose", lambda n=n: sc.cascade_decompose(L_k, n, model, casc),
                            _flags_problem)
            if model.d >= 5:
                self._probe(rec, spec, casc)

    def _probe(self, rec: Recorder, spec, casc) -> None:
        L_k = spec.L_n(casc.k0)
        for j, stage in enumerate(casc.stages, start=1):
            for n in PROBE_NS:
                n = casc.n0 if n is None else n
                timed = n <= TIMED_PROBE_MAX_N

                def certify(j=j, n=n, stage=stage):
                    J = stage_input(L_k, n, casc, j)
                    return sc.invariant_pair(stage.problem, J, n, stage.constants)

                cert = rec.run("prove", certify, timed=timed)
                if cert is not None:
                    rec.run("verify",
                            lambda: sc.verify_certificate(cert, stage.problem),
                            lambda report: None if report["passed"] else "bound fails",
                            timed=timed)


def _checked_decompose(L_k, n, model, casc) -> float:
    result = sc.cascade_decompose(L_k, n, model, casc)
    return sc.match_scaled(result.spectrum, sc.product_spectrum(L_k, model, n))


def _flags_problem(result):
    if not result.limits_ok:
        return "limits flag false"
    if not result.domination_ok:
        return "domination flag false"
    return None


# --------------------------------------------------------------------------
# prove-verify


PROVE_INSTANCES = (("1,2,2", 3, 40), ("2,2,2", 3, 10))  # structure, seed, count
CASCADE_NS = (100, 1_000, 10_000)
# cascade runs at k0 .. k0+4 so that decompose_per_s rests on 30 commands a
# round; only the k0 results are re-verified, the rest are checked by their
# exit code (1 when the limit or domination flag is false).
CASCADE_K_OFFSETS = range(5)


class CliError(Exception):
    """A command exited nonzero."""


def run_cli(argv) -> str:
    """Run one command in-process; returns its stdout, raises on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CliError(f"{argv[0]} exited {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


class ProveVerify:
    name = "prove-verify"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.k0: dict = {}

    def _path(self, stem: str) -> Path:
        return self.workdir / stem

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        for structure, inst_seed, _ in PROVE_INSTANCES:
            tag = structure.replace(",", "")
            inst = self._path(f"instance{tag}.json")
            run_cli(["gen", "--structure", structure, "--seed", inst_seed, "--out", inst])
            obj = json.loads(inst.read_text())
            L = np.asarray(obj["L"]["data"], dtype=float)
            obj["L"]["data"] = _flip_signs(L, obj["structure"], rng).tolist()
            inst.write_text(json.dumps(obj))
            run_cli(["check", "--instance", inst])
            spec = serialize.instance_from_json(obj)
            self.k0[tag] = sc.choose_parameters(spec.model, spec.L, EPS0, law=spec.law).k0

    def run_round(self, rec: Recorder) -> None:
        for structure, inst_seed, count in PROVE_INSTANCES:
            tag = structure.replace(",", "")
            inst = self._path(f"instance{tag}.json")
            report = self._path(f"prove{tag}.json")
            reference = REFERENCE[f"{structure}@{inst_seed}"]
            proved = rec.run("prove",
                             lambda: run_cli(["prove", "--instance", inst, "--count", count,
                                              "--csv", self._path(f"scan{tag}.csv"),
                                              "--out", report]),
                             lambda _: _hits_problem(report, reference))
            if proved is not None:
                rec.run("verify", lambda: run_cli(["verify", "--artifact", report]))
            for n in CASCADE_NS:
                for dk in CASCADE_K_OFFSETS:
                    out = self._path(f"cascade{tag}_{n}_{dk}.json")
                    done = rec.run("decompose",
                                   lambda n=n, dk=dk: run_cli(
                                       ["cascade", "--instance", inst, "--k",
                                        self.k0[tag] + dk, "--n", n, "--out", out]))
                    if done is not None and dk == 0:
                        rec.run("verify", lambda: run_cli(["verify", "--artifact", out]))


def _hits_problem(report: Path, reference):
    hits = json.loads(report.read_text())["hits"]
    if not all(h["oracle_checked"] for h in hits):
        return "hit not oracle-checked"
    if [h["exponent"] for h in hits] != reference:
        return "hit list differs from the reference"
    return None


WORKLOADS = {w.name: w for w in (DecomposeSweep, ProveVerify)}
