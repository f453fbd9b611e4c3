"""Recursive spectrum decomposition and arithmetic-progression search.

The spectrum of L_k T^n factors through a chain of dominated splits: stage j
splits the current matrix, the size of the corner from block j on, against
the tail model diag[T_j : ... : T_m] into a conjugated top block X^(j) and a
remainder that feeds stage j+1.  Parameters (per-stage closeness radii, ball
radii, index thresholds) are chosen once per instance, and kept per process,
by backward induction from the target accuracy eps0 (``choose_parameters``);
decomposition at a concrete (k, n) then certifies

    spectrum(L_k T^n) = union_j spectrum(X^(j) T_j^n)

with every X^(j) within eps0 of its n-independent limit.  A 2x2 level with
det > 0 has a ``PhaseWindow``: X^(j) T_j^n has real simple eigenvalues while
the phase (alpha + n theta_j) mod 1 stays inside it, and the limits' windows
drive the search for exponents where the whole product has real simple spectrum.

One private loop, ``_chain``, walks the stages over a stack of (L_k, n)
items for ``cascade_decompose`` (the stack of one), ``stage_input``, the
search and ``verify``; it admits each stage input through
``graph_transform.admit`` before splitting it.  ``examine`` is the one hit
rule: the search and ``verify`` both confirm a hit through it.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import struct
import types
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockStructure
from .errors import (
    ConditionError,
    ConditionFailure,
    ConvergenceFailure,
    DegeneratePolar,
    EpsilonTooLarge,
    NegativeDeterminant,
    NumericError,
    SearchExhausted,
    SingularMatrix,
    StageFailure,
)
from .graph_transform import (
    SplitProblem,
    TransformConstants,
    admit,
    derive_constants,
    dominated_split,
    solve_xi,  # unused here; bench/tests checks that the tracer wraps this second binding
)
from .linalg import (
    eigenvalues,
    invert,
    op_norm,
    phase_mod1,
    polar_2x2,
    signed_fraction,
    singular_values_2x2,
)
from .minors import RecentMemo
from .model import DiagonalModel
from .oracle import ScaledSpectrum, certified_spectrum, match_scaled
from .scenario import InstanceSpec, check_L_conditions

MARGIN_FACTOR = 0.05
ORACLE_TOL = 1e-6  # largest relative mismatch against the oracle in a hit
# below it, one ulp of a float log modulus n ln|lambda| is under ORACLE_TOL / 16
LOG_MODULUS_CAP = 2.0 ** (53 + math.floor(math.log2(ORACLE_TOL / 16)))
SCAN_RANGE = 4096  # exponents per prefilter range; one range bounds the scan's memory
PARAMETER_CAP = 16
_parameters = RecentMemo(PARAMETER_CAP)  # exact bits of the inputs -> ParameterCascade


def exponent_limit(model: DiagonalModel) -> int:
    """The least exponent whose n ln|lambda| reaches LOG_MODULUS_CAP in a block, or 2**63."""
    top = max(abs(math.log(blk.modulus)) for blk in model.diag_blocks)
    return math.ceil(LOG_MODULUS_CAP / max(top, LOG_MODULUS_CAP / 2 ** 63))


def _signed_phase(alpha: float, theta: float, n) -> np.ndarray:
    # private, so that a span trace of the public methods books the
    # prefilter's phase_mod1 and signed_fraction calls to find_subsequence
    return signed_fraction(phase_mod1(theta, n, offset=alpha))


@dataclass(frozen=True)
class PhaseWindow:
    """Phases |eps| < eps_hat (turns) where P R_(alpha + eps) is real simple."""

    alpha: float
    eps_hat: float

    @property
    def half_width(self) -> float:
        return self.eps_hat - MARGIN_FACTOR * self.eps_hat  # the search's window

    def phase(self, theta: float, n) -> np.ndarray:
        """(alpha + n theta) mod 1 in [-1/2, 1/2) for a block of angle theta; n may be an array."""
        return _signed_phase(self.alpha, theta, n)


@dataclass(frozen=True, eq=False)
class CascadeStage:
    """One prepared dominated split of the chain."""

    j: int
    problem: SplitProblem
    constants: TransformConstants


@dataclass(frozen=True, eq=False)
class ParameterCascade:
    """All per-instance parameters fixed before any (k, n) is touched."""

    eps0: float
    stages: tuple
    limits: tuple  # per level 1..m, read-only arrays
    windows: types.MappingProxyType  # rotation level -> its limit's PhaseWindow, where det > 0
    n0: int
    k0: int


@dataclass(eq=False)
class LevelData:
    j: int
    X: np.ndarray
    spectrum: ScaledSpectrum
    det: float
    drift: float
    P: Optional[np.ndarray] = None  # the polar factor beside its window
    window: Optional[PhaseWindow] = None  # only where det > 0


@dataclass(eq=False)
class CascadeResult:
    n: int
    levels: list
    limits_ok: bool
    domination_ok: bool
    domination_margin: float

    @property
    def spectrum(self) -> ScaledSpectrum:
        specs = [lv.spectrum for lv in self.levels]
        return ScaledSpectrum(unit=np.concatenate([s.unit for s in specs]),
                              log_mod=np.concatenate([s.log_mod for s in specs]))


def choose_parameters(model: DiagonalModel, L: np.ndarray, eps0: float,
                      law) -> ParameterCascade:
    """Backward induction of per-stage radii from the target accuracy.

    Stage m-1 must deliver a remainder whose inverse is eps0-close to the
    last limit; each earlier stage must deliver a remainder inside the next
    stage's ball.  Inversion is controlled through the Neumann bound
    ||W'^-1 - W^-1|| <= 2 ||W^-1||^2 ||W' - W|| on the half-margin ball, so
    delta_j = min(upper, 1/(2r), target/(2 r^2)) / 2 with r the norm of the
    next limit's defining inverse.

    The result is memoized per process, as ``minors.minor_table`` keeps its
    tables, by the exact bits of every input: L and its shape, the block
    sizes, each block's value or (modulus, theta), eps0 and the law's
    (c, rho, seed).  Floats are keyed by their bits, so -0.0 and 0.0 never
    share an entry.  The PARAMETER_CAP most recently used are kept, frozen,
    with read-only limits and windows; an instance that fails raises on
    every call and is never stored.
    """
    if not 0 < eps0 < math.inf:  # False for NaN as well
        raise ValueError(f"eps0 must be positive and finite, got {eps0}")
    L = np.asarray(L, dtype=float)
    floats = [eps0, law.c, law.rho]
    for blk in model.diag_blocks:
        floats += [blk.value] if blk.size == 1 else [blk.modulus, blk.theta]
    key = (L.tobytes(), L.shape, model.structure.sizes, law.seed,
           struct.pack(f"{len(floats)}d", *floats))
    return _parameters.get_or_make(key, lambda: _derive_parameters(model, L, eps0, law))


def _derive_parameters(model: DiagonalModel, L: np.ndarray, eps0: float,
                       law) -> ParameterCascade:
    """choose_parameters on a miss: the backward induction itself."""
    structure = model.structure
    m = structure.m
    report = check_L_conditions(L, structure)
    if not report.passed:
        raise ConditionFailure(f"L fails genericity conditions: {report.failures()}")
    # the checks inverted L and each corner of L^-1 from block 2 on already
    J0s = [invert(report.L_inv), *report.corner_inverses]
    for J0 in J0s:  # the memo hands one cascade, its stages' J0 and limits, to every caller
        J0.flags.writeable = False
    limits = [J0[:s, :s] for J0, s in zip(J0s, structure.sizes)]

    stages_rev = []
    target = upper = eps0
    for j in range(m - 1, 0, -1):
        r = op_norm(J0s[j])  # norm of the inverse of L^{-1}'s corner from block j+1 on
        delta_j = 0.5 * min(upper, 1.0 / (2.0 * r), target / (2.0 * r * r))
        problem = SplitProblem(model.tail(j), J0s[j - 1], delta_j)
        constants = derive_constants(problem)
        stages_rev.append(CascadeStage(j=j, problem=problem, constants=constants))
        target, upper = constants.beta, delta_j
    stages = tuple(reversed(stages_rev))

    n0 = max(st.constants.n0 for st in stages)
    k0 = 0
    if law.c > 0:
        # smallest k with ||L_k - L|| <= ||L|| c rho^k safely inside the
        # first stage's ball
        budget = 0.9 * stages[0].constants.beta / (op_norm(L) * law.c)
        if budget < 1.0:
            k0 = int(math.ceil(math.log(budget) / math.log(law.rho)))

    windows = {}
    for j in structure.rotation_indices:
        lam = limits[j - 1]
        try:
            _, alpha, eps_hat = polar_2x2(lam)
        except NegativeDeterminant:
            continue  # an opposite-sign real pair at every exponent
        except DegeneratePolar as exc:
            raise EpsilonTooLarge(f"level {j} limit has no rotation margin: {exc}") from exc
        windows[j] = PhaseWindow(alpha=alpha, eps_hat=eps_hat)
        drift_cap = eps0 / (math.pi * singular_values_2x2(lam)[1])  # ||lam^-1|| = 1/sigma_min
        if windows[j].half_width <= drift_cap:
            raise EpsilonTooLarge(
                f"level {j}: eps0 = {eps0:g} drifts the phase by up to "
                f"{drift_cap:.3g} turns against a window of {eps_hat:.3g}; shrink eps0")

    return ParameterCascade(eps0=eps0, stages=stages, limits=tuple(limits),
                            windows=types.MappingProxyType(windows), n0=n0, k0=k0)


def _level_data(j: int, X: np.ndarray, spec: ScaledSpectrum, diff: np.ndarray) -> LevelData:
    """Level j's record from its X, the spectrum of X T_j^n and X minus the limit."""
    if X.shape[-1] == 1:
        return LevelData(j=j, X=X, spectrum=spec, det=float(X[0, 0]), drift=abs(float(diff[0, 0])))
    (a, b), (c, d) = X.tolist()
    P = window = None
    try:
        P, alpha, eps_hat = polar_2x2(X)
        window = PhaseWindow(alpha=alpha, eps_hat=eps_hat)
    except (SingularMatrix, NegativeDeterminant, DegeneratePolar):
        pass
    return LevelData(j=j, X=X, spectrum=spec, det=a * d - b * c,
                     drift=singular_values_2x2(diff)[0], P=P, window=window)


def _split(stage: CascadeStage, current: np.ndarray, ns, units: list):
    """Admit ``current`` at exponents ns, with its blocks' U_j(n) in ``units``,
    to one stage and split it: its X and the remainder that enters the next."""
    stage.problem.powers.share_units(ns, units[stage.j - 1:])
    admit(stage.problem, stage.constants, current, ns)
    cert, _ = dominated_split(stage.problem, current, ns)
    return cert.X, invert(cert.Y_inv)


def _chain(current: np.ndarray, ns, stages, units: list, failures: dict):
    """Admit and split a stack (N, d, d) at exponents ns (N,) stage by stage; a
    lone matrix at one exponent is the stack of one without its axis.

    ``units`` holds each block's U_j(n), head first.  When a stage raises on
    a stack, each item runs it alone, and the items that fail leave the stack
    with their own errors, which go in ``failures`` under their indices; the
    stage then runs once more on the rest.  Returns the indices of the items
    that pass, their X per stage, their last remainder and their units.
    """
    alive, Xs = list(range(len(current) if current.ndim == 3 else 1)), []
    for stage in stages:
        try:
            X, current = _split(stage, current, ns, units)
        except Exception as exc:
            errors = {0: exc} if current.ndim == 2 else {}
            for i, n in enumerate(ns.tolist() if current.ndim == 3 else []):
                try:
                    _split(stage, current[i], n, [u[i] for u in units])
                except Exception as item_exc:  # the item's own error, whatever it is
                    errors[i] = item_exc
            for i, e in errors.items():
                failures[alive[i]] = (StageFailure(f"stage {stage.j}: {e}", stage=stage.j, cause=e)
                                      if isinstance(e, (NumericError, ConditionError)) else e)
            keep = [i for i in range(len(alive)) if i not in errors]
            if not keep:
                return [], [], current, units
            alive, current, ns = [alive[i] for i in keep], current[keep], ns[keep]
            units, Xs = [u[keep] for u in units], [X[keep] for X in Xs]
            X, current = _split(stage, current, ns, units)  # raises if every item passed alone
        Xs.append(X)
    return alive, Xs, current, units


def _decompose(L_ks: np.ndarray, ns, model: DiagonalModel, cascade: ParameterCascade) -> list:
    """cascade_decompose over a stack (N, d, d) at exponents ns (N,), or over one
    matrix at one exponent: per item, its CascadeResult or the error it raises.

    A stack forms each block's U_j(n), each level's spectrum and the log
    moduli that the domination margins compare in one pass over its items,
    elementwise, so that every item gets the bits it gets alone; the 2x2
    closed forms (polar form, drift) and the records run item by item."""
    if isinstance(ns, np.ndarray) and len(ns) == 1:  # a stack of one runs as its lone matrix
        L_ks, ns = L_ks[0], int(ns[0])
    stacked = isinstance(ns, np.ndarray)
    exponents = ns.tolist() if stacked else [ns]
    units = [blk.unit_power(ns) for blk in model.diag_blocks]  # each U_j(n) formed once
    outcomes = {}
    alive, Xs, last, units = _chain(L_ks, ns, cascade.stages, units, outcomes)
    scale = ns[alive][:, None] if stacked else ns  # n, a column on a stack
    levels, logs = [[] for _ in alive], []
    for j, X in enumerate([*Xs, last] if alive else [], start=1):
        XU = X @ units[j - 1]  # the spectrum of X T_j^n, up to |lambda_j|^n
        values = XU[..., 0] if X.shape[-1] == 1 else eigenvalues(XU)
        if stacked and values.dtype.kind == "c":  # real where an item has no imaginary part
            values = np.where(values.imag.any(axis=-1, keepdims=True), values, values.real)
        spec = ScaledSpectrum.from_values(values,
                                          log_scale=scale * math.log(model.block(j).modulus))
        logs.append(spec.log_mod)
        diffs = X - cascade.limits[j - 1]
        for item, args in zip(levels, zip(X, map(ScaledSpectrum, spec.unit, spec.log_mod), diffs)
                              if stacked else [(X, spec, diffs)]):
            item.append(_level_data(j, *args))
    # per pair of consecutive levels, per item: the least log modulus above the largest below
    gaps = [(a.min(axis=-1) - b.max(axis=-1)).tolist() for a, b in zip(logs, logs[1:])]
    for i, item, gap in zip(alive, levels, zip(*gaps) if stacked else [gaps]):
        outcomes[i] = _result(exponents[i], item, cascade.eps0, min(math.inf, *gap))
    return [outcomes[i] for i in range(len(exponents))]


def _result(n: int, levels: list, eps0: float, margin: float) -> CascadeResult:
    """One item's result, its limits and domination certified from its levels and
    its least gap between the log moduli of consecutive levels."""
    # each drift is within a few ulp (relative) of the exact sigma_max(X - limit)
    return CascadeResult(n=n, levels=levels, limits_ok=all(lv.drift < eps0 for lv in levels),
                         domination_ok=margin > 0, domination_margin=margin)


def _outcome(outcome):
    """A stacked call's result for one item: the item's error is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def cascade_decompose(L_k: np.ndarray, n: int, model: DiagonalModel,
                      cascade: ParameterCascade) -> CascadeResult:
    """Run the full chain at one (L_k, n), the stack of one of ``_decompose``;
    certify limits and domination."""
    current = np.asarray(L_k, dtype=float)
    if current.shape != (model.d, model.d):
        raise ValueError(f"matrix must be {model.d}x{model.d}, got {current.shape}")
    return _outcome(_decompose(current, n, model, cascade)[0])


def stage_input(L_k: np.ndarray, n: int, cascade: ParameterCascade, j: int) -> np.ndarray:
    """The matrix entering stage j: L_k itself for j=1, else the chained remainder.

    Stages 1..j-1 run through the same loop as ``cascade_decompose``, so this
    raises StageFailure exactly where the decomposition would.
    """
    if not 1 <= j <= len(cascade.stages):
        raise ValueError(f"stage {j} out of range 1..{len(cascade.stages)}")
    current = np.asarray(L_k, dtype=float)
    if j == 1:
        return current
    failures = {}
    _, _, current, _ = _chain(current, n, cascade.stages[: j - 1], [
        b.unit_power(n) for b in cascade.stages[0].problem.model.diag_blocks], failures)
    return _outcome(failures[0] if failures else current)


@dataclass(eq=False)
class HitRecord:
    n: int
    exponent: int
    phases: dict
    spectrum: ScaledSpectrum
    min_gap: float
    oracle_checked: bool
    oracle_mismatch: float


@dataclass(eq=False)
class SearchResult:
    hits: list
    examined: int
    near_misses: list


def _csv_rows_header(structure: BlockStructure) -> list:
    header = ["n"]
    header += [f"phase_{j}" for j in structure.rotation_indices]
    for i in range(structure.d):
        header += [f"eig{i}_unit_re", f"eig{i}_unit_im", f"eig{i}_log10_mod"]
    header += ["min_gap", "accepted"]
    return header


def _spectrum_row(spec: ScaledSpectrum) -> list:
    """Eigenvalues by decreasing modulus, in the artifacts' split form."""
    out = []
    for i in np.argsort(spec.log_mod)[::-1]:
        out += [float(spec.unit[i].real), float(spec.unit[i].imag),
                float(spec.log_mod[i]) / math.log(10.0)]
    return out


def examine(n: int, instance: InstanceSpec, cascade: ParameterCascade, decomposed,
            L_n: np.ndarray, phases: dict):
    """The hit rule at index n; returns (hit_or_none, csv_row, miss_or_none).

    A hit needs limits and domination, a real simple spectrum at GAP_TOL, an
    oracle mismatch of at most ORACLE_TOL, and inclusion disks of the
    certified graded oracle that prove the spectrum real simple.
    ``decomposed`` is the decomposition of L_n at n, or its error, and
    ``phases`` its signed phase per rotation level (NaN where the level has
    no window), all from a stack (``examine_stack``).
    """
    model = instance.model
    N = instance.a * n + instance.b
    structure = model.structure
    try:
        result = _outcome(decomposed)
    except StageFailure as exc:
        row = [n] + [""] * (len(structure.rotation_indices) + 3 * structure.d + 1) + [0]
        return None, row, (n, str(exc))
    spec = result.spectrum
    ok, min_gap = spec.real_simple()
    ok = ok and result.limits_ok and result.domination_ok
    row = ([n] + [phases[j] for j in structure.rotation_indices]
           + _spectrum_row(spec) + [min_gap, int(ok)])
    if not ok:
        reason = ("spectrum not real simple" if result.limits_ok and result.domination_ok
                  else "limits or domination violated")
        return None, row, (n, f"{reason} (min_gap {min_gap:.3g})")

    try:
        reference, certified = certified_spectrum(L_n, model, N)
    except ConvergenceFailure as exc:
        row[-1] = 0
        return None, row, (n, f"oracle does not isolate the roots ({exc})")
    mismatch = match_scaled(spec, reference)
    if mismatch > ORACLE_TOL or not certified:
        row[-1] = 0
        reason = ("oracle disagrees" if mismatch > ORACLE_TOL
                  else "oracle does not certify real simple")
        return None, row, (n, f"{reason} (mismatch {mismatch:.3g})")
    hit = HitRecord(n=n, exponent=N, phases=phases, spectrum=spec,
                    min_gap=min_gap, oracle_checked=True,
                    oracle_mismatch=mismatch)
    return hit, row, None


def examine_stack(ns: list, instance: InstanceSpec, cascade: ParameterCascade):
    """``examine`` at each index of ns in turn, after one stacked decomposition
    of them all and one phase call per rotation level; yields examine's
    triples.  An item whose decomposition raised raises at its own turn."""
    L_ns = np.array([instance.L_n(n) for n in ns])
    exponents = instance.a * np.array(ns) + instance.b
    outcomes = _decompose(L_ns, exponents, instance.model, cascade)
    phases = {}
    for j in instance.model.structure.rotation_indices:  # NaN: no window, real at every n
        windows = [None if isinstance(o, Exception) else o.levels[j - 1].window for o in outcomes]
        alphas = np.array([math.nan if w is None else w.alpha for w in windows])
        phases[j] = _signed_phase(alphas, instance.model.block(j).theta, exponents).tolist()
    for i, (n, L_n, decomposed) in enumerate(zip(ns, L_ns, outcomes)):
        yield examine(n, instance, cascade, decomposed, L_n, {j: ph[i] for j, ph in phases.items()})


def _window_candidates(instance: InstanceSpec, cascade: ParameterCascade,
                       n_start: int, n_max: int):
    """Yield the n in [n_start, n_max] whose limit phases all fall inside their
    windows, in increasing n, prefiltering SCAN_RANGE exponents at a time."""
    model = instance.model
    for lo in range(n_start, n_max + 1, SCAN_RANGE):
        ns = np.arange(lo, min(lo + SCAN_RANGE, n_max + 1), dtype=np.int64)
        exps = instance.a * ns + instance.b
        mask = np.ones(len(ns), dtype=bool)
        for j, window in cascade.windows.items():  # not window.phase: see _signed_phase
            ph = _signed_phase(window.alpha, model.block(j).theta, exps)
            mask &= np.abs(ph) < window.half_width
        yield from ns[mask].tolist()


def find_subsequence(instance: InstanceSpec, cascade: ParameterCascade,
                     count: int = 3, n_max: int = 100_000,
                     csv_path: Optional[str] = None) -> SearchResult:
    """Scan the progression a n + b for real-simple-spectrum exponents.

    A vectorized limit-phase prefilter keeps only exponents whose rotation
    phases (predicted from the limit polar angles) fall inside the
    real-simple windows; survivors are decomposed exactly and every hit is
    confirmed against the independent oracle (``examine``).  The prefilter
    runs over consecutive ranges of SCAN_RANGE exponents.  The next
    count - len(hits) survivors are decomposed as one stack and examined in
    turn, so the search stops at the ``count``-th hit with no survivor past
    it decomposed: its cost follows the last hit, not ``n_max``, and one
    range bounds its memory.  With
    ``csv_path``, one row per examined exponent is written as it is
    examined.  Raises ValueError for ``count`` below 1 and
    SearchExhausted (with the near misses) when fewer than ``count`` hits
    exist below ``n_max``.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    structure = instance.model.structure
    n_start = max(cascade.n0, cascade.k0, 1)
    if n_start > n_max:
        raise SearchExhausted(
            f"scan floor {n_start} already beyond the cap {n_max}"
        )

    hits = []
    near_misses = []
    with contextlib.ExitStack() as stack:
        writer = None
        if csv_path is not None:
            writer = csv.writer(stack.enter_context(open(csv_path, "w", newline="")))
            writer.writerow(_csv_rows_header(structure))
        candidates = _window_candidates(instance, cascade, n_start, n_max)
        # a stack of count - len(hits) candidates ends at the count-th hit at the latest
        while batch := list(itertools.islice(candidates, count - len(hits))):
            for hit, row, miss in examine_stack(batch, instance, cascade):
                if writer is not None:
                    writer.writerow(row)
                if miss is not None:
                    near_misses.append(miss)
                if hit is not None:
                    hits.append(hit)

    examined = len(hits) + len(near_misses)  # examine returns a hit or a miss
    if len(hits) < count:
        # short of count hits, the loop examined every candidate of every range
        raise SearchExhausted(
            f"found {len(hits)} of {count} exponents below {n_max} "
            f"({examined} window candidates, {examined} examined)",
            near_misses=near_misses[-20:],
        )
    return SearchResult(hits=hits, examined=examined, near_misses=near_misses)


@dataclass(eq=False)
class ProveReport:
    instance: InstanceSpec
    cascade: ParameterCascade
    search: SearchResult


def prove_instance(instance: InstanceSpec, eps0: float = 1e-3,
                   count: int = 3, n_max: int = 100_000,
                   csv_path: Optional[str] = None) -> ProveReport:
    """End to end: parameters, then the certified subsequence search."""
    cascade = choose_parameters(instance.model, instance.L, eps0, law=instance.law)
    search = find_subsequence(instance, cascade, count=count, n_max=n_max,
                              csv_path=csv_path)
    return ProveReport(instance=instance, cascade=cascade, search=search)
