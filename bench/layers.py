"""Per-layer metrics computed from the spans of a traced run.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``.
"Per round" values are totals over the traced rounds divided by their
number; every round performs the same operations, so counts repeat exactly.
Set-up metrics come from the spans recorded while the workload set itself up.
"""

from __future__ import annotations

import os

import numpy as np

from spectral_cascade import oracle
from tracer import LAYERS

# The oracle route is inferred from the modulus spread, against the numpy
# route's cap at the seed commit (30 digits); spans above it count as "mp".
NUMPY_DIGITS = 30.0
_spread_digits = oracle.spread_digits  # bound before any wrapper is installed


HOOKS = {
    "oracle.product_spectrum": lambda a, k, r: _spread_digits(a[1], a[2]),
    "cascade.find_subsequence": lambda a, k, r: {
        "examined": r.examined,
        "hits": len(r.hits),
        "csv_bytes": os.path.getsize(k["csv_path"]) if k.get("csv_path") else 0,
    },
    "serialize.save_artifact": lambda a, k, r: os.path.getsize(a[0]),
    "verify.verify_artifact": lambda a, k, r: a[0].get("kind"),
    "cli.main": lambda a, k, r: str((a[0] if a else k["argv"])[0]),
    "linalg.phase_mod1": lambda a, k, r: int(np.size(a[1] if len(a) > 1 else k["n"])),
}

CLI_COMMANDS = ("gen", "check", "prove", "verify", "cascade")

# name -> (unit, better); the order is the order of the output.
METRICS = {
    "scenario.generate_instance_ms": ("ms", "lower"),
    "scenario.check_angle_independence_ms": ("ms", "lower"),
    "scenario.check_L_conditions_calls": ("count", "lower"),
    "cascade.choose_parameters_ms": ("ms", "lower"),
    "cascade.decompose_ms_p50": ("ms", "lower"),
    "cascade.decompose_ms_p99": ("ms", "lower"),
    "cascade.decompose_samples": ("count", "higher"),
    "cascade.decompose_calls": ("count", "lower"),
    "cascade.prefilter_ms_per_1e5": ("ms", "lower"),
    "cascade.examined": ("count", "lower"),
    "cascade.hit_ratio": ("fraction", "higher"),
    "graph_transform.solve_xi_ms": ("ms", "lower"),
    "graph_transform.solve_eta_ms": ("ms", "lower"),
    "graph_transform.derive_constants_ms": ("ms", "lower"),
    "graph_transform.invariant_pair_ms": ("ms", "lower"),
    "graph_transform.verify_certificate_ms": ("ms", "lower"),
    "model.sandwich_calls_per_decompose": ("count", "lower"),
    "linalg.op_norm_calls_per_decompose": ("count", "lower"),
    "linalg.invert_calls_per_decompose": ("count", "lower"),
    "linalg.eigenvalues_calls_per_decompose": ("count", "lower"),
    "oracle.numpy_calls": ("count", "lower"),
    "oracle.numpy_ms_p50": ("ms", "lower"),
    "oracle.mp_calls": ("count", "lower"),
    "oracle.mp_ms_p50": ("ms", "lower"),
    "oracle.mp_ms_max": ("ms", "lower"),
    "oracle.mp_digits_max": ("digits", "lower"),
    "oracle.self_s": ("s", "lower"),
    "verify.prove_report_s": ("s", "lower"),
    "verify.cascade_result_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "serialize.save_ms": ("ms", "lower"),
    "serialize.load_ms": ("ms", "lower"),
    "serialize.bytes_written": ("bytes", "lower"),
    **{f"cli.{cmd}_ms": ("ms", "lower") for cmd in CLI_COMMANDS},
    "cli.import_ms": ("ms", "lower"),
    **{f"{layer}.self_share": ("fraction", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Span names each metric is built from, keyed by the workload that must
# exercise them; a zero count there means a wrapper was bound to the wrong
# name.  The benchmark's own tests check this.
EXPECTED_SPANS = {
    "decompose-sweep": (
        "scenario.generate_instance", "scenario.check_angle_independence",
        "scenario.check_L_conditions", "cascade.choose_parameters",
        "cascade.cascade_decompose", "graph_transform.solve_xi",
        "graph_transform.solve_eta", "graph_transform.derive_constants",
        "graph_transform.invariant_pair", "graph_transform.verify_certificate",
        "model.DiagonalPowers.dvn_u_avmn", "model.DiagonalPowers.avmn_u_dvn",
        "linalg.op_norm", "linalg.invert", "linalg.eigenvalues",
        "oracle.product_spectrum",
    ),
    "prove-verify": (
        "scenario.generate_instance", "scenario.check_L_conditions",
        "cascade.choose_parameters", "cascade.cascade_decompose",
        "cascade.find_subsequence", "linalg.phase_mod1",
        "oracle.product_spectrum", "verify.verify_artifact",
        "serialize.save_artifact", "serialize.load_artifact", "cli.main",
    ),
}


def _median(x) -> float:
    return float(np.median(x)) if len(x) else 0.0


def _ms(x) -> np.ndarray:
    return np.asarray(x, dtype=float) * 1e3


def per_layer(tracer, setup_window, rounds, untraced_walls, import_ms) -> dict:
    """All METRICS from the tracer's spans.

    ``setup_window`` and each entry of ``rounds`` are (start, end) clock
    readings; ``untraced_walls`` are the wall times of the untraced rounds of
    the same run, against which the tracing overhead is measured.
    """
    names = tracer.names
    ids, parent, start, end = tracer.arrays()
    dur = end - start
    self_t = tracer.self_times()
    ok = np.ones(len(ids), dtype=bool)
    ok[list(tracer.failed)] = False
    meta = tracer.meta

    setup = (start >= setup_window[0]) & (start < setup_window[1])
    in_round = np.zeros(len(ids), dtype=bool)
    for r0, r1 in rounds:
        in_round |= (start >= r0) & (start < r1)
    n_rounds = len(rounds)
    round_total = sum(r1 - r0 for r0, r1 in rounds)

    def is_(name):
        return ids == names.index(name) if name in names else np.zeros(len(ids), bool)

    def metas(mask):
        return [meta.get(int(i)) for i in np.flatnonzero(mask)]

    out = {}
    out["scenario.generate_instance_ms"] = float(_ms(dur[is_("scenario.generate_instance") & setup]).sum())
    out["scenario.check_angle_independence_ms"] = float(
        _ms(dur[is_("scenario.check_angle_independence") & setup]).sum())
    out["scenario.check_L_conditions_calls"] = int((is_("scenario.check_L_conditions") & setup).sum())
    out["cascade.choose_parameters_ms"] = _median(_ms(dur[is_("cascade.choose_parameters") & ok]))

    decompose = is_("cascade.cascade_decompose") & in_round
    dec_ms = _ms(dur[decompose & ok])
    out["cascade.decompose_ms_p50"] = _median(dec_ms)
    out["cascade.decompose_ms_p99"] = float(np.percentile(dec_ms, 99)) if len(dec_ms) else 0.0
    out["cascade.decompose_samples"] = int(len(dec_ms))
    out["cascade.decompose_calls"] = decompose.sum() / n_rounds

    search = is_("cascade.find_subsequence") & in_round & ok
    found = [m for m in metas(search) if m]
    examined = sum(m["examined"] for m in found)
    out["cascade.examined"] = examined / n_rounds
    out["cascade.hit_ratio"] = sum(m["hits"] for m in found) / examined if examined else 0.0
    # The phase prefilter is the vectorised phase_mod1 / signed_fraction
    # calls made directly by find_subsequence over the whole progression.
    direct = np.isin(parent, np.flatnonzero(search))
    prefilter = direct & (is_("linalg.phase_mod1") | is_("linalg.signed_fraction"))
    scanned = {}
    for i in np.flatnonzero(direct & is_("linalg.phase_mod1")):
        scanned[int(parent[i])] = max(scanned.get(int(parent[i]), 0), meta.get(int(i)) or 0)
    n_scanned = sum(scanned.values())
    out["cascade.prefilter_ms_per_1e5"] = (
        float(_ms(dur[prefilter]).sum()) / (n_scanned / 1e5) if n_scanned else 0.0)

    for fn in ("solve_xi", "solve_eta", "derive_constants", "invariant_pair",
               "verify_certificate"):
        out[f"graph_transform.{fn}_ms"] = _median(_ms(dur[is_(f"graph_transform.{fn}") & ok]))

    inside = tracer.nearest("cascade.cascade_decompose") >= 0
    n_dec = max(int((is_("cascade.cascade_decompose")).sum()), 1)
    out["model.sandwich_calls_per_decompose"] = int(
        ((is_("model.DiagonalPowers.dvn_u_avmn") | is_("model.DiagonalPowers.avmn_u_dvn"))
         & inside).sum()) / n_dec
    for fn in ("op_norm", "invert", "eigenvalues"):
        out[f"linalg.{fn}_calls_per_decompose"] = int((is_(f"linalg.{fn}") & inside).sum()) / n_dec

    spectra = is_("oracle.product_spectrum") & in_round
    digits = np.array([m if m is not None else np.nan for m in metas(spectra)], dtype=float)
    idx = np.flatnonzero(spectra)
    numpy_route, mp_route = idx[digits <= NUMPY_DIGITS], idx[digits > NUMPY_DIGITS]
    out["oracle.numpy_calls"] = len(numpy_route) / n_rounds
    out["oracle.numpy_ms_p50"] = _median(_ms(dur[numpy_route[ok[numpy_route]]]))
    out["oracle.mp_calls"] = len(mp_route) / n_rounds
    mp_ms = _ms(dur[mp_route[ok[mp_route]]])
    out["oracle.mp_ms_p50"] = _median(mp_ms)
    out["oracle.mp_ms_max"] = float(mp_ms.max()) if len(mp_ms) else 0.0
    out["oracle.mp_digits_max"] = float(digits[digits > NUMPY_DIGITS].max()) if len(mp_route) else 0.0

    layer_of = np.array([n.split(".", 1)[0] for n in names] + [""])[ids]
    self_by_layer = {layer: float(self_t[in_round & (layer_of == layer)].sum())
                     for layer in LAYERS}
    out["oracle.self_s"] = self_by_layer["oracle"] / n_rounds

    checks = is_("verify.verify_artifact") & in_round
    kinds = metas(checks)
    check_dur = dur[checks]
    for kind, key in (("prove-report", "prove_report_s"), ("cascade-result", "cascade_result_s")):
        out[f"verify.{key}"] = float(sum(d for d, k in zip(check_dur, kinds) if k == kind)) / n_rounds
    out["verify.self_s"] = self_by_layer["verify"] / n_rounds

    saves = is_("serialize.save_artifact") & in_round
    out["serialize.save_ms"] = float(_ms(dur[saves]).sum()) / n_rounds
    out["serialize.load_ms"] = float(_ms(dur[is_("serialize.load_artifact") & in_round]).sum()) / n_rounds
    out["serialize.bytes_written"] = (
        sum(m or 0 for m in metas(saves)) + sum(m["csv_bytes"] for m in found)) / n_rounds

    commands = is_("cli.main")
    cmd_meta = metas(commands)
    cmd_ms = _ms(dur[commands])
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_ms"] = _median([d for d, c in zip(cmd_ms, cmd_meta) if c == cmd])
    out["cli.import_ms"] = float(import_ms)

    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_by_layer[layer] / round_total if round_total else 0.0
    traced_walls = [r1 - r0 for r0, r1 in rounds]
    out["trace.overhead_ratio"] = _median(traced_walls) / _median(untraced_walls)

    return {name: {"value": float(out[name]), "unit": unit} for name, (unit, _) in METRICS.items()}


def span_calls(tracer) -> dict:
    counts = np.bincount(np.frombuffer(tracer.name_id, dtype=np.int32),
                         minlength=len(tracer.names))
    return {name: int(c) for name, c in zip(tracer.names, counts) if c}
