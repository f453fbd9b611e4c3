"""Self-checks of the benchmark's tracer.

    python3 -m pytest bench/tests -q

The module-scoped fixture makes two short traced runs of each workload
(one traced round each), so the module takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spectral_cascade as sc  # noqa: E402
import spectral_cascade.cli  # noqa: E402,F401  (binds every layer module)
from layers import EXPECTED_SPANS  # noqa: E402
from tracer import Tracer, installed_wrappers, package_modules  # noqa: E402

WORKLOADS = tuple(EXPECTED_SPANS)
COUNT_METRICS = (
    "linalg.op_norm_calls_per_decompose",
    "linalg.invert_calls_per_decompose",
    "linalg.eigenvalues_calls_per_decompose",
    "model.sandwich_calls_per_decompose",
    "cascade.examined",
)


def _traced_run(workload: str):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report_line.removeprefix("report ")), json.loads(result_line)


@pytest.fixture(scope="module")
def runs():
    return {w: (_traced_run(w), _traced_run(w)) for w in WORKLOADS}


def _bindings():
    out = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    out[(mod.__name__, obj.__name__, meth)] = fn
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_expected_span_fires(runs, workload):
    (report, result), _ = runs[workload]
    assert result["correct"]
    calls = report["span_calls"]
    missing = [name for name in EXPECTED_SPANS[workload] if not calls.get(name)]
    assert not missing, f"spans that never fired on {workload}: {missing}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly(runs, workload):
    (_, first), (_, second) = runs[workload]
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_uninstall_restores_every_binding():
    before = _bindings()
    assert not installed_wrappers()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = installed_wrappers()
        # solve_xi is defined in graph_transform but cascade calls it
        # through its own binding; both must be wrapped.
        for name in ("spectral_cascade.graph_transform.solve_xi",
                     "spectral_cascade.cascade.solve_xi",
                     "spectral_cascade.cascade_decompose",
                     "spectral_cascade.model.DiagonalPowers.dvn_u_avmn"):
            assert name in wrapped, name
    finally:
        tracer.uninstall()
    assert not installed_wrappers()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_through_module_bindings():
    spec = sc.generate_instance((1, 2, 2), seed=0)
    casc = sc.choose_parameters(spec.model, spec.L, 1e-3, law=spec.law)
    L_k = spec.L_n(casc.k0)
    tracer = Tracer()
    tracer.install()
    try:
        sc.cascade_decompose(L_k, casc.n0, spec.model, casc)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    parents = list(tracer.parent)
    assert names[0] == "cascade.cascade_decompose" and parents[0] == -1
    xi = [i for i, n in enumerate(names) if n == "graph_transform.solve_xi"]
    assert xi and all(tracer.nearest("cascade.cascade_decompose")[i] == 0 for i in xi)
    self_time = tracer.self_times()
    assert (self_time >= -1e-9).all()
    assert abs(self_time.sum() - (tracer.end[0] - tracer.start[0])) < 1e-6
