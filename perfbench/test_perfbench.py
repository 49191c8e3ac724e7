"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads
from tracer import Tracer
from worker import Outputs, import_conesim, run_in_process

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def conesim():
    return import_conesim(ROOT)


def _run(conesim, case: dict, out: Path) -> dict:
    result = conesim.run_scenario(conesim.parse_scenario(json.dumps(case["doc"])), out_dir=out)
    with open(result.trace_path) as fh:
        rows = sum(1 for _ in fh)
    return {"summary": json.loads(json.dumps(result.summary)), "csv_rows": rows}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    def dump(seed):
        return json.dumps(workloads.generate(workload, seed), sort_keys=True)

    assert dump(5) == dump(5)
    assert dump(5) != dump(6)


def test_oracle_accepts_outputs_and_rejects_perturbed_final_states(conesim, tmp_path):
    for case in workloads.warmup_cases():
        output = _run(conesim, case, tmp_path / case["id"])
        assert oracle.check(case, output) == []
        state = output["summary"]["final_state"]
        if case["doc"]["kind"].startswith("classical"):
            state[0] += 1e-6
        else:
            state[0][0][0] += 1e-6
        assert oracle.check(case, output), case["id"]


def test_oracle_rejects_wrong_status_and_truncated_trace(conesim, tmp_path):
    case = workloads.warmup_cases()[0]
    output = _run(conesim, case, tmp_path)
    assert oracle.check(dict(case, expect="max_iters"), output)
    assert oracle.check(case, dict(output, csv_rows=output["csv_rows"] - 1))


def test_column_pair_diameter_matches_cross_ratio_enumeration():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        for _ in range(50):
            a = rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7)
            a[np.arange(n), rng.integers(0, n, n)] += 0.5  # no zero rows
            best = 0.0
            for i, j, p, q in itertools.product(range(n), repeat=4):
                if a[i, j] > 0 and a[p, q] > 0:
                    if a[i, q] == 0 or a[p, j] == 0:
                        best = math.inf
                        break
                    best = max(best, math.log(a[i, j] * a[p, q] / (a[i, q] * a[p, j])))
            got = oracle.projective_diameter(a)
            assert got == best or abs(got - best) <= 1e-12 * max(1.0, best)


def test_superoperator_is_the_channel_in_row_major_vec():
    rng = np.random.default_rng(4)
    ops = workloads.random_kraus(3, 2, rng)
    z = workloads.random_density(3, rng)
    direct = sum(v @ z @ v.conj().T for v in ops)
    S = workloads.superoperator(ops)
    assert np.allclose((S @ z.reshape(-1)).reshape(3, 3), direct, atol=1e-14)
    x = workloads.random_pd(3, rng)
    dual = sum(v.conj().T @ x @ v for v in ops)
    assert np.allclose((S.conj().T @ x.reshape(-1)).reshape(3, 3), dual, atol=1e-14)


def test_traced_counts_repeat_exactly(conesim, tmp_path):
    cases = workloads.warmup_cases()
    scenarios = [(c["id"], conesim.parse_scenario(json.dumps(c["doc"]))) for c in cases]
    tracer = Tracer()
    snapshots = []
    for k in range(2):
        tracer.reset()
        tracer.install()
        try:
            run_in_process(conesim, tracer, scenarios, tmp_path / str(k), Outputs(), True)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        snapshots.append((snap["counters"], {n: v[0] for n, v in snap["spans"].items()}))
    assert snapshots[0] == snapshots[1]
    counters, calls = snapshots[0]
    # the quantum warm-up case has a radius and a fixed point: the radius is
    # estimated once for the summary and once inside the fixed point
    assert calls["channels.radius"] == 4
    assert calls["runner.run_scenario"] == len(cases)
    assert counters["trace.write_csv.rows"] > 0
    # uninstalling restores the original functions
    assert conesim.runner.estimate_image_radius is conesim.channels.estimate_image_radius


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
