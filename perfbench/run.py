#!/usr/bin/env python3
"""conesim benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario documents from the seed, then starts
WORKERS fresh worker processes one after another. Each imports conesim from
the checkout's `src`, parses every input, warms up, and runs the workload in
rounds (every scenario once, one at a time) for its share of the seconds.
Every output is checked against the plain-numpy oracle. The last line of
stdout is the JSON result; the lines before it are a human-readable report.

With --trace 0 the metrics are the end-to-end ones (set-up time, round time,
scenario latency, peak RSS, share of scenarios that passed). With --trace 1
rounds alternate untraced and traced, and the metrics are the per-layer
spans and counters of the traced rounds, per round, plus the tracing
overhead (traced minus untraced round time).

Times are reported at reference speed. The speed of a small shared machine
drifts by 10-30% over tens of seconds, which would swamp the differences
between two commits. Each worker therefore times a fixed calibration kernel
after set-up and after every scenario, and every wall time of the run is
multiplied by (CAL_REF_S / median of the run's kernel times) ** CAL_EXPONENT.
The raw wall times and the kernel's median are printed in the report.
"""
from __future__ import annotations

import os

# at most two BLAS threads, which is the default on the 2-core machine the
# workloads were sized for; fixed before numpy loads, and inherited by every
# process started below, so that all of them run the same configuration
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 7  # set-up is measured once per worker; setup_s is their median
WORKER_GRACE_S = 120.0  # beyond its budget before a worker counts as hung
CAL_REF_S = 0.002  # the calibration kernel's time at reference speed
# Interpreter-bound work (trajectory steps, fixed points, radius sampling)
# slowed in proportion to the kernel over sixteen 12-second windows, the
# memory-bound n = 64 diameter and process start as its square root; 0.75
# left every one of them with half or less of its raw spread.
CAL_EXPONENT = 0.75

# Tail percentile per workload, fixed so that it means the same on every
# commit; each workload runs until >= 10 samples lie beyond it. Each falls
# inside the workload's heavy cluster of scenarios rather than between two
# clusters: 4 of 21 classical and 3 of 15 quantum trajectories (p90), 2 of
# 17 certificate cases (p95), the slowest of the 3 CLI examples (p75).
TAIL_PCT = {"certificates": 95.0, "cli-examples": 75.0}
DEFAULT_TAIL_PCT = 90.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "scenario.parse_s": "s",
    "scenario.input_kb": "KB",
    "runner.run_scenario_s": "s",
    "runner.self_s": "s",
    "classical.run_s": "s",
    "classical.steps": "count",
    "classical.step_us": "us",
    "classical.diameter_s": "s",
    "classical.diameter_calls": "count",
    "cones.lyapunov_s": "s",
    "cones.lyapunov_calls": "count",
    "hermitian.pd_checks": "count",
    "channels.run_s": "s",
    "channels.steps": "count",
    "channels.step_us": "us",
    "channels.kraus_power_s": "s",
    "channels.kraus_ops": "count",
    "channels.radius_s": "s",
    "channels.radius_calls": "count",
    "channels.radius_samples": "count",
    "channels.fixed_point_s": "s",
    "channels.duality_s": "s",
    "trace.write_csv_s": "s",
    "trace.rows": "count",
    "trace.kb": "KB",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "bench.trace_overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def speed(results: list[dict]) -> float:
    """Factor that rescales the run's wall times to reference speed."""
    cal = [c for res in results for c in res["setup_cal"]]
    cal += [c for res in results for r in res["rounds"] for c in r["cal"]]
    return (CAL_REF_S / statistics.median(cal)) ** CAL_EXPONENT


def round_time(r: dict) -> float:
    return sum(lat for _, lat in r["latencies"])


def min_samples(workload: str) -> int:
    pct = TAIL_PCT.get(workload, DEFAULT_TAIL_PCT)
    return int(-(-10 // (1.0 - pct / 100.0)))


# --- inputs -------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_inputs(workload: str, seed: int, work: Path) -> tuple[list[dict], list[str]]:
    """Scenario files for the workload and for the warm-up."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    cases = workloads.generate(workload, seed)
    for case in cases:
        if workload == "cli-examples":
            text = subprocess.run(
                [sys.executable, "-m", "conesim.cli", "examples", "emit", case["id"]],
                env=child_env(),
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            case["doc"] = json.loads(text)
        else:
            text = json.dumps(case["doc"])
        case["path"] = str(inputs / f"{case['id']}.json")
        Path(case["path"]).write_text(text)
    warmup = []
    for case in workloads.warmup_cases():
        path = inputs / f"{case['id']}.json"
        path.write_text(json.dumps(case["doc"]))
        warmup.append(str(path))
    return cases, warmup


# --- workers --------------------------------------------------------------------


def run_worker(index: int, job: dict, work: Path) -> dict:
    """Start one worker; return its results with its set-up time added."""
    job = dict(job, out_dir=str(work / f"w{index}"), result_path=str(work / f"w{index}.json"))
    job_path = work / f"job{index}.json"
    job_path.write_text(json.dumps(job))
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    watchdog = threading.Timer(job["budget_s"] + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {index} failed (exit {proc.returncode})")
    result = json.loads(Path(job["result_path"]).read_text())
    result["setup_s"] = setup_s
    return result


# --- correctness ----------------------------------------------------------------


def check_outputs(cases: list[dict], results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every scenario execution."""
    by_id = {c["id"]: c for c in cases}
    attempted = failed = 0
    messages: list[str] = []
    verdicts: dict[tuple, list[str]] = {}
    for res in results:
        for rnd in res["rounds"]:
            attempted += len(rnd["latencies"])
        for case_id, errors in res["errors"].items():
            failed += len(errors)
            messages += [f"{case_id}: {e}" for e in errors[:1]]
        for case_id, outputs in res["outputs"].items():
            for out in outputs:
                key = (case_id, json.dumps(out["summary"], sort_keys=True))
                if key not in verdicts:
                    try:
                        verdicts[key] = oracle.check(by_id[case_id], out)
                    except Exception as exc:  # a malformed summary fails its case
                        verdicts[key] = [f"oracle could not read the output: {exc!r}"]
                if verdicts[key]:
                    failed += out["count"]
                    messages.append(f"{case_id}: {'; '.join(verdicts[key])}")
    return attempted, failed, messages


# --- metrics --------------------------------------------------------------------


def end_to_end(workload: str, results: list[dict], attempted: int, failed: int) -> tuple[dict, list]:
    f = speed(results)
    rounds = [r for res in results for r in res["rounds"] if not r["traced"]]
    latencies = [lat for r in rounds for _, lat in r["latencies"]]
    pct = TAIL_PCT.get(workload, DEFAULT_TAIL_PCT)
    raw = {
        "setup_s": statistics.median(res["setup_s"] for res in results),
        "run_s": statistics.median(round_time(r) for r in rounds),
        "latency_p50_s": percentile(latencies, 50.0),
        "latency_tail_s": percentile(latencies, pct),
    }
    values = {name: value * f for name, value in raw.items()}
    values["peak_rss_mb"] = max(res["maxrss_kb"] for res in results) / 1024.0
    values["ok_frac"] = 1.0 - failed / attempted
    beyond = sum(1 for lat in latencies if lat > raw["latency_tail_s"])
    notes = [
        f"latency tail = p{pct:g} of {len(latencies)} samples ({beyond} beyond it), "
        f"{len(rounds)} rounds in {len(results)} processes",
        "wall time: " + ", ".join(f"{k} {v:.6f} s" for k, v in raw.items())
        + f"; calibration kernel median {CAL_REF_S / f ** (1 / CAL_EXPONENT) * 1e3:.4f} ms "
        f"(reference {CAL_REF_S * 1e3:g} ms)",
    ]
    return values, notes


def _round_layers(trace: dict, factor: float) -> dict:
    """Per-layer values of one traced round; times rescaled by `factor`."""
    spans, counters = trace["spans"], trace["counters"]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1] * factor

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2] * factor

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def per_step(name, steps):
        return incl(name) / steps * 1e6 if steps else 0.0

    classical_steps = counters.get("classical.run.steps", 0)
    channel_steps = counters.get("channels.run.steps", 0)
    return {
        "runner.run_scenario_s": incl("runner.run_scenario"),
        "runner.self_s": self_time("runner.run_scenario"),
        "classical.run_s": incl("classical.run"),
        "classical.steps": classical_steps,
        "classical.step_us": per_step("classical.run", classical_steps),
        "classical.diameter_s": incl("classical.diameter"),
        "classical.diameter_calls": calls("classical.diameter"),
        "cones.lyapunov_s": incl("cones.lyapunov"),
        "cones.lyapunov_calls": calls("cones.lyapunov"),
        "hermitian.pd_checks": counters.get("hermitian.pd_checks", 0),
        "channels.run_s": incl("channels.run"),
        "channels.steps": channel_steps,
        "channels.step_us": per_step("channels.run", channel_steps),
        "channels.kraus_power_s": incl("channels.kraus_power"),
        "channels.kraus_ops": counters.get("channels.kraus_power.ops", 0),
        "channels.radius_s": incl("channels.radius"),
        "channels.radius_calls": calls("channels.radius"),
        "channels.radius_samples": counters.get("channels.radius.samples", 0),
        "channels.fixed_point_s": incl("channels.fixed_point"),
        "channels.duality_s": incl("channels.duality"),
        "trace.write_csv_s": incl("trace.write_csv"),
        "trace.rows": counters.get("trace.write_csv.rows", 0),
        "trace.kb": counters.get("trace.write_csv.bytes", 0) / 1024.0,
        "cli.self_s": self_time("cli.main"),
    }


def per_layer(workload: str, results: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for res in results for r in res["rounds"] if r["traced"]]
    plain = [r for res in results for r in res["rounds"] if not r["traced"]]
    f = speed(results)
    rows = [_round_layers(r["trace"], f) for r in traced]
    values, notes = {}, []
    for name in rows[0]:
        series = [row[name] for row in rows]
        if PER_LAYER[name] == "count":
            if len(set(series)) != 1:
                notes.append(f"count {name} differs between traced rounds: {sorted(set(series))}")
            values[name] = statistics.median_low(series)
        else:
            values[name] = statistics.median(series)
    values["scenario.parse_s"] = statistics.median(res["parse_s"] for res in results) * f
    values["scenario.input_kb"] = results[0]["input_bytes"] / 1024.0
    if workload == "cli-examples":
        imports = [t for r in traced for t in r["trace"]["import_s"]]
    else:
        imports = [res["import_s"] for res in results]
    values["cli.import_s"] = statistics.median(imports) * f
    values["bench.trace_overhead_s"] = f * (
        statistics.median(round_time(r) for r in traced)
        - statistics.median(round_time(r) for r in plain)
    )
    spans: dict[str, list] = {}
    for r in traced:
        for name, (n_calls, incl, self_) in r["trace"]["spans"].items():
            spans.setdefault(name, []).append((n_calls, incl * f, self_ * f))
    for name in sorted(spans):
        calls, incl, self_ = zip(*spans[name])
        notes.append(
            f"span {name:22s} calls/round {statistics.median(calls):>9g}  "
            f"inclusive {statistics.median(incl):.6f} s  self {statistics.median(self_):.6f} s"
        )
    return {name: values[name] for name in PER_LAYER}, notes


def case_report(cases: list[dict], results: list[dict]) -> list[str]:
    """Median latency (at reference speed) and iterations per case."""
    f = speed(results)
    lats: dict[str, list[float]] = {}
    for res in results:
        for r in res["rounds"]:
            if not r["traced"]:
                for case_id, lat in r["latencies"]:
                    lats.setdefault(case_id, []).append(lat * f)
    iterations = {}
    for res in results:
        for case_id, outs in res["outputs"].items():
            iterations[case_id] = outs[0]["summary"]["iterations"]
    lines = []
    for case in cases:
        cid = case["id"]
        if cid not in lats:
            continue
        med = statistics.median(lats[cid])
        its = iterations.get(cid)
        per = f"{med / its * 1e6:9.1f} us/iteration" if its else ""
        lines.append(f"case {cid:28s} iterations {its!s:>6}  median {med:.6f} s {per}")
    return lines


# --- provenance -----------------------------------------------------------------


def provenance(seed: int) -> dict:
    mem_kb = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # numpy builds differ in what they report
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "seed": seed,
        "git_revision": rev,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "workers": WORKERS,
    }


# --- main -----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "conesim" / "__init__.py").is_file():
        print(f"error: no conesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cases, warmup = write_inputs(args.workload, args.seed, work)
        per_round = len(cases) * WORKERS  # samples when every worker runs one round
        job = {
            "root": str(ROOT),
            "workload": args.workload,
            "cases": [
                {"id": c["id"], "path": c["path"], "seed_override": c.get("seed_override")}
                for c in cases
            ],
            "warmup": warmup,
            "budget_s": args.seconds / WORKERS,
            "min_rounds": max(
                2 if args.trace else 1, -(-min_samples(args.workload) // per_round)
            ),
            "trace": args.trace,
        }
        results = [run_worker(i, job, work) for i in range(WORKERS)]
        attempted, failed, problems = check_outputs(cases, results)
        report = [f"provenance {json.dumps(provenance(args.seed), sort_keys=True)}"]
        report += [f"FAILED {p}" for p in problems[:20]]
        if args.trace:
            metrics, notes = per_layer(args.workload, results)
            units = PER_LAYER
        else:
            metrics, notes = end_to_end(args.workload, results, attempted, failed)
            units = END_TO_END
        report += notes + case_report(cases, results)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"{name:26s} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
