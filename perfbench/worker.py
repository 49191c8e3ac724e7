"""One benchmark process: set up, print "ready", run rounds, write results.

Usage: python3 perfbench/worker.py JOB_JSON

The job names the checkout, the scenario files and the time budget. Set-up
imports conesim from the checkout's `src`, parses every input and runs the
warm-up; the line "ready" on stdout then tells the parent that set-up is
over. A round executes every scenario once, one at a time (closed loop). In
traced jobs rounds alternate untraced and traced, so that the tracing
overhead is measured inside the same process.

After set-up and after every scenario the worker times a fixed calibration
kernel, untimed itself; the parent uses these samples to rescale wall times
to the machine's reference speed.
"""
from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# numpy is imported inside functions: set-up times conesim's own import of it
HERE = Path(__file__).resolve().parent

_CAL_MATRIX = (
    (2.0, 0.5, 0.1, 0.0),
    (0.5, 1.5, 0.2, 0.1),
    (0.1, 0.2, 1.0, 0.3),
    (0.0, 0.1, 0.3, 0.5),
)


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls,
    the same kind of work as a conesim step (~2 ms at reference speed)."""
    import numpy as np

    m = np.array(_CAL_MATRIX)
    t0 = perf_counter()
    x = np.ones(4)
    for _ in range(150):
        x = m @ x
        x /= np.abs(x).max()
        np.linalg.eigvalsh(m)
    return perf_counter() - t0


def import_conesim(root: Path):
    src = root / "src"
    if not (src / "conesim" / "__init__.py").is_file():
        raise SystemExit(f"no conesim package under {src}")
    sys.path.insert(0, str(src))
    import conesim

    if Path(conesim.__file__).resolve().parent != (src / "conesim").resolve():
        raise SystemExit(f"imported conesim from {conesim.__file__}, not from {src}")
    return conesim


def warm_up(conesim, paths: list[str], out_dir: Path) -> None:
    """Absorb first-call costs (LAPACK set-up, page faults of the first large
    arrays) before anything is timed."""
    import numpy as np

    for k, path in enumerate(paths):
        scenario = conesim.parse_scenario(Path(path).read_text())
        conesim.run_scenario(scenario, out_dir=out_dir / f"warmup{k}")
    rng = np.random.default_rng(0)
    np.linalg.eigvals(rng.standard_normal((256, 256)))
    np.linalg.eigvalsh(rng.standard_normal((512, 4, 4)))
    np.linalg.solve(rng.standard_normal((256, 256)), rng.standard_normal(256))


class Outputs:
    """Distinct outputs per case, with how many executions produced each."""

    def __init__(self) -> None:
        self.by_case: dict[str, dict[str, dict]] = {}
        self.errors: dict[str, list[str]] = {}

    def add(self, case_id: str, summary: dict, trace_csv: Path) -> None:
        key = json.dumps(summary, sort_keys=True)
        seen = self.by_case.setdefault(case_id, {})
        if key not in seen:
            with open(trace_csv) as fh:
                rows = sum(1 for _ in fh)
            seen[key] = {"summary": summary, "csv_rows": rows, "count": 0}
        seen[key]["count"] += 1

    def error(self, case_id: str, message: str) -> None:
        self.errors.setdefault(case_id, []).append(message)

    def to_json(self) -> dict:
        return {
            "outputs": {k: list(v.values()) for k, v in self.by_case.items()},
            "errors": self.errors,
        }


def run_in_process(conesim, tracer, scenarios, out_dir: Path, outputs: Outputs, traced: bool):
    run_scenario = conesim.run_scenario
    latencies, cal = [], []
    for case_id, scenario in scenarios:
        target = out_dir / case_id
        t0 = perf_counter()
        try:
            if traced:
                result = tracer.call(
                    "runner.run_scenario", run_scenario, (scenario,), {"out_dir": target}
                )
            else:
                result = run_scenario(scenario, out_dir=target)
        except Exception as exc:  # a failed scenario is counted, not fatal
            latencies.append((case_id, perf_counter() - t0))
            outputs.error(case_id, f"{type(exc).__name__}: {exc}")
        else:
            latencies.append((case_id, perf_counter() - t0))
            outputs.add(case_id, result.summary, result.trace_path)
        cal.append(calibration_kernel())
    return latencies, cal


def run_cli(job: dict, out_dir: Path, outputs: Outputs, traced: bool):
    spans_dir = out_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    latencies, cal, snapshots = [], [], []
    for case in job["cases"]:
        target = out_dir / case["id"]
        args = ["run", case["path"], "--out-dir", str(target)]
        args += ["--seed-override", str(case["seed_override"])]
        if traced:
            spans = spans_dir / f"{case['id']}.json"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans)] + args
        else:
            cmd = [sys.executable, "-m", "conesim.cli"] + args
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        latencies.append((case["id"], perf_counter() - t0))
        cal += [calibration_kernel() for _ in range(3)]
        if proc.returncode != 0:
            outputs.error(case["id"], f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        outputs.add(
            case["id"],
            json.loads((target / "summary.json").read_text()),
            target / "trace.csv",
        )
        if traced:
            snapshots.append(json.loads(spans.read_text()))
    return latencies, cal, snapshots


def merge(snapshots: list[dict]) -> dict:
    total = {"spans": {}, "counters": {}, "import_s": []}
    for snap in snapshots:
        for name, (calls, incl, self_) in snap["spans"].items():
            entry = total["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_
        for name, value in snap["counters"].items():
            total["counters"][name] = total["counters"].get(name, 0) + value
        total["import_s"] += snap.get("import_s", [])
    return total


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    root = Path(job["root"])
    out_dir = Path(job["out_dir"])
    cli = job["workload"] == "cli-examples"

    t0 = perf_counter()
    conesim = import_conesim(root)
    import_s = perf_counter() - t0

    parse_s, input_bytes, scenarios = 0.0, 0, []
    for case in job["cases"]:
        text = Path(case["path"]).read_text()
        t0 = perf_counter()
        scenarios.append((case["id"], conesim.parse_scenario(text)))
        parse_s += perf_counter() - t0
        input_bytes += len(text.encode())
    if not cli:
        warm_up(conesim, job["warmup"], out_dir)
    print("ready", flush=True)
    setup_cal = [calibration_kernel() for _ in range(9)]

    tracer = None
    if job["trace"] and not cli:
        from tracer import Tracer

        tracer = Tracer()
    outputs = Outputs()
    rounds = []
    start = perf_counter()
    while True:
        traced = bool(job["trace"]) and len(rounds) % 2 == 1
        if traced and not cli:
            tracer.reset()
            tracer.install()
        try:
            if cli:
                latencies, cal, snaps = run_cli(job, out_dir, outputs, traced)
            else:
                latencies, cal = run_in_process(
                    conesim, tracer, scenarios, out_dir, outputs, traced
                )
        finally:
            if traced and not cli:
                tracer.uninstall()
        entry = {"traced": traced, "latencies": latencies, "cal": cal}
        if traced:
            entry["trace"] = merge(snaps) if cli else tracer.snapshot()
        rounds.append(entry)
        elapsed = perf_counter() - start
        last = sum(lat for _, lat in latencies)
        enough = len(rounds) >= job["min_rounds"] and len(rounds) % (2 if job["trace"] else 1) == 0
        # stop once another round would overrun the budget by over half a round
        if enough and elapsed + last / 2 > job["budget_s"]:
            break

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "import_s": import_s,
        "parse_s": parse_s,
        "setup_cal": setup_cal,
        "input_bytes": input_bytes,
        "rounds": rounds,
        "maxrss_kb": usage_children if cli else usage_self,
        **outputs.to_json(),
    }
    Path(job["result_path"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
