"""Smoke tests for the scripts under scripts/."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_contraction_study_runs_and_observed_within_certified():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "contraction_study.py"), "--seed", "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    part1 = proc.stdout.split("\n\n")[0].splitlines()[2:]
    assert len(part1) == 6
    for line in part1:
        certified, observed = (float(v) for v in line.split()[-2:])
        assert observed <= certified + 1e-9, line


def test_run_examples_writes_converged_summaries(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_examples.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summaries = sorted(tmp_path.glob("*/summary.json"))
    assert [p.parent.name for p in summaries] == ["example1", "example2", "example3"]
    for path in summaries:
        assert json.loads(path.read_text())["status"] == "converged", path


def test_step_digest_is_the_same_at_1_and_2_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "step_digest.py")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    lines = outputs[0].splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"{action} n={n}" for n in (12, 24, 32) for action in ("dual", "channel")
    ] + [f"{run} n={n}" for n in (64, 128) for run in ("consensus", "dual_consensus")] + [
        "dual n=8",
        "channel n=2",
        "consensus n=48",
    ] + [
        f"{run} {steps} steps n={n}"
        for n in (32, 128)
        for run, steps in (("consensus", 200), ("dual_consensus", 1000))
    ] + ["all"]
    assert outputs[0] == outputs[1]
