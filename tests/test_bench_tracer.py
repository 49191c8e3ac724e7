"""The benchmark's tracer against the package it wraps.

`perfbench/tracer.py` swaps named module attributes of conesim for timing
wrappers and swaps them back. A public name it reads that is deleted or
renamed (`kraus_power` in `runner` or `channels`, say) makes `install` raise,
and a wrapper that changed a result would change the benchmark's outputs.
The tracer is loaded from its file, read and never edited.
"""
import importlib.util
from pathlib import Path

from conesim import BUILTIN_EXAMPLES, builtin_example, run_scenario

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_built_in_runs_match_untraced_and_uninstall_restores(tmp_path):
    tracer_module = _load_tracer()
    names = sorted(BUILTIN_EXAMPLES)
    plain = {n: run_scenario(builtin_example(n), tmp_path / "plain" / n).summary for n in names}
    originals = []
    for module, attr, *_ in tracer_module.SPANS + tracer_module.COUNTS:
        owner = tracer_module._owner(module)
        originals.append((owner, attr, owner.__dict__.get(attr)))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # a KeyError here names a deleted attribute
        traced = {
            n: run_scenario(builtin_example(n), tmp_path / "traced" / n).summary for n in names
        }
    finally:
        tracer.uninstall()
    assert traced == plain
    assert "trace.write_csv" in tracer.spans
    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)
