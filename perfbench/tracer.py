"""Spans around conesim's public functions, recorded from outside the package.

The tracer swaps module attributes for timing wrappers, at the names under
which `runner`, `classical`, `channels` and `cli` look the functions up, and
swaps the originals back on `uninstall`. Spans are aggregated in memory per
name: calls, inclusive time, and self time (inclusive minus the time covered
by child spans). Counters record the work each call did, read off its result.
"""
from __future__ import annotations

import importlib
import os
from time import perf_counter


def _iterations(result, args):
    return {"steps": result.iterations}


def _operators(result, args):
    return {"ops": result.operator_count}


def _samples(result, args):
    return {"samples": result.samples_drawn}


def _csv(result, args):
    trace = args[0]
    return {"rows": len(trace.records), "bytes": os.path.getsize(result)}


# (module, attribute, span name, counter extractor). A function reachable under
# two names is listed under both; a call enters one span either way.
SPANS = (
    ("conesim.runner", "run_consensus", "classical.run", _iterations),
    ("conesim.runner", "run_dual_consensus", "classical.run", _iterations),
    ("conesim.runner", "projective_diameter", "classical.diameter", None),
    ("conesim.classical", "tsitsiklis_lyapunov", "cones.lyapunov", None),
    ("conesim.classical", "birkhoff_lyapunov", "cones.lyapunov", None),
    ("conesim.runner", "run_channel", "channels.run", _iterations),
    ("conesim.runner", "run_noncommutative_consensus", "channels.run", _iterations),
    ("conesim.runner", "kraus_power", "channels.kraus_power", _operators),
    ("conesim.channels", "kraus_power", "channels.kraus_power", _operators),
    ("conesim.runner", "estimate_image_radius", "channels.radius", _samples),
    ("conesim.channels", "estimate_image_radius", "channels.radius", _samples),
    ("conesim.runner", "channel_fixed_point", "channels.fixed_point", None),
    ("conesim.runner", "duality_invariant_check", "channels.duality", None),
    ("conesim.trace:SimulationTrace", "write_csv", "trace.write_csv", _csv),
    ("conesim.cli", "parse_scenario", "scenario.parse", None),
    ("conesim.cli", "run_scenario", "runner.run_scenario", None),
)

# call counts only: these run once per step and need no clock
COUNTS = (("conesim.channels", "is_positive_definite", "hermitian.pd_checks"),)


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive, self]
        self.counters: dict[str, int] = {}

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
        }

    def count(self, key: str, value: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def call(self, name: str, fn, args=(), kwargs=None, extract=None):
        """Run fn(*args, **kwargs) inside span `name`."""
        kwargs = kwargs or {}
        stack = self._stack
        if stack and stack[-1][0] == name:
            # the same span reached again through an alias: count it once
            return fn(*args, **kwargs)
        frame = [name, perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - frame[1]
            stack.pop()
            if stack:
                stack[-1][2] += elapsed
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[2]
        if extract is not None:
            for key, value in extract(result, args).items():
                self.count(f"{name}.{key}", value)
        return result

    def _span_wrapper(self, name, fn, extract):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extract)

        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[tuple, object] = {}
        targets = [(m, a, n, e, False) for m, a, n, e in SPANS]
        targets += [(m, a, n, None, True) for m, a, n in COUNTS]
        for module, attr, name, extract, count_only in targets:
            owner = _owner(module)
            original = owner.__dict__[attr]
            # one wrapper per original function, whichever name reaches it
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = (
                    self._count_wrapper(name, original)
                    if count_only
                    else self._span_wrapper(name, original, extract)
                )
            setattr(owner, attr, wrappers[key])
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
