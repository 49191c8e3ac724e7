"""The raises that report numerical breakdown, each with its message.

Each is reached from an input where one is known. The fixed point's solve,
residual and density checks guard against rounding that no valid map is
known to produce, so the kernel each one guards is replaced for the call.
"""
import re
from types import SimpleNamespace

import numpy as np
import pytest

import conesim.channels
from conesim import (
    FixedPointError,
    KrausMap,
    TerminalStatus,
    channel_fixed_point,
    hilbert_distance_psd,
    make_spontaneous_emission_map,
)


def test_zero_trace_fixed_direction(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(FixedPointError) as info:
        channel_fixed_point(make_spontaneous_emission_map(0.2))
    assert str(info.value) == "fixed direction has numerically zero trace"


def test_fixed_point_residual_over_tolerance(monkeypatch):
    monkeypatch.setattr(conesim.channels, "_act", lambda phi, X, dual: X + 1.0)
    with pytest.raises(FixedPointError) as info:
        channel_fixed_point(make_spontaneous_emission_map(0.2))
    assert str(info.value) == "fixed-point residual 2.000e+00 exceeds 1e-10"


def test_fixed_point_that_is_no_density(monkeypatch):
    # the identity channel fixes every matrix and takes the fallback run
    indefinite = np.diag([1.5, -0.5]).astype(complex)
    run = SimpleNamespace(status=TerminalStatus.CONVERGED, final_state=indefinite)
    monkeypatch.setattr(conesim.channels, "run_channel", lambda *args: run)
    with pytest.raises(FixedPointError) as info:
        channel_fixed_point(KrausMap([np.eye(2)]))
    assert str(info.value) == (
        "no PSD trace-1 fixed point at tolerance: not positive semidefinite: "
        "lambda_min=-5.000e-01"
    )


def _conditioned(rng, n, floor):
    """A random PD matrix with eigenvalues in [floor, 1], floor among them."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(g)[0]
    ev = np.exp(rng.uniform(np.log(floor), 0.0, n))
    ev[0] = floor
    return (q * ev) @ q.conj().T


def test_whitened_matrix_that_loses_positivity():
    # both arguments pass the PD floor (1e-12 relative), but the whitened
    # matrix's smallest eigenvalue (~1e-12) is below its rounding (~1e-8),
    # so its computed sign is noise: about one of these inputs in five raises
    raised = []
    for seed in range(80):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        X, Y = _conditioned(rng, n, 1.5e-12), _conditioned(rng, n, 1.5e-12)
        try:
            hilbert_distance_psd(X, Y)
        except ValueError as exc:
            raised.append(str(exc))
    assert raised
    for message in raised:
        match = re.fullmatch(
            r"whitened matrix lost positivity numerically \(lambda_min=(\S+)\)", message
        )
        assert match and float(match[1]) <= 0.0, message
