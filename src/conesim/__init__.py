"""Consensus dynamics on ordered cones.

Classical averaging on the positive orthant and its non-commutative
counterpart on the cone of positive definite matrices, with Hilbert-metric
Lyapunov certificates, projective-diameter contraction bounds, and
channel fixed-point analysis. The package exports the union of its modules'
`__all__` lists.
"""

from . import cones, classical, hermitian, channels, trace, scenario, runner

__version__ = "0.1.0"

_MODULES = (cones, classical, hermitian, channels, trace, scenario, runner)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
globals().update({name: getattr(module, name) for module in _MODULES for name in module.__all__})
