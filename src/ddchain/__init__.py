"""ddchain: dynamical decoupling on an XY spin chain, one-magnon sector.

Exact spectral propagation of a pulse-controlled chain qubit, disorder
robustness studies, and an independent memory-kernel (Volterra) route to
the same qubit amplitude. See the README for the CLI.
"""

from ._version import __version__
from .config import ConfigError
from .errors import DdchainError, NumericalError
from .model import ChainSpec, PulseSpec
from .propagate import run_protocol
from .sweeps import (
    kernel_study,
    pq_check,
    sweep_delta_tau,
    sweep_ratio_psi,
    sweep_size,
    trace_variants,
)

__all__ = [
    "__version__",
    "ChainSpec",
    "PulseSpec",
    "DdchainError",
    "ConfigError",
    "NumericalError",
    "run_protocol",
    "kernel_study",
    "pq_check",
    "sweep_delta_tau",
    "sweep_ratio_psi",
    "sweep_size",
    "trace_variants",
]
