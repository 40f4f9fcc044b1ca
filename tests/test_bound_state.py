"""Constant drive against the semi-infinite chain's bound-state closed form.

A pulse that never switches off (width = period) pins the qubit's site
energy at psi. Until the reflection from the far end returns (t below
about N / J), the qubit sees a semi-infinite uniform chain, whose qubit
amplitude is known in closed form. The reference below uses NumPy only,
so it checks both routes without going through ``ddchain.eigen``.
"""

import numpy as np
import pytest

from ddchain.model import ChainSpec, PulseSpec, time_grid
from ddchain.propagate import site_amplitude_trace
from ddchain.sweeps import pq_check


def bound_state_amplitude(psi, j, t, nodes=200):
    """Qubit amplitude P(t) of a semi-infinite chain with qubit energy psi:

        P(t) = Z exp(-i lambda t) + integral of rho(E) exp(-i E t) dE,

    with lambda = psi + J^2 / psi and Z = 1 - J^2 / psi^2 for |psi| > J
    (below J there is no bound state), and rho(E) = -Im G(E + i0) / pi for
    G(E) = 1 / (E - psi - (E - i sqrt(4 J^2 - E^2)) / 2). The band integral
    is the midpoint rule in theta with E = 2 J cos(theta), where the
    self-energy is J exp(-i theta) and G = 1 / (J exp(i theta) - psi).

    At psi = 8 and J = 1, Z = 0.984375: the static limit of the controlled
    fidelity, and where the 0.98 +- 0.02 acceptance window comes from.
    """
    t = np.asarray(t, dtype=float)
    theta = (np.arange(nodes) + 0.5) * (np.pi / nodes)
    rho = -(1.0 / (j * np.exp(1j * theta) - psi)).imag / np.pi
    weights = rho * 2 * j * np.sin(theta) * (np.pi / nodes)  # dE = 2 J sin(theta) dtheta
    p = np.zeros(len(t), dtype=complex)
    for energy, weight in zip(2 * j * np.cos(theta), weights):  # no (times x nodes) block
        p += weight * np.exp(-1j * energy * t)
    if abs(psi) > j:
        p += (1 - j * j / psi**2) * np.exp(-1j * (psi + j * j / psi) * t)
    return p


def constant_drive(psi, t_max):
    return PulseSpec(psi, t_max, t_max, 1)


# (J, psi, t_max): psi above and below J, of either sign, and t_max below N / J.
CASES = [(1.0, 8.0, 100.0), (1.0, 0.5, 100.0), (1.0, -3.0, 100.0),
         (2.0, 3.0, 50.0), (2.0, 1.0, 50.0), (2.0, -2.5, 50.0)]


@pytest.mark.parametrize("j, psi, t_max", CASES)
def test_direct_trace_matches_bound_state_closed_form(j, psi, t_max):
    # The worst case, 2.2e-13 at psi = 8, is the rounding of a phase near 800 rad.
    trace = site_amplitude_trace(ChainSpec(n_sites=130, coupling=j),
                                 constant_drive(psi, t_max), 0.01, t_max)
    reference = bound_state_amplitude(psi, j, time_grid(0.01, t_max))
    assert np.abs(trace - reference).max() <= 1e-12


def test_bound_state_weight_is_the_static_controlled_fidelity():
    # By t = 100 the band part has decayed (as t^(-3/2)) to 4e-6, leaving |Z|.
    assert abs(bound_state_amplitude(8.0, 1.0, [100.0])[0]) == pytest.approx(0.984375, abs=1e-5)


@pytest.mark.parametrize("j, psi", [(1.0, 8.0), (1.0, 0.5), (2.0, 3.0), (2.0, 1.0)])
def test_volterra_route_matches_bound_state_closed_form(j, psi):
    # The trapezoid error is second order: measured max | |P| - |reference| |
    # over t <= 20 is 0.16 to 0.58 (J dt)^2 for these cases at dt = 0.02,
    # 0.01 and 0.005, so (J dt)^2 bounds it.
    chain, pulse = ChainSpec(n_sites=130, coupling=j), constant_drive(psi, 20.0)
    errors = []
    for dt in (0.01, 0.005):
        comparison = pq_check(chain, pulse, dt, 20.0)
        reference = np.abs(bound_state_amplitude(psi, j, comparison.times))
        errors.append(np.abs(comparison.p_abs - reference).max())
        assert errors[-1] <= (j * dt) ** 2
        assert np.abs(comparison.direct - reference).max() <= 1e-13
    assert 3.9 <= errors[0] / errors[1] <= 4.1
