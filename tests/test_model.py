import numpy as np
import pytest

from ddchain.model import (
    ChainSpec,
    PulseSpec,
    TridiagonalHamiltonian,
    build_controlled_hamiltonian,
    build_free_hamiltonian,
    environment_block,
    sample_period_noise,
    sample_static_disorder,
    time_grid,
)


def test_free_hamiltonian_uniform_chain():
    h = build_free_hamiltonian(ChainSpec(n_sites=3, coupling=1.0))
    assert np.array_equal(h.diagonal, [0.0, 0.0, 0.0])
    assert np.array_equal(h.off_diagonal, [1.0, 1.0])


def test_free_hamiltonian_decoupled_chain():
    h = build_free_hamiltonian(ChainSpec(n_sites=2, coupling=0.0))
    assert np.array_equal(h.diagonal, [0.0, 0.0])
    assert np.array_equal(h.off_diagonal, [0.0])


def test_controlled_hamiltonian_shifts_first_site():
    spec = ChainSpec(n_sites=3, coupling=1.0)
    pulse = PulseSpec(8.0, 1.3, 1.2, 1)
    h = build_controlled_hamiltonian(spec, pulse)
    assert np.array_equal(h.diagonal, [8.0, 0.0, 0.0])
    assert np.array_equal(h.off_diagonal, [1.0, 1.0])

    h2 = build_controlled_hamiltonian(ChainSpec(n_sites=2, coupling=1.0), PulseSpec(5.0, 1.0, 0.5, 1))
    assert np.array_equal(h2.diagonal, [5.0, 0.0])
    assert np.array_equal(h2.off_diagonal, [1.0])


def test_zero_strength_equals_free():
    spec = ChainSpec(n_sites=5, coupling=0.7)
    free = build_free_hamiltonian(spec)
    ctrl = build_controlled_hamiltonian(spec, PulseSpec(0.0, 1.0, 0.5, 1))
    assert np.array_equal(free.diagonal, ctrl.diagonal)
    assert np.array_equal(free.off_diagonal, ctrl.off_diagonal)


def test_offsets_are_added():
    spec = ChainSpec(n_sites=3, coupling=1.0)
    h = build_free_hamiltonian(spec, bond_offsets=np.array([0.1, -0.2]),
                               site_offsets=np.array([0.5, 0.0, -0.5]))
    assert np.allclose(h.diagonal, [0.5, 0.0, -0.5])
    assert np.allclose(h.off_diagonal, [1.1, 0.8])


def test_offset_length_mismatch_rejected():
    spec = ChainSpec(n_sites=3)
    with pytest.raises(ValueError):
        build_free_hamiltonian(spec, bond_offsets=np.zeros(3))
    with pytest.raises(ValueError):
        build_free_hamiltonian(spec, site_offsets=np.zeros(2))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_sites": 1},
        {"n_sites": 4, "static_coupling_disorder": -0.1},
        {"n_sites": 4, "band_broadening": -1.0},
        {"n_sites": 4, "per_period_noise": float("nan")},
        {"n_sites": 4, "coupling": float("inf")},
        {"n_sites": 4, "seed": -1},
        {"n_sites": 4, "seed": 1 << 64},
    ],
)
def test_chain_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ChainSpec(**kwargs)


@pytest.mark.parametrize(
    "args",
    [
        (8.0, 0.0, 0.0, 1),       # period must be positive
        (8.0, 1.0, 1.5, 1),       # width beyond period
        (8.0, 1.0, -0.1, 1),      # negative width
        (8.0, 1.0, 0.5, 0),       # no periods
        (float("nan"), 1.0, 0.5, 1),
    ],
)
def test_pulse_spec_validation(args):
    with pytest.raises(ValueError):
        PulseSpec(*args)


def test_hamiltonian_shape_validation():
    with pytest.raises(ValueError):
        TridiagonalHamiltonian(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        TridiagonalHamiltonian(np.array([0.0, float("nan")]), np.zeros(1))


def test_hamiltonian_owns_its_arrays():
    d, e = np.zeros(3), np.ones(2)
    h = TridiagonalHamiltonian(d, e)
    d[0], e[0] = 1.0, 5.0  # the caller's arrays stay writable
    assert np.array_equal(h.diagonal, np.zeros(3)) and np.array_equal(h.off_diagonal, np.ones(2))
    assert not (h.diagonal.flags.writeable or h.off_diagonal.flags.writeable)


def test_static_disorder_zero_amplitudes():
    bonds, sites = sample_static_disorder(ChainSpec(n_sites=6, seed=3))
    assert np.array_equal(bonds, np.zeros(5))
    assert np.array_equal(sites, np.zeros(6))


def test_static_disorder_bounds_and_determinism():
    spec = ChainSpec(n_sites=40, static_coupling_disorder=0.5, band_broadening=0.25, seed=11)
    bonds1, sites1 = sample_static_disorder(spec)
    bonds2, sites2 = sample_static_disorder(spec)
    assert np.array_equal(bonds1, bonds2)
    assert np.array_equal(sites1, sites2)
    assert np.all(np.abs(bonds1) < 0.5)
    assert np.all(np.abs(sites1) < 0.25)
    assert np.any(bonds1 != 0.0)


def test_bond_stream_independent_of_site_amplitude():
    a = ChainSpec(n_sites=10, static_coupling_disorder=0.5, band_broadening=0.0, seed=4)
    b = ChainSpec(n_sites=10, static_coupling_disorder=0.5, band_broadening=0.9, seed=4)
    assert np.array_equal(sample_static_disorder(a)[0], sample_static_disorder(b)[0])


def test_period_noise_zero_amplitude():
    spec = ChainSpec(n_sites=5, seed=2)
    assert np.array_equal(sample_period_noise(spec, 0), np.zeros(4))


def test_period_noise_varies_per_period_and_is_pure():
    spec = ChainSpec(n_sites=12, per_period_noise=0.1, seed=8)
    first = sample_period_noise(spec, 0)
    second = sample_period_noise(spec, 1)
    assert not np.array_equal(first, second)
    assert np.all(np.abs(first) < 0.1)
    assert np.all(np.abs(second) < 0.1)
    # Pure function of (seed, index): order of sampling is irrelevant.
    assert np.array_equal(sample_period_noise(spec, 1), second)
    assert np.array_equal(sample_period_noise(spec, 0), first)
    with pytest.raises(ValueError):
        sample_period_noise(spec, -1)


def test_environment_block():
    h = build_free_hamiltonian(ChainSpec(n_sites=4), site_offsets=np.array([0.1, 0.2, 0.3, 0.4]))
    env = environment_block(h)
    assert np.array_equal(env.diagonal, [0.2, 0.3, 0.4])
    assert np.array_equal(env.off_diagonal, [1.0, 1.0])
    with pytest.raises(ValueError, match="need at least 2 sites to take an environment block"):
        environment_block(TridiagonalHamiltonian(np.array([0.7]), np.zeros(0)))


@pytest.mark.parametrize("dt, t_max, message", [
    (0.0, 1.0, "dt and t_max must be > 0"), (-0.1, 1.0, "dt and t_max must be > 0"),
    (0.1, 0.0, "dt and t_max must be > 0"), (0.1, -1.0, "dt and t_max must be > 0"),
    (1e-310, 1e10, "t_max / dt overflows: t_max=1e[+]10, dt=1e-310"),
])
def test_time_grid_rejects_bad_steps(dt, t_max, message):
    with pytest.raises(ValueError, match=message):
        time_grid(dt, t_max)
