"""Resonator effective-mass closed forms and the guided shear-wave layer:
frozen dispersion roots and the direct resonance scan."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammasolve import models
from gammasolve.models import (
    effective_mass,
    love_dispersion,
    love_resonance_scan,
    peak_estimate,
    resonance_frequency,
    resonator_density,
)

LOVE = dict(layer_mu=1.0, layer_rho=1.0, half_thickness=1.0,
            substrate_mu=4.0, substrate_rho=1.0)


def test_effective_mass_static_limit_exact():
    assert effective_mass(0.0, 1.7, 3.1, 4, 0.6) == 1.7 + 4 * 0.6
    assert effective_mass(0.0, 0.0, 1.0, 2, 0.25) == 0.5


def test_effective_mass_all_ones():
    assert effective_mass(1.0, 1.0, 1.0, 1, 1.0) == pytest.approx(3.0, abs=1e-15)


def test_effective_mass_lossy_frozen():
    M = effective_mass(1.0, 1.0, 1.0 - 0.1j, 1, 1.0)
    assert M == pytest.approx(2.9615384615384617 + 0.1923076923076923j, abs=1e-15)
    assert M.imag > 0.0


def test_effective_mass_sign_flip_across_resonance():
    w0 = resonance_frequency(1.0, 1.0)
    assert w0 == pytest.approx(np.sqrt(2.0), abs=1e-15)
    below = effective_mass(0.95 * w0, 1.0, 1.0, 1, 1.0)
    above = effective_mass(1.05 * w0, 1.0, 1.0, 1, 1.0)
    assert below.real > 1.0 and above.real < 1.0
    # vectorized over omega
    Ms = effective_mass(np.array([0.0, 1.0, 1.5]), 1.0, 1.0, 1, 1.0)
    assert_allclose(Ms, [2.0, 3.0, 1.0 + 2.0 / (2.0 - 2.25)], atol=1e-14)


def test_resonator_density_isotropic_and_per_axis():
    D = resonator_density(1.0, 1.0, (1.0, 1, 1.0), 2.0)
    assert D.shape == (3, 3)
    assert_allclose(D, np.eye(3) * 1.5, atol=1e-14)
    springs = [(1.0, 1, 1.0), (2.0, 1, 1.0), (3.0, 1, 1.0)]
    D2 = resonator_density(0.0, 1.0, springs, 1.0)
    assert_allclose(np.diag(D2), [2.0, 2.0, 2.0], atol=1e-14)
    D3 = resonator_density(1.0, 0.0, springs, 1.0)
    assert D3[1, 1] == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert np.count_nonzero(D3 - np.diag(np.diag(D3))) == 0


def test_love_dispersion_frozen_roots():
    roots = love_dispersion(5.0, **LOVE)
    assert_allclose(roots, [2.8768006316003243, 4.7759043269387638], atol=1e-10)
    # roots live strictly between the substrate and layer wavenumbers
    assert np.all(roots > 5.0 / 2.0) and np.all(roots < 5.0)


def test_love_dispersion_requires_slow_layer():
    with pytest.raises(ValueError):
        love_dispersion(5.0, layer_mu=4.0, layer_rho=1.0, half_thickness=1.0,
                        substrate_mu=1.0, substrate_rho=1.0)


def test_love_scan_peaks_at_fundamental_root():
    root = love_dispersion(5.0, **LOVE)[-1]
    k1s = np.linspace(4.4, 5.0, 25)
    responses = love_resonance_scan(5.0, k1s, points=96, **LOVE)
    assert responses.shape == (25,)
    assert np.all(np.isfinite(responses)) and np.all(responses > 0)
    peak = peak_estimate(k1s, responses)
    assert abs(peak - root) / root < 0.02
    # resonance towers over the off-resonant background
    assert responses.max() > 5.0 * responses.min()


def test_peak_estimate_parabolic_refinement():
    ks = np.linspace(0.0, 2.0, 21)
    kstar = 1.2345
    responses = np.exp(-((ks - kstar) ** 2) / 0.1)
    assert peak_estimate(ks, responses) == pytest.approx(kstar, abs=1e-12)
    # boundary argmax falls back to the endpoint sample
    ramp = np.linspace(1.0, 2.0, 21)
    assert peak_estimate(ks, ramp) == 2.0


def test_peak_estimate_uneven_spacing():
    # the parabola goes through the actual (k, log r) points, not through
    # points assumed one step apart (which gave 1.0498 here)
    ks = np.array([0.0, 1.0, 1.1, 3.0])
    assert peak_estimate(ks, np.exp(-((ks - 1.04) ** 2))) == pytest.approx(1.04, abs=1e-12)


def test_peak_estimate_zero_neighbour_returns_argmax():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert peak_estimate([0.0, 1.0, 2.0, 3.0], [0.5, 2.0, 0.0, 0.1]) == 1.0


@pytest.mark.parametrize("ks,responses", [([0.0, 1.0, 2.0, 3.0], [1.0, 2.0]), ([], [])])
def test_peak_estimate_rejects_mismatched_or_empty(ks, responses):
    with pytest.raises(ValueError):
        peak_estimate(ks, responses)


def _scan(monkeypatch, k1s, seeded=True):
    """96-point scan through a spy on models.solve: the responses and each
    solve's iteration count; ``seeded=False`` drops every guess."""
    iterations = []
    solve = models.solve

    def spy(problem):
        if not seeded:
            problem.x0 = None
        result = solve(problem)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(models, "solve", spy)
    responses = love_resonance_scan(5.0, k1s, points=96, **LOVE)
    monkeypatch.setattr(models, "solve", solve)
    return responses, iterations


def test_love_scan_seeds_match_zero_starts_in_fewer_iterations(monkeypatch):
    k1s = np.linspace(4.4, 5.0, 25)
    cold, cold_iterations = _scan(monkeypatch, k1s, seeded=False)
    warm, warm_iterations = _scan(monkeypatch, k1s)
    assert_allclose(warm, cold, rtol=1e-6)
    assert len(warm_iterations) == 25
    assert sum(warm_iterations) < sum(cold_iterations)  # 325 against 367


def test_love_scan_order_and_repeats_keep_each_response(monkeypatch):
    k1s = np.linspace(4.4, 5.0, 25)
    order = np.random.default_rng(3).permutation(25)
    # repeats right after their first solve, and once out of the window
    order = np.concatenate([order[:5], order[4:5], order[5:], order[:2], order[-1:]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shuffled, iterations = _scan(monkeypatch, k1s[order])
    assert iterations[5] == 0 and iterations[-1] == 0  # the same E, met at once
    assert_allclose(shuffled, _scan(monkeypatch, k1s)[0][order], rtol=1e-6)
