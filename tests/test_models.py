"""Resonator effective-mass closed forms and the guided shear-wave layer:
frozen dispersion roots and the direct resonance scan."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammasolve import models
from gammasolve.fields import Field
from gammasolve.models import (
    effective_mass,
    love_dispersion,
    love_resonance_scan,
    peak_estimate,
    resonance_frequency,
    resonator_density,
)
from gammasolve.projectors import apply_projector

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
    assert sum(warm_iterations) < sum(cold_iterations) / 2  # 93 against 367


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


def test_love_scan_returns_only_seeds_within_a_quarter_tol(monkeypatch):
    results = []
    solve = models.solve

    def spy(problem):
        results.append(solve(problem))
        return results[-1]

    monkeypatch.setattr(models, "solve", spy)
    love_resonance_scan(5.0, np.linspace(4.4, 5.0, 25), points=96, tol=1e-6, **LOVE)
    returned = [r for r in results if r.iterations == 0]
    assert returned and all(r.residual <= 0.25e-6 for r in returned)


def test_love_scan_builds_one_material_before_an_unseeded_first_solve(monkeypatch):
    builds, first = [], []
    build_love, solve = models.build_love, models.solve

    def build_spy(*args):
        builds.append(args[2])
        return build_love(*args)

    def solve_spy(problem):
        if not first:
            first.append((problem.x0, list(builds)))
        return solve(problem)

    monkeypatch.setattr(models, "build_love", build_spy)
    monkeypatch.setattr(models, "solve", solve_spy)
    love_resonance_scan(5.0, [4.6, 4.7], points=96, **LOVE)
    assert first == [(None, [4.6])]


@pytest.mark.parametrize("k1s", [[np.nan], [4.5, np.inf], [[4.5, 4.6]], [4.5 + 0.1j],
                                 [True, False], "4.5"])
def test_love_scan_rejects_k1_values_before_any_solve(monkeypatch, k1s):
    monkeypatch.setattr(models, "solve", lambda problem: pytest.fail("solved"))
    with pytest.raises(ValueError, match="k1_values"):
        love_resonance_scan(5.0, k1s, points=96, **LOVE)


def test_love_scan_rejects_a_fractional_point_count():
    with pytest.raises(ValueError, match="integers"):
        love_resonance_scan(5.0, [4.5], points=3.5, **LOVE)


def test_love_scan_on_one_point_gives_a_finite_response():
    # The unit-peak source keeps |s| normal where the Gaussian's only sample
    # is about 4e-223.
    response = love_resonance_scan(5.0, [4.5], points=1, **LOVE)
    assert np.isfinite(response).all() and response[0] > 0


def _recorded_scan(monkeypatch, k1s, points, seeded=True, **model):
    """Scan through spies: each solve's Problem, each build_love call's
    arguments, and the seed's state after each join ``(R, Q^H g, fields)``
    and at each guess ``(k1, guess, fields)``; ``seeded=False`` drops every
    guess after it is made."""
    problems, builds, joins, guesses = [], [], [], []
    build_love, solve = models.build_love, models.solve

    class Seed(models._ScanSeed):
        def add(self, E):
            super().add(E)
            R = self.R.copy()
            joins.append((R, self.d[:len(R), 0].copy(), self._E[:self.n].copy()))

        def guess(self, k1):
            out = super().guess(k1)
            guesses.append((k1, out.values, self._E[:self.n].copy()))
            return out

    def build_spy(*args):
        builds.append(args)
        return build_love(*args)

    def solve_spy(problem):
        problems.append(problem)
        if not seeded:
            problem.x0 = None
        return solve(problem)

    monkeypatch.setattr(models, "_ScanSeed", Seed)
    monkeypatch.setattr(models, "build_love", build_spy)
    monkeypatch.setattr(models, "solve", solve_spy)
    love_resonance_scan(5.0, k1s, points=points, **(model or LOVE))
    monkeypatch.undo()
    return problems, builds, joins, guesses


@pytest.mark.parametrize("points,model", [
    (96, LOVE),
    (96, dict(LOVE, substrate_mu=1.0)),  # uniform: a constant material
    (1, LOVE),
    (512, LOVE),  # two phases of 128 points or more: a phase table
])
def test_love_scan_solves_each_k1_on_build_loves_material(monkeypatch, points, model):
    k1s = np.linspace(4.4, 5.0, 25)
    problems, builds, _, _ = _recorded_scan(monkeypatch, k1s, points, **model)
    assert len(builds) <= 2 and len(problems) == len(k1s)
    grid, omega, _, mu, rho = builds[0]
    for k1, problem in zip(k1s, problems):
        L, want = problem.L, models.build_love(grid, omega, k1, mu, rho)
        assert np.array_equal(L.values, want.values)
        assert (L.index is None) == (want.index is None)
        assert want.index is None or np.array_equal(L.index, want.index)
        assert (L.omega, L.orientation, L.physics) == (want.omega, want.orientation,
                                                        want.physics)


@pytest.mark.parametrize("points,seeded", [(96, True), (16, False)])
def test_love_scan_seed_factor_and_guesses_match_dense_least_squares(
        monkeypatch, points, seeded):
    """After each join the seed's R and Q^H g are those of np.linalg.qr of
    its columns Gamma1 F(La E_j), Gamma1 F(Lb E_j), Lb E = (0, mu E_2); each
    guess's residual is the least that np.linalg.lstsq finds over the same
    fields, within 1e-10 of |g| (the residual of a zero start).  With every
    guess dropped on 16 points, all 25 solves iterate and the 50 columns
    outnumber the 32 rows."""
    problems, builds, joins, guesses = _recorded_scan(
        monkeypatch, np.linspace(4.4, 5.0, 25), points, seeded)
    grid, omega, _, mu, rho = builds[0]
    source, gamma = problems[0].source, problems[0].gamma

    def project(values):
        return apply_projector(Field(grid, source.layout, values).to_fourier(),
                               gamma).values.ravel()

    La = models.build_love(grid, omega, 0.0, mu, rho)

    def columns(fields):
        out = []
        for E in fields:
            LbE = np.zeros_like(E)
            LbE[:, 1] = mu * E[:, 1]
            out += [project(La.apply(E)), project(LbE)]
        return np.column_stack(out)

    g = project(source.values)
    for R, Qg, fields in joins:
        Q, R_dense = np.linalg.qr(columns(fields))
        assert np.linalg.norm(R - R_dense) <= 1e-12 * np.linalg.norm(R_dense)
        assert np.linalg.norm(Qg - Q.conj().T @ g) <= 1e-12 * np.linalg.norm(Qg)
    assert len(guesses) == len(problems) - 1
    assert (joins[-1][0].shape[1] > joins[-1][0].shape[0]) == (not seeded)
    for k1, E, fields in guesses:
        P = columns(fields)
        A = P[:, 0::2] + k1**2 * P[:, 1::2]
        least = np.linalg.norm(A @ np.linalg.lstsq(A, g, rcond=None)[0] - g)
        L = models.build_love(grid, omega, k1, mu, rho)
        residual = np.linalg.norm(project(L.apply(E) - source.values))
        assert abs(residual - least) <= 1e-10 * np.linalg.norm(g)


def test_a_lapack_call_with_nonzero_info_raises():
    def zfake(a, info):
        return a, 2 * a, info

    assert models._lapack(zfake, 1, 0) == [1, 2]
    with pytest.raises(np.linalg.LinAlgError, match="zfake returned info -3"):
        models._lapack(zfake, 1, -3)
