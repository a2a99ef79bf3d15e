"""Bloch-shifted solves: closed-form homogeneous tensors, linearity,
reciprocal-lattice equivalence, and resonant growth as loss is removed."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammasolve import quasiperiodic as qp
from gammasolve.fields import Block, BlockLayout, Grid
from gammasolve.materials import Checkerboard, LField, build_acoustics, build_elastodynamics
from gammasolve.projectors import gamma_elastic, gamma_helmholtz
from gammasolve.quasiperiodic import (
    EffectiveTensors,
    QuasiSource,
    effective_tensors,
    modulate,
    solve_quasiperiodic,
)

LAY2 = BlockLayout((Block("vector", 2), Block("scalar")))


def test_homogeneous_tensors_are_shifted_projectors():
    # L = c I solves per mode as E = Gamma1 s / c, so with a constant
    # source only the k0 mode is excited: T_E = Gamma1(k0)/c and
    # T_J = Gamma1 s - s averaged = -Gamma2(k0)
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    c = 2.0 - 0.5j
    L = LField(LAY2, c * np.eye(3))
    k0 = np.array([0.3, 0.7])
    g = gamma_helmholtz(2)
    eff = effective_tensors(grid, L, g, k0, tol=1e-12)
    G1 = g.symbol(k0)
    assert_allclose(eff.tensor_e, G1 / c, atol=1e-13)
    assert_allclose(eff.tensor_j, G1 - np.eye(3), atol=1e-13)
    assert eff.fluctuation_e < 1e-13 and eff.fluctuation_j < 1e-13
    assert isinstance(eff, EffectiveTensors)
    assert len(eff.results) == 3 and all(r.converged for r in eff.results)


def _smooth_acoustics(grid, omega=1.1):
    x = grid.coordinates()
    kappa = 1.0 - 0.15 * np.cos(x[:, 0]) - 0.2j
    return build_acoustics(grid, omega, kappa, 1.0)


def test_superposition_in_source_amplitude():
    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    L = _smooth_acoustics(grid)
    g = gamma_helmholtz(3)
    k0 = np.array([0.4, -0.1, 0.2])
    a = np.array([1.0, 0.0, 0.5j, 0.2])
    b = np.array([0.0, -0.3, 0.1, 1.0 + 1j])
    ra = solve_quasiperiodic(grid, L, g, QuasiSource(k0, a), tol=1e-12)
    rb = solve_quasiperiodic(grid, L, g, QuasiSource(k0, b), tol=1e-12)
    rab = solve_quasiperiodic(grid, L, g, QuasiSource(k0, a + b), tol=1e-12)
    combo = ra.E.values + rb.E.values
    assert np.linalg.norm(rab.E.values - combo) <= 1e-10 * np.linalg.norm(combo)


def test_reciprocal_lattice_shift_equivalence():
    # shifting k0 by a reciprocal-lattice vector G while demodulating the
    # periodic source by e^{-iG.x} reproduces the same physical field
    grid = Grid((16, 16, 16), (2.0 * np.pi,) * 3)
    L = _smooth_acoustics(grid)
    g = gamma_helmholtz(3)
    k0 = np.array([0.3, 0.1, -0.2])
    G = np.array([1.0, 0.0, 0.0])
    amp = np.array([0.2, 0.0, 0.0, 1.0])
    x = grid.coordinates()
    alpha = np.exp(-1j * (x @ G)) - 1.0
    r1 = solve_quasiperiodic(grid, L, g, QuasiSource(k0, amp), tol=1e-11)
    r2 = solve_quasiperiodic(grid, L, g, QuasiSource(k0 + G, amp, alpha), tol=1e-11)
    assert r1.converged and r2.converged
    full1 = modulate(r1.E, k0).values
    full2 = modulate(r2.E, k0 + G).values
    assert np.linalg.norm(full1 - full2) <= 1e-8 * np.linalg.norm(full1)


def test_tensor_norm_grows_as_loss_is_removed():
    # omega = |k0| puts the excitation exactly on the lossless acoustic
    # branch, so the mean response blows up like 1/loss
    grid = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
    k0 = np.array([0.5, 0.0, 0.0])
    norms = []
    for delta in (0.3, 0.1, 0.03):
        L = build_acoustics(grid, 0.5, 1.0 - 1j * delta, 1.0)
        eff = effective_tensors(grid, L, gamma_helmholtz(3), k0, tol=1e-12)
        assert all(r.converged for r in eff.results)
        norms.append(np.linalg.norm(eff.tensor_e))
    assert norms[0] < norms[1] < norms[2]
    assert_allclose(norms, [8.700255424092132, 25.124689052802225, 83.37082489962802],
                    rtol=1e-9)


def test_fluctuation_detects_heterogeneity():
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    x = grid.coordinates()
    kappa = 1.0 + 0.5 * np.cos(x[:, 0]) - 0.1j
    L = build_acoustics(grid, 1.1, kappa, 1.0)
    eff = effective_tensors(grid, L, gamma_helmholtz(2), np.array([0.25, 0.0]),
                            tol=1e-11)
    assert eff.fluctuation_e > 1e-2
    assert eff.fluctuation_j > 1e-2


def test_modulate_roundtrip_and_representation():
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    from gammasolve.fields import random_field, scalar_layout

    f = random_field(grid, scalar_layout(), seed=9)
    k0 = np.array([0.37, -0.12])
    back = modulate(modulate(f, k0), k0, sign=-1)
    assert_allclose(back.values, f.values, atol=1e-14)
    fhat = f.to_fourier()
    out = modulate(fhat, k0)
    assert out.representation == "fourier"
    assert_allclose(out.to_real().values, modulate(f, k0).values, atol=1e-13)


def test_effective_tensors_read_a_callable_modulation_once():
    grid, L, gamma, k0, _ = _elastic_bloch_cell()
    calls = []

    def alpha(x):
        calls.append(len(x))
        return 0.3 * np.cos(x[:, 0])

    eff = effective_tensors(grid, L, gamma, k0, modulation=alpha)
    assert calls == [grid.npoints]
    values = alpha(grid.coordinates())
    again = effective_tensors(grid, L, gamma, k0, modulation=values)
    assert np.array_equal(eff.tensor_e, again.tensor_e)
    assert np.array_equal(eff.tensor_j, again.tensor_j)


def test_amplitude_length_validated():
    grid = Grid((4, 4), (2.0 * np.pi,) * 2)
    L = build_acoustics(grid, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_quasiperiodic(grid, L, gamma_helmholtz(2),
                            QuasiSource(np.zeros(2), np.ones(5)))


def _elastic_bloch_cell():
    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    L = build_elastodynamics(grid, 1.0, Checkerboard((1.0, 2.0)),
                             bulk=Checkerboard((2.0, 6.0)), shear=Checkerboard((1.0, 3.0)))
    return grid, L, gamma_elastic(3), np.array([0.3, 0.1, 0.0]), None


def _modulated_acoustic_cell():
    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    x = grid.coordinates()
    alpha = 0.3 * np.cos(x[:, 1]) + 0.2j * np.sin(x[:, 2])
    return grid, _smooth_acoustics(grid), gamma_helmholtz(3), np.array([0.4, -0.1, 0.2]), alpha


@pytest.mark.parametrize("case,solved,unseeded", [
    (_elastic_bloch_cell, 3, [0, 1, 2, 6, 7, 8]),
    (_modulated_acoustic_cell, 3, [0]),
], ids=["elastic", "modulated-acoustics"])
def test_seeded_columns_match_column_by_column_solves(monkeypatch, case, solved,
                                                      unseeded):
    # The source reaches E only through Gamma1 s, so the 12 elastic columns
    # span rank Gamma(k0) = 3 solves.  The modulated source excites the
    # modes k0 + (0, k_y, k_z), whose Helmholtz bases (i (k + k0), 1) all
    # tie the x component to the scalar one: its 4 columns span 3 solves.
    # Each column is still one solve.  Elastic columns 1 and 2 are
    # independent of those before them (their fits are about 3e-16 of
    # them) and 6-8 have no projected source, so none of them is seeded;
    # the modulated seeds explain 0.53 and 0.88 of columns 1 and 2.
    grid, L, gamma, k0, alpha = case()
    guesses = []

    def spy(*args, x0=None, **kwargs):
        guesses.append(x0)
        return solve_quasiperiodic(*args, x0=x0, **kwargs)

    monkeypatch.setattr(qp, "solve_quasiperiodic", spy)
    eff = effective_tensors(grid, L, gamma, k0, modulation=alpha)
    assert [j for j, x0 in enumerate(guesses) if x0 is None] == unseeded
    c = L.layout.ncomp
    TE = np.zeros((c, c), dtype=complex)
    TJ = np.zeros((c, c), dtype=complex)
    iterations = []
    for j in range(c):
        res = solve_quasiperiodic(grid, L, gamma, QuasiSource(k0, np.eye(c)[j], alpha),
                                  tol=1e-12, max_iter=4000)
        TE[:, j] = res.E.values.mean(axis=0)
        TJ[:, j] = res.J.values.mean(axis=0)
        iterations.append(res.iterations)
    assert len(eff.results) == c and all(r.converged for r in eff.results)
    assert np.abs(eff.tensor_e - TE).max() <= 1e-12 * np.abs(TE).max()
    assert np.abs(eff.tensor_j - TJ).max() <= 1e-12 * np.abs(TJ).max()
    seeded = [r.iterations for r in eff.results]
    assert sum(1 for n in seeded if n) == solved
    assert sum(seeded) < sum(iterations)
    for n, r in zip(seeded, eff.results):
        assert n or (r.residual_history == [] and r.stop_reason == "converged")
