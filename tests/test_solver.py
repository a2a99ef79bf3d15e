"""Canonical solve paths: closed-form oracles, dense cross-checks for every
physics family, the fixed-point scheme, resolvent solves, and the
stationary-state residual functional."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammasolve.fields import Block, BlockLayout, Field, Grid, random_field, scalar_layout
from gammasolve.materials import (
    Checkerboard,
    LField,
    Layered,
    MaterialSpec,
    acoustic_source,
    block_source,
    brinkman_source,
    build_acoustics,
    build_elastodynamics,
    build_material,
    build_maxwell,
    build_schrodinger,
    canonical_material,
    default_projector,
    physics_family,
)
from gammasolve.fermionic import ground_state, perturbation_solve
from gammasolve.projectors import (
    FAMILIES,
    Projector,
    apply_projector,
    gamma_elastic,
    gamma_from_D,
    gamma_helmholtz,
    gamma_maxwell,
    gamma_surface,
    projector_symbols,
    sym_gradient_D,
)
from gammasolve import projectors
from gammasolve import solver as sv
from gammasolve.quasiperiodic import QuasiSource, solve_quasiperiodic
from gammasolve.solver import (
    Problem,
    ResonanceError,
    _krylov,
    dense_operator,
    residual_functional,
    solve,
    solve_dense,
    solve_resolvent,
)


def _plane_force(grid, mode, f0):
    x = grid.coordinates()
    k = 2.0 * np.pi * np.asarray(mode, float) / np.asarray(grid.lengths)
    env = np.exp(1j * (x @ k))
    return env[:, None] * np.asarray(f0, complex)[None, :], env, k


def test_acoustic_plane_wave_closed_form():
    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    omega, kappa, rho = 1.3, 1.0, 1.0
    L = build_acoustics(grid, omega, kappa, rho)
    force, env, k0 = _plane_force(grid, (1, 0, 0), [1.0, 0.0, 0.0])
    s = acoustic_source(L, force, grid)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(3), source=s, tol=1e-10))
    assert res.converged
    pred = 1j * (k0 @ [1.0, 0.0, 0.0]) / (omega**2 * rho / kappa - k0 @ k0)
    assert np.max(np.abs(res.E.values[:, 3] / env - pred)) < 1e-12 * abs(pred)
    # gradient consistency: vector block is ik0 times the scalar block
    assert_allclose(res.E.values[:, :3], 1j * env[:, None] * k0 * pred, atol=1e-12)


def test_zero_source_short_circuit():
    grid = Grid((4, 4), (1.0, 1.0))
    L = build_acoustics(grid, 1.0, 1.0, 1.0)
    s = Field.zeros(grid, L.layout)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s))
    assert res.converged and res.iterations == 0
    assert np.max(np.abs(res.E.values)) == 0.0
    assert np.max(np.abs(res.J.values)) == 0.0


DENSE_CASES = [
    ("acoustics", (6, 6), dict(kappa=Checkerboard((1.0, 2.0 + 0.5j)), rho=1.2), {}),
    ("elastodynamics", (6, 6), dict(rho=1.3, bulk=Checkerboard((1.0, 1.5)), shear=0.7), {}),
    ("maxwell", (4, 4, 4), dict(epsilon=lambda x: 1.0 + 0.5 * (x[:, 0] > np.pi), mu=1.0), {}),
    ("thermoacoustic", (4, 4, 4), dict(rho0=1.1, eta=0.4, eta_bulk=0.2, conductivity=0.5,
                                       T0=1.0, alpha0=0.3, beta_T=0.9, cp=1.2), {}),
    # omega off the lattice resonances mu (k1^2 + k^2) = omega^2 rho
    ("love", (16,), dict(k1=3.0, mu=1.0, rho=1.0), {}),
    ("schrodinger", (6, 6), dict(kinetic=1.0,
                                 potential=lambda x: 0.5 + 0.3 * np.cos(x[:, 0])), {}),
]


@pytest.mark.parametrize("physics,dims,params,options", DENSE_CASES,
                         ids=[c[0] for c in DENSE_CASES])
def test_krylov_matches_dense(physics, dims, params, options):
    grid = Grid(dims, (2.0 * np.pi,) * len(dims))
    omega = 4.6 if physics == "love" else 1.1
    spec = MaterialSpec(physics, omega, params, options)
    L = build_material(spec, grid)
    gamma = default_projector(physics, grid)
    s = random_field(grid, L.layout, seed=5)
    prob = Problem(grid=grid, L=L, gamma=gamma, source=s, tol=1e-10, max_iter=4000)
    rk = solve(prob)
    rd = solve_dense(prob)
    assert rk.converged
    denom = np.linalg.norm(rd.E.values)
    assert np.linalg.norm(rk.E.values - rd.E.values) <= 1e-8 * denom
    assert np.linalg.norm(rk.J.values - rd.J.values) <= 1e-8 * np.linalg.norm(rd.J.values)


def _two_phase_elastic():
    # 256 points hold a two-phase table (MIN_PHASE_POINTS = 128)
    grid = Grid((16, 16), (2.0 * np.pi,) * 2)
    L = build_elastodynamics(grid, 0.6, Checkerboard((1.0, 1.2)),
                             bulk=Checkerboard((2.0, 6.0)), shear=Checkerboard((1.0, 3.0)))
    assert L.values.shape == (2, 6, 6)
    return grid, L, gamma_elastic(2)


def _two_phase_definite():
    # the definite medium of _definite_helmholtz_case as a phase table
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    index = (grid.coordinates()[:, 0] >= np.pi).astype(int)
    return grid, LField(lay, [np.eye(3), 3.0 * np.eye(3)], index=index), gamma_helmholtz(2)


@pytest.mark.parametrize("case,method", [(_two_phase_elastic, "krylov"),
                                         (_two_phase_definite, "fixed_point")])
def test_phase_table_solves_as_its_dense_array(case, method):
    grid, L, gamma = case()
    dense = LField(L.layout, L.values[L.index], L.omega, L.orientation, L.physics)
    s = random_field(grid, L.layout, seed=11)
    table, per_point = (solve(Problem(grid=grid, L=M, gamma=gamma, source=s, tol=1e-10,
                                      method=method, max_iter=3000))
                        for M in (L, dense))
    assert table.converged
    assert table.iterations == per_point.iterations
    scale = np.linalg.norm(per_point.E.values)
    assert np.linalg.norm(table.E.values - per_point.E.values) <= 1e-12 * scale
    oracle = solve_dense(Problem(grid=grid, L=L, gamma=gamma, source=s))
    assert np.linalg.norm(table.E.values - oracle.E.values) <= 1e-8 * scale


def test_oseen_matches_dense():
    grid = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
    x = grid.coordinates()
    u = np.stack([0.2 * np.sin(x[:, 1]), 0.1 * np.cos(x[:, 0]),
                  0.05 * np.ones(grid.npoints)], axis=1)
    spec = MaterialSpec("oseen", 1.1, dict(rho=1.0, kappa=2.0, eta=0.3,
                                           eta_bulk=0.1, velocity=u))
    L = build_material(spec, grid)
    prob = Problem(grid=grid, L=L, gamma=default_projector("oseen", grid),
                   source=random_field(grid, L.layout, seed=5), tol=1e-10,
                   max_iter=4000)
    rk, rd = solve(prob), solve_dense(prob)
    assert rk.converged
    assert np.linalg.norm(rk.E.values - rd.E.values) <= 1e-8 * np.linalg.norm(rd.E.values)


def test_ns_perturbation_matches_dense_and_penalty_shrinks_divergence():
    grid = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
    x = grid.coordinates()
    u = np.stack([0.2 * np.sin(x[:, 1]), 0.1 * np.cos(x[:, 0]),
                  0.05 * np.ones(grid.npoints)], axis=1)
    rng = np.random.default_rng(4)
    f = rng.normal(size=(grid.npoints, 3)) + 1j * rng.normal(size=(grid.npoints, 3))
    divs = []
    for penalty in (1e2, 1e4):
        spec = MaterialSpec("ns_perturbation", 1.1,
                            dict(rho=1.0, eta=0.3, background_velocity=u,
                                 penalty=penalty))
        L = build_material(spec, grid)
        s = block_source(grid, L.layout, 1, f)
        prob = Problem(grid=grid, L=L, gamma=default_projector("ns_perturbation", grid),
                       source=s, tol=1e-9, max_iter=6000, restart=768)
        rk = solve(prob)
        assert rk.converged
        if penalty == 1e2:
            rd = solve_dense(prob)
            assert np.linalg.norm(rk.E.values - rd.E.values) <= 1e-7 * np.linalg.norm(rd.E.values)
        G = rk.E.values[:, :9].reshape(-1, 3, 3)
        div = np.linalg.norm(np.einsum("pii->p", G))
        divs.append(div / np.linalg.norm(rk.E.values[:, 9:]))
    assert divs[1] < 1e-2 * divs[0] * 2.0  # ~1/penalty scaling


def test_brinkman_matches_dense_modulo_pressure_gauge():
    # constant hydrostatic stress lies in the kernel (pressure gauge);
    # force sources are compatible and GMRES never excites the kernel
    grid = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
    x = grid.coordinates()
    spec = MaterialSpec("brinkman", 1.1,
                        dict(rho=1.0, eta=0.3 + 0.1 * (x[:, 1] > np.pi),
                             permeability=2.0, shear_viscosity=0.8))
    L = build_material(spec, grid)
    rng = np.random.default_rng(4)
    f = rng.normal(size=(grid.npoints, 3)) + 1j * rng.normal(size=(grid.npoints, 3))
    s = brinkman_source(L, f, grid)
    prob = Problem(grid=grid, L=L, gamma=default_projector("brinkman", grid),
                   source=s, tol=1e-10, max_iter=4000)
    rk = solve(prob)
    assert rk.converged
    A = dense_operator(prob)
    b = apply_projector(s.to_fourier(), prob.gamma).values.ravel()
    xsol, *_ = np.linalg.lstsq(A, b, rcond=None)
    Ed = apply_projector(Field(grid, L.layout, xsol.reshape(grid.npoints, -1), "fourier"),
                         prob.gamma).to_real()
    assert np.linalg.norm(rk.E.values - Ed.values) <= 1e-8 * np.linalg.norm(Ed.values)


def test_fixed_point_definite_material():
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    x = grid.coordinates()
    a = np.where(x[:, 0] < np.pi, 1.0, 3.0).astype(complex)
    L = LField(lay, a[:, None, None] * np.eye(3)[None])
    s = random_field(grid, lay, seed=3)
    g = gamma_helmholtz(2)
    rk = solve(Problem(grid=grid, L=L, gamma=g, source=s, tol=1e-10))
    rf = solve(Problem(grid=grid, L=L, gamma=g, source=s, tol=1e-10,
                       method="fixed_point", max_iter=1000))
    assert rf.converged
    assert np.linalg.norm(rf.E.values - rk.E.values) <= 1e-8 * np.linalg.norm(rk.E.values)
    assert len(rf.residual_history) == rf.iterations
    # explicit reference constant: still converges (slower is fine)
    rf2 = solve(Problem(grid=grid, L=L, gamma=g, source=s, tol=1e-8,
                        method="fixed_point", max_iter=2000, reference=6.0))
    assert rf2.converged


def test_fixed_point_applies_the_material_once_per_iteration(monkeypatch):
    # One projected residual per iteration serves both the update and the
    # history, and the result's J and residual share one more application.
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    a = np.where(grid.coordinates()[:, 0] < np.pi, 1.0, 3.0).astype(complex)
    L = LField(lay, a[:, None, None] * np.eye(3)[None])
    s = random_field(grid, lay, seed=3)
    calls = []
    apply = LField.apply
    monkeypatch.setattr(LField, "apply", lambda self, v: calls.append(1) or apply(self, v))
    for max_iter in (5, 10):
        calls.clear()
        r = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s,
                          tol=1e-30, method="fixed_point", max_iter=max_iter))
        assert r.iterations == max_iter and r.stop_reason == "max_iter"
        assert len(calls) == max_iter + 1


def test_fixed_point_reports_divergence_on_indefinite_material():
    grid = Grid((6, 6), (2.0 * np.pi,) * 2)
    L = build_acoustics(grid, 1.1, Checkerboard((1.0, 2.0)), 1.0)
    s = random_field(grid, L.layout, seed=7)
    r = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s,
                      tol=1e-8, method="fixed_point", max_iter=20000))
    assert not r.converged
    assert r.iterations < 20000  # early divergence exit
    assert r.stop_reason == "diverged"


def _definite_helmholtz_case():
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    a = np.where(grid.coordinates()[:, 0] < np.pi, 1.0, 3.0).astype(complex)
    L = LField(lay, a[:, None, None] * np.eye(3)[None])
    return grid, L, random_field(grid, lay, seed=3)


def _explicit_fixed_point(L, gamma, s, c, tol, max_iter):
    """The classical scheme e <- e + Gamma1 (s - L e) / c, in real space."""
    Lc = canonical_material(L)
    r = apply_projector(s, gamma).values
    b_norm = np.linalg.norm(r)
    e = np.zeros_like(r)
    history = []
    while len(history) < max_iter:
        e = e + r / c
        r = apply_projector(Field(s.grid, s.layout, s.values - Lc.apply(e)), gamma).values
        history.append(np.linalg.norm(r) / b_norm)
        if history[-1] <= tol:
            break
    return e, history


@pytest.mark.parametrize("reference", [6.0, 2.0 + 1.0j])
def test_fixed_point_is_the_classical_full_space_scheme(reference):
    grid, L, s = _definite_helmholtz_case()
    g = gamma_helmholtz(2)
    res = solve(Problem(grid=grid, L=L, gamma=g, source=s, tol=1e-6,
                        method="fixed_point", max_iter=500, reference=reference))
    e, history = _explicit_fixed_point(L, g, s, reference, 1e-6, 500)
    assert res.converged and res.iterations == len(history) > 10
    assert np.linalg.norm(res.E.values - e) <= 1e-12 * np.linalg.norm(e)
    assert_allclose(res.residual_history, history, rtol=1e-6)
    assert res.residual_history[-1] == pytest.approx(res.residual, rel=1e-8)


@pytest.mark.parametrize("reference", [0.0, 0j, np.nan, np.inf, complex(1.0, np.inf)])
@pytest.mark.parametrize("method", ["krylov", "fixed_point"])
def test_solve_rejects_a_zero_or_nonfinite_reference(method, reference):
    grid, L, s = _definite_helmholtz_case()
    with pytest.raises(ValueError, match="reference"):
        solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s,
                      method=method, reference=reference))


def test_krylov_reports_iteration_cap():
    grid = Grid((6, 6), (2.0 * np.pi,) * 2)
    L = build_acoustics(grid, 1.1, Checkerboard((1.0, 2.0 + 0.5j)), 1.0)
    s = random_field(grid, L.layout, seed=7)
    r = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s,
                      tol=1e-12, max_iter=3, restart=3))
    assert not r.converged
    assert r.iterations == 3
    assert r.stop_reason == "max_iter"
    full = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s,
                         tol=1e-10))
    assert full.converged and full.stop_reason == "converged"


def _per_mode_inverse(problem):
    """Gamma1 (Gamma1 L Gamma1 + Gamma2)^-1 Gamma1 s mode by mode, for a
    constant material L."""
    G = projector_symbols(problem.gamma, problem.grid)
    M = canonical_material(problem.L).values
    eye = np.eye(M.shape[0])[None]
    A = np.einsum("pij,jk,pkl->pil", G, M, G) + (eye - G)
    b = np.einsum("pij,pj->pi", G, problem.source.to_fourier().values)
    return np.einsum("pij,pj->pi", G, np.linalg.solve(A, b[..., None])[..., 0])


PRECONDITIONED_CONSTANT_CASES = [
    ("maxwell", lambda g: build_maxwell(g, 1.1, 2.0 - 0.3j, 1.5), gamma_maxwell(),
     (16, 16, 16), 4),
    ("elastodynamics", lambda g: build_elastodynamics(g, 1.1, 1.3, bulk=2.0, shear=0.7),
     gamma_elastic(3), (6, 6, 6), 2),
]


@pytest.mark.parametrize("name,build,gamma,dims,seed", PRECONDITIONED_CONSTANT_CASES,
                         ids=[c[0] for c in PRECONDITIONED_CONSTANT_CASES])
def test_constant_material_converges_in_one_preconditioned_iteration(
        name, build, gamma, dims, seed):
    # For a constant material the mean medium is the material itself, so
    # the preconditioned operator is the identity.
    grid = Grid(dims, (2.0 * np.pi,) * len(dims))
    L = build(grid)
    prob = Problem(grid=grid, L=L, gamma=gamma, tol=1e-10,
                   source=random_field(grid, L.layout, seed=seed))
    res = solve(prob)
    assert res.converged and res.iterations == 1
    e_exact = _per_mode_inverse(prob)
    err = np.linalg.norm(res.E.to_fourier().values - e_exact) / np.linalg.norm(e_exact)
    assert err <= 1e-8


def test_preconditioned_solve_converges_where_plain_gmres_hits_the_cap():
    # Unpreconditioned GMRES(40) is still at residual ~2e-3 after 3000
    # iterations on this cell; the mean-medium preconditioner needs ~370.
    grid = Grid((12, 12), (2.0 * np.pi,) * 2)
    L = build_acoustics(grid, 3.3, 1.0, Checkerboard((1.0, 2.0)))
    prob = Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), tol=1e-8, max_iter=3000,
                   source=random_field(grid, L.layout, seed=1))
    res = solve(prob)
    assert res.converged and res.stop_reason == "converged"
    assert res.iterations < 3000
    rd = solve_dense(prob)
    assert np.linalg.norm(res.E.values - rd.E.values) <= 1e-6 * np.linalg.norm(rd.E.values)


def _lossy_material(layout, npoints, seed):
    """A random per-point material with a dissipative part bounded below."""
    c = layout.ncomp
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(npoints, c, c)) + 1j * rng.normal(size=(npoints, c, c))
    return LField(layout, (2.0 + 1.0j) * np.eye(c) + 0.2 * noise)


def _custom_symbols_case():
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    L = build_acoustics(grid, 1.1, Checkerboard((1.0, 2.0 + 0.5j)), 1.2)
    family = gamma_helmholtz(2)
    return grid, L, Projector("custom", family.layout, family.symbols)


def _svd_zero_columns_case():
    # range(sym_gradient_D) is 3 of 6 components, and empty at k = 0
    grid = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
    gamma = gamma_from_D(sym_gradient_D(3))
    return grid, _lossy_material(gamma.layout, grid.npoints, 3), gamma


def _surface_embedded_case():
    grid = Grid((16,), (2.0 * np.pi,))
    gamma = gamma_surface(0.8, gamma_elastic(3))
    return grid, _lossy_material(gamma.layout, grid.npoints, 4), gamma


@pytest.mark.parametrize("case", [_custom_symbols_case, _svd_zero_columns_case,
                                  _surface_embedded_case],
                         ids=["custom-symbols", "svd-zero-columns", "surface-embedded"])
def test_partial_isometry_basis_is_preconditioned(case):
    # A projector's basis may be any partial isometry: its own symbols, an
    # SVD basis with zero columns, or another projector's basis.
    grid, L, gamma = case()
    prob = Problem(grid=grid, L=L, gamma=gamma, tol=1e-10,
                   source=random_field(grid, L.layout, seed=5))
    rk, rd = solve(prob), solve_dense(prob)
    assert rk.converged
    assert np.linalg.norm(rk.E.values - rd.E.values) <= 1e-8 * np.linalg.norm(rd.E.values)


def _family_case(physics, dims, params):
    def case():
        grid = Grid(dims, (2.0 * np.pi,) * len(dims))
        omega = 4.6 if physics == "love" else 1.1
        L = build_material(MaterialSpec(physics, omega, params), grid)
        return grid, L, default_projector(physics, grid)
    return case


# one varying medium per projector family: the dense cases (with the
# constant thermoacoustic and Love media made varying) and a Brinkman medium
VARYING = {"thermoacoustic": dict(rho0=Checkerboard((1.1, 1.6))),
           "love": dict(mu=Checkerboard((1.0, 1.5)))}
FAMILY_CASES = [
    (physics, _family_case(physics, dims, dict(params, **VARYING.get(physics, {}))))
    for physics, dims, params, _ in DENSE_CASES] + [
    ("brinkman", _family_case("brinkman", (4, 4, 4),
                              dict(rho=1.0, eta=Checkerboard((0.3, 0.4)),
                                   permeability=2.0, shear_viscosity=0.8))),
]
RESIDUAL_CASES = [("custom-symbols", _custom_symbols_case),
                  ("svd-zero-columns", _svd_zero_columns_case),
                  ("surface-embedded", _surface_embedded_case)] + FAMILY_CASES


def test_family_cases_cover_every_projector_family():
    families = {physics_family(physics).projector for physics, _ in FAMILY_CASES}
    assert families == set(FAMILIES)


@pytest.mark.parametrize("case", [c[1] for c in RESIDUAL_CASES],
                         ids=[c[0] for c in RESIDUAL_CASES])
def test_reported_residual_is_the_full_space_projected_residual(case):
    # The solve measures the residual in potentials; recompute it in full
    # space as |Gamma1 (L E - s)| / |Gamma1 s|.  Two iterations keep it far
    # above rounding, so the two agree to rounding.
    grid, L, gamma = case()
    s = random_field(grid, L.layout, seed=5)
    res = solve(Problem(grid=grid, L=L, gamma=gamma, source=s, tol=1e-14, max_iter=2))
    flux = Field(grid, L.layout, canonical_material(L).apply(res.E.values) - s.values)
    expected = (np.linalg.norm(apply_projector(flux, gamma).values)
                / np.linalg.norm(apply_projector(s, gamma).values))
    assert expected > 1e-8
    assert res.residual == pytest.approx(expected, rel=1e-12)


def _elastic_checkerboard(grid):
    return build_elastodynamics(grid, 1.1, Checkerboard((1.0, 1.5)),
                                bulk=Checkerboard((2.0, 3.0)), shear=0.7)


POTENTIAL_CASES = [
    ("elastodynamics", _elastic_checkerboard, gamma_elastic(3), 3),
    ("maxwell", lambda g: build_maxwell(g, 1.1, Checkerboard((1.0, 2.0 - 0.3j)), 1.5),
     gamma_maxwell(), 3),
]


@pytest.mark.parametrize("name,build,gamma,rank", POTENTIAL_CASES,
                         ids=[c[0] for c in POTENTIAL_CASES])
def test_krylov_runs_on_potential_coefficients(monkeypatch, name, build, gamma, rank):
    # GMRES iterates on the r potential coefficients per mode, not on the
    # c components padded by Gamma2 (elastic 3 of 12, Maxwell 3 of 6).
    sizes = []
    krylov = sv._krylov

    def spy(matvec, b, *args):
        sizes.append(b.size)
        return krylov(matvec, b, *args)

    monkeypatch.setattr(sv, "_krylov", spy)
    grid = Grid((6, 6, 6), (2.0 * np.pi,) * 3)
    L = build(grid)
    prob = Problem(grid=grid, L=L, gamma=gamma, tol=1e-10,
                   source=random_field(grid, L.layout, seed=6))
    rk = solve(prob)
    assert sizes == [grid.npoints * rank]
    assert rk.converged
    rd = solve_dense(prob)
    assert np.linalg.norm(rk.E.values - rd.E.values) <= 1e-8 * np.linalg.norm(rd.E.values)


def _count_transforms_and_matvecs(monkeypatch):
    """Spy every FFT and every potential-space matvec, and refuse the dense
    full-space operator."""
    from gammasolve import fields

    counts = {"transforms": 0, "matvecs": 0}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("full-space operator assembled")

    transform = spy("transforms", fields.transform)
    matvec = spy("matvecs", sv._potential_matvec)
    for module in (fields, sv):
        monkeypatch.setattr(module, "transform", transform)
    monkeypatch.setattr(sv, "_potential_matvec", matvec)
    monkeypatch.setattr(sv, "dense_operator", refuse)
    monkeypatch.setattr(sv, "_dense_matrix", refuse)
    return counts


def test_krylov_solve_never_applies_the_full_space_operator(monkeypatch):
    counts = _count_transforms_and_matvecs(monkeypatch)
    grid = Grid((6, 6, 6), (2.0 * np.pi,) * 3)
    L = _elastic_checkerboard(grid)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_elastic(3), tol=1e-8,
                        source=random_field(grid, L.layout, seed=2)))
    assert res.converged and res.iterations > 1
    # Two FFTs per potential-space matvec; beyond those only the source's
    # forward transform and E's inverse and L E's forward transform for the
    # result.
    assert counts["matvecs"] >= res.iterations
    assert counts["transforms"] == 2 * counts["matvecs"] + 3


def test_fixed_point_and_perturbation_never_apply_the_full_space_operator(monkeypatch):
    counts = _count_transforms_and_matvecs(monkeypatch)
    grid, L, s = _definite_helmholtz_case()
    fixed = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s,
                          tol=1e-10, method="fixed_point", max_iter=1000))
    assert fixed.converged and fixed.iterations > 1
    assert counts["matvecs"] == fixed.iterations
    assert counts["transforms"] == 2 * counts["matvecs"] + 3
    grid = Grid((24,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.8 * np.cos(x) + 0.3 * np.cos(2.0 * x)
    E, states = ground_state(grid, 1.0, V, nstates=1)
    counts.update(transforms=0, matvecs=0)
    res = perturbation_solve(build_schrodinger(grid, E[0], 1.0, V), states[0], np.cos(x),
                             tol=1e-12)
    assert res.converged and res.iterations > 1
    # two more than a solve: the state's forward transform, for the kernel,
    # and the inverse transform of the Fourier-space source, for J
    assert counts["matvecs"] >= res.iterations
    assert counts["transforms"] == 2 * counts["matvecs"] + 5


def test_solves_never_form_dense_projector_symbols(monkeypatch):
    def refuse(self, K):
        raise AssertionError("dense projector symbols evaluated")

    grid = Grid((6, 6, 6), (2.0 * np.pi,) * 3)
    L = _elastic_checkerboard(grid)
    monkeypatch.setattr(Projector, "symbols", refuse)
    source = random_field(grid, L.layout, seed=2)
    assert solve(Problem(grid=grid, L=L, gamma=gamma_elastic(3), source=source,
                         tol=1e-8)).converged
    # The lossless material is indefinite, so only run a few fixed-point steps.
    fixed = solve(Problem(grid=grid, L=L, gamma=gamma_elastic(3), source=source,
                          method="fixed_point", max_iter=3))
    assert fixed.iterations == 3
    amp = np.zeros(L.ncomp)
    amp[0] = 1.0
    column = solve_quasiperiodic(grid, L, gamma_elastic(3),
                                 QuasiSource(np.array([0.3, 0.0, 0.1]), amp), tol=1e-8)
    assert column.converged


def test_krylov_honors_a_cap_below_the_restart_length():
    grid = Grid((12, 12), (2.0 * np.pi,) * 2)
    L = build_acoustics(grid, 3.3, 1.0, Checkerboard((1.0, 10.0)))
    prob = Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), tol=1e-12, max_iter=5,
                   source=random_field(grid, L.layout, seed=1))
    res = solve(prob)
    assert res.iterations == 5
    assert res.stop_reason == "max_iter"
    for method in ("krylov", "fixed_point"):
        prob.max_iter, prob.method = 0, method
        with pytest.raises(ValueError, match="max_iter"):
            solve(prob)
    # the resolvent and perturbation solves share the Krylov driver's check
    with pytest.raises(ValueError, match="max_iter"):
        _krylov(lambda x: x, np.ones(4, complex), 1e-8, 0)


def _nonnormal_system(seed, n=120):
    """A complex system whose eigenvalues fill a disk around 2 and whose
    strictly upper triangle makes it far from normal."""
    rng = np.random.default_rng(seed)
    lam = 2.0 + np.exp(2j * np.pi * rng.random(n)) * np.sqrt(rng.random(n))
    upper = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    return np.diag(lam) + 1.5 * upper / np.sqrt(n), rng.normal(size=n) + 1j * rng.normal(size=n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_krylov_matches_scipy_gmres(seed):
    # scipy's restarted GMRES, kept as a test-only oracle: same stopping
    # rule (estimate 0.25 tol |b|), several restart cycles.
    import scipy.sparse.linalg

    A, b = _nonnormal_system(seed)
    tol, restart = 1e-8, 10
    x, history, reason = _krylov(lambda v: A @ v, b, tol, 1000, restart)
    oracle = []
    xs, info = scipy.sparse.linalg.gmres(A, b, rtol=0.25 * tol, atol=0.0, restart=restart,
                                         maxiter=100, callback=oracle.append,
                                         callback_type="pr_norm")
    assert reason == "converged" and info == 0
    cycles = -(-len(oracle) // restart)
    assert len(oracle) > 2 * restart
    assert abs(len(history) - len(oracle)) <= cycles
    assert np.linalg.norm(x - xs) <= tol * np.linalg.norm(xs)
    # the history ends in the true residual of the returned iterate
    assert history[-1] == pytest.approx(np.linalg.norm(b - A @ x) / np.linalg.norm(b),
                                        rel=1e-12)
    assert history[-1] <= 0.25 * tol


def test_krylov_reports_a_happy_breakdown_short_of_the_target():
    # b = (1, 1) leaves range diag(1, 0): the Krylov space is invariant after
    # two steps, and the best residual there is (0, 1).
    x, history, reason = _krylov(lambda v: np.array([1.0, 0.0]) * v,
                                 np.ones(2, complex), 1e-8, 100)
    assert reason == "breakdown"
    assert x[0] == pytest.approx(1.0, abs=1e-14)  # K x = (1, 0); x[1] is free
    assert history[-1] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_solves_never_call_scipy_gmres(monkeypatch):
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse.linalg.gmres called")

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", refuse)
    grid = Grid((6, 6, 6), (2.0 * np.pi,) * 3)
    for name, build, gamma, _ in POTENTIAL_CASES:  # elastodynamics and Maxwell
        L = build(grid)
        res = solve(Problem(grid=grid, L=L, gamma=gamma, tol=1e-10,
                            source=random_field(grid, L.layout, seed=6)))
        assert res.converged, name
    grid, L, gamma = _surface_embedded_case()
    assert solve(Problem(grid=grid, L=L, gamma=gamma, tol=1e-10,
                         source=random_field(grid, L.layout, seed=5))).converged


@pytest.mark.parametrize("max_iter,reason", [(400, "stagnated"), (14, "max_iter")])
def test_krylov_history_ends_in_the_reported_residual(max_iter, reason):
    # Brinkman's gauge kernel (the k = 0 hydrostatic stress) makes GMRES's
    # residual estimate fall far below the true residual; the history used
    # to end at that estimate (4.9e-3 against a reported 2.3e-2 with a cap
    # of 400).  Each restart now measures the true residual, and a cycle
    # that fails to lower it stops the solve.  The estimate's fall below its
    # 9.7e-3 plateau comes from a numerically singular least-squares
    # problem; solving it by truncated SVD keeps each cycle's correction
    # out of that noise, so the iterate ends better than the old restarts'.
    from gammasolve.materials import build_brinkman
    from gammasolve.projectors import gamma_brinkman

    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    L = build_brinkman(grid, 1.1, 1.0, lambda x: 0.3 + 0.1 * (x[:, 1] > np.pi), 2.0,
                       shear_viscosity=0.8)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_brinkman(), tol=1e-8, max_iter=max_iter,
                        source=random_field(grid, L.layout, seed=1)))
    assert not res.converged
    assert res.stop_reason == reason and res.iterations <= min(max_iter, 80)
    assert len(res.residual_history) == res.iterations
    assert res.residual_history[-1] == pytest.approx(res.residual, rel=1e-12)
    assert res.residual < 1.5e-2


@pytest.mark.xfail(strict=True, reason="known defect (c): a source with a component in "
                   "Brinkman's gauge kernel stops as stagnated, not as incompatible")
def test_brinkman_gauge_kernel_source_is_named_incompatible():
    # Brinkman 8^3 with a random source stops after 22 iterations as
    # "stagnated" at 9.693e-3: the k = 0 hydrostatic stress, which every
    # L(x) annihilates, holds part of the source that no iterate can meet.
    from gammasolve.materials import build_brinkman
    from gammasolve.projectors import gamma_brinkman

    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    L = build_brinkman(grid, 1.1, 1.0, lambda x: 0.3 + 0.1 * (x[:, 1] > np.pi), 2.0,
                       shear_viscosity=0.8)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_brinkman(), tol=1e-8, max_iter=400,
                        source=random_field(grid, L.layout, seed=1)))
    assert res.stop_reason == "incompatible_source"


@pytest.mark.xfail(strict=True, reason="known defect (e): a mean medium that resonates "
                   "on the grid makes the solve break down")
def test_resonant_reference_medium_still_converges():
    # The mean medium's shear resonance omega^2 rho_bar / mu = 22 = 3^2 + 3^2 + 2^2
    # falls on the 6^3 grid, so M = B^H L0 B is singular at 6 modes and the
    # pseudo-inverse drops directions that A needs: full GMRES ends as
    # "breakdown" at 1.59e-1 after 643 iterations, while the dense solve
    # converges at 4.1e-14.
    grid = Grid((6, 6, 6), (2.0 * np.pi,) * 3)
    L = build_elastodynamics(grid, 2.0, Checkerboard((1.0, 10.0)), bulk=1.0, shear=1.0)
    prob = Problem(grid=grid, L=L, gamma=gamma_elastic(3), tol=1e-8, restart=648,
                   max_iter=1000, source=random_field(grid, L.layout, seed=1))
    res = solve(prob)
    assert res.converged
    dense = solve_dense(prob)
    assert_allclose(res.E.values, dense.E.values, atol=1e-6 * np.abs(dense.E.values).max())


@pytest.mark.parametrize("max_iter,restart", [(7, 3), (25, 10), (50, None), (100, 10)])
def test_krylov_budget_counts_iterations(max_iter, restart):
    # The budget is max_iter iterations whatever the restart length: a cap
    # that is not a whole number of cycles is not rounded up to one.  With
    # restart 10 a deflated cycle adds 8 iterations, so (100, 10) ends
    # 2 iterations into the thirteenth cycle, after 12 deflations.
    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    L = build_maxwell(grid, 1.3, Checkerboard((1.0, 4.0 + 0.1j)), 1.0)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_maxwell(), tol=1e-12,
                        max_iter=max_iter, restart=restart,
                        source=random_field(grid, L.layout, seed=2)))
    assert res.stop_reason == "max_iter"
    assert res.iterations == len(res.residual_history) == max_iter


def _outlier_system(seed, n=120):
    """_nonnormal_system with four eigenvalues moved to modulus 0.2, which
    plain restarted GMRES loses at every restart."""
    A, b = _nonnormal_system(seed, n)
    A[np.arange(4), np.arange(4)] = 0.2 * np.array([1.0, -1.0, 1j, -1j])
    return A, b


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deflated_restarts_beat_plain_restarts(seed):
    # GMRES-DR(20, 5) keeps the four small eigenvalues deflated (47-49
    # iterations); scipy's GMRES(20) needs 120-137.
    import scipy.sparse.linalg

    A, b = _outlier_system(seed)
    tol, restart = 1e-8, 20
    x, history, reason = _krylov(lambda v: A @ v, b, tol, 1000, restart)
    oracle = []
    xs, info = scipy.sparse.linalg.gmres(A, b, rtol=0.25 * tol, atol=0.0, restart=restart,
                                         maxiter=100, callback=oracle.append,
                                         callback_type="pr_norm")
    assert reason == "converged" and info == 0
    assert len(history) < len(oracle) / 2
    assert np.linalg.norm(x - xs) <= 1e-7 * np.linalg.norm(xs)
    assert history[-1] == pytest.approx(np.linalg.norm(b - A @ x) / np.linalg.norm(b),
                                        rel=1e-12)


def test_krylov_within_one_cycle_ignores_the_restart_scheme():
    # Full GMRES needs about 30 iterations here, so both runs end inside
    # their first, plain cycle and must agree bit for bit.
    A, b = _nonnormal_system(0)
    x40, h40, r40 = _krylov(lambda v: A @ v, b, 1e-8, 1000, 40)
    xn, hn, rn = _krylov(lambda v: A @ v, b, 1e-8, 1000, b.size)
    assert r40 == rn == "converged" and len(h40) < 40
    assert h40 == hn
    assert np.array_equal(x40, xn)


def test_deflated_restart_keeps_the_arnoldi_relation(monkeypatch):
    # Each deflated restart leaves K V[:k] = V[:k+1] H[:k+1, :k] with
    # orthonormal V[:k+1], whose combination rhs is the least-squares
    # residual of the cycle before (up to rounding of the cycle's start).
    A, b = _outlier_system(1)
    deflate, checked = sv._deflate, []

    def spy(V, H, rhs, k):
        y = np.linalg.lstsq(H, rhs, rcond=None)[0]
        residual, start = (rhs - H @ y) @ V, np.linalg.norm(rhs)
        assert deflate(V, H, rhs, k)
        Vk = V[: k + 1]
        assert np.abs(Vk.conj() @ Vk.T - np.eye(k + 1)).max() <= 1e-13
        assert np.linalg.norm(Vk[:k] @ A.T - H[: k + 1, :k].T @ Vk) <= (
            1e-13 * np.linalg.norm(H))
        assert not H[k + 1:].any() and not H[:, k:].any() and not rhs[k + 1:].any()
        assert np.linalg.norm(rhs[: k + 1] @ Vk - residual) <= 1e-13 * start
        checked.append(k)
        return True

    monkeypatch.setattr(sv, "_deflate", spy)
    assert _krylov(lambda v: A @ v, b, 1e-8, 1000, 20)[2] == "converged"
    assert len(checked) >= 2 and set(checked) == {5}


def test_krylov_estimates_match_the_true_residuals_of_capped_solves():
    # Entry j - 1 of the history is the estimate after j iterations, in
    # plain and deflated cycles alike: a solve capped at j iterations
    # returns that iterate and ends its history in its true residual.
    A, b = _outlier_system(1)
    history = _krylov(lambda v: A @ v, b, 1e-10, 1000, 20)[1]
    assert len(history) > 40  # the third cycle is deflated too
    for j, estimate in enumerate(history, 1):
        capped = _krylov(lambda v: A @ v, b, 1e-10, j, 20)[1]
        assert capped[-1] == pytest.approx(estimate, rel=1e-4), j


def test_deflated_restart_falls_back_on_a_singular_hessenberg_matrix():
    rng = np.random.default_rng(0)
    m, k = 8, 2
    V = rng.normal(size=(m + 1, 30)) + 1j * rng.normal(size=(m + 1, 30))
    H = np.triu(rng.normal(size=(m + 1, m)), -1).astype(complex)
    H[:, 3] = 0.0  # H_m singular: no harmonic Ritz pairs
    rhs = rng.normal(size=m + 1) + 0j
    before = V.copy(), H.copy(), rhs.copy()
    assert not sv._deflate(V, H, rhs, k)
    for kept, old in zip((V, H, rhs), before):
        assert np.array_equal(kept, old)


@pytest.mark.parametrize("case", ["acoustics", "elastodynamics"])
def test_deflated_restarts_solve_a_high_contrast_cell(case):
    # Lossless, contrast 10: GMRES(40) needed 639 (acoustics 12x12) and
    # 199 (elastodynamics 8x8) iterations, GMRES-DR(40, 10) 260 and 111.
    if case == "acoustics":
        grid = Grid((12, 12), (2.0 * np.pi,) * 2)
        L = build_acoustics(grid, 1.1, 1.0, Checkerboard((1.0, 10.0)))
        gamma, cap = gamma_helmholtz(2), 400
    else:
        grid = Grid((8, 8), (2.0 * np.pi,) * 2)
        L = build_elastodynamics(grid, 2.0, 1.0, bulk=1.0,
                                 shear=Checkerboard((1.0, 10.0)))
        gamma, cap = gamma_elastic(2), 150
    prob = Problem(grid=grid, L=L, gamma=gamma, tol=1e-8,
                   source=random_field(grid, L.layout, seed=1))
    rk, rd = solve(prob), solve_dense(prob)
    assert rk.converged and rk.iterations <= cap
    assert np.linalg.norm(rk.E.values - rd.E.values) <= 1e-7 * np.linalg.norm(rd.E.values)


def test_unknown_method_rejected():
    # The method is checked before the early returns of a zero projected
    # source and of a guess that already meets the target.
    grid = Grid((4, 4), (1.0, 1.0))
    L = build_acoustics(grid, 1.0, 1.0, 1.0)
    s = random_field(grid, L.layout, seed=0)
    x0 = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s, tol=1e-12)).E
    for source, guess in [(s, None), (Field.zeros(grid, L.layout), None), (s, x0)]:
        with pytest.raises(ValueError, match="conjugate_wishes"):
            solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=source, x0=guess,
                          method="conjugate_wishes"))


def test_dense_operator_limit():
    grid = Grid((64, 64), (1.0, 1.0))
    L = build_acoustics(grid, 1.0, 1.0, 1.0)
    s = random_field(grid, L.layout, seed=0)
    prob = Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s)
    with pytest.raises(ValueError):
        dense_operator(prob)


# ---------------------------------------------------------------------------
# Resolvent solves
# ---------------------------------------------------------------------------


def _second_order_B(grid, coeff_vec, coeff_scal):
    nd = grid.ndim
    lay = BlockLayout((Block("vector", nd), Block("scalar")))
    M = np.zeros((nd + 1, nd + 1), complex)
    M[:nd, :nd] = coeff_vec * np.eye(nd)
    M[nd, nd] = coeff_scal
    return LField(lay, M)


def test_resolvent_constant_exact_per_mode():
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    B = _second_order_B(grid, 1.0, 0.25)
    x = grid.coordinates()
    fvals = (np.exp(1j * x[:, 0]) + 0.5 * np.exp(2j * x[:, 1]))[:, None]
    f = Field(grid, scalar_layout(), fvals)
    z = 9.7
    psi = solve_resolvent(grid, z, B, f)
    # mode k: psi_hat = f_hat / (z - k^2 - 0.25)
    expected = (np.exp(1j * x[:, 0]) / (z - 1.0 - 0.25)
                + 0.5 * np.exp(2j * x[:, 1]) / (z - 4.0 - 0.25))
    assert_allclose(psi.values[:, 0], expected, atol=1e-12)


def test_resolvent_raises_on_spectrum(monkeypatch):
    # The mean medium's pivot on the resonant modes is rounding-level, so
    # the Krylov space breaks down within the first restart cycle and ends
    # the solve (it used to run the whole 2000-iteration budget).
    runs = []
    krylov = sv._krylov

    def spy(*args):
        runs.append(krylov(*args))
        return runs[-1]

    monkeypatch.setattr(sv, "_krylov", spy)
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    B = _second_order_B(grid, 1.0, 0.0)
    f = random_field(grid, scalar_layout(), seed=1)
    with pytest.raises(ResonanceError, match="breakdown"):
        solve_resolvent(grid, 1.0, B, f)  # z = k^2 for |k| = 1 exactly
    [(_, history, reason)] = runs
    assert reason == "breakdown" and len(history) <= 40


@pytest.mark.parametrize("z", [1.0, 1.0 + 1e-9])
def test_resolvent_never_labels_a_missed_tolerance_converged(monkeypatch, z):
    results = []

    def spy(problem):
        results.append(solve(problem))
        return results[-1]

    monkeypatch.setattr(sv, "solve", spy)
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    f = random_field(grid, scalar_layout(), seed=1)
    try:
        solve_resolvent(grid, z, _second_order_B(grid, 1.0, 0.0), f)
    except ResonanceError as exc:
        assert "(converged)" not in str(exc)
    [res] = results
    assert res.converged or res.stop_reason != "converged"


def test_resolvent_near_resonance_raises_or_meets_tol():
    # z sits 1e-9 above the |k| = 1 eigenvalue: the solve must either
    # report the resonance or return psi whose canonical residual
    # |Gamma1 (L E - s)| / |Gamma1 s| meets the default tol.
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    B = _second_order_B(grid, 1.0, 0.0)
    f = random_field(grid, scalar_layout(), seed=1)
    z = 1.0 + 1e-9
    try:
        psi = solve_resolvent(grid, z, B, f)
    except ResonanceError:
        return
    # mode by mode, Gamma1 = D D^H / |D|^2 with |D|^2 = 1 + k^2, so the
    # canonical residual weights each mode of (z - k^2) psi - f by 1/|D|
    k2 = np.sum(grid.wavevectors() ** 2, axis=1)
    psi_hat = psi.to_fourier().values[:, 0]
    f_hat = f.to_fourier().values[:, 0]
    weight = 1.0 / np.sqrt(1.0 + k2)
    residual = np.linalg.norm(weight * ((z - k2) * psi_hat - f_hat))
    assert residual <= 1e-10 * np.linalg.norm(weight * f_hat)


def test_resolvent_varying_matches_dense():
    grid = Grid((8,), (2.0 * np.pi,))
    lay = BlockLayout((Block("vector", 1), Block("scalar")))
    x = grid.coordinates()
    vals = np.zeros((grid.npoints, 2, 2), complex)
    vals[:, 0, 0] = 1.0 + 0.4 * np.cos(x[:, 0])
    vals[:, 1, 1] = 0.1 * np.sin(x[:, 0])
    B = LField(lay, vals)
    f = random_field(grid, scalar_layout(), seed=2)
    z = 11.3 + 0.5j  # off the (real) spectrum of the Hermitian form
    psi = solve_resolvent(grid, z, B, f, tol=1e-12)
    # dense assembly of z - D^H B D in Fourier space
    K = grid.wavevectors()[:, 0]
    n = grid.npoints
    eye = np.eye(n, dtype=complex)
    import scipy.fft as sfft

    F = sfft.fft(eye, axis=0, norm="ortho")
    Finv = sfft.ifft(eye, axis=0, norm="ortho")
    D = np.vstack([np.diag(1j * K), eye])  # Fourier-side D
    a_diag = np.diag(vals[:, 0, 0])
    s_diag = np.diag(vals[:, 1, 1])
    Bmat = np.block([[a_diag, np.zeros((n, n))], [np.zeros((n, n)), s_diag]])
    toF = np.kron(np.eye(2), F)
    toR = np.kron(np.eye(2), Finv)
    A = z * eye - np.conj(D.T) @ toF @ Bmat @ toR @ D
    psi_hat = np.linalg.solve(A, f.to_fourier().values[:, 0])
    expected = sfft.ifft(psi_hat, norm="ortho")
    assert_allclose(psi.values[:, 0], expected, atol=1e-10)


def test_resolvent_varying_b_well_off_the_spectrum_converges():
    # B is Hermitian, so every eigenvalue of z - D^H B D has imaginary part
    # 0.5; unpreconditioned GMRES still stalled near 1e-6 on this grid.
    from gammasolve.fields import divergence, gradient, vector_layout

    grid = Grid((32, 32), (2.0 * np.pi,) * 2)
    x = grid.coordinates()
    a = 1.0 + 0.4 * np.cos(x[:, 0])
    vals = np.zeros((grid.npoints, 3, 3), complex)
    vals[:, 0, 0] = vals[:, 1, 1] = a
    vals[:, 2, 2] = 0.1 * np.sin(x[:, 1])
    B = LField(BlockLayout((Block("vector", 2), Block("scalar"))), vals)
    f = random_field(grid, scalar_layout(), seed=2)
    z = 11.3 + 0.5j
    psi = solve_resolvent(grid, z, B, f, tol=1e-10)
    # (z - D^H B D) psi = z psi + div(a grad psi) - b psi, since D^H (v, s) = s - div v
    flux = Field(grid, vector_layout(2), a[:, None] * gradient(psi).values)
    lhs = (z - vals[:, 2, 2]) * psi.values[:, 0] + divergence(flux).values[:, 0]
    rhs = f.values[:, 0]
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_resolvent_varying_zero_source_is_zero():
    grid = Grid((8,), (2.0 * np.pi,))
    lay = BlockLayout((Block("vector", 1), Block("scalar")))
    vals = np.zeros((grid.npoints, 2, 2), complex)
    vals[:, 0, 0] = 1.0 + 0.4 * np.cos(grid.coordinates()[:, 0])
    B = LField(lay, vals)
    zero = Field.zeros(grid, scalar_layout())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = solve_resolvent(grid, 11.3 + 0.5j, B, zero)
    assert psi.representation == "real"
    assert not psi.values.any()


def test_resolvent_constant_b_keeps_off_diagonal_blocks():
    # The constant per-mode inverse must apply the whole B, as the varying
    # path does: B[0, 2] couples the x-derivative to the scalar slot.
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    B = _second_order_B(grid, 1.0, 0.3)
    B.values[0, 2] = 0.4
    per_point = LField(B.layout, np.broadcast_to(B.values, (grid.npoints, 3, 3)).copy())
    assert B.is_constant and not per_point.is_constant
    f = random_field(grid, scalar_layout(), seed=4)
    z = 0.7 + 0.2j
    const = solve_resolvent(grid, z, B, f, tol=1e-13).values
    varying = solve_resolvent(grid, z, per_point, f, tol=1e-13).values
    assert np.linalg.norm(const - varying) <= 1e-10 * np.linalg.norm(varying)


def test_resolvent_acoustics_duality():
    # the scalar slot of the canonical acoustic solve is the resolvent
    # applied to the contracted source, at z = rho omega^2, B = diag(kappa I, 0)
    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    omega, kappa, rho = 1.3, 1.0, 1.0
    L = build_acoustics(grid, omega, kappa, rho)
    force, env, k0 = _plane_force(grid, (1, 1, 0), [0.4, -0.2, 0.1])
    s = acoustic_source(L, force, grid)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(3), source=s, tol=1e-11))
    B = _second_order_B(grid, kappa, 0.0)
    fdiv = kappa * (1j * (k0 @ [0.4, -0.2, 0.1])) * env
    psi = solve_resolvent(grid, rho * omega**2, B,
                          Field(grid, scalar_layout(), fdiv[:, None]))
    scale = np.max(np.abs(psi.values))
    assert np.max(np.abs(psi.values[:, 0] - res.E.values[:, 3])) < 1e-10 * scale


# ---------------------------------------------------------------------------
# Residual functional
# ---------------------------------------------------------------------------


def test_residual_functional_zero_at_eigenpair_and_positive_off():
    grid = Grid((16,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.5 * np.cos(x)
    from gammasolve.fermionic import ground_state

    energies, states = ground_state(grid, 1.0, V, nstates=1)
    mat = build_schrodinger(grid, energies[0], 1.0, V)
    W = residual_functional(states[0], mat)
    assert W < 1e-20
    # perturbing the candidate energy raises the functional
    mat_off = build_schrodinger(grid, energies[0] + 0.1, 1.0, V)
    assert residual_functional(states[0], mat_off) > 1e-4


def test_resolvent_and_residual_functional_read_a_phase_table():
    grid = Grid((16, 16), (2.0 * np.pi,) * 2)
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    index = (grid.coordinates()[:, 1] >= np.pi).astype(int)
    B = LField(lay, [np.diag([1.0, 1.0, 0.1]), np.diag([2.0, 2.0, 0.3])], index=index)
    dense = LField(lay, B.values[index])
    f = random_field(grid, scalar_layout(), seed=6)
    z = 11.3 + 0.5j
    psi = solve_resolvent(grid, z, B, f, tol=1e-12).values
    psi_dense = solve_resolvent(grid, z, dense, f, tol=1e-12).values
    assert np.linalg.norm(psi - psi_dense) <= 1e-12 * np.linalg.norm(psi_dense)
    mat = build_schrodinger(grid, 0.4 + 0.1j, Layered(1, (np.pi,), (1.0, 2.0)),
                            Layered(1, (np.pi,), (0.1, 0.3)))
    assert mat.values.shape == (2, 3, 3)
    candidate = random_field(grid, scalar_layout(), seed=7)
    W = residual_functional(candidate, mat)
    W_dense = residual_functional(candidate, LField(mat.layout, mat.values[mat.index],
                                                    mat.omega))
    assert W == pytest.approx(W_dense, rel=1e-13)


def test_scalar_preconditioner_pseudo_inverse():
    # a 1 x 1 per-mode M needs no SVD: 1/m, and 0 where m = 0
    M = np.array([2.0 - 1.0j, 0.0, 1e-300, -3.0]).reshape(4, 1, 1)
    assert_allclose(sv._pinv(M), np.linalg.pinv(M, rcond=sv.PINV_CUTOFF), rtol=1e-15)


def test_hermitian_preconditioner_pseudo_inverse():
    # a Hermitian M (from a Hermitian L0) is inverted by eigh: the same
    # pseudo-inverse under PINV_CUTOFF, singular and indefinite modes too
    rng = np.random.default_rng(3)
    V = np.linalg.qr(rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3)))[0]
    w = np.array([[2.0, -1.0, 0.5], [1.0, 0.0, -3.0], [1.0, 1e-13, 4.0],
                  [0.0, 0.0, 0.0], [-1.0, -2.0, 1e-300]])
    M = (V * w[:, None, :]) @ np.conj(np.swapaxes(V, -1, -2))
    expected = np.linalg.pinv(M, rcond=sv.PINV_CUTOFF)
    assert_allclose(sv._pinv(M, hermitian=True), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("field,value", [("restart", 0), ("restart", -3), ("restart", 2.5),
                                         ("restart", True), ("tol", np.nan), ("tol", -1.0),
                                         ("tol", 0.0), ("max_iter", 2.5), ("max_iter", 10.0),
                                         ("max_iter", True)])
@pytest.mark.parametrize("method", ["krylov", "fixed_point"])
def test_solve_rejects_an_invalid_restart_or_tol(method, field, value):
    # restart=0 used to raise ZeroDivisionError inside the Krylov driver,
    # -3 numpy's "negative dimensions" and 2.5 a TypeError; a NaN or
    # negative tol ran silently to the iteration cap; a float max_iter, or
    # a bool max_iter or restart, raised a TypeError after the whole set-up
    grid, L, s = _definite_helmholtz_case()
    prob = Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s, method=method)
    setattr(prob, field, value)
    with pytest.raises(ValueError, match=field):
        solve(prob)


# ---------------------------------------------------------------------------
# The guarded inverse M^+ and the two kinds of basis
# ---------------------------------------------------------------------------


def _hermitian_stack(w, seed=3):
    rng = np.random.default_rng(seed)
    n = w.shape[-1]
    V = np.linalg.qr(rng.normal(size=(len(w), n, n)) + 1j * rng.normal(size=(len(w), n, n)))[0]
    return (V * w[:, None, :]) @ np.conj(np.swapaxes(V, -1, -2))


@pytest.mark.parametrize("hermitian", [False, True])
def test_guarded_inverse_is_the_pseudo_inverse(hermitian):
    # well conditioned: the batched inverse, equal to _pinv to rounding
    rng = np.random.default_rng(8)
    M = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3)) + 4.0 * np.eye(3)
    if hermitian:
        M = M + np.conj(np.swapaxes(M, -1, -2))
    X = sv._inverse(M, hermitian)
    assert np.max(np.abs(X - sv._pinv(M, hermitian))) <= 1e-12 * np.max(np.abs(X))
    # a mode with condition number 1e14 and an exactly singular one take
    # _pinv's value, which drops their small directions
    w = np.array([[2.0, -1.0, 0.5], [1.0, 1e-14, -3.0], [1.0, 0.0, 4.0]])
    M = _hermitian_stack(w)
    X = sv._inverse(M, True)
    expected = sv._pinv(M, True)
    assert_allclose(X, expected, rtol=0, atol=1e-12)
    assert np.max(np.abs(X[1:])) < 10.0  # the small directions are dropped
    # without the singular mode, the inverse succeeds and the guard catches
    # the ill-conditioned one
    X = sv._inverse(M[:2], True)
    assert_allclose(X, expected[:2], rtol=0, atol=1e-12)


PAIR_SOLVE_CASES = [
    ("acoustics", (8, 8), dict(kappa=Checkerboard((1.0, 2.0)), rho=Checkerboard((1.0, 1.5)))),
    ("acoustics", (6, 6, 6), dict(kappa=Checkerboard((1.0, 2.0)), rho=1.0)),
    ("schrodinger", (8, 8), dict(kinetic=1.0, potential=Checkerboard((0.0, 0.5)))),
    ("love", (32,), dict(k1=0.7, mu=Layered(0, (np.pi,), (1.0, 2.0)), rho=1.0)),
    ("elastodynamics", (6, 6, 6), dict(rho=Checkerboard((1.0, 1.5)), bulk=2.0,
                                       shear=Checkerboard((0.7, 1.1)))),
    ("thermoacoustic", (4, 4, 4), dict(rho0=Checkerboard((1.1, 1.6)), eta=0.4, eta_bulk=0.2,
                                       conductivity=0.5, T0=1.0, alpha0=0.3, beta_T=0.9,
                                       cp=1.2)),
]


@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "k0"])
@pytest.mark.parametrize("physics,dims,params", PAIR_SOLVE_CASES,
                         ids=[f"{c[0]}{len(c[1])}d" for c in PAIR_SOLVE_CASES])
def test_pair_and_dense_bases_solve_alike(physics, dims, params, shifted):
    _assert_bases_solve_alike(physics, dims, params, shifted)


@pytest.mark.parametrize("physics,dims,params", [PAIR_SOLVE_CASES[4], PAIR_SOLVE_CASES[5]],
                         ids=["elastodynamics", "thermoacoustic"])
def test_pair_and_dense_bases_solve_alike_across_blocks(monkeypatch, physics, dims, params):
    # the pair Gram and right factor formed 7 modes at a time
    monkeypatch.setattr(projectors, "_MODES", 7)
    _assert_bases_solve_alike(physics, dims, params, True)


def _assert_bases_solve_alike(physics, dims, params, shifted):
    # A pair family keeps only its scalar pair h; the same basis handed to a
    # hand-made Projector takes the dense path.  Both give one solve.
    grid = Grid(dims, (2.0 * np.pi,) * len(dims))
    L = build_material(MaterialSpec(physics, 1.1, params), grid)
    pair = default_projector(physics, grid)
    dense = Projector(pair.name, pair.layout, pair.basis)
    shift = np.array([0.3, -0.2, 0.1][:len(dims)]) if shifted else None
    s = random_field(grid, L.layout, seed=6)
    rp, rd = (solve(Problem(grid=grid, L=L, gamma=g, source=s, shift=shift, tol=1e-10))
              for g in (pair, dense))
    assert isinstance(pair._grid_basis[1], projectors._PairBasis)
    assert isinstance(dense._grid_basis[1], projectors._DenseBasis)
    assert rp.converged and rd.converged and 0 < rp.iterations < 40
    assert rp.iterations == rd.iterations
    assert np.linalg.norm(rp.E.values - rd.E.values) <= 1e-10 * np.linalg.norm(rd.E.values)
    assert rp.residual == pytest.approx(rd.residual, rel=1e-3)


def test_solve_holds_no_basis_sized_temporaries():
    # Elastic 16^3 with one iteration: the dense basis is 2.25 MiB and each
    # factor 1.7 MiB.  The solve peaked at 11.1 MiB and the projector kept
    # its 2.25 MiB dense basis when it kept B and built M, M^+ and the
    # factors through basis-sized copies; it keeps h (0.25 MiB) now.
    import gc
    import tracemalloc

    grid = Grid((16, 16, 16), (2.0 * np.pi,) * 3)
    L = _elastic_checkerboard(grid)
    s = random_field(grid, L.layout, seed=1)
    # a first solve fills every cache but the new projector's basis
    solve(Problem(grid=grid, L=L, gamma=gamma_elastic(3), source=s, max_iter=1))
    problem = Problem(grid=grid, L=L, gamma=gamma_elastic(3), source=s, max_iter=1)
    gc.collect()
    tracemalloc.start()
    try:
        res = solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
        del res
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20, peak
    assert kept < 2**20, kept


# ---------------------------------------------------------------------------
# The potential-space operator on the joint range of L or of its contrast
# ---------------------------------------------------------------------------


def _velocity(x):
    return np.stack([0.2 * np.sin(x[:, 1]), 0.1 * np.cos(x[:, 0]),
                     0.05 * np.ones(len(x))], axis=1)


def _two_velocities(x):
    # two values on 512 points: a phase table with a rectangular restriction
    return np.where(x[:, :1] < np.pi, [0.2, 0.1, 0.05], [-0.1, 0.3, 0.0])


# physics, dims, parameters, (column, row) widths that K transforms: those of
# the contrast L - L0 where they are narrower than L's, else L's own
JOINT_RANGE_CASES = [
    # bulk, shear and density all contrast: a tie at 9 keeps L's joint range
    ("elastodynamics", (8, 8, 8),
     dict(rho=Checkerboard((1.0, 2.0)), bulk=Checkerboard((2.0, 6.0)),
          shear=Checkerboard((1.0, 3.0))), (9, 9)),
    ("brinkman", (4, 4, 4), dict(rho=1.0, eta=Checkerboard((0.3, 0.4)), permeability=2.0,
                                 shear_viscosity=0.8), (3, 3)),
    ("thermoacoustic", (4, 4, 4), dict(rho0=Checkerboard((1.1, 1.6)), eta=0.4, eta_bulk=0.2,
                                       conductivity=0.5, T0=1.0, alpha0=0.3, beta_T=0.9,
                                       cp=1.2), (4, 4)),
    # two velocities couple 11 gradient components into a symmetric stress;
    # only the coupling contrasts
    ("oseen", (8, 8, 8), dict(rho=1.0, kappa=2.0, eta=0.3, eta_bulk=0.1,
                              velocity=_two_velocities), (3, 3)),
    ("maxwell", (4, 4, 4), dict(epsilon=Checkerboard((1.0, 4.0 + 0.1j)), mu=1.0), (3, 3)),
    # the 1e8 penalty dwarfs the 0.2 deviatoric block: nothing may drop from L
    # or its contrast, and max|L0| max|M^+| ~ 1e8 would fail the split's
    # rounding test besides
    ("ns_perturbation", (4, 4, 4), dict(rho=1.0, eta=0.3, background_velocity=_velocity,
                                        penalty=1e8), (12, 12)),
]


def _joint_range_case(physics, dims, params, force=True):
    grid = Grid(dims, (2.0 * np.pi,) * len(dims))
    L = build_material(MaterialSpec(physics, 1.1, params), grid)
    s = random_field(grid, L.layout, seed=8)
    if physics == "brinkman" and force:  # keeps clear of the gauge kernel
        s = brinkman_source(L, s.values[:, :3], grid)
    return Problem(grid=grid, L=L, gamma=default_projector(physics, grid), tol=1e-10,
                   source=s)


def _solve_operator(monkeypatch, problem):
    """The whole potential-space operator K that ``solve`` hands to GMRES,
    and the (column, row) widths that it transforms."""
    krylov = sv._krylov
    seen = []

    def spy(matvec, *args):
        seen.append(matvec)
        return krylov(matvec, *args)

    monkeypatch.setattr(sv, "_krylov", spy)
    solve(Problem(**dict(vars(problem), max_iter=1)))
    monkeypatch.undo()
    [matvec] = seen
    left, right = matvec.args[1], matvec.args[3]
    return matvec, (left.shape[-1], right.shape[-2])


def _full_operator(problem, own_inverse=False):
    """a -> B^H F L F^-1 (B M^+ a) with the mean-medium M, uncompressed,
    and a random vector maker on range(B^H), where b and every Krylov
    vector lie.  M^+ is numpy's pseudo-inverse of B^H L0 B under the
    cutoff, or with ``own_inverse`` the solve's own M^+ (see
    :func:`_assert_own_inverse_is_the_pseudo_inverse`)."""
    Lc, basis, _ = sv._potentials(problem)
    B = basis.rows()
    Bh = np.conj(np.swapaxes(B, -1, -2))
    if own_inverse:
        R = B @ _own_inverse(problem)[0]
    else:
        R = B @ np.linalg.pinv(Bh @ Lc.mean() @ B, rcond=sv.PINV_CUTOFF)
    rng = np.random.default_rng(2)

    def vector():
        x = rng.normal(size=(len(B), Lc.ncomp)) + 1j * rng.normal(size=(len(B), Lc.ncomp))
        return sv._pointwise(Bh, x).ravel()

    return (lambda a: sv._potential_matvec(problem.grid, Bh, Lc.apply, R, a)), vector


def _own_inverse(problem):
    """The solve's M^+ and M for the mean medium L0, formed as it forms
    them."""
    Lc, basis, _ = sv._potentials(problem)
    L0 = Lc.mean()
    M = basis.gram(L0)
    hermitian = np.abs(L0 - L0.conj().T).max() <= 1e-14 * np.abs(L0).max()
    return sv._inverse(M, hermitian), M


def _assert_own_inverse_is_the_pseudo_inverse(problem):
    """The solve's M^+ against numpy's pseudo-inverse of the same M, to
    within cond(M) eps per mode: where M is ill-conditioned, M^+ itself is
    only that accurate, however it is formed."""
    X, M = _own_inverse(problem)
    P = np.linalg.pinv(M, rcond=sv.PINV_CUTOFF)
    cond = np.linalg.cond(M)
    err = np.linalg.norm(X - P, axis=(-2, -1)) / np.linalg.norm(P, axis=(-2, -1))
    assert cond.max() > 1e6  # the case this check is for
    assert np.all(err <= 10.0 * cond * np.finfo(float).eps)


def _assert_operator_is_the_full_operator(monkeypatch, problem, widths, own_inverse=False):
    matvec, seen = _solve_operator(monkeypatch, problem)
    assert seen == widths
    assert matvec.func is sv._contrast_matvec  # one operator for either reference
    full, vector = _full_operator(problem, own_inverse)
    for _ in range(3):
        a = vector()
        expected = full(a)
        assert np.linalg.norm(matvec(a) - expected) <= 1e-14 * np.linalg.norm(expected)
    return matvec


@pytest.mark.parametrize("physics,dims,params,widths", JOINT_RANGE_CASES,
                         ids=[c[0] for c in JOINT_RANGE_CASES])
def test_joint_range_operator_equals_the_full_operator(monkeypatch, physics, dims, params,
                                                       widths):
    problem = _joint_range_case(physics, dims, params)
    # At the penalized ns_perturbation cell M has condition number about
    # 1e8, so two ways of forming M^+ differ by about 1e-8 there: the
    # operator is checked with the solve's own M^+, and that M^+ against
    # the pseudo-inverse to cond(M) eps.
    own_inverse = physics == "ns_perturbation"
    _assert_operator_is_the_full_operator(monkeypatch, problem, widths, own_inverse)
    if own_inverse:
        _assert_own_inverse_is_the_pseudo_inverse(problem)


def test_a_constant_material_has_no_contrast_to_transform(monkeypatch):
    # K = M M^+: the matvec is a copy, and the solve transforms only the
    # source, E and L E.
    problem = _joint_range_case("maxwell", (4, 4, 4), dict(epsilon=2.0 - 0.1j, mu=1.0))
    _assert_operator_is_the_full_operator(monkeypatch, problem, (0, 0))
    counts = _count_transforms_and_matvecs(monkeypatch)
    res = solve(problem)
    assert res.converged and res.iterations == 1
    assert counts == {"transforms": 3, "matvecs": 0}


def test_contrast_operator_keeps_the_brinkman_gauge(monkeypatch):
    # M is singular inside range(B^H) at k = 0 (the hydrostatic stress
    # gauge), so M M^+ is not the identity there.  A random source has a
    # component there that no E can match: both operators stop at the same
    # least-squares iterate.
    problem = _joint_range_case("brinkman", (4, 4, 4),
                                dict(rho=1.0, eta=Checkerboard((0.3, 0.4)), permeability=2.0,
                                     shear_viscosity=0.8), force=False)
    matvec = _assert_operator_is_the_full_operator(monkeypatch, problem, (3, 3))
    assert list(matvec.args[4]) == [0]  # the modes where M M^+ != B^H B
    contrast = solve(problem)
    monkeypatch.setattr(sv, "_range_bases", lambda L, L0=None: (None, None))
    full = solve(problem)
    assert contrast.stop_reason == full.stop_reason == "stagnated"
    assert contrast.residual == pytest.approx(full.residual, rel=1e-10)
    scale = np.linalg.norm(full.E.values)
    assert np.linalg.norm(contrast.E.values - full.E.values) <= 1e-10 * scale


def test_joint_range_keeps_a_perturbed_null_vector():
    # A term 1e-9 max|L| n n^T along the antisymmetric null vector n gives
    # n a Gram eigenvalue near 1e-18 of the largest, far below the candidate
    # threshold; only the check of max|L N| keeps it.
    grid = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
    L = canonical_material(build_elastodynamics(grid, 1.1, 1.3, bulk=2.0, shear=0.7))
    Qc, _, Pr = sv._joint_range(L)
    assert Qc.shape == Pr.shape == (12, 9)
    antisym = np.zeros(12)
    antisym[[1, 3]] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    bumped = L.values + 1e-9 * np.abs(L.values).max() * np.outer(antisym, antisym)
    Qc, Lt, Pr = sv._joint_range(LField(L.layout, bumped))
    assert Qc is None and Pr is None and Lt.values.shape == (12, 12)


def test_joint_range_shares_the_phase_point_lists():
    # a material shared by many solves sorts its phase index once
    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    L = _elastic_checkerboard(grid)
    points = L._points()
    _, Lt, _ = sv._joint_range(L)
    assert Lt.index is L.index and Lt._points() is points


def test_joint_range_of_a_per_point_material_is_found_without_copying_it():
    # 16^3 ns_perturbation about a smooth flow: a 9 MiB per-point material
    # with nothing to drop.  The Grams are summed a block of matrices at a
    # time, so detection holds no copy of the material (it held two).
    import tracemalloc

    from gammasolve.materials import build_ns_perturbation

    grid = Grid((16, 16, 16), (2.0 * np.pi,) * 3)
    L = build_ns_perturbation(grid, 1.0, 1.0, 0.2, lambda x: np.stack(
        [np.sin(x[:, 1]), np.cos(x[:, 2]), np.sin(x[:, 0])], axis=1))
    assert L.index is None and L.values.shape == (grid.npoints, 12, 12)
    tracemalloc.start()
    try:
        Qc, Lt, Pr = sv._joint_range(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Qc is None and Pr is None and Lt is L
    assert peak < L.values.nbytes, peak
    # The solve's whole set-up, contrast search included: L - L0 is read a
    # block at a time and never formed (the set-up peaked at 14.3 MiB when
    # it was).  The projector keeps its basis, built here beforehand.
    problem = Problem(grid=grid, L=L, gamma=gamma_elastic(3),
                      source=random_field(grid, L.layout, seed=1))
    sv._potentials(problem)

    class SetUpDone(Exception):
        pass

    def stop(*args):
        raise SetUpDone

    krylov = sv._krylov
    sv._krylov = stop
    tracemalloc.start()
    try:
        with pytest.raises(SetUpDone):
            solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sv._krylov = krylov
    assert peak < L.values.nbytes, peak


def _elastic_8x8():
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    L = build_elastodynamics(grid, 1.1, Checkerboard((1.0, 1.5)),
                             bulk=Checkerboard((2.0, 3.0)), shear=Checkerboard((0.7, 1.1)))
    return grid, L, gamma_elastic(2)


def _lossy_maxwell_4():
    grid = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
    return grid, build_maxwell(grid, 1.1, Checkerboard((1.0, 3.0 + 0.5j)), 1.0), gamma_maxwell()


# L's joint range, where the antisymmetric gradient drops (5 of 8), and the
# contrast's, where only epsilon varies (3 of 6)
@pytest.mark.parametrize("case,widths", [(_elastic_8x8, (5, 5)), (_lossy_maxwell_4, (3, 3))],
                         ids=["elastic", "maxwell"])
def test_joint_range_solve_matches_the_dense_oracle(monkeypatch, case, widths):
    grid, L, gamma = case()
    prob = Problem(grid=grid, L=L, gamma=gamma, tol=1e-10,
                   source=random_field(grid, L.layout, seed=3))
    assert _solve_operator(monkeypatch, prob)[1] == widths
    rk, rd = solve(prob), solve_dense(prob)
    assert rk.converged
    assert np.linalg.norm(rk.E.values - rd.E.values) <= 1e-8 * np.linalg.norm(rd.E.values)
    assert np.linalg.norm(rk.J.values - rd.J.values) <= 1e-8 * np.linalg.norm(rd.J.values)


# JOINT_RANGE_CASES' Maxwell cell is resonant: GMRES(40) stops at its 2000
# iteration cap on either operator.  A lossier epsilon stands in for it; it
# converges within one restart cycle, since across restarts the two
# operators' rounding can move a near-resonant count by an iteration or so.
ITERATION_CASES = JOINT_RANGE_CASES[:4] + [
    ("maxwell", (4, 4, 4), dict(epsilon=Checkerboard((1.0, 2.0 + 0.5j)), mu=1.0), (3, 3))]


@pytest.mark.parametrize("physics,dims,params,widths", ITERATION_CASES,
                         ids=[c[0] for c in ITERATION_CASES])
def test_joint_range_keeps_iteration_counts(monkeypatch, physics, dims, params, widths):
    problem = _joint_range_case(physics, dims, params)
    compressed = solve(problem)
    # every map keeping all c components ties L with its contrast, so the
    # solve runs today's uncompressed a -> B^H F L F^-1 (B M^+ a)
    monkeypatch.setattr(sv, "_range_bases", lambda L, L0=None: (None, None))
    full = solve(problem)
    assert compressed.converged and compressed.iterations == full.iterations
    scale = np.linalg.norm(full.E.values)
    assert np.linalg.norm(compressed.E.values - full.E.values) <= 1e-10 * scale
    assert compressed.residual == pytest.approx(full.residual, rel=1e-3)


def test_residual_functional_imaginary_energy_floor():
    grid = Grid((16,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.5 * np.cos(x)
    from gammasolve.fermionic import ground_state

    energies, states = ground_state(grid, 1.0, V, nstates=1)
    e_complex = energies[0] + 0.3j
    mat = build_schrodinger(grid, e_complex, 1.0, V)
    W = residual_functional(states[0], mat)
    assert W >= 0.3**2 * grid.volume - 1e-10


# ---------------------------------------------------------------------------
# Initial guesses (Problem.x0)
# ---------------------------------------------------------------------------


def _guess_case(tol=1e-10):
    grid, L, gamma = _elastic_8x8()
    problem = Problem(grid=grid, L=L, gamma=gamma, tol=tol,
                      source=random_field(grid, L.layout, seed=5))
    return problem, solve(problem)


@pytest.mark.parametrize("representation", ["real", "fourier"])
def test_a_guess_that_meets_the_target_builds_no_operator(monkeypatch, representation):
    problem, ref = _guess_case()
    assert ref.converged and ref.iterations > 0
    calls = []
    for name in ("_inverse", "_pinv", "_joint_range", "_range_bases", "_krylov"):
        monkeypatch.setattr(sv, name, lambda *a, name=name, **k: calls.append(name))
    x0 = ref.E if representation == "real" else ref.E.to_fourier()
    # ref's residual is at most 0.25e-10, within 0.25 tol for tol = 1e-8
    res = solve(Problem(**dict(vars(problem), tol=1e-8, x0=x0)))
    assert calls == []
    assert res.converged and res.stop_reason == "converged"
    assert res.iterations == 0 and res.residual_history == []
    assert res.residual <= 0.25 * 1e-8
    assert res.residual == pytest.approx(ref.residual, rel=1e-3)
    scale = np.linalg.norm(ref.E.values)
    assert np.linalg.norm(res.E.values - ref.E.values) <= 1e-13 * scale
    assert np.linalg.norm(res.J.values - ref.J.values) <= 1e-13 * np.linalg.norm(ref.J.values)


def test_a_partial_guess_converges_to_the_same_field():
    problem, ref = _guess_case()
    rng = np.random.default_rng(4)
    noise = rng.normal(size=ref.E.values.shape) + 1j * rng.normal(size=ref.E.values.shape)
    scale = np.linalg.norm(ref.E.values)
    x0 = Field(problem.grid, ref.E.layout,
               ref.E.values + 1e-3 * scale / np.linalg.norm(noise) * noise)
    res = solve(Problem(**dict(vars(problem), x0=x0)))
    assert res.converged and 0 < res.iterations < ref.iterations
    assert res.residual_history[0] < 1e-2  # the first iterate starts near the guess
    assert np.linalg.norm(res.E.values - ref.E.values) <= 10 * problem.tol * scale


def test_fixed_point_starts_from_a_partial_guess():
    grid, L, s = _definite_helmholtz_case()
    problem = Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s, tol=1e-8,
                      method="fixed_point", max_iter=2000, reference=6.0)
    ref = solve(problem)
    x0 = Field(grid, L.layout, 1.01 * ref.E.values)
    res = solve(Problem(**dict(vars(problem), x0=x0)))
    assert ref.converged and res.converged and 0 < res.iterations < ref.iterations
    scale = np.linalg.norm(ref.E.values)
    assert np.linalg.norm(res.E.values - ref.E.values) <= 10 * problem.tol * scale


@pytest.mark.parametrize("method", ["krylov", "fixed_point"])
def test_a_guess_worse_than_zero_gives_the_zero_start(monkeypatch, method):
    problem, ref = _guess_case()
    problem = Problem(**dict(vars(problem), method=method, tol=1e-6, reference=None))
    counts = _count_transforms_and_matvecs(monkeypatch)
    zero = solve(problem)
    matvecs = counts["matvecs"]
    x0 = Field(problem.grid, ref.E.layout, -3.0 * ref.E.values)
    res = solve(Problem(**dict(vars(problem), x0=x0)))
    assert counts["matvecs"] == 2 * matvecs  # a rejected guess applies no operator
    assert res.residual_history == zero.residual_history
    assert res.iterations == zero.iterations and res.stop_reason == zero.stop_reason
    assert np.array_equal(res.E.values, zero.E.values)


def test_krylov_starts_from_x0():
    K, b = _nonnormal_system(0)

    def matvec(x):
        return K @ x

    x_ref, history, _ = _krylov(matvec, b, 1e-10, 200)
    x, warm, reason = _krylov(matvec, b, 1e-10, 200, x0=x_ref + 1e-6)
    assert reason == "converged" and len(warm) < len(history)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
    cold = _krylov(matvec, b, 1e-10, 200, x0=np.zeros_like(b))[1]
    assert cold == history  # a zero guess is the zero start: b - K 0 = b


def test_a_guess_must_live_on_the_source_grid_and_layout():
    problem, ref = _guess_case()
    other_grid = Grid((4, 4), problem.grid.lengths)
    bad = [Field(other_grid, ref.E.layout, np.zeros((16, ref.E.layout.ncomp))),
           Field(problem.grid, scalar_layout(), np.zeros((problem.grid.npoints, 1))),
           ref.E.values]
    for x0 in bad:
        with pytest.raises(ValueError, match="x0"):
            solve(Problem(**dict(vars(problem), x0=x0)))


def test_a_material_on_another_grid_is_rejected():
    # an 8^3 checkerboard is a phase table indexing 512 points, which must
    # not be applied to the 4096 points of a 16^3 grid
    coarse, fine = Grid((8, 8, 8), (1.0,) * 3), Grid((16, 16, 16), (1.0,) * 3)
    table = build_maxwell(coarse, 1.0, Checkerboard((1.0, 4.0)), 1.0)
    assert table.index is not None and len(table.index) == coarse.npoints
    v = np.ones((fine.npoints, table.ncomp), dtype=complex)
    for apply in (table.apply, table.apply_adjoint):
        with pytest.raises(ValueError, match="512 points"):
            apply(v)
    per_point = build_maxwell(coarse, 1.0, lambda x: 1.0 + x[:, 0], 1.0)
    assert per_point.index is None and len(per_point.values) == coarse.npoints
    s = random_field(fine, table.layout, seed=0)
    for L in (table, per_point):
        with pytest.raises(ValueError, match="material on 512 points, grid of 4096"):
            solve(Problem(grid=fine, L=L, gamma=gamma_maxwell(), source=s))


def test_a_source_on_another_grid_is_rejected():
    coarse, fine = Grid((4, 4, 4), (1.0,) * 3), Grid((8, 8, 8), (1.0,) * 3)
    L = build_maxwell(fine, 1.0, 2.0, 1.0)
    s = random_field(coarse, L.layout, seed=0)
    for problem in (Problem(grid=fine, L=L, gamma=gamma_maxwell(), source=s),
                    Problem(grid=fine, L=L, gamma=gamma_maxwell(), source=s,
                            method="fixed_point")):
        with pytest.raises(ValueError, match="source and problem grids differ"):
            solve(problem)
    with pytest.raises(ValueError, match="source and problem grids differ"):
        solve_dense(Problem(grid=coarse, L=L, gamma=gamma_maxwell(),
                            source=random_field(fine, L.layout, seed=0)))
