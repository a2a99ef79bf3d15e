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
)
from gammasolve.fermionic import ground_state, perturbation_solve
from gammasolve.projectors import (
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
from gammasolve import solver as sv
from gammasolve.quasiperiodic import QuasiSource, solve_quasiperiodic
from gammasolve.solver import (
    Problem,
    ResonanceError,
    _krylov,
    dense_operator,
    operator_norm_estimate,
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
    import gammasolve.solver as sv

    A = dense_operator(prob)
    op = sv._CanonicalOperator(prob)
    b = op.project(s.to_fourier().values).ravel()
    xsol, *_ = np.linalg.lstsq(A, b, rcond=None)
    e_hat = op.project(xsol.reshape(-1, op.ncomp))
    Ed = Field(grid, L.layout, e_hat, "fourier").to_real()
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


def test_krylov_solve_never_applies_the_full_space_operator(monkeypatch):
    def refuse(self, x):
        raise AssertionError("full-space operator applied")

    projections = []
    project = sv._CanonicalOperator.project
    monkeypatch.setattr(sv._CanonicalOperator, "apply_hat", refuse)
    monkeypatch.setattr(sv._CanonicalOperator, "project",
                        lambda self, v: projections.append(1) or project(self, v))
    grid = Grid((6, 6, 6), (2.0 * np.pi,) * 3)
    L = _elastic_checkerboard(grid)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_elastic(3), tol=1e-8,
                        source=random_field(grid, L.layout, seed=2)))
    assert res.converged and res.iterations > 1
    # Gamma1 acts on full-space vectors only for the source and the final
    # residual, never inside an iteration.
    assert len(projections) == 2


def test_fixed_point_and_perturbation_never_apply_the_full_space_operator(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("full-space operator applied")

    monkeypatch.setattr(sv._CanonicalOperator, "apply_hat", refuse)
    monkeypatch.setattr(sv._CanonicalOperator, "material", refuse)
    grid, L, s = _definite_helmholtz_case()
    fixed = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s,
                          tol=1e-10, method="fixed_point", max_iter=1000))
    assert fixed.converged and fixed.iterations > 1
    grid = Grid((24,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.8 * np.cos(x) + 0.3 * np.cos(2.0 * x)
    E, states = ground_state(grid, 1.0, V, nstates=1)
    res = perturbation_solve(build_schrodinger(grid, E[0], 1.0, V), states[0], np.cos(x),
                             tol=1e-12)
    assert res.converged and res.iterations > 1


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


def test_unknown_method_rejected():
    grid = Grid((4, 4), (1.0, 1.0))
    L = build_acoustics(grid, 1.0, 1.0, 1.0)
    s = random_field(grid, L.layout, seed=0)
    with pytest.raises(ValueError):
        solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s,
                      method="conjugate_wishes"))


def test_operator_norm_estimate_scalar_multiple():
    grid = Grid((6, 6), (2.0 * np.pi,) * 2)
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    L = LField(lay, 3.0 * np.eye(3))
    s = random_field(grid, lay, seed=0)
    prob = Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s)
    est = operator_norm_estimate(prob, iters=60)
    # A = 3 Gamma1 + Gamma2 has spectrum {3, 1}
    assert abs(est - 3.0) < 1e-6


def test_dense_operator_limit():
    grid = Grid((64, 64), (1.0, 1.0))
    L = build_acoustics(grid, 1.0, 1.0, 1.0)
    s = random_field(grid, L.layout, seed=0)
    prob = Problem(grid=grid, L=L, gamma=gamma_helmholtz(2), source=s)
    with pytest.raises(ValueError):
        dense_operator(prob, limit=4096)


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


def test_resolvent_raises_on_spectrum():
    grid = Grid((8, 8), (2.0 * np.pi,) * 2)
    B = _second_order_B(grid, 1.0, 0.0)
    f = random_field(grid, scalar_layout(), seed=1)
    with pytest.raises(ResonanceError):
        solve_resolvent(grid, 1.0, B, f)  # z = k^2 for |k| = 1 exactly


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
