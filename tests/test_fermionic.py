"""Exchange antisymmetry on multi-particle grids, the reduced
antisymmetrizer, dense stationary states, and first-order perturbation
against a finite-difference oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammasolve.fermionic import (
    MultiElectronGrid,
    all_permutations,
    antisymmetrize_full,
    antisymmetrize_vector,
    ground_state,
    is_antisymmetric,
    lambda_A,
    lambda_a,
    normalize_state,
    pair_potential,
    pairwise_sum_potential,
    permutation_sign,
    permute_scalar,
    permute_vector,
    perturbation_energy,
    perturbation_solve,
    symmetrized_apply,
)
from gammasolve.fields import Field, Grid, gradient, scalar_layout
from gammasolve.materials import ParameterError, build_schrodinger


def _rand(megrid, seed):
    rng = np.random.default_rng(seed)
    n = megrid.grid.npoints
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1  # 3-cycle
    assert permutation_sign((1, 2, 3, 0)) == -1  # 4-cycle
    assert permutation_sign((1, 0, 3, 2)) == 1  # two transpositions
    signs = [permutation_sign(p) for p in all_permutations(3)]
    assert sorted(signs) == [-1, -1, -1, 1, 1, 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_sign_is_the_permutation_matrix_determinant(n):
    for perm in all_permutations(n):
        det = np.linalg.det(np.eye(n)[list(perm)])
        assert permutation_sign(perm) == round(det)


def test_permute_scalar_separable_hand_case():
    mg = MultiElectronGrid(2, points=6)
    x1 = mg.electron_coordinates(0)[:, 0]
    x2 = mg.electron_coordinates(1)[:, 0]
    f = np.cos(x1) * np.exp(1j * x2)
    swapped = permute_scalar(f, mg, (1, 0))
    assert_allclose(swapped, np.cos(x2) * np.exp(1j * x1), atol=1e-14)
    # Field wrapper path preserves type and layout
    fld = Field(mg.grid, scalar_layout(), f[:, None])
    out = permute_scalar(fld, mg, (1, 0))
    assert isinstance(out, Field)
    assert_allclose(out.values[:, 0], swapped, atol=1e-14)


def test_permute_scalar_composition_rule():
    mg = MultiElectronGrid(3, points=4)
    f = _rand(mg, 0)
    p, q = (1, 2, 0), (2, 0, 1)
    comp = tuple(q[p[j]] for j in range(3))
    lhs = permute_scalar(permute_scalar(f, mg, p), mg, q)
    assert_allclose(lhs, permute_scalar(f, mg, comp), atol=1e-14)


def test_permute_vector_consistent_with_gradients():
    mg = MultiElectronGrid(2, points=8)
    f = _rand(mg, 1)
    fld = Field(mg.grid, scalar_layout(), f[:, None])
    g = gradient(fld).values
    for perm in all_permutations(2):
        lhs = permute_vector(g, mg, perm)
        rhs = gradient(permute_scalar(fld, mg, perm)).values
        assert_allclose(lhs, rhs, atol=1e-12)


def test_permute_vector_component_count_checked():
    mg = MultiElectronGrid(2, points=4)
    with pytest.raises(ValueError):
        permute_vector(np.zeros((mg.grid.npoints, 3)), mg, (1, 0))


def test_one_dimensional_input_shapes():
    # 1-D input to a scalar operation comes back 1-D; to a vector operation
    # (one particle in one dimension has one vector component) it comes
    # back as one column
    mg = MultiElectronGrid(1, points=5)
    f = np.arange(5.0)
    assert permute_scalar(f, mg, (0,)).shape == (5,)
    assert antisymmetrize_full(f, mg).shape == (5,)
    assert_allclose(lambda_a(f, mg), f)
    assert permute_vector(f, mg, (0,)).shape == (5, 1)
    assert antisymmetrize_vector(f, mg).shape == (5, 1)
    assert_allclose(lambda_A(f, mg), f[:, None])


def test_antisymmetrize_full_projector_properties():
    mg = MultiElectronGrid(3, points=4)
    f = _rand(mg, 2)
    a = antisymmetrize_full(f, mg)
    assert is_antisymmetric(a, mg)
    assert_allclose(antisymmetrize_full(a, mg), a, atol=1e-13)
    assert not is_antisymmetric(f, mg)


@pytest.mark.parametrize("n", [2, 3])
def test_lambda_a_total_for_small_n(n):
    mg = MultiElectronGrid(n, points=4)
    f = _rand(mg, 3)
    assert_allclose(lambda_a(f, mg), antisymmetrize_full(f, mg), atol=1e-13)


def test_lambda_a_reduced_matches_full_n4():
    mg = MultiElectronGrid(4, points=4)
    psi = antisymmetrize_full(_rand(mg, 4), mg)
    v12 = pair_potential(mg, lambda a, b: np.cos(a[:, 0] - b[:, 0]))
    w = v12 * psi
    full = antisymmetrize_full(w, mg)
    red = lambda_a(w, mg)
    scale = np.max(np.abs(full))
    assert np.max(np.abs(red - full)) <= 1e-13 * scale


@pytest.mark.parametrize("megrid", [MultiElectronGrid(4, space_dim=2, points=3),
                                    MultiElectronGrid(4, points=4, spin=True)],
                         ids=["space_dim-2", "spin"])
def test_lambda_a_reduced_matches_full_beyond_one_dimension(megrid):
    psi = antisymmetrize_full(_rand(megrid, 4), megrid)
    w = pair_potential(megrid, lambda a, b: np.cos(a - b).sum(axis=1)) * psi
    full = antisymmetrize_full(w, megrid)
    assert np.max(np.abs(lambda_a(w, megrid) - full)) <= 1e-13 * np.max(np.abs(full))


def test_lambda_a_tail_check():
    mg = MultiElectronGrid(4, points=4)
    f = _rand(mg, 5)  # not antisymmetric in the trailing particles
    with pytest.raises(ValueError):
        lambda_a(f, mg)
    lambda_a(f, mg, check_tail=False)  # opt-out runs without raising


def test_lambda_A_commutes_with_gradient():
    mg = MultiElectronGrid(3, points=4)
    f = _rand(mg, 6)
    fld = Field(mg.grid, scalar_layout(), f[:, None])
    g = gradient(fld).values
    lhs = lambda_A(g, mg)
    rhs = gradient(
        Field(mg.grid, scalar_layout(), np.asarray(lambda_a(f, mg))[:, None])
    ).values
    assert_allclose(lhs, rhs, atol=1e-12)
    assert_allclose(antisymmetrize_vector(lhs, mg), lhs, atol=1e-12)
    assert is_antisymmetric(lhs, mg, vector=True)


def test_symmetrized_apply_projects_blocks():
    mg = MultiElectronGrid(2, points=6)
    grid = mg.grid
    x = grid.coordinates()
    V = 0.3 * np.cos(x[:, 0]) + 0.3 * np.cos(x[:, 1])
    mat = build_schrodinger(grid, 0.5, 1.0, V)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(grid.npoints, 3)) + 1j * rng.normal(size=(grid.npoints, 3))
    out = symmetrized_apply(mat, vals, mg)
    raw = mat.apply(vals)
    assert_allclose(out[:, :2], lambda_A(raw[:, :2], mg), atol=1e-13)
    assert_allclose(out[:, 2], lambda_a(raw[:, 2], mg), atol=1e-13)
    assert is_antisymmetric(out[:, 2], mg)


def test_pairwise_sum_potential():
    mg = MultiElectronGrid(3, points=4)
    fn = lambda a, b: np.cos(a[:, 0] - b[:, 0])
    total = pairwise_sum_potential(mg, fn)
    expected = np.zeros(mg.grid.npoints, complex)
    for i in range(3):
        for j in range(i + 1, 3):
            expected += fn(mg.electron_coordinates(i), mg.electron_coordinates(j))
    assert_allclose(total, expected, atol=1e-14)
    # symmetric potentials commute with exchange
    swapped = permute_scalar(total, mg, (1, 0, 2))
    assert_allclose(swapped, total, atol=1e-13)


def test_spin_axes_join_the_exchange():
    mg = MultiElectronGrid(2, points=4, spin=True)
    grid = mg.grid
    assert grid.dims == (4, 4, 2, 2)
    assert mg.spin_axis(0) == 2 and mg.spin_axis(1) == 3
    with pytest.raises(ValueError):
        MultiElectronGrid(2, points=4).spin_axis(0)
    x = grid.coordinates()
    a = np.cos(x[:, 0]) * (1.0 + x[:, 2])  # particle 1 coordinate and spin
    b = np.exp(1j * x[:, 1]) * (2.0 - x[:, 3])
    swapped = permute_scalar(a * b, mg, (1, 0))
    expected = np.cos(x[:, 1]) * (1.0 + x[:, 3]) * np.exp(1j * x[:, 0]) * (2.0 - x[:, 2])
    assert_allclose(swapped, expected, atol=1e-14)


def test_electron_coordinates_slices():
    mg = MultiElectronGrid(2, space_dim=2, points=3)
    x = mg.grid.coordinates()
    assert_allclose(mg.electron_coordinates(1), x[:, 2:4])
    assert mg.coordinate_axes(1) == [2, 3]


def test_multi_electron_grid_builds_its_grid_once():
    mg = MultiElectronGrid(2, space_dim=2, points=3)
    assert mg.grid is mg.grid
    # so every particle's coordinates view one cached coordinate array
    assert mg.electron_coordinates(0).base is mg.electron_coordinates(1).base
    assert mg == MultiElectronGrid(2, space_dim=2, points=3)


def test_normalize_state():
    grid = Grid((8,), (2.0 * np.pi,))
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
    f = normalize_state(Field(grid, scalar_layout(), vals))
    from gammasolve.fields import norm

    assert abs(norm(f) - 1.0) < 1e-13
    pivot = f.values[np.argmax(np.abs(f.values[:, 0])), 0]
    assert pivot.imag == pytest.approx(0.0, abs=1e-15) and pivot.real > 0
    with pytest.raises(ValueError):
        normalize_state(Field.zeros(grid, scalar_layout()))


def test_ground_state_free_particle_band():
    grid = Grid((24,), (2.0 * np.pi,))
    E, states = ground_state(grid, 1.0, 0.0, nstates=3)
    assert_allclose(E, [0.0, 1.0, 1.0], atol=1e-12)
    assert np.ptp(np.abs(states[0].values)) < 1e-12  # constant mode


def test_ground_state_cosine_well_frozen():
    grid = Grid((24,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.8 * np.cos(x) + 0.3 * np.cos(2.0 * x)
    E, states = ground_state(grid, 1.0, V, nstates=2)
    assert E[0] == pytest.approx(-0.23250296823594763, abs=1e-12)
    assert E[1] == pytest.approx(0.7987559413957319, abs=1e-12)
    # residual of the eigen-equation through the material map
    from gammasolve.solver import residual_functional

    mat = build_schrodinger(grid, E[0], 1.0, V)
    assert residual_functional(states[0], mat) < 1e-18


def test_ground_state_guards():
    with pytest.raises(ValueError):
        ground_state(Grid((64, 64), (1.0, 1.0)), 1.0, 0.0)  # too many points
    with pytest.raises(ValueError):
        ground_state(Grid((8,), (1.0,)), lambda x: 1.0 + 0.1 * x[:, 0], 0.0)


def test_ground_state_rejects_a_complex_potential():
    # (H + H^H)/2 dropped the imaginary part: these were the energies of 0.8 cos x
    grid = Grid((24,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    with pytest.raises(ParameterError) as info:
        ground_state(grid, 1.0, 0.8 * np.cos(x) + 0.5j * np.sin(x))
    assert info.value.name == "potential"


def test_ground_state_rejects_a_non_hermitian_kinetic_matrix():
    # (H + H^H)/2 dropped the 0.5i: these were the energies of kinetic 1
    grid = Grid((24,), (2.0 * np.pi,))
    with pytest.raises(ParameterError) as info:
        ground_state(grid, 1.0 + 0.5j, 0.0, nstates=3)
    assert info.value.name == "kinetic"
    # a Hermitian complex A is valid: its imaginary part cancels in k.A.k
    square = Grid((4, 4), (2.0 * np.pi,) * 2)
    A = np.array([[1.0, 0.3j], [-0.3j, 2.0]])
    assert_allclose(ground_state(square, A, 0.0, nstates=3)[0], [0.0, 1.0, 1.0],
                    atol=1e-12)


def test_perturbation_rejects_a_complex_potential_change():
    # Re<psi, V' psi> ignored the 0.3i while the corrector used it
    grid = Grid((24,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.8 * np.cos(x) + 0.3 * np.cos(2.0 * x)
    E, states = ground_state(grid, 1.0, V, nstates=1)
    mat = build_schrodinger(grid, E[0], 1.0, V)
    vp = np.cos(x) + 0.3j
    for vprime in (vp, Field(grid, scalar_layout(), vp[:, None])):
        with pytest.raises(ValueError, match="must be real"):
            perturbation_energy(states[0], vprime)
        with pytest.raises(ValueError, match="must be real"):
            perturbation_solve(mat, states[0], vprime)
    # a real V' given by its Fourier values comes back with rounding-level
    # imaginary parts, and is accepted
    real = Field(grid, scalar_layout(), np.cos(x)[:, None])
    assert perturbation_solve(mat, states[0], real.to_fourier(), tol=1e-12).converged


def test_perturbation_energy_constant_state():
    grid = Grid((16,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    psi = normalize_state(
        Field(grid, scalar_layout(), np.ones((16, 1), complex))
    )
    vp = 0.4 + 0.2 * np.cos(x)
    assert perturbation_energy(psi, vp) == pytest.approx(0.4, abs=1e-13)


def _fd_oracle(grid, V, vp, eps, state=0):
    Ep, sp = ground_state(grid, 1.0, V + eps * vp, nstates=state + 1)
    Em, sm = ground_state(grid, 1.0, V - eps * vp, nstates=state + 1)
    de = (Ep[state] - Em[state]) / (2.0 * eps)
    dpsi = (sp[state].values - sm[state].values) / (2.0 * eps)
    return de, dpsi


@pytest.mark.parametrize("state", [0, 1, 2])
def test_perturbation_solve_matches_finite_differences(state):
    grid = Grid((24,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.8 * np.cos(x) + 0.3 * np.cos(2.0 * x)
    vp = np.cos(x)
    E, states = ground_state(grid, 1.0, V, nstates=state + 1)
    mat = build_schrodinger(grid, E[state], 1.0, V)
    res = perturbation_solve(mat, states[state], vp, tol=1e-12)
    assert res.converged
    de, dpsi = _fd_oracle(grid, V, vp, 1e-5, state)
    assert res.e_prime == pytest.approx(de, abs=1e-8)
    assert np.max(np.abs(res.psi_prime.values - dpsi)) < 1e-6
    # gauge: corrector orthogonal to the unperturbed state
    from gammasolve.fields import inner_product

    assert abs(inner_product(states[state], res.psi_prime)) < 1e-12


def test_perturbation_solve_richardson():
    # halving the step quarters the central-difference error
    grid = Grid((24,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.8 * np.cos(x) + 0.3 * np.cos(2.0 * x)
    vp = np.cos(x)
    E, states = ground_state(grid, 1.0, V, nstates=1)
    mat = build_schrodinger(grid, E[0], 1.0, V)
    res = perturbation_solve(mat, states[0], vp, tol=1e-12)
    errs = []
    for eps in (2e-3, 1e-3):
        de, _ = _fd_oracle(grid, V, vp, eps)
        errs.append(abs(de - res.e_prime))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_perturbation_solve_constant_shift_is_pure_energy():
    grid = Grid((24,), (2.0 * np.pi,))
    x = grid.coordinates()[:, 0]
    V = 0.8 * np.cos(x) + 0.3 * np.cos(2.0 * x)
    E, states = ground_state(grid, 1.0, V, nstates=1)
    mat = build_schrodinger(grid, E[0], 1.0, V)
    res = perturbation_solve(mat, states[0], 0.25 * np.ones(grid.npoints))
    assert res.converged
    assert res.e_prime == pytest.approx(0.25, abs=1e-12)
    assert np.max(np.abs(res.psi_prime.values)) < 1e-12
