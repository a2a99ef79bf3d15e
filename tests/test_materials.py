"""Material builders: frozen constitutive values, parameter resolution,
orientation handling, sources, passivity and rotation analysis."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammasolve.fields import Block, BlockLayout, Grid
from gammasolve.materials import (
    MIN_PHASE_POINTS,
    PHYSICS,
    Checkerboard,
    Constant,
    Layered,
    LField,
    MaterialSpec,
    ParameterError,
    Voxel,
    acoustic_source,
    block_source,
    brinkman_source,
    build_acoustics,
    build_brinkman,
    build_elastodynamics,
    build_love,
    build_material,
    build_maxwell,
    build_ns_perturbation,
    build_oseen_inverse,
    build_schrodinger,
    build_thermoacoustic,
    canonical_material,
    default_projector,
    deviatoric_projector,
    find_rotation,
    gibiansky_rotation,
    hydrostatic_projector,
    invert_blockwise,
    isotropic_stiffness,
    kelvin_deviatoric,
    kelvin_hydrostatic,
    matrix_symmetrizer,
    passivity_check,
    resolve_parameter,
)

G2 = Grid((4, 4), (2.0 * np.pi, 2.0 * np.pi))
G3 = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
G1 = Grid((8,), (4.0,))


def at_points(L, npoints):
    """L's matrix at every point, (npoints, c, c), whatever its form:
    ``values[index]`` for a phase table."""
    if L.index is not None:
        return L.values[L.index]
    return np.broadcast_to(L.values, (npoints, L.ncomp, L.ncomp))


# ---------------------------------------------------------------------------
# Parameter resolution
# ---------------------------------------------------------------------------


def test_resolve_parameter_scalar_and_matrix():
    assert resolve_parameter(2.5, G2, ()) == 2.5
    M = np.eye(2) * 3.0
    assert_allclose(resolve_parameter(M, G2, (2, 2)), M)


def test_resolve_parameter_per_point_and_grid_shaped():
    flat = np.arange(G2.npoints, dtype=float)
    out = resolve_parameter(flat, G2, ())
    assert out.shape == (G2.npoints,)
    shaped = flat.reshape(G2.dims)
    assert_allclose(resolve_parameter(shaped, G2, ()), flat)


def test_resolve_parameter_callable():
    out = resolve_parameter(lambda x: x[:, 0] + 1.0, G2, ())
    assert_allclose(out, G2.coordinates()[:, 0] + 1.0)


def test_matrix_parameter_callable_is_evaluated_once():
    calls = []

    def rho(x):
        calls.append(len(x))
        return 1.0 + 0.1 * x[:, 0]

    L = build_acoustics(G2, 1.1, 1.0, rho)
    assert calls == [G2.npoints]
    x = G2.coordinates()
    assert_allclose(at_points(L, G2.npoints)[:, 0, 0], 1.1 * (1.0 + 0.1 * x[:, 0]))


def test_layered_descriptor():
    d = Layered(0, (np.pi,), (1.0, 5.0))
    out = resolve_parameter(d, G2, ())
    x = G2.coordinates()[:, 0]
    assert_allclose(out, np.where(x < np.pi, 1.0, 5.0))


@pytest.mark.parametrize("axis", [5, -1, 1.0, True])
def test_layered_axis_outside_the_grid_names_the_parameter(axis):
    # 5 raised IndexError and -1 read the last axis
    with pytest.raises(ParameterError) as info:
        build_acoustics(Grid((4, 4), (1.0, 1.0)), 1.0, Layered(axis, (0.5,), (1.0, 2.0)), 1.0)
    assert info.value.name == "kappa" and "axis" in info.value.reason


def test_checkerboard_descriptor():
    d = Checkerboard((1.0, 2.0))
    out = resolve_parameter(d, G2, ())
    x = G2.coordinates()
    parity = (np.floor(2 * x[:, 0] / (2 * np.pi)) + np.floor(2 * x[:, 1] / (2 * np.pi))) % 2
    assert_allclose(out, np.where(parity == 0, 1.0, 2.0))


def test_voxel_and_constant_descriptors():
    vox = np.arange(G2.npoints, dtype=float)
    assert_allclose(resolve_parameter(Voxel(vox), G2, ()), vox)
    assert_allclose(resolve_parameter(Voxel(vox.reshape(G2.dims)), G2, ()), vox)
    assert resolve_parameter(Constant(4.2), G2, ()) == 4.2


# ---------------------------------------------------------------------------
# Component-space projectors
# ---------------------------------------------------------------------------


def test_matrix_projectors_algebra():
    for d in (2, 3):
        S = matrix_symmetrizer(d)
        H = hydrostatic_projector(d)
        P = deviatoric_projector(d)
        assert_allclose(S @ S, S, atol=1e-14)
        assert_allclose(H @ H, H, atol=1e-14)
        assert_allclose(P @ P, P, atol=1e-14)
        assert_allclose(H @ P, np.zeros_like(H), atol=1e-14)
        # action on a sample matrix
        M = np.arange(d * d, dtype=float)
        trM = sum(M[i * d + i] for i in range(d))
        assert_allclose((H @ M).reshape(d, d), (trM / d) * np.eye(d), atol=1e-14)


def test_kelvin_projectors():
    H = kelvin_hydrostatic(3)
    P = kelvin_deviatoric(3)
    assert_allclose(H @ H, H, atol=1e-15)
    assert_allclose(H @ P, np.zeros((6, 6)), atol=1e-15)
    # packed identity (1,1,1,0,0,0) is fixed by H
    vec_id = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    assert_allclose(H @ vec_id, vec_id, atol=1e-15)


def test_isotropic_stiffness_eigenstructure():
    C = isotropic_stiffness(2, 2.0, 0.5)
    # identity direction: d * bulk
    vec_id = np.eye(2).ravel()
    assert_allclose(C @ vec_id, 4.0 * vec_id, atol=1e-14)
    # trace-free symmetric: 2 * shear
    dev = np.array([[1.0, 0.0], [0.0, -1.0]]).ravel()
    assert_allclose(C @ dev, 1.0 * dev, atol=1e-14)
    # antisymmetric: annihilated
    anti = np.array([[0.0, 1.0], [-1.0, 0.0]]).ravel()
    assert_allclose(C @ anti, np.zeros(4), atol=1e-14)


# ---------------------------------------------------------------------------
# LField mechanics
# ---------------------------------------------------------------------------


def test_lfield_apply_and_adjoint():
    lay = BlockLayout((Block("vector", 2),))
    M = np.array([[1.0, 2.0j], [0.0, 3.0]])
    L = LField(lay, M)
    v = np.array([[1.0, 1.0], [2.0, -1.0j]], dtype=complex)
    assert_allclose(L.apply(v), v @ M.T)
    assert_allclose(L.apply_adjoint(v), v @ np.conj(M))
    rng = np.random.default_rng(0)
    Mp = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    Lp = LField(lay, Mp)
    got = Lp.apply(v)
    assert_allclose(got[0], Mp[0] @ v[0])
    # adjoint consistency: <u, L v> == <L^H u, v>
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = np.vdot(u, Lp.apply(v))
    rhs = np.vdot(Lp.apply_adjoint(u), v)
    assert abs(lhs - rhs) < 1e-12


def test_material_forms_agree_on_real_input():
    # A real field through a complex phase table kept only its real part
    # (with a ComplexWarning): the Maxwell 8^3 checkerboard was off by 0.13.
    import warnings

    grid = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    L = build_maxwell(grid, 1.1, Checkerboard((1.0, 4.0 + 0.1j)), 1.0)
    assert L.index is not None and L.values.shape == (2, 6, 6)
    per_point = LField(L.layout, L.values[L.index])
    const = LField(L.layout, L.values[1])
    one_phase = LField(L.layout, L.values[1:], index=np.zeros(grid.npoints, dtype=int))
    v = np.random.default_rng(5).standard_normal((grid.npoints, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("apply", "apply_adjoint"):
            want = getattr(per_point, name)(v.astype(complex))
            assert_allclose(getattr(L, name)(v), want, rtol=1e-15, atol=0)
            assert_allclose(getattr(per_point, name)(v), want, rtol=1e-15, atol=0)
            want = getattr(const, name)(v.astype(complex))
            assert np.abs(want.imag).max() > 0
            assert_allclose(getattr(const, name)(v), want, rtol=1e-15, atol=0)
            assert_allclose(getattr(one_phase, name)(v), want, rtol=1e-15, atol=0)


def test_invert_blockwise_and_canonical():
    lay = BlockLayout((Block("scalar"), Block("scalar")))
    M = np.diag([2.0, -4.0]).astype(complex)
    L = LField(lay, M, orientation="inverse")
    Li = invert_blockwise(L)
    assert Li.orientation == "direct"
    assert_allclose(Li.values, np.diag([0.5, -0.25]))
    Lc = canonical_material(L)
    assert_allclose(Lc.values, np.diag([0.5, -0.25]))
    # direct materials pass through untouched
    assert canonical_material(Li) is Li
    with pytest.raises(ValueError):
        LField(lay, M, orientation="sideways")


# ---------------------------------------------------------------------------
# Builders: frozen constitutive matrices
# ---------------------------------------------------------------------------


def test_acoustics_default_pairing():
    L = build_acoustics(G2, 2.0, 3.0, 1.5)
    assert L.orientation == "inverse"
    assert_allclose(L.values, np.diag([3.0, 3.0, -1.5]))
    Lc = canonical_material(L)
    assert_allclose(Lc.values, np.diag([1.0 / 3.0, 1.0 / 3.0, -2.0 / 3.0]))


def test_acoustics_scaled_pairing():
    L = build_acoustics(G2, 2.0, 3.0, 1.5, scale_by_omega=True)
    assert L.orientation == "direct"
    assert_allclose(L.values, np.diag([-3.0, -3.0, 6.0]))


def test_acoustics_anisotropic_density():
    R = np.array([[2.0, 0.5], [0.5, 1.0]])
    L = build_acoustics(G2, 1.0, 1.0, R)
    assert_allclose(L.values[:2, :2], R)
    assert_allclose(L.values[2, 2], -1.0)


def test_elastodynamics_frozen():
    L = build_elastodynamics(G2, 2.0, rho=1.5, bulk=2.0, shear=0.5)
    assert L.orientation == "direct"
    C = isotropic_stiffness(2, 2.0, 0.5)
    assert_allclose(L.values[:4, :4], -C / 2.0)
    assert_allclose(L.values[4:, 4:], 3.0 * np.eye(2))
    assert np.max(np.abs(L.values[:4, 4:])) == 0.0


def test_elastodynamics_coupling_blocks_are_adjoint():
    rng = np.random.default_rng(2)
    D = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    L = build_elastodynamics(G2, 1.0, rho=1.0, bulk=1.0, shear=1.0, coupling=D)
    assert_allclose(L.values[:4, 4:], D)
    assert_allclose(L.values[4:, :4], np.conj(D.T))


def test_maxwell_frozen():
    L = build_maxwell(G3, 2.0, epsilon=4.0, mu=0.5)
    assert_allclose(L.values[:3, :3], 8.0 * np.eye(3))
    assert_allclose(L.values[3:, 3:], -np.eye(3))
    with pytest.raises(ValueError):
        build_maxwell(G2, 1.0, 1.0, 1.0)


def test_brinkman_frozen_and_trace_free_guard():
    L = build_brinkman(G3, 2.0, rho=1.5, eta=0.5, permeability=0.25,
                       shear_viscosity=0.8)
    assert_allclose(L.values[:6, :6], 1j * 1.6 * kelvin_deviatoric(3))
    drag = 2.0 * 1.5 + 1j * 0.5 / 0.25
    assert_allclose(L.values[6:, 6:], -np.eye(3) / drag)
    with pytest.raises(ValueError):
        build_brinkman(G3, 1.0, 1.0, 1.0, 1.0, viscosity_matrix=np.eye(6))


def test_oseen_frozen():
    u = np.array([0.5, -1.0, 2.0])
    L = build_oseen_inverse(G3, 2.0, rho=1.5, kappa=3.0, eta=0.25,
                            eta_bulk=0.6, velocity=u)
    assert L.orientation == "direct"
    # compliance block on the identity: hydrostatic coefficient
    vec_id = np.eye(3).ravel()
    coeff = (3.0 - 1j * 2.0 * 0.6) / 3.0
    assert_allclose(L.values[:9, :9] @ vec_id, coeff * vec_id, atol=1e-14)
    # on a trace-free symmetric matrix: -2 i omega eta
    dev = np.diag([1.0, -1.0, 0.0]).ravel()
    assert_allclose(L.values[:9, :9] @ dev, -1j * np.diag([1, -1, 0]).ravel(), atol=1e-14)
    # advection block contracts u with the derivative index
    M = np.arange(9.0)
    got = L.values[9:, :9] @ M
    expected = np.array([sum(u[i] * M[i * 3 + j] for i in range(3)) for j in range(3)])
    assert_allclose(got, expected, atol=1e-14)
    assert_allclose(L.values[9:, 9:], -3.0 * np.eye(3))


def test_ns_perturbation_structure():
    x = G3.coordinates()
    v = np.stack([np.sin(x[:, 1]), np.zeros(G3.npoints), np.zeros(G3.npoints)], axis=1)
    L = build_ns_perturbation(G3, 2.0, rho=1.5, eta=0.25, background_velocity=v,
                              penalty=100.0)
    # gradient block: penalty on hydrostatic + 2 eta on deviatoric
    Lx = at_points(L, G3.npoints)
    blk = Lx[0, :9, :9]
    assert_allclose(blk @ np.eye(3).ravel(), 100.0 * np.eye(3).ravel(), atol=1e-12)
    dev = np.diag([1.0, -1.0, 0.0]).ravel()
    assert_allclose(blk @ dev, 0.5 * dev, atol=1e-12)
    # velocity block: -i omega rho I + rho (grad v)^T, spectral gradient
    p = 5  # arbitrary point
    gv = np.zeros((3, 3))
    gv[1, 0] = np.cos(x[p, 1])  # d_1 v_0
    expected = -1j * 2.0 * 1.5 * np.eye(3) + 1.5 * gv.T
    assert_allclose(Lx[p, 9:, 9:], expected, atol=1e-10)
    # default penalty: 1e8 * max|2 eta|
    L2 = build_ns_perturbation(G3, 2.0, rho=1.0, eta=0.25, background_velocity=v)
    assert_allclose(at_points(L2, G3.npoints)[0, :9, :9] @ np.eye(3).ravel(),
                    5e7 * np.eye(3).ravel(), rtol=1e-12)
    # stationary variant drops the -i omega rho I term
    L3 = build_ns_perturbation(G3, 2.0, rho=1.5, eta=0.25, background_velocity=v,
                               penalty=1.0, stationary=True)
    assert_allclose(at_points(L3, G3.npoints)[p, 9:, 9:], 1.5 * gv.T, atol=1e-10)


def test_thermoacoustic_frozen_and_antitranspose():
    params = dict(rho0=1.2, eta=0.4, eta_bulk=0.9, conductivity=0.7,
                  T0=2.0, alpha0=0.3, beta_T=0.5, cp=1.1)
    omega = 2.0
    L = build_thermoacoustic(G3, omega, **params)
    V = L.values
    assert V.shape == (16, 16)
    # momentum block
    assert_allclose(V[9:12, 9:12], -omega * 1.2 * np.eye(3))
    # heat-flux block
    assert_allclose(V[12:15, 12:15], 1j * 0.7 * 2.0 * np.eye(3))
    # entropy slot
    s44 = omega * 2.0 * (0.3**2 * 2.0 / 0.5 - 1.2 * 1.1)
    assert_allclose(V[15, 15], s44)
    # stress block on identity: i eta_bulk / 3 + d / (omega beta_T)
    vec_id = np.eye(3).ravel()
    coeff = 1j * 0.9 / 3.0 + 3.0 / (omega * 0.5)
    assert_allclose(V[:9, :9] @ vec_id, coeff * vec_id, atol=1e-13)
    # coupling column/row are negative transposes
    coup = 1j * 0.3 * 2.0 / 0.5
    assert_allclose(V[:9, 15], -coup * vec_id)
    assert_allclose(V[15, :9], coup * vec_id)


def test_love_frozen():
    L = build_love(G1, 5.0, 3.0, mu=2.0, rho=1.5)
    assert_allclose(L.values, np.diag([2.0, 9.0 * 2.0 - 25.0 * 1.5]))
    with pytest.raises(ValueError):
        build_love(G2, 1.0, 1.0, 1.0, 1.0)


def test_schrodinger_frozen():
    L = build_schrodinger(G2, -0.5, 1.0, potential=0.25)
    assert_allclose(L.values, np.diag([-1.0, -1.0, -0.75]))
    x = G2.coordinates()
    Lv = build_schrodinger(G2, 0.0, 1.0, potential=x[:, 0])
    assert_allclose(at_points(Lv, G2.npoints)[:, 2, 2], -x[:, 0])


def test_build_material_dispatch_and_unknown():
    spec = MaterialSpec("acoustics", 2.0, {"kappa": 3.0, "rho": 1.5})
    L = build_material(spec, G2)
    assert L.physics == "acoustics"
    with pytest.raises(ValueError):
        build_material(MaterialSpec("phlogiston", 1.0, {}), G2)
    # options merge into builder keywords
    spec2 = MaterialSpec("acoustics", 2.0, {"kappa": 3.0, "rho": 1.5},
                         {"scale_by_omega": True})
    assert build_material(spec2, G2).orientation == "direct"


# physics -> (dims, omega, constant parameters); every parameter except the
# builder options k1 and penalty is also given per point.
BROADCAST_CASES = {
    "acoustics": ((4, 4), 1.1, dict(kappa=1.5 + 0.2j, rho=1.2)),
    "elastodynamics": ((4, 4), 1.1, dict(rho=1.3, bulk=1.0 + 0.1j, shear=0.7)),
    "maxwell": ((4, 4, 4), 1.1, dict(epsilon=2.0 + 0.1j, mu=1.3)),
    "brinkman": ((4, 4, 4), 1.1, dict(rho=1.0, eta=0.3 + 0.1j, permeability=2.0,
                                      shear_viscosity=0.8)),
    "oseen": ((4, 4, 4), 1.1, dict(rho=1.0, kappa=2.0 + 0.3j, eta=0.3,
                                   eta_bulk=0.1, velocity=np.array([0.2, -0.1, 0.05]))),
    "ns_perturbation": ((4, 4, 4), 1.1, dict(rho=1.1, eta=0.3 + 0.1j, penalty=1e2,
                                             background_velocity=np.array([0.2, -0.1, 0.05]))),
    "thermoacoustic": ((4, 4, 4), 1.1, dict(rho0=1.1, eta=0.4, eta_bulk=0.2 + 0.1j,
                                            conductivity=0.5, T0=1.3, alpha0=0.3,
                                            beta_T=0.9 + 0.05j, cp=1.2)),
    "love": ((8,), 4.6, dict(k1=3.0, mu=1.0 + 0.1j, rho=1.7)),
    "schrodinger": ((4, 4), -0.5, dict(kinetic=1.3, potential=0.5 + 0.2j)),
}


@pytest.mark.parametrize("physics", sorted(PHYSICS))
def test_builders_broadcast_over_the_parameters_leading_shape(physics):
    dims, omega, params = BROADCAST_CASES[physics]
    grid = Grid(dims, (2.0 * np.pi,) * len(dims))
    n = grid.npoints
    build = PHYSICS[physics].builder
    varied = [k for k in params if k not in ("k1", "penalty")]

    def per_point(keys):
        return {k: np.broadcast_to(v, (n,) + np.shape(v)).copy() if k in keys else v
                for k, v in params.items()}

    constant = build(grid, omega, **params)
    assert constant.is_constant or physics == "ns_perturbation"
    for keys in [varied] + [[k] for k in varied]:
        L = build(grid, omega, **per_point(keys))
        assert at_points(L, n).shape == (n, constant.ncomp, constant.ncomp), keys
        assert_allclose(at_points(L, n), at_points(constant, n), rtol=1e-14, atol=0.0,
                        err_msg=str(keys))
        # one more point than the grid holds: the error names the parameter
        wrong = {k: np.ones((n + 1,) + np.shape(v)) if k in keys else v
                 for k, v in params.items()}
        with pytest.raises(ParameterError) as info:
            build(grid, omega, **wrong)
        assert info.value.name in keys, keys


@pytest.mark.parametrize("physics", sorted(PHYSICS))
def test_builder_layout_is_its_projector_layout(physics):
    # a family's D symbol owns its block layout, so the material and the
    # paired projector agree on the blocks, not only on their count
    dims, omega, params = BROADCAST_CASES[physics]
    grid = Grid(dims, (2.0 * np.pi,) * len(dims))
    L = build_material(MaterialSpec(physics, omega, params), grid)
    assert L.layout == default_projector(physics, grid).layout


# Every form a two-phase parameter can take: the phase pattern it puts on the
# grid (True where the second value applies) and the parameter built from
# the two values.
def _two_phase_forms(grid):
    x = grid.coordinates()
    parity = np.sum(np.floor(2.0 * x / np.asarray(grid.lengths)), axis=1) % 2 == 1
    voxel = np.arange(grid.npoints) % 3 == 0

    def where(mask, a, b):
        return np.where(mask.reshape((-1,) + (1,) * np.ndim(a)), b, a)

    return {
        "constant": (np.zeros(grid.npoints, bool), lambda a, b: Constant(a)),
        "checkerboard": (parity, lambda a, b: Checkerboard((a, b))),
        "layered": (x[:, 0] >= np.pi, lambda a, b: Layered(0, (np.pi,), (a, b))),
        "voxel": (voxel, lambda a, b: Voxel(where(voxel, a, b))),
        "array": (voxel, lambda a, b: where(voxel, a, b)),
        "callable": (x[:, 0] < 1.0, lambda a, b: lambda y: where(y[:, 0] < 1.0, a, b)),
    }


# dims per grid dimension, large enough that two phases make a table
PHASE_DIMS = {1: (256,), 2: (16, 16), 3: (8, 8, 8)}


@pytest.mark.parametrize("form", ["constant", "checkerboard", "layered", "voxel",
                                  "array", "callable"])
@pytest.mark.parametrize("physics", sorted(PHYSICS))
def test_builders_compute_once_per_phase(physics, form):
    dims, omega, params = BROADCAST_CASES[physics]
    grid = Grid(PHASE_DIMS[len(dims)], (2.0 * np.pi,) * len(dims))
    n = grid.npoints
    build = PHYSICS[physics].builder
    # a varying background flow has a per-point spectral gradient
    varied = [k for k in params if k not in ("k1", "penalty", "background_velocity")]
    second = {k: 1.5 * np.asarray(v) + 0.25j if k in varied else v
              for k, v in params.items()}
    mask, make = _two_phase_forms(grid)[form]
    L = build(grid, omega, **{k: make(params[k], second[k]) if k in varied else v
                              for k, v in params.items()})
    first_L = build(grid, omega, **params).values
    second_L = build(grid, omega, **second).values
    dense = np.where(mask[:, None, None], second_L, first_L)
    if form == "constant":
        assert L.is_constant and L.index is None
    else:
        assert L.index is not None and L.values.shape[0] == 2
    assert_allclose(at_points(L, n), dense, rtol=1e-14, atol=0.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((n, L.ncomp)) + 1j * rng.standard_normal((n, L.ncomp))
    for got, matrices in ((L.apply(v), dense),
                          (L.apply_adjoint(v), np.conj(np.swapaxes(dense, 1, 2)))):
        want = np.einsum("pij,pj->pi", matrices, v)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert canonical_material(L).index is L.index


def test_phase_table_rule():
    # 256 points hold a table of at most two phases (MIN_PHASE_POINTS = 128)
    grid = Grid((256,), (2.0 * np.pi,))
    n = grid.npoints
    point = np.arange(n)
    two = build_love(grid, 4.6, 3.0, mu=Voxel(1.0 + (point % 2)), rho=1.7)
    assert two.index is not None and two.values.shape == (2, 2, 2)
    assert MIN_PHASE_POINTS == 128
    three = build_love(grid, 4.6, 3.0, mu=Voxel(1.0 + (point % 3)), rho=1.7)
    assert three.index is None and three.values.shape == (n, 2, 2)
    # two phases of each parameter joined make four: per point as well
    joint = build_love(grid, 4.6, 3.0, mu=1.0 + (point % 2), rho=1.0 + (point < 7))
    assert joint.index is None and joint.values.shape == (n, 2, 2)
    for L, mu in ((two, 1.0 + (point % 2)), (three, 1.0 + (point % 3))):
        assert_allclose(at_points(L, n)[:, 0, 0], mu, rtol=1e-15)
    # a smooth callable has all values distinct; one repeated value is constant
    smooth = build_love(grid, 4.6, 3.0, mu=lambda x: 1.0 + 0.1 * x[:, 0], rho=1.7)
    assert smooth.index is None and smooth.values.shape == (n, 2, 2)
    assert build_love(grid, 4.6, 3.0, mu=np.full(n, 2.0), rho=1.7).is_constant
    # below 2 * MIN_PHASE_POINTS points no table pays: per point, unsearched
    small = Grid((192,), (2.0 * np.pi,))
    for mu in (Layered(0, (np.pi,), (1.0, 4.0)), np.full(192, 2.0)):
        L = build_love(small, 4.6, 3.0, mu=mu, rho=1.7)
        assert L.index is None and L.values.shape == (192, 2, 2)
    # matrix-valued voxel data: phases from the distinct matrices
    g3 = Grid((8, 8, 8), (2.0 * np.pi,) * 3)
    eps = np.where((np.arange(g3.npoints) % 4 == 0)[:, None, None],
                   np.diag([1.0, 2.0, 3.0]), np.eye(3))
    L = build_maxwell(g3, 1.3, Voxel(eps), 1.0)
    assert L.index is not None and L.values.shape == (2, 6, 6)
    assert_allclose(at_points(L, g3.npoints)[:, :3, :3], 1.3 * eps, rtol=1e-15)


def test_phase_table_memory():
    # The 32^3 two-phase elastodynamics material is a 2-row table and an
    # index (0.25 MiB); the dense form held 72 MiB.
    import tracemalloc

    grid = Grid((32, 32, 32), (2.0 * np.pi,) * 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        L = build_elastodynamics(grid, 1.0, Checkerboard((1.0, 2.0)),
                                 bulk=Checkerboard((2.0, 6.0)),
                                 shear=Checkerboard((1.0, 3.0)))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert L.values.shape == (2, 12, 12)
    assert held < 2**20, held


def test_default_projector_mapping():
    assert default_projector("acoustics", G2).name == "helmholtz"
    assert default_projector("elastodynamics", G2).name == "elastic"
    assert default_projector("oseen", G3).name == "elastic"
    assert default_projector("ns_perturbation", G3).name == "elastic"
    assert default_projector("maxwell", G3).name == "maxwell"
    assert default_projector("brinkman", G3).name == "brinkman"
    assert default_projector("thermoacoustic", G3).name == "thermoacoustic"
    assert default_projector("love", G1).name == "surface"
    assert default_projector("schrodinger", G2).name == "schrodinger"
    with pytest.raises(ValueError):
        default_projector("phlogiston", G2)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


def test_block_source_placement():
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    s = block_source(G2, lay, 1, np.full((G2.npoints, 1), 2.0 + 1j))
    assert np.max(np.abs(s.values[:, :2])) == 0.0
    assert_allclose(s.values[:, 2], 2.0 + 1j)


def test_acoustic_source_uses_canonical_map():
    L = build_acoustics(G2, 2.0, 3.0, 1.5)
    f = np.ones((G2.npoints, 2), complex)
    s = acoustic_source(L, f, G2)
    # canonical vector block is (omega rho)^{-1}
    assert_allclose(s.values[:, :2], 1.0 / 3.0)
    assert_allclose(s.values[:, 2], 0.0)
    # identical for the scaled pairing modulo its own canonical matrix
    Ls = build_acoustics(G2, 2.0, 3.0, 1.5, scale_by_omega=True)
    ss = acoustic_source(Ls, f, G2)
    assert_allclose(ss.values[:, :2], -3.0)


def test_brinkman_source_sign_and_block():
    L = build_brinkman(G3, 2.0, rho=1.5, eta=0.5, permeability=0.25,
                       shear_viscosity=0.8)
    f = np.ones((G3.npoints, 3), complex)
    s = brinkman_source(L, f, G3)
    drag = 2.0 * 1.5 + 1j * 0.5 / 0.25
    assert np.max(np.abs(s.values[:, :6])) == 0.0
    assert_allclose(s.values[:, 6:], 1.0 / drag)


def test_force_sources_require_one_entry_per_force_component():
    # A force broadcasts over points but never over its own components.
    La = build_acoustics(G2, 2.0, 3.0, 1.5)
    Lb = build_brinkman(G3, 2.0, rho=1.5, eta=0.5, permeability=0.25,
                        shear_viscosity=0.8)
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    cases = [(lambda f: acoustic_source(La, f, G2), G2.npoints, 2),
             (lambda f: brinkman_source(Lb, f, G3), G3.npoints, 3),
             (lambda f: block_source(G2, lay, 0, f), G2.npoints, 2)]
    for source, npoints, size in cases:
        full = source(np.ones((npoints, size), complex)).values
        assert_allclose(source(np.ones(size)).values, full)
        for short in (np.ones(1), np.ones((npoints, 1)), np.ones(size + 1)):
            with pytest.raises(ValueError, match=f"{size} components"):
                source(short)


# ---------------------------------------------------------------------------
# Passivity and rotation
# ---------------------------------------------------------------------------


def test_passivity_check_signs():
    lay = BlockLayout((Block("scalar"), Block("scalar")))
    good = LField(lay, np.diag([1.0 + 1.0j, 2.0 + 0.5j]))
    rep = passivity_check(good)
    assert rep.ok and bool(rep)
    bad_vals = np.broadcast_to(np.diag([1.0 + 1.0j, 2.0 - 0.5j]),
                               (G2.npoints, 2, 2)).copy()
    bad_vals[7] = np.diag([1.0 + 1.0j, 2.0 - 2.0j])
    bad = LField(lay, bad_vals)
    rep2 = passivity_check(bad)
    assert not rep2.ok
    assert rep2.worst_point == 7
    assert_allclose(rep2.min_eigenvalue, -2.0)
    # a phase table is checked once per phase and reports the first worst point
    index = np.zeros(G2.npoints, int)
    index[[7, 9]] = 1
    table = LField(lay, [bad_vals[0], bad_vals[7]], index=index)
    rep3 = passivity_check(table)
    assert (rep3.ok, rep3.min_eigenvalue, rep3.worst_point) == (False, -2.0, 7)
    assert find_rotation(LField(lay, [good.values, 2.0 * good.values],
                                index=index)) == find_rotation(good)


def test_gibiansky_rotation_and_find_rotation():
    lay = BlockLayout((Block("scalar"), Block("scalar")))
    L = LField(lay, np.exp(-1j * np.pi / 4) * np.eye(2))
    rot = gibiansky_rotation(L, np.pi / 2)
    assert_allclose(rot.values, np.exp(1j * np.pi / 4) * np.eye(2))
    table = LField(lay, [L.values, 2.0 * L.values], index=[0, 1, 1])
    assert gibiansky_rotation(table, np.pi / 2).index is table.index
    theta = find_rotation(L)
    # passing window is (pi/4, pi); midpoint 5 pi / 8
    assert abs(theta - 5.0 * np.pi / 8.0) < 2e-3
    assert passivity_check(gibiansky_rotation(L, theta)).ok
    hopeless = LField(lay, np.diag([1.0 + 1.0j, -1.0 - 1.0j]))
    with pytest.raises(ValueError):
        find_rotation(hopeless)
