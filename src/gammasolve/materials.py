"""Pointwise material maps for the supported time-harmonic physics families.

Every family is reduced to the same canonical shape: a block field E that a
Fourier-space projector fixes (Gamma1 E = E), a flux field J it annihilates
(Gamma1 J = 0), and a pointwise linear map with J = L(x) E - s.  Builders
here produce :class:`LField` instances holding the block matrix together
with an orientation flag:

* ``orientation="direct"``  — the stored matrix is the canonical map
  (multiplies E);
* ``orientation="inverse"`` — the stored matrix is its pointwise inverse
  (some families are naturally written that way round); problem assembly
  inverts blockwise before solving.

Material parameters may be scalars, per-point arrays, small constant
matrices, callables of the point coordinates, or the descriptor classes
(:class:`Constant`, :class:`Layered`, :class:`Checkerboard`, :class:`Voxel`).

Shape rule: a material is ``(c, c)`` if every parameter is constant and
``(npoints, c, c)`` as soon as one varies.  Each builder is written once, as
numpy broadcasting over a parameter's leading shape: a scalar parameter
enters as ``(1, 1)`` or ``(npoints, 1, 1)``, a matrix one as ``(d, d)`` or
``(npoints, d, d)``, and the assembled material takes the broadcast of its
blocks' leading shapes.  :meth:`LField.apply` multiplies through
:func:`fields._pointwise`, the one per-point matvec.

:data:`PHYSICS` holds one :class:`Physics` record per family (builder,
projector family, force-to-source map); it is the only place a family is
declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import Block, BlockLayout, Field, _pointwise, gradient, scalar_layout
from . import projectors as proj

__all__ = [
    "Constant",
    "Layered",
    "Checkerboard",
    "Voxel",
    "resolve_parameter",
    "MaterialSpec",
    "LField",
    "invert_blockwise",
    "canonical_material",
    "matrix_symmetrizer",
    "hydrostatic_projector",
    "deviatoric_projector",
    "kelvin_hydrostatic",
    "kelvin_deviatoric",
    "isotropic_stiffness",
    "build_acoustics",
    "build_elastodynamics",
    "build_maxwell",
    "build_brinkman",
    "build_oseen_inverse",
    "build_ns_perturbation",
    "build_thermoacoustic",
    "build_love",
    "build_schrodinger",
    "Physics",
    "PHYSICS",
    "physics_family",
    "build_material",
    "default_projector",
    "acoustic_source",
    "brinkman_source",
    "block_source",
    "passivity_check",
    "PassivityReport",
    "gibiansky_rotation",
    "find_rotation",
]


# ---------------------------------------------------------------------------
# Parameter descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    """Spatially uniform parameter value (scalar or small matrix)."""

    value: object


@dataclass(frozen=True)
class Layered:
    """Piecewise-constant profile along one axis.

    ``values[i]`` applies where breakpoints[i-1] <= coordinate < breakpoints[i]
    (with implicit boundaries at 0 and the axis length), so there is one more
    value than breakpoints.
    """

    axis: int
    breakpoints: tuple
    values: tuple

    def evaluate(self, grid):
        bp = np.asarray(self.breakpoints, dtype=float)
        if len(self.values) != len(bp) + 1:
            raise ValueError("layered profile needs len(values) == len(breakpoints)+1")
        x = grid.coordinates()[:, self.axis]
        region = np.searchsorted(bp, x, side="right")
        vals = np.asarray(self.values)
        return vals[region]


@dataclass(frozen=True)
class Checkerboard:
    """Two-phase checkerboard: each axis is split in half and the phase is
    the parity of the half-counts, giving 2^ndim alternating cells."""

    values: tuple

    def evaluate(self, grid):
        if len(self.values) != 2:
            raise ValueError("checkerboard takes exactly two phase values")
        x = grid.coordinates()
        L = np.asarray(grid.lengths)
        phase = np.sum(np.floor(2.0 * x / L).astype(int), axis=1) % 2
        vals = np.asarray(self.values)
        return vals[phase]


@dataclass(frozen=True)
class Voxel:
    """Explicit per-point values, flat (npoints, ...) or grid-shaped."""

    values: object

    def evaluate(self, grid):
        v = np.asarray(self.values)
        if v.shape[: grid.ndim] == grid.dims:
            v = v.reshape((grid.npoints,) + v.shape[grid.ndim :])
        if v.shape[0] != grid.npoints:
            raise ValueError(
                f"voxel data has leading shape {v.shape}, expected {grid.npoints} points"
            )
        return v


def _evaluate(value, grid):
    """A descriptor or callable evaluated on the grid; other values as given."""
    if isinstance(value, Constant):
        value = value.value
    if isinstance(value, (Layered, Checkerboard, Voxel)):
        return value.evaluate(grid)
    if callable(value):
        return value(grid.coordinates())
    return value


def resolve_parameter(value, grid, shape=()):
    """Resolve a parameter to a constant of shape ``shape`` or a per-point
    array of shape ``(npoints,) + shape``.

    Accepts scalars, arrays (constant, flat per-point, or grid-shaped),
    callables of the (npoints, ndim) coordinate array, and descriptors.  A
    scalar constant comes back as a Python ``complex``, anything else as an
    ndarray.
    """
    out = np.asarray(_evaluate(value, grid))
    if out.shape == shape:
        return out if shape else complex(out)
    if out.shape[: grid.ndim] == grid.dims and out.shape[grid.ndim :] == shape:
        return out.reshape((grid.npoints,) + shape)
    if out.shape == (grid.npoints,) + shape:
        return out
    raise ValueError(
        f"cannot interpret parameter of shape {out.shape} as a field of "
        f"shape {shape} on {grid.npoints} points"
    )


def _coef(param, grid):
    """A scalar parameter as (1, 1) if constant or (npoints, 1, 1) per point,
    so that it scales a block by broadcasting."""
    return np.asarray(resolve_parameter(param, grid, ()))[..., None, None]


def _as_matrix(param, grid, d):
    """A scalar-or-matrix parameter as (d, d) or (npoints, d, d), evaluated
    once; a scalar is a multiple of the identity."""
    value = _evaluate(param, grid)
    try:
        return resolve_parameter(value, grid, (d, d))
    except ValueError:
        return _coef(value, grid) * np.eye(d)


# ---------------------------------------------------------------------------
# Material fields
# ---------------------------------------------------------------------------


class LField:
    """Block material matrix, constant (c, c) or per point (npoints, c, c).

    Parameters
    ----------
    layout : BlockLayout
    values : ndarray
    omega : complex
        Frequency (or energy) the matrix was assembled at; metadata.
    orientation : {"direct", "inverse"}
        Whether the stored matrix multiplies E in J = LE - s, or is the
        pointwise inverse of that map.
    physics : str
    """

    __slots__ = ("layout", "values", "omega", "orientation", "physics")

    def __init__(self, layout, values, omega=0.0, orientation="direct", physics=""):
        if orientation not in ("direct", "inverse"):
            raise ValueError(f"unknown orientation {orientation!r}")
        values = np.asarray(values, dtype=np.complex128)
        c = layout.ncomp
        if values.ndim not in (2, 3) or values.shape[-2:] != (c, c):
            raise ValueError(f"values shape {values.shape} incompatible with ncomp={c}")
        self.layout = layout
        self.values = values
        self.omega = omega
        self.orientation = orientation
        self.physics = physics

    @property
    def ncomp(self):
        return self.layout.ncomp

    @property
    def is_constant(self):
        return self.values.ndim == 2

    def apply(self, values):
        """Pointwise matrix action on component vectors (npoints, c)."""
        return _pointwise(self.values, values)

    def apply_adjoint(self, values):
        return _pointwise(np.conj(np.swapaxes(self.values, -1, -2)), values)

    def __repr__(self):
        kind = "constant" if self.is_constant else "varying"
        return (
            f"LField({self.physics or 'generic'}, ncomp={self.ncomp}, {kind}, "
            f"{self.orientation})"
        )


def invert_blockwise(L):
    """Pointwise inverse of the block matrix; flips the orientation flag."""
    flipped = "inverse" if L.orientation == "direct" else "direct"
    return LField(L.layout, np.linalg.inv(L.values), L.omega, flipped, L.physics)


def canonical_material(L):
    """The direct-orientation form of a material (inverts if needed)."""
    return L if L.orientation == "direct" else invert_blockwise(L)


# ---------------------------------------------------------------------------
# Projectors on matrix component spaces
# ---------------------------------------------------------------------------


def matrix_symmetrizer(d):
    """(d^2, d^2) map M -> (M + M^T)/2 on row-major matrix components."""
    S = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            S[i * d + j, i * d + j] += 0.5
            S[i * d + j, j * d + i] += 0.5
    return S


def hydrostatic_projector(d):
    """(d^2, d^2) map M -> (tr M / d) I."""
    H = np.zeros((d * d, d * d))
    for i in range(d):
        for k in range(d):
            H[i * d + i, k * d + k] = 1.0 / d
    return H


def deviatoric_projector(d):
    """(d^2, d^2) map onto trace-free symmetric matrices."""
    return matrix_symmetrizer(d) - hydrostatic_projector(d)


def kelvin_hydrostatic(d=3):
    """Hydrostatic projector on packed symmetric components."""
    nsym = d * (d + 1) // 2
    v = np.zeros(nsym)
    v[:d] = 1.0 / np.sqrt(d)
    return np.outer(v, v)


def kelvin_deviatoric(d=3):
    """Trace-free projector on packed symmetric components."""
    nsym = d * (d + 1) // 2
    return np.eye(nsym) - kelvin_hydrostatic(d)


# ---------------------------------------------------------------------------
# Assembly helpers
# ---------------------------------------------------------------------------


def _assemble(layout, entries):
    """Build (c, c) or (npoints, c, c) from {(bi, bj): block} entries; the
    leading shape is the broadcast of the blocks' leading shapes."""
    c = layout.ncomp
    sl = layout.slices()
    blocks = {key: np.asarray(blk) for key, blk in entries.items()}
    lead = np.broadcast_shapes(*(blk.shape[:-2] for blk in blocks.values()))
    out = np.zeros(lead + (c, c), dtype=np.complex128)
    for (bi, bj), blk in blocks.items():
        ri, rj = sl[bi], sl[bj]
        nb = (ri.stop - ri.start, rj.stop - rj.start)
        if blk.shape[-2:] != nb:
            raise ValueError(f"block {(bi, bj)} has shape {blk.shape}, expected {nb}")
        out[..., ri, rj] = blk
    return out


# ---------------------------------------------------------------------------
# Physics builders
# ---------------------------------------------------------------------------


def build_acoustics(grid, omega, kappa, rho, scale_by_omega=False):
    """Scalar-pressure acoustics on a (vector(d), scalar) layout.

    Default form stores the constitutive pairing
    ``diag(omega*rho, -kappa/omega)`` — the map from (pressure-gradient,
    pressure) pairs back to (velocity, velocity-divergence) data — which is
    the *inverse* of the canonical map, and is flagged as such.  ``rho`` may
    be a d x d matrix field (anisotropic inertia); ``kappa`` is scalar.

    With ``scale_by_omega=True`` the canonical matrix
    ``diag(-kappa * I, omega^2 * rho)`` is returned directly (the
    second-order potential form); this variant requires scalar rho.
    """
    d = grid.ndim
    layout = BlockLayout((Block("vector", d), Block("scalar")))
    kap = _coef(kappa, grid)
    if scale_by_omega:
        vals = _assemble(layout, {(0, 0): -kap * np.eye(d),
                                  (1, 1): omega**2 * _coef(rho, grid)})
        return LField(layout, vals, omega, "direct", "acoustics")
    vals = _assemble(layout, {(0, 0): omega * _as_matrix(rho, grid, d),
                              (1, 1): -kap / omega})
    return LField(layout, vals, omega, "inverse", "acoustics")


def isotropic_stiffness(d, bulk, shear):
    """(d^2, d^2) isotropic stiffness: d*bulk on hydrostatic, 2*shear on
    trace-free symmetric, zero on antisymmetric matrices."""
    return d * bulk * hydrostatic_projector(d) + 2.0 * shear * deviatoric_projector(d)


def build_elastodynamics(
    grid, omega, rho, bulk=None, shear=None, stiffness=None, coupling=None
):
    """Elastodynamics on a (matrix(d), vector(d)) layout.

    Canonical map diag(-C/omega, omega*rho) acting on scaled
    (displacement-gradient, displacement) pairs; ``stiffness`` is a full
    (d^2, d^2) tensor (row-major matrix components) or is built isotropic
    from ``bulk``/``shear``.  Optional ``coupling`` adds the off-diagonal
    (d^2, d) strain-velocity block and its adjoint (materials whose stress
    responds to velocity and momentum to strain).
    """
    d = grid.ndim
    layout = BlockLayout((Block("matrix", d), Block("vector", d)))
    if stiffness is None:
        if bulk is None or shear is None:
            raise ValueError("need stiffness or both bulk and shear")
        C = isotropic_stiffness(d, _coef(bulk, grid), _coef(shear, grid))
    else:
        C = resolve_parameter(stiffness, grid, (d * d, d * d))
    entries = {(0, 0): -C / omega, (1, 1): omega * _as_matrix(rho, grid, d)}
    if coupling is not None:
        D = resolve_parameter(coupling, grid, (d * d, d))
        entries[(0, 1)] = D
        entries[(1, 0)] = np.conj(np.swapaxes(D, -1, -2))
    return LField(layout, _assemble(layout, entries), omega, "direct", "elastodynamics")


def build_maxwell(grid, omega, epsilon, mu):
    """Time-harmonic electromagnetics on stacked (vector(3), vector(3)).

    Canonical map diag(omega*epsilon, -(omega*mu)^{-1}) acting on
    (i e, i curl e) pairs; epsilon and mu may be scalars or 3x3 tensors,
    constant or per point.
    """
    if grid.ndim != 3:
        raise ValueError("electromagnetic build requires a 3-D grid")
    layout = BlockLayout((Block("vector", 3), Block("vector", 3)))
    vals = _assemble(layout, {
        (0, 0): omega * _as_matrix(epsilon, grid, 3),
        (1, 1): -np.linalg.inv(omega * _as_matrix(mu, grid, 3)),
    })
    return LField(layout, vals, omega, "direct", "maxwell")


def build_brinkman(
    grid,
    omega,
    rho,
    eta,
    permeability,
    shear_viscosity=None,
    viscosity_matrix=None,
):
    """Viscous flow through porous structure on (packed-sym(3), vector(3)).

    Canonical map diag(i*V, -(omega*rho + i*eta*permeability^{-1})^{-1})
    acting on (stress, divergence-of-stress) pairs; V is the 6x6 viscosity
    on packed symmetric components and must commute to zero with the
    hydrostatic projector (trace-free constraint, validated).  Either give
    ``viscosity_matrix`` directly or ``shear_viscosity`` for the isotropic
    form 2*eta_s*(deviatoric projector).
    """
    if grid.ndim != 3:
        raise ValueError("viscous-flow build requires a 3-D grid")
    d = 3
    layout = BlockLayout((Block("sym", d), Block("vector", d)))
    if viscosity_matrix is None:
        if shear_viscosity is None:
            raise ValueError("need shear_viscosity or viscosity_matrix")
        V = 2.0 * _coef(shear_viscosity, grid) * kelvin_deviatoric(d)
    else:
        V = resolve_parameter(viscosity_matrix, grid, (6, 6))
    H = kelvin_hydrostatic(d)
    scale = max(np.max(np.abs(V)), 1.0)
    if np.max(np.abs(H @ V)) > 1e-10 * scale or np.max(np.abs(V @ H)) > 1e-10 * scale:
        raise ValueError("viscosity matrix must annihilate the hydrostatic subspace")
    drag = omega * _as_matrix(rho, grid, d) + 1j * _coef(eta, grid) * np.linalg.inv(
        _as_matrix(permeability, grid, d)
    )
    vals = _assemble(layout, {(0, 0): 1j * V, (1, 1): -np.linalg.inv(drag)})
    return LField(layout, vals, omega, "direct", "brinkman")


def _first_index_contraction(u, d):
    """(..., d, d^2) block contracting a vector u of shape (..., d) with the
    derivative index of a row-major matrix: out_j = sum_i u_i M_{ij}."""
    out = np.zeros(u.shape[:-1] + (d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            out[..., j, i * d + j] = u[..., i]
    return out


def build_oseen_inverse(
    grid, omega, rho, kappa, eta, eta_bulk, velocity
):
    """Linearized compressible viscous flow about a uniform background
    velocity, on a (matrix(d), vector(d)) layout.

    Returns the block matrix [[C, 0], [U., -omega*rho]] where
    C = (kappa - i*omega*eta_bulk)/3 on the hydrostatic part plus
    -2i*omega*eta on the trace-free symmetric part, and U. contracts the
    background velocity with the derivative index.  This matrix maps the
    projector-fixed (velocity-gradient, velocity) pairs to (stress,
    stress-divergence) data, i.e. it is already the canonical map, though
    the family is conventionally written via its inverse (hence the name).
    """
    d = grid.ndim
    layout = BlockLayout((Block("matrix", d), Block("vector", d)))
    kap, eb, e = (_coef(p, grid) for p in (kappa, eta_bulk, eta))
    C = ((kap - 1j * omega * eb) / 3.0) * hydrostatic_projector(d) - (
        2j * omega * e
    ) * deviatoric_projector(d)
    entries = {
        (0, 0): C,
        (1, 0): _first_index_contraction(resolve_parameter(velocity, grid, (d,)), d),
        (1, 1): -omega * _as_matrix(rho, grid, d),
    }
    return LField(layout, _assemble(layout, entries), omega, "direct", "oseen")


def build_ns_perturbation(
    grid,
    omega,
    rho,
    eta,
    background_velocity,
    penalty=None,
    stationary=False,
):
    """Flow perturbations about a divergence-free background flow, on a
    (matrix(d), vector(d)) layout.

    The gradient block carries 2*eta on trace-free symmetric parts plus a
    large penalty on the hydrostatic part (enforcing incompressibility of
    the solved perturbation as the penalty grows); the velocity block
    carries -i*omega*rho*(I + i*(grad v)^T / omega), which for
    ``stationary=True`` degenerates to rho*(grad v)^T; the off-diagonal
    block contracts rho*v with the derivative index (advection).  The
    background velocity field is differentiated spectrally, so the
    material is always per point.
    """
    d = grid.ndim
    layout = BlockLayout((Block("matrix", d), Block("vector", d)))
    e = _coef(eta, grid)
    r = _coef(rho, grid)
    v = np.broadcast_to(resolve_parameter(background_velocity, grid, (d,)),
                        (grid.npoints, d))
    if penalty is None:
        penalty = 1e8 * float(np.max(np.abs(2.0 * e)))
    # grad_v[p, i, j] = d_i v_j, computed spectrally component by component
    grad_v = np.zeros((grid.npoints, d, d), dtype=np.complex128)
    for j in range(d):
        comp = Field(grid, scalar_layout(), v[:, j : j + 1].astype(np.complex128))
        grad_v[:, :, j] = gradient(comp).values
    gvT = np.swapaxes(grad_v, -1, -2)
    if stationary:
        vel_block = r * gvT
    else:
        vel_block = -1j * omega * r * np.eye(d) + r * gvT
    entries = {
        (0, 0): 2.0 * e * deviatoric_projector(d)
        + penalty * hydrostatic_projector(d),
        (1, 0): _first_index_contraction(r[..., 0] * v, d),
        (1, 1): vel_block,
    }
    return LField(layout, _assemble(layout, entries), omega, "direct", "ns_perturbation")


def build_thermoacoustic(
    grid, omega, rho0, eta, eta_bulk, conductivity, T0, alpha0, beta_T, cp
):
    """Coupled viscous/thermal acoustics on
    (matrix(3), vector(3), vector(3), scalar) — 16 components.

    Blocks: viscous stress response i*D + tr(.) I/(omega*beta_T) with
    D = eta_bulk/3 on hydrostatic + 2*eta on trace-free symmetric parts;
    momentum -omega*rho0; heat-flux i*conductivity*T0; entropy-like slot
    omega*T0*(alpha0^2*T0/beta_T - rho0*cp); and the stress/temperature
    coupling pair (-i*alpha0*T0/beta_T) I with its negative transpose.
    """
    if grid.ndim != 3:
        raise ValueError("thermoacoustic build requires a 3-D grid")
    d = 3
    layout = BlockLayout(
        (Block("matrix", d), Block("vector", d), Block("vector", d), Block("scalar"))
    )
    p = {k: _coef(v, grid) for k, v in dict(
        rho0=rho0, eta=eta, eta_bulk=eta_bulk, conductivity=conductivity,
        T0=T0, alpha0=alpha0, beta_T=beta_T, cp=cp).items()}
    Dv = (p["eta_bulk"] / 3.0) * hydrostatic_projector(d) + 2.0 * p["eta"] * deviatoric_projector(d)
    # tr(.) I on row-major matrix components is d * hydrostatic projector
    trace_I = d * hydrostatic_projector(d)
    coup = 1j * p["alpha0"] * p["T0"] / p["beta_T"]
    eye_col = np.eye(d).reshape(d * d, 1)
    entries = {
        (0, 0): 1j * Dv + trace_I / (omega * p["beta_T"]),
        (0, 3): -coup * eye_col,
        (3, 0): coup * eye_col.T,
        (1, 1): -omega * p["rho0"] * np.eye(d),
        (2, 2): 1j * p["conductivity"] * p["T0"] * np.eye(d),
        (3, 3): omega * p["T0"] * (p["alpha0"] ** 2 * p["T0"] / p["beta_T"]
                                   - p["rho0"] * p["cp"]),
    }
    vals = _assemble(layout, entries)
    # structural self-check: the stress/temperature coupling blocks are
    # negative transposes of each other
    sl = layout.slices()
    a = vals[..., sl[0], sl[3]]
    b = vals[..., sl[3], sl[0]]
    if not np.allclose(a, -np.swapaxes(b, -1, -2), atol=1e-12 * max(1.0, np.max(np.abs(a)))):
        raise AssertionError("coupling blocks violate the anti-transpose relation")
    return LField(layout, vals, omega, "direct", "thermoacoustic")


def build_love(grid, omega, k1, mu, rho):
    """Out-of-plane shear motion of a depth-layered medium at propagation
    wavenumber k1, on a 1-D (vector(1), scalar) layout.

    Canonical map diag(mu, k1^2*mu - omega^2*rho) acting on
    (displacement-derivative, displacement) pairs.
    """
    if grid.ndim != 1:
        raise ValueError("layered shear build requires a 1-D grid")
    layout = BlockLayout((Block("vector", 1), Block("scalar")))
    m = _coef(mu, grid)
    vals = _assemble(layout, {(0, 0): m,
                              (1, 1): k1**2 * m - omega**2 * _coef(rho, grid)})
    return LField(layout, vals, omega, "direct", "love")


def build_schrodinger(grid, energy, kinetic, potential):
    """Stationary quantum material map diag(-A, E - V) on a
    (vector(ndim), scalar) layout over the (possibly multi-particle)
    coordinate grid; A is the kinetic coefficient (scalar or matrix), V the
    potential, E the energy."""
    nd = grid.ndim
    layout = BlockLayout((Block("vector", nd), Block("scalar")))
    vals = _assemble(layout, {(0, 0): -_as_matrix(kinetic, grid, nd),
                              (1, 1): energy - _coef(potential, grid)})
    return LField(layout, vals, energy, "direct", "schrodinger")


# ---------------------------------------------------------------------------
# Spec-driven construction and sources
# ---------------------------------------------------------------------------


@dataclass
class MaterialSpec:
    """Declarative material description: physics family name, frequency (or
    energy), named parameters, and builder options."""

    physics: str
    omega: complex
    params: dict
    options: dict = dc_field(default_factory=dict)


def _block_values(values, size):
    """Values for a block of ``size`` components, (npoints, size) or (size,).

    Broadcasting over points is allowed; broadcasting a shorter vector over
    the block's components is not, so a misfit force is an error.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape[-1:] != (size,):
        raise ValueError(f"expected {size} components per point, got values "
                         f"of shape {values.shape}")
    return values


def block_source(grid, layout, block_index, values, representation="real"):
    """Source field with one populated block (values: (npoints, bc) or (bc,))."""
    f = Field.zeros(grid, layout, representation)
    sl = layout.block_slice(block_index)
    f.values[:, sl] = _block_values(values, layout.blocks[block_index].ncomp)
    return f


def acoustic_source(L, force, grid):
    """Canonical source for a body force density f in scalar acoustics:
    the canonical matrix applied pointwise to (f, 0)."""
    d = grid.ndim
    fvals = np.zeros((grid.npoints, d + 1), dtype=np.complex128)
    fvals[:, :d] = _block_values(force, d)
    return Field(grid, L.layout, canonical_material(L).apply(fvals), "real")


def brinkman_source(L, force, grid):
    """Canonical source for a body force density f in porous viscous flow:
    minus the canonical matrix applied pointwise to (0, f)."""
    d = grid.ndim
    fvals = np.zeros((grid.npoints, L.layout.ncomp), dtype=np.complex128)
    fvals[:, -d:] = _block_values(force, d)
    return Field(grid, L.layout, -canonical_material(L).apply(fvals), "real")


def _force_in_block(index):
    def force_source(L, force, grid):
        return block_source(grid, L.layout, index, force)

    return force_source


@dataclass(frozen=True)
class Physics:
    """One physics family.

    Attributes
    ----------
    builder : callable
        ``builder(grid, omega, **params) -> LField``.
    projector : str
        Key of :data:`projectors.FAMILIES` naming the paired projector.
    force_source : callable
        ``force_source(L, force, grid) -> Field``: the canonical source of
        a body force density of shape (npoints, nforce).
    """

    builder: object
    projector: str
    force_source: object


PHYSICS = {
    "acoustics": Physics(build_acoustics, "helmholtz", acoustic_source),
    "elastodynamics": Physics(build_elastodynamics, "elastic", _force_in_block(1)),
    "maxwell": Physics(build_maxwell, "maxwell", _force_in_block(0)),
    "brinkman": Physics(build_brinkman, "brinkman", brinkman_source),
    "oseen": Physics(build_oseen_inverse, "elastic", _force_in_block(1)),
    "ns_perturbation": Physics(build_ns_perturbation, "elastic", _force_in_block(1)),
    "thermoacoustic": Physics(build_thermoacoustic, "thermoacoustic", _force_in_block(1)),
    "love": Physics(build_love, "surface", _force_in_block(1)),
    "schrodinger": Physics(build_schrodinger, "schrodinger", _force_in_block(1)),
}


def physics_family(physics):
    """The :class:`Physics` record registered under a family name."""
    if physics not in PHYSICS:
        raise ValueError(f"unknown physics {physics!r}; known: {sorted(PHYSICS)}")
    return PHYSICS[physics]


def build_material(spec, grid):
    """Build the material of a MaterialSpec with its family's builder."""
    kwargs = dict(spec.params)
    kwargs.update(spec.options)
    return physics_family(spec.physics).builder(grid, spec.omega, **kwargs)


def default_projector(physics, grid):
    """The projector family canonically paired with a physics name."""
    return proj.FAMILIES[physics_family(physics).projector](grid.ndim)


# ---------------------------------------------------------------------------
# Passivity and rotation analysis
# ---------------------------------------------------------------------------


@dataclass
class PassivityReport:
    ok: bool
    min_eigenvalue: float
    worst_point: int

    def __bool__(self):
        return self.ok


def passivity_check(L, tol=1e-10):
    """Check positive semidefiniteness of the anti-Hermitian part
    (L - L^dagger)/(2i) at every point; reports the minimum eigenvalue and
    the flat index of the worst point."""
    M = L.values.reshape(-1, L.ncomp, L.ncomp)
    A = (M - np.conj(np.swapaxes(M, -1, -2))) / 2j
    eigs = np.linalg.eigvalsh(A)
    mins = eigs[:, 0]
    worst = int(np.argmin(mins))
    mn = float(mins[worst])
    return PassivityReport(mn >= -tol, mn, worst)


def gibiansky_rotation(L, theta):
    """Multiply the material matrix by exp(i*theta) (new LField).

    The anti-Hermitian part of the rotated matrix interpolates between the
    anti-Hermitian (theta=0) and Hermitian (theta=pi/2) parts of L, which is
    the standard trick for restoring definiteness to loss-dominated maps.
    """
    return LField(
        L.layout, np.exp(1j * theta) * L.values, L.omega, L.orientation, L.physics
    )


def find_rotation(L, step=1e-3, tol=0.0):
    """Scan theta in (0, pi) for angles where the anti-Hermitian part of
    exp(i*theta) L is positive definite everywhere; returns the midpoint of
    the widest contiguous passing run.  Raises ValueError if no angle
    passes."""
    M = L.values.reshape(-1, L.ncomp, L.ncomp)
    Mh = np.conj(np.swapaxes(M, -1, -2))
    thetas = np.arange(step, np.pi, step)
    ok = np.zeros(len(thetas), dtype=bool)
    for idx, th in enumerate(thetas):
        A = (np.exp(1j * th) * M - np.exp(-1j * th) * Mh) / 2j
        ok[idx] = np.min(np.linalg.eigvalsh(A)) > tol
    if not ok.any():
        raise ValueError("no rotation angle makes the material dissipative-definite")
    best_len, best_start, cur_len, cur_start = 0, 0, 0, 0
    for i, flag in enumerate(ok):
        if flag:
            if cur_len == 0:
                cur_start = i
            cur_len += 1
            if cur_len > best_len:
                best_len, best_start = cur_len, cur_start
        else:
            cur_len = 0
    lo, hi = thetas[best_start], thetas[best_start + best_len - 1]
    return float((lo + hi) / 2.0)
