"""Pointwise material maps for the supported time-harmonic physics families.

Every family is reduced to the same canonical shape: a block field E that a
Fourier-space projector fixes (Gamma1 E = E), a flux field J it annihilates
(Gamma1 J = 0), and a pointwise linear map with J = L(x) E - s.  Builders
here produce :class:`LField` instances holding the per-point (or constant)
block matrix together with an orientation flag:

* ``orientation="direct"``  — the stored matrix is the canonical map
  (multiplies E);
* ``orientation="inverse"`` — the stored matrix is its pointwise inverse
  (some families are naturally written that way round); problem assembly
  inverts blockwise before solving.

Material parameters may be scalars, per-point arrays, small constant
matrices, callables of the point coordinates, or the descriptor classes
(:class:`Constant`, :class:`Layered`, :class:`Checkerboard`, :class:`Voxel`).

:data:`PHYSICS` holds one :class:`Physics` record per family (builder,
projector family, force-to-source map); it is the only place a family is
declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import Block, BlockLayout, Field, gradient, scalar_layout
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


def resolve_parameter(value, grid, shape=()):
    """Resolve a parameter to a constant of shape ``shape`` or a per-point
    array of shape ``(npoints,) + shape``.

    Accepts scalars, arrays (constant, flat per-point, or grid-shaped),
    callables of the (npoints, ndim) coordinate array, and descriptors.
    """
    if isinstance(value, Constant):
        value = value.value
    if isinstance(value, (Layered, Checkerboard, Voxel)):
        out = np.asarray(value.evaluate(grid))
    elif callable(value):
        out = np.asarray(value(grid.coordinates()))
    else:
        out = np.asarray(value)
        if out.shape == shape:
            return out if shape else complex(out)
        if out.shape[: grid.ndim] == grid.dims and out.shape[grid.ndim :] == shape:
            out = out.reshape((grid.npoints,) + shape)
    if out.shape == (grid.npoints,) + shape:
        return out
    if shape == () and out.shape == ():
        return complex(out)
    raise ValueError(
        f"cannot interpret parameter of shape {np.shape(value)} as a field of "
        f"shape {shape} on {grid.npoints} points"
    )


def _varying(arr, shape):
    return isinstance(arr, np.ndarray) and arr.ndim == len(shape) + 1


def _per_point(arr, grid, shape):
    """Broadcast a resolved parameter to (npoints,) + shape."""
    if _varying(arr, shape):
        return arr
    return np.broadcast_to(np.asarray(arr), (grid.npoints,) + shape)


def _as_matrix(param, grid, d):
    """Resolve a scalar-or-matrix parameter to a constant (d, d) matrix or a
    per-point (npoints, d, d) array."""
    try:
        m = resolve_parameter(param, grid, (d, d))
        return m
    except ValueError:
        s = resolve_parameter(param, grid, ())
        if _varying(s, ()):
            return s[:, None, None] * np.eye(d)
        return complex(s) * np.eye(d)


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
        if values.shape != (c, c) and not (
            values.ndim == 3 and values.shape[1:] == (c, c)
        ):
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
        if self.is_constant:
            return values @ self.values.T
        return np.einsum("pij,pj->pi", self.values, values)

    def apply_adjoint(self, values):
        if self.is_constant:
            return values @ np.conj(self.values)
        return np.einsum("pji,pj->pi", np.conj(self.values), values)

    def matrices(self, npoints):
        """Per-point matrices as a (npoints, c, c) view/array."""
        if self.is_constant:
            return np.broadcast_to(self.values, (npoints,) + self.values.shape)
        return self.values

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


def _assemble(grid, layout, entries, varying):
    """Build (c, c) or (npoints, c, c) from {(bi, bj): block} entries."""
    c = layout.ncomp
    sl = layout.slices()
    if varying:
        out = np.zeros((grid.npoints, c, c), dtype=np.complex128)
    else:
        out = np.zeros((c, c), dtype=np.complex128)
    for (bi, bj), blk in entries.items():
        if blk is None:
            continue
        blk = np.asarray(blk, dtype=np.complex128)
        ri, rj = sl[bi], sl[bj]
        nb = (ri.stop - ri.start, rj.stop - rj.start)
        if varying:
            if blk.ndim == 2:
                blk = np.broadcast_to(blk, (grid.npoints,) + blk.shape)
            out[:, ri, rj] = blk
        else:
            if blk.shape != nb:
                raise ValueError(f"block {(bi, bj)} has shape {blk.shape}, expected {nb}")
            out[ri, rj] = blk
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
    kap = resolve_parameter(kappa, grid, ())
    if scale_by_omega:
        r = resolve_parameter(rho, grid, ())
        varying = _varying(kap, ()) or _varying(r, ())
        if varying:
            kap_p = _per_point(kap, grid, ())
            r_p = _per_point(r, grid, ())
            vv = -kap_p[:, None, None] * np.eye(d)
            ss = (omega**2 * r_p)[:, None, None]
        else:
            vv = -kap * np.eye(d)
            ss = np.array([[omega**2 * r]])
        vals = _assemble(grid, layout, {(0, 0): vv, (1, 1): ss}, varying)
        return LField(layout, vals, omega, "direct", "acoustics")
    r = _as_matrix(rho, grid, d)
    varying = _varying(kap, ()) or _varying(r, (d, d))
    if varying:
        r_p = _per_point(r, grid, (d, d))
        kap_p = _per_point(kap, grid, ())
        vv = omega * r_p
        ss = (-kap_p / omega)[:, None, None]
    else:
        vv = omega * r
        ss = np.array([[-kap / omega]])
    vals = _assemble(grid, layout, {(0, 0): vv, (1, 1): ss}, varying)
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
        b = resolve_parameter(bulk, grid, ())
        s = resolve_parameter(shear, grid, ())
        if _varying(b, ()) or _varying(s, ()):
            b_p = _per_point(b, grid, ())[:, None, None]
            s_p = _per_point(s, grid, ())[:, None, None]
            C = d * b_p * hydrostatic_projector(d) + 2.0 * s_p * deviatoric_projector(d)
        else:
            C = isotropic_stiffness(d, b, s)
    else:
        C = resolve_parameter(stiffness, grid, (d * d, d * d))
    r = _as_matrix(rho, grid, d)
    D = None if coupling is None else resolve_parameter(coupling, grid, (d * d, d))
    varying = any(_varying(a, sh) for a, sh in
                  ((C, (d * d, d * d)), (r, (d, d)))) or (
        D is not None and _varying(D, (d * d, d))
    )
    if varying:
        C = _per_point(C, grid, (d * d, d * d))
        r = _per_point(r, grid, (d, d))
        if D is not None:
            D = _per_point(D, grid, (d * d, d))
    entries = {(0, 0): -C / omega, (1, 1): omega * r}
    if D is not None:
        entries[(0, 1)] = D
        entries[(1, 0)] = np.conj(np.swapaxes(D, -1, -2))
    vals = _assemble(grid, layout, entries, varying)
    return LField(layout, vals, omega, "direct", "elastodynamics")


def build_maxwell(grid, omega, epsilon, mu):
    """Time-harmonic electromagnetics on stacked (vector(3), vector(3)).

    Canonical map diag(omega*epsilon, -(omega*mu)^{-1}) acting on
    (i e, i curl e) pairs; epsilon and mu may be scalars or 3x3 tensors,
    constant or per point.
    """
    if grid.ndim != 3:
        raise ValueError("electromagnetic build requires a 3-D grid")
    layout = BlockLayout((Block("vector", 3), Block("vector", 3)))
    eps = _as_matrix(epsilon, grid, 3)
    m = _as_matrix(mu, grid, 3)
    varying = _varying(eps, (3, 3)) or _varying(m, (3, 3))
    if varying:
        eps = _per_point(eps, grid, (3, 3))
        m = _per_point(m, grid, (3, 3))
    vals = _assemble(
        grid,
        layout,
        {(0, 0): omega * eps, (1, 1): -np.linalg.inv(omega * m)},
        varying,
    )
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
        sv = resolve_parameter(shear_viscosity, grid, ())
        V = (
            2.0 * _per_point(sv, grid, ())[:, None, None] * kelvin_deviatoric(d)
            if _varying(sv, ())
            else 2.0 * sv * kelvin_deviatoric(d)
        )
    else:
        V = resolve_parameter(viscosity_matrix, grid, (6, 6))
    H = kelvin_hydrostatic(d)
    scale = max(np.max(np.abs(V)), 1.0)
    if np.max(np.abs(H @ V)) > 1e-10 * scale or np.max(np.abs(V @ H)) > 1e-10 * scale:
        raise ValueError("viscosity matrix must annihilate the hydrostatic subspace")
    r = _as_matrix(rho, grid, d)
    e = resolve_parameter(eta, grid, ())
    kperm = _as_matrix(permeability, grid, d)
    varying = (
        _varying(V, (6, 6))
        or _varying(r, (d, d))
        or _varying(e, ())
        or _varying(kperm, (d, d))
    )
    if varying:
        V = _per_point(V, grid, (6, 6))
        r = _per_point(r, grid, (d, d))
        e = _per_point(e, grid, ())[:, None, None]
        kperm = _per_point(kperm, grid, (d, d))
    else:
        e = complex(e)
    drag = omega * r + 1j * e * np.linalg.inv(kperm)
    vals = _assemble(
        grid, layout, {(0, 0): 1j * V, (1, 1): -np.linalg.inv(drag)}, varying
    )
    return LField(layout, vals, omega, "direct", "brinkman")


def _first_index_contraction(u, d):
    """(d, d^2) block contracting a vector with the derivative index of a
    row-major matrix: out_j = sum_i u_i M_{ij}."""
    per_point = u.ndim == 2
    if per_point:
        npts = u.shape[0]
        out = np.zeros((npts, d, d * d), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                out[:, j, i * d + j] = u[:, i]
    else:
        out = np.zeros((d, d * d), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                out[j, i * d + j] = u[i]
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
    kap = resolve_parameter(kappa, grid, ())
    eb = resolve_parameter(eta_bulk, grid, ())
    e = resolve_parameter(eta, grid, ())
    r = _as_matrix(rho, grid, d)
    u = resolve_parameter(velocity, grid, (d,))
    varying = any(
        _varying(a, sh)
        for a, sh in ((kap, ()), (eb, ()), (e, ()), (r, (d, d)), (u, (d,)))
    )
    if varying:
        kap = _per_point(kap, grid, ())[:, None, None]
        eb = _per_point(eb, grid, ())[:, None, None]
        e = _per_point(e, grid, ())[:, None, None]
        r = _per_point(r, grid, (d, d))
        u = _per_point(u, grid, (d,))
    C = ((kap - 1j * omega * eb) / 3.0) * hydrostatic_projector(d) - (
        2j * omega * e
    ) * deviatoric_projector(d)
    entries = {
        (0, 0): C,
        (1, 0): _first_index_contraction(np.asarray(u), d),
        (1, 1): -omega * r,
    }
    vals = _assemble(grid, layout, entries, varying)
    return LField(layout, vals, omega, "direct", "oseen")


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
    background velocity field is differentiated spectrally.
    """
    d = grid.ndim
    layout = BlockLayout((Block("matrix", d), Block("vector", d)))
    e = resolve_parameter(eta, grid, ())
    r = resolve_parameter(rho, grid, ())
    v = _per_point(resolve_parameter(background_velocity, grid, (d,)), grid, (d,))
    if penalty is None:
        penalty = 1e8 * float(np.max(np.abs(2.0 * np.atleast_1d(e))))
    # grad_v[p, i, j] = d_i v_j, computed spectrally component by component
    grad_v = np.zeros((grid.npoints, d, d), dtype=np.complex128)
    for j in range(d):
        comp = Field(grid, scalar_layout(), v[:, j : j + 1].astype(np.complex128))
        grad_v[:, :, j] = gradient(comp).values
    e_p = _per_point(e, grid, ())[:, None, None]
    r_p = _per_point(r, grid, ())[:, None, None]
    gvT = np.swapaxes(grad_v, -1, -2)
    if stationary:
        vel_block = r_p * gvT
    else:
        vel_block = -1j * omega * r_p * np.eye(d) + r_p * gvT
    entries = {
        (0, 0): 2.0 * e_p * deviatoric_projector(d)
        + penalty * hydrostatic_projector(d),
        (1, 0): _first_index_contraction(r_p[:, :, 0] * v, d),
        (1, 1): vel_block,
    }
    vals = _assemble(grid, layout, entries, True)
    return LField(layout, vals, omega, "direct", "ns_perturbation")


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
    names = dict(
        rho0=rho0, eta=eta, eta_bulk=eta_bulk, conductivity=conductivity,
        T0=T0, alpha0=alpha0, beta_T=beta_T, cp=cp,
    )
    res = {k: resolve_parameter(v, grid, ()) for k, v in names.items()}
    varying = any(_varying(a, ()) for a in res.values())
    if varying:
        res = {k: _per_point(a, grid, ())[:, None, None] for k, a in res.items()}
    p = res
    Dv = (p["eta_bulk"] / 3.0) * hydrostatic_projector(d) + 2.0 * p["eta"] * deviatoric_projector(d)
    # tr(.) I on row-major matrix components is d * hydrostatic projector
    trace_I = d * hydrostatic_projector(d)
    coup = 1j * p["alpha0"] * p["T0"] / p["beta_T"]
    eye_col = np.eye(d).reshape(d * d, 1)
    col = -coup * eye_col
    row = coup * eye_col.T
    entries = {
        (0, 0): 1j * Dv + trace_I / (omega * p["beta_T"]),
        (0, 3): col,
        (3, 0): row,
        (1, 1): -omega * p["rho0"] * np.eye(d),
        (2, 2): 1j * p["conductivity"] * p["T0"] * np.eye(d),
        (3, 3): np.reshape(
            omega * p["T0"] * (p["alpha0"] ** 2 * p["T0"] / p["beta_T"]
                               - p["rho0"] * p["cp"]),
            (-1, 1, 1) if varying else (1, 1),
        ),
    }
    vals = _assemble(grid, layout, entries, varying)
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
    m = resolve_parameter(mu, grid, ())
    r = resolve_parameter(rho, grid, ())
    varying = _varying(m, ()) or _varying(r, ())
    if varying:
        m = _per_point(m, grid, ())
        r = _per_point(r, grid, ())
        vals = np.zeros((grid.npoints, 2, 2), dtype=np.complex128)
        vals[:, 0, 0] = m
        vals[:, 1, 1] = k1**2 * m - omega**2 * r
    else:
        vals = np.diag([m, k1**2 * m - omega**2 * r]).astype(np.complex128)
    return LField(layout, vals, omega, "direct", "love")


def build_schrodinger(grid, energy, kinetic, potential):
    """Stationary quantum material map diag(-A, E - V) on a
    (vector(ndim), scalar) layout over the (possibly multi-particle)
    coordinate grid; A is the kinetic coefficient (scalar or matrix), V the
    potential, E the energy."""
    nd = grid.ndim
    layout = BlockLayout((Block("vector", nd), Block("scalar")))
    A = _as_matrix(kinetic, grid, nd)
    V = resolve_parameter(potential, grid, ())
    varying = _varying(A, (nd, nd)) or _varying(V, ())
    if varying:
        A = _per_point(A, grid, (nd, nd))
        V = _per_point(V, grid, ())
        vals = np.zeros((grid.npoints, nd + 1, nd + 1), dtype=np.complex128)
        vals[:, :nd, :nd] = -A
        vals[:, nd, nd] = energy - V
    else:
        vals = np.zeros((nd + 1, nd + 1), dtype=np.complex128)
        vals[:nd, :nd] = -A
        vals[nd, nd] = energy - V
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


def block_source(grid, layout, block_index, values, representation="real"):
    """Source field with one populated block (values: (npoints, bc) or (bc,))."""
    f = Field.zeros(grid, layout, representation)
    sl = layout.block_slice(block_index)
    f.values[:, sl] = np.asarray(values, dtype=np.complex128)
    return f


def acoustic_source(L, force, grid):
    """Canonical source for a body force density f in scalar acoustics:
    the canonical matrix applied pointwise to (f, 0)."""
    Lc = canonical_material(L)
    d = grid.ndim
    fvals = np.zeros((grid.npoints, d + 1), dtype=np.complex128)
    fvals[:, :d] = np.asarray(force, dtype=np.complex128)
    return Field(grid, L.layout, Lc.apply(fvals), "real")


def brinkman_source(L, force, grid):
    """Canonical source for a body force density f in porous viscous flow:
    minus the canonical matrix applied pointwise to (0, f)."""
    Lc = canonical_material(L)
    d = grid.ndim
    fvals = np.zeros((grid.npoints, L.layout.ncomp), dtype=np.complex128)
    fvals[:, -d:] = np.asarray(force, dtype=np.complex128)
    return Field(grid, L.layout, -Lc.apply(fvals), "real")


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


def default_projector(physics, grid, k1=0.0):
    """The projector family canonically paired with a physics name."""
    return proj.FAMILIES[physics_family(physics).projector](grid.ndim, k1)


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
    M = L.values if not L.is_constant else L.values[None]
    A = (M - np.conj(np.swapaxes(M, -1, -2))) / 2j
    eigs = np.linalg.eigvalsh(A)
    mins = eigs[:, 0]
    worst = int(np.argmin(mins))
    mn = float(mins[worst])
    return PassivityReport(mn >= -tol, mn, worst if not L.is_constant else 0)


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
    M = L.values if not L.is_constant else L.values[None]
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
