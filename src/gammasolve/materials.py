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

Material parameters and forces are read by one reader,
:func:`resolve_parameter`: scalars, small constant matrices, per-point or
grid-shaped arrays, callables of the point coordinates, real-space fields on
the same grid, or the descriptor classes (:class:`Constant`,
:class:`Layered`, :class:`Checkerboard`, :class:`Voxel`).

Shape rule: a composite is a few phases with L constant on each, so a
material is stored per phase.  Each parameter resolves to a constant or to
a table of values with a per-point index into it: :class:`Layered` and
:class:`Checkerboard` supply their phases directly, while every other
per-point value gets its phases from the distinct values of each component.
A builder's phases are the distinct combinations of its parameters'
indices (one ``np.unique`` over a mixed-radix code), and the
builder is written once, as numpy broadcasting over a parameter's leading
shape: a scalar parameter enters as ``(1, 1)`` or ``(nphase, 1, 1)``, a
matrix one as ``(d, d)`` or ``(nphase, d, d)``, and the assembled table
takes the broadcast of its blocks' leading shapes.  The result is ``(c, c)``
when every parameter is constant, ``(nphase, c, c)`` with a point index
otherwise, and ``(npoints, c, c)`` per point when a table would not pay
(see :class:`LField`).  :meth:`LField.apply` multiplies once per phase, or
per point through :func:`fields._pointwise`.

:data:`PHYSICS` holds one :class:`Physics` record per family (builder,
projector family, force-to-source map); it is the only place a family is
declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import Field, _pointwise, gradient, scalar_layout
from . import projectors as proj

__all__ = [
    "Constant",
    "Layered",
    "Checkerboard",
    "Voxel",
    "resolve_parameter",
    "ParameterError",
    "MaterialSpec",
    "MIN_PHASE_POINTS",
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
    value than breakpoints.  The breakpoints must be finite and
    non-decreasing; two equal ones leave an empty layer.
    """

    axis: int
    breakpoints: tuple
    values: tuple

    def phases(self, grid):
        """``(values, index)``: the layer values and each point's layer."""
        if not (isinstance(self.axis, (int, np.integer)) and not isinstance(self.axis, bool)
                and 0 <= self.axis < grid.ndim):
            raise ValueError(f"layered axis must be an integer in 0..{grid.ndim - 1}, "
                             f"got {self.axis!r}")
        bp = np.asarray(self.breakpoints, dtype=float)
        if len(self.values) != len(bp) + 1:
            raise ValueError("layered profile needs len(values) == len(breakpoints)+1")
        if not (np.isfinite(bp).all() and (np.diff(bp) >= 0).all()):
            raise ValueError(f"layered breakpoints must be finite and non-decreasing, "
                             f"got {self.breakpoints!r}")
        region = np.searchsorted(bp, grid.axis_coordinates(self.axis), side="right")
        return np.asarray(self.values), np.broadcast_to(region, grid.dims).ravel()


@dataclass(frozen=True)
class Checkerboard:
    """Two-phase checkerboard: each axis is split in half and the phase is
    the parity of the half-counts, giving 2^ndim alternating cells."""

    values: tuple

    def phases(self, grid):
        """``(values, index)``: the two phase values and each point's phase."""
        if len(self.values) != 2:
            raise ValueError("checkerboard takes exactly two phase values")
        halves = sum(np.floor(2.0 * grid.axis_coordinates(axis) / length).astype(int)
                     for axis, length in enumerate(grid.lengths))
        return np.asarray(self.values), np.broadcast_to(halves % 2, grid.dims).ravel()


@dataclass(frozen=True)
class Voxel:
    """Explicit values, read by the same rules as an array parameter (see
    :func:`resolve_parameter`): one constant value, one value per point
    (flat ``(npoints, ...)``) or grid-shaped."""

    values: object


def resolve_parameter(value, grid, shape=()):
    """Read a value given on ``grid`` as a constant of shape ``shape`` or a
    per-point array of shape ``(npoints,) + shape``.

    The one reader of every value a caller gives on a grid: material
    parameters, potentials, forces, Bloch modulations and V'.  It accepts a number; an
    array that is constant (shape ``shape``), flat per point or grid-shaped
    (``grid.dims + shape``); a callable of the (npoints, ndim) coordinate
    array that returns one of those; the descriptors :class:`Constant`,
    :class:`Layered`, :class:`Checkerboard` and :class:`Voxel`; and a
    :class:`Field` on ``grid`` with one component per entry of ``shape``
    (read in real space).  Anything else raises ValueError, among them a
    field on another grid and an array whose shape fits none of these, such
    as a one-entry array for a per-point value.  A scalar constant comes
    back as a Python ``complex``, anything else as an ndarray.
    """
    if isinstance(value, Constant):
        value = value.value
    if isinstance(value, (Layered, Checkerboard)):
        table, index = value.phases(grid)
        value = table[index]
    elif isinstance(value, Voxel):
        value = value.values
    elif isinstance(value, Field):
        if value.grid != grid or value.layout.ncomp != math.prod(shape):
            raise ValueError(f"cannot read a {value.layout.ncomp}-component field on "
                             f"{value.grid} as {_kind(shape)} on {grid}")
        value = value.to_real().values.reshape((grid.npoints,) + shape)
    elif callable(value):
        value = value(grid.coordinates())
    out = np.asarray(value)
    if out.shape == shape:
        return out if shape else complex(out)
    if out.shape[: grid.ndim] == grid.dims and out.shape[grid.ndim :] == shape:
        return out.reshape((grid.npoints,) + shape)
    if out.shape == (grid.npoints,) + shape:
        return out
    raise ValueError(f"cannot read values of shape {out.shape} as {_kind(shape)}, "
                     f"constant or one per point of {grid.npoints}")


def _kind(shape):
    """Values of ``shape`` as an error message names them."""
    return f"{math.prod(shape)} components of shape {shape}" if shape else "scalars"


class ParameterError(ValueError):
    """A parameter (of a material, or a modulation or V') that cannot be
    read: ``name`` is its keyword argument and ``reason`` what is wrong
    with it."""

    def __init__(self, name, reason):
        super().__init__(f"parameter {name!r}: {reason}")
        self.name, self.reason = name, reason


def _read(name, reader, value, grid, *shapes):
    """``reader(value, grid, *shapes)``, with a ValueError raised again as a
    :class:`ParameterError` that names the parameter."""
    try:
        return reader(value, grid, *shapes)
    except ValueError as exc:
        raise ParameterError(name, str(exc)) from exc


# A builder keeps the phase table when the phases average at least this many
# points each: one matrix product per phase then costs less than the
# per-point product over a dense (npoints, c, c) array.  On a grid of fewer
# than twice as many points no table of two or more phases pays, and the
# search for phases is skipped.
MIN_PHASE_POINTS = 128
# Mixed-radix phase codes are compacted before they could leave int64.
_CODE_LIMIT = 2**62


def _table_pays(nphase, npoints):
    """Whether ``nphase`` phases on ``npoints`` points are kept as a table
    (one phase is a constant)."""
    return nphase == 1 or nphase * MIN_PHASE_POINTS <= npoints


def _parameter(value, grid, *shapes):
    """A parameter as ``(table, index)`` in the first of ``shapes`` (default
    scalar) it fits: a constant of that shape with index None, or a table
    ``(n,) + shape`` and each point's row in it.

    Each shape is tried with :func:`resolve_parameter`, after a callable is
    evaluated once.  :class:`Layered` and :class:`Checkerboard` supply their
    phases directly, which costs less than finding them again; every other
    per-point value gets its phases from its distinct values
    (:func:`_point_phases`).
    """
    shapes = shapes or ((),)
    if isinstance(value, (Layered, Checkerboard)):
        table, index = value.phases(grid)
        if table.shape[1:] not in shapes:
            raise ValueError(f"cannot read phase values of shape "
                             f"{table.shape[1:]} as values of shape {shapes[0]}")
        return table, index
    if callable(value):
        value = value(grid.coordinates())
    for shape in shapes:
        try:
            out = resolve_parameter(value, grid, shape)
        except ValueError:
            if shape == shapes[-1]:
                raise
            continue
        return (out, None) if np.shape(out) == shape else _point_phases(out)


def _point_phases(values):
    """``(table, index)`` of per-point values ``(npoints,) + shape``: one
    ``np.unique`` per component, joined by :func:`_joint_index`.  A
    component with more distinct values than a table holds (see
    :func:`_table_pays`), or a grid too small for any table, returns the
    values as given with index ``arange(npoints)``, which keeps the material
    per point."""
    npoints = len(values)
    if not _table_pays(2, npoints):
        return values, np.arange(npoints)
    columns = []
    for component in values.reshape(npoints, -1).T:
        _, first, index = np.unique(component, return_index=True, return_inverse=True)
        if not _table_pays(len(first), npoints):
            return values, np.arange(npoints)
        columns.append((index, len(first)))
    if len(columns) > 1:
        index, first = _joint_index(columns)
    return values[first], index


def _joint_index(columns):
    """Each point's row among the distinct combinations of per-point
    indices given as ``(index, radix)`` pairs, and the first point of each
    combination: one ``np.unique`` over a mixed-radix code."""
    code, radix = 0, 1
    for index, n in columns:
        if radix > _CODE_LIMIT // n:
            code = np.unique(code, return_inverse=True)[1]
            radix = int(code.max()) + 1
        code, radix = code * n + index, radix * n
    _, first, index = np.unique(code, return_index=True, return_inverse=True)
    return index, first


def _phases(grid, **params):
    """The joint phases of a builder's parameters, each given as
    ``name=(value, *shapes)`` and read by :func:`_parameter`; one that
    cannot be read raises :class:`ParameterError` with its name.

    Returns ``(index, values)`` with one row per phase in each varying
    parameter's value; ``index`` is None when no parameter varies or all
    points share one phase (the values are then constants), and when the
    phases are too many for a table or the grid too small for one (the
    values are then per point).
    """
    params = {name: _read(name, _parameter, value, grid, *shapes)
              for name, (value, *shapes) in params.items()}
    varying = [(index, len(table)) for table, index in params.values()
               if index is not None]
    if not varying:
        return None, {k: table for k, (table, _) in params.items()}
    index, rows = None, slice(None)
    if _table_pays(2, grid.npoints):
        index, first = _joint_index(varying)
        if len(first) == 1:
            index, rows = None, first[0]
        elif _table_pays(len(first), grid.npoints):
            rows = first
        else:
            index = None
    return index, {k: table if i is None else table[i[rows]]
                   for k, (table, i) in params.items()}


def _coef(value):
    """A scalar (or per-phase scalars) as (1, 1) (or (n, 1, 1)), so that it
    scales a block by broadcasting."""
    return np.asarray(value)[..., None, None]


def _matrix(value, d):
    """A scalar-or-matrix parameter value as (d, d) or (n, d, d); a scalar
    is a multiple of the identity."""
    return value if np.ndim(value) >= 2 else _coef(value) * np.eye(d)


# ---------------------------------------------------------------------------
# Material fields
# ---------------------------------------------------------------------------


class LField:
    """Block material matrix L(x) in one of three forms.

    * constant: ``values`` is one ``(c, c)`` matrix and ``index`` is None;
    * phase table: ``values`` is ``(nphase, c, c)`` and ``index`` an
      ``(npoints,)`` integer array; the matrix at point x is
      ``values[index[x]]``;
    * per point: ``values`` is ``(npoints, c, c)`` and ``index`` is None.

    The builders choose the form from their input alone: constant when all
    points share one value of every parameter; a phase table when the
    distinct joint parameter values average at least
    :data:`MIN_PHASE_POINTS` points each, as for a composite of a few
    phases however it is given; per point otherwise, where one matrix
    product per phase would cost more than the per-point product: matrices
    nearly all distinct (a smooth callable, ``ns_perturbation``'s velocity
    gradient) or a grid of fewer than ``2 * MIN_PHASE_POINTS`` points, on
    which no search for phases is made.  ``LField(layout, values)`` keeps
    the form it is given.  Every builder's matrices are square; a map of
    the ``c`` components onto ``m != c`` others, as a solver's restriction
    of a material to its range, has ``(m, c)`` matrices and only applies.

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
    index : ndarray of int or None
        Each point's row of ``values`` (phase table only).
    """

    __slots__ = ("layout", "values", "omega", "orientation", "physics", "index",
                 "_phase_points")

    def __init__(self, layout, values, omega=0.0, orientation="direct", physics="",
                 index=None):
        if orientation not in ("direct", "inverse"):
            raise ValueError(f"unknown orientation {orientation!r}")
        values = np.asarray(values, dtype=np.complex128)
        c = layout.ncomp
        if values.ndim not in (2, 3) or values.shape[-1] != c:
            raise ValueError(f"values shape {values.shape} incompatible with ncomp={c}")
        if index is not None:
            index = np.asarray(index)
            if (values.ndim != 3 or index.ndim != 1 or index.dtype.kind not in "iu"
                    or index.min() < 0 or index.max() >= len(values)):
                raise ValueError("a phase index needs (nphase, c, c) values and one "
                                 "row number in range(nphase) per point")
        self.layout = layout
        self.values = values
        self.omega = omega
        self.orientation = orientation
        self.physics = physics
        self.index = index
        self._phase_points = None

    @property
    def ncomp(self):
        return self.layout.ncomp

    @property
    def is_constant(self):
        return self.values.ndim == 2

    @property
    def npoints(self):
        """The number of grid points the material covers (None when it is
        constant)."""
        if self.is_constant:
            return None
        return len(self.values) if self.index is None else len(self.index)

    def apply(self, values):
        """Pointwise matrix action on component vectors (npoints, c); a
        phase table takes exactly one vector per indexed point."""
        return self._apply(self.values, values)

    def apply_adjoint(self, values):
        return self._apply(np.conj(np.swapaxes(self.values, -1, -2)), values)

    def _apply(self, matrices, values):
        if self.index is None:
            return _pointwise(matrices, values)
        if len(values) != self.npoints:
            raise ValueError(f"a phase table on {self.npoints} points cannot apply "
                             f"to {len(values)} points")
        out = np.empty((len(values), matrices.shape[-2]), np.result_type(values, matrices))
        for M, points in zip(matrices, self._points()):
            out[points] = values.take(points, axis=0) @ M.T
        return out

    def with_matrices(self, layout, values):
        """The map with ``values`` (one matrix per phase, or the same form
        as this one's) in place of this one's matrices, on the same phase
        index and sharing its per-phase point lists once they are made."""
        out = LField(layout, values, index=self.index)
        out._phase_points = self._phase_points
        return out

    def _points(self):
        """Each phase's points (in increasing order), computed on first
        use."""
        if self._phase_points is None:
            order = np.argsort(self.index, kind="stable")
            counts = np.bincount(self.index, minlength=len(self.values))
            self._phase_points = np.split(order, np.cumsum(counts)[:-1])
        return self._phase_points

    def mean(self):
        """The mean of L(x) over the grid points (count-weighted over a
        phase table)."""
        if self.index is None:
            return self.values if self.is_constant else self.values.mean(axis=0)
        counts = np.bincount(self.index, minlength=len(self.values))
        return np.tensordot(counts, self.values, 1) / len(self.index)

    def __repr__(self):
        if self.index is not None:
            kind = f"{len(self.values)} phases"
        else:
            kind = "constant" if self.is_constant else "varying"
        return (
            f"LField({self.physics or 'generic'}, ncomp={self.ncomp}, {kind}, "
            f"{self.orientation})"
        )


def invert_blockwise(L):
    """Pointwise inverse of the block matrix (once per phase); flips the
    orientation flag."""
    flipped = "inverse" if L.orientation == "direct" else "direct"
    return LField(L.layout, np.linalg.inv(L.values), L.omega, flipped, L.physics, L.index)


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
    layout = proj.helmholtz_D(d).layout
    rho_shapes = ((),) if scale_by_omega else ((d, d), ())
    index, p = _phases(grid, kappa=(kappa,), rho=(rho, *rho_shapes))
    kap = _coef(p["kappa"])
    if scale_by_omega:
        vals = _assemble(layout, {(0, 0): -kap * np.eye(d),
                                  (1, 1): omega**2 * _coef(p["rho"])})
        return LField(layout, vals, omega, "direct", "acoustics", index)
    vals = _assemble(layout, {(0, 0): omega * _matrix(p["rho"], d),
                              (1, 1): -kap / omega})
    return LField(layout, vals, omega, "inverse", "acoustics", index)


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
    layout = proj.gradient_D(d).layout
    params = {"rho": (rho, (d, d), ())}
    if stiffness is None:
        if bulk is None or shear is None:
            raise ValueError("need stiffness or both bulk and shear")
        params.update(bulk=(bulk,), shear=(shear,))
    else:
        params["stiffness"] = (stiffness, (d * d, d * d))
    if coupling is not None:
        params["coupling"] = (coupling, (d * d, d))
    index, p = _phases(grid, **params)
    if stiffness is None:
        C = isotropic_stiffness(d, _coef(p["bulk"]), _coef(p["shear"]))
    else:
        C = p["stiffness"]
    entries = {(0, 0): -C / omega, (1, 1): omega * _matrix(p["rho"], d)}
    if coupling is not None:
        D = p["coupling"]
        entries[(0, 1)] = D
        entries[(1, 0)] = np.conj(np.swapaxes(D, -1, -2))
    return LField(layout, _assemble(layout, entries), omega, "direct", "elastodynamics",
                  index)


def build_maxwell(grid, omega, epsilon, mu):
    """Time-harmonic electromagnetics on stacked (vector(3), vector(3)).

    Canonical map diag(omega*epsilon, -(omega*mu)^{-1}) acting on
    (i e, i curl e) pairs; epsilon and mu may be scalars or 3x3 tensors,
    constant or per point.
    """
    if grid.ndim != 3:
        raise ValueError("electromagnetic build requires a 3-D grid")
    layout = proj.maxwell_D().layout
    index, p = _phases(grid, epsilon=(epsilon, (3, 3), ()), mu=(mu, (3, 3), ()))
    vals = _assemble(layout, {
        (0, 0): omega * _matrix(p["epsilon"], 3),
        (1, 1): -np.linalg.inv(omega * _matrix(p["mu"], 3)),
    })
    return LField(layout, vals, omega, "direct", "maxwell", index)


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
    layout = proj.stress_D(d).layout
    params = {"rho": (rho, (d, d), ()), "eta": (eta,),
              "permeability": (permeability, (d, d), ())}
    if viscosity_matrix is None:
        if shear_viscosity is None:
            raise ValueError("need shear_viscosity or viscosity_matrix")
        params["shear_viscosity"] = (shear_viscosity,)
    else:
        params["viscosity_matrix"] = (viscosity_matrix, (6, 6))
    index, p = _phases(grid, **params)
    if viscosity_matrix is None:
        V = 2.0 * _coef(p["shear_viscosity"]) * kelvin_deviatoric(d)
    else:
        V, H = p["viscosity_matrix"], kelvin_hydrostatic(d)
        scale = max(np.max(np.abs(V)), 1.0)
        if np.max(np.abs(H @ V)) > 1e-10 * scale or np.max(np.abs(V @ H)) > 1e-10 * scale:
            raise ParameterError("viscosity_matrix",
                                 "must annihilate the hydrostatic subspace")
    drag = omega * _matrix(p["rho"], d) + 1j * _coef(p["eta"]) * np.linalg.inv(
        _matrix(p["permeability"], d)
    )
    vals = _assemble(layout, {(0, 0): 1j * V, (1, 1): -np.linalg.inv(drag)})
    return LField(layout, vals, omega, "direct", "brinkman", index)


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
    layout = proj.gradient_D(d).layout
    index, p = _phases(grid, kappa=(kappa,), eta_bulk=(eta_bulk,), eta=(eta,),
                       velocity=(velocity, (d,)), rho=(rho, (d, d), ()))
    kap, eb, e = (_coef(p[k]) for k in ("kappa", "eta_bulk", "eta"))
    C = ((kap - 1j * omega * eb) / 3.0) * hydrostatic_projector(d) - (
        2j * omega * e
    ) * deviatoric_projector(d)
    entries = {
        (0, 0): C,
        (1, 0): _first_index_contraction(np.asarray(p["velocity"]), d),
        (1, 1): -omega * _matrix(p["rho"], d),
    }
    return LField(layout, _assemble(layout, entries), omega, "direct", "oseen", index)


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
    background velocity field is differentiated spectrally; a varying flow
    has a gradient that differs from point to point, so its material is per
    point (see :class:`LField`).
    """
    d = grid.ndim
    layout = proj.gradient_D(d).layout
    velocity = _read("background_velocity", resolve_parameter, background_velocity,
                     grid, (d,))
    v = np.broadcast_to(velocity, (grid.npoints, d))
    # grad_v[p, i, j] = d_i v_j, computed spectrally component by component
    grad_v = np.zeros((grid.npoints, d, d), dtype=np.complex128)
    for j in range(d):
        comp = Field(grid, scalar_layout(), v[:, j : j + 1].astype(np.complex128))
        grad_v[:, :, j] = gradient(comp).values
    index, p = _phases(grid, eta=(eta,), rho=(rho,), background_velocity=(velocity, (d,)),
                       grad_v=(grad_v, (d, d)))
    e, r, v = _coef(p["eta"]), _coef(p["rho"]), np.asarray(p["background_velocity"])
    if penalty is None:
        penalty = 1e8 * float(np.max(np.abs(2.0 * e)))
    gvT = np.swapaxes(p["grad_v"], -1, -2)
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
    return LField(layout, _assemble(layout, entries), omega, "direct", "ns_perturbation",
                  index)


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
    layout = proj.thermoacoustic_D().layout
    index, p = _phases(grid, rho0=(rho0,), eta=(eta,), eta_bulk=(eta_bulk,),
                       conductivity=(conductivity,), T0=(T0,), alpha0=(alpha0,),
                       beta_T=(beta_T,), cp=(cp,))
    p = {k: _coef(v) for k, v in p.items()}
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
    return LField(layout, _assemble(layout, entries), omega, "direct", "thermoacoustic",
                  index)


def build_love(grid, omega, k1, mu, rho):
    """Out-of-plane shear motion of a depth-layered medium at propagation
    wavenumber k1, on a 1-D (vector(1), scalar) layout.

    Canonical map diag(mu, k1^2*mu - omega^2*rho) acting on
    (displacement-derivative, displacement) pairs.
    """
    if grid.ndim != 1:
        raise ValueError("layered shear build requires a 1-D grid")
    layout = proj.helmholtz_D(1).layout
    index, p = _phases(grid, mu=(mu,), rho=(rho,))
    m = _coef(p["mu"])
    vals = _assemble(layout, {(0, 0): m,
                              (1, 1): k1**2 * m - omega**2 * _coef(p["rho"])})
    return LField(layout, vals, omega, "direct", "love", index)


def build_schrodinger(grid, energy, kinetic, potential):
    """Stationary quantum material map diag(-A, E - V) on a
    (vector(ndim), scalar) layout over the (possibly multi-particle)
    coordinate grid; A is the kinetic coefficient (scalar or matrix), V the
    potential, E the energy."""
    nd = grid.ndim
    layout = proj.helmholtz_D(nd).layout
    index, p = _phases(grid, kinetic=(kinetic, (nd, nd), ()), potential=(potential,))
    vals = _assemble(layout, {(0, 0): -_matrix(p["kinetic"], nd),
                              (1, 1): energy - _coef(p["potential"])})
    return LField(layout, vals, energy, "direct", "schrodinger", index)


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


def block_source(grid, layout, block_index, values):
    """Source field with one populated block: ``values`` of the block's
    components, read by :func:`resolve_parameter`."""
    f = Field.zeros(grid, layout)
    size = layout.blocks[block_index].ncomp
    f.values[:, layout.block_slice(block_index)] = resolve_parameter(values, grid, (size,))
    return f


def acoustic_source(L, force, grid):
    """Canonical source for a body force density f in scalar acoustics:
    the canonical matrix applied pointwise to (f, 0)."""
    d = grid.ndim
    fvals = np.zeros((grid.npoints, d + 1), dtype=np.complex128)
    fvals[:, :d] = resolve_parameter(force, grid, (d,))
    return Field(grid, L.layout, canonical_material(L).apply(fvals), "real")


def brinkman_source(L, force, grid):
    """Canonical source for a body force density f in porous viscous flow:
    minus the canonical matrix applied pointwise to (0, f)."""
    d = grid.ndim
    fvals = np.zeros((grid.npoints, L.layout.ncomp), dtype=np.complex128)
    fvals[:, -d:] = resolve_parameter(force, grid, (d,))
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
        a body force density of ``nforce`` components, constant or per
        point, read by :func:`resolve_parameter`.
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


# An eigenvalue of the anti-Hermitian part down to -_PASSIVITY_TOL counts
# as nonnegative (rounding); find_rotation scans angles _ROTATION_STEP apart
# and needs the smallest eigenvalue above _ROTATION_TOL.
_PASSIVITY_TOL = 1e-10
_ROTATION_STEP = 1e-3
_ROTATION_TOL = 0.0


def passivity_check(L):
    """Check positive semidefiniteness of the anti-Hermitian part
    (L - L^dagger)/(2i) at every point (once per phase); reports the minimum
    eigenvalue and the flat index of the worst point."""
    M = L.values.reshape(-1, L.ncomp, L.ncomp)
    A = (M - np.conj(np.swapaxes(M, -1, -2))) / 2j
    eigs = np.linalg.eigvalsh(A)
    mins = eigs[:, 0] if L.index is None else eigs[L.index, 0]
    worst = int(np.argmin(mins))
    mn = float(mins[worst])
    return PassivityReport(mn >= -_PASSIVITY_TOL, mn, worst)


def gibiansky_rotation(L, theta):
    """Multiply the material matrix by exp(i*theta) (new LField).

    The anti-Hermitian part of the rotated matrix interpolates between the
    anti-Hermitian (theta=0) and Hermitian (theta=pi/2) parts of L, which is
    the standard trick for restoring definiteness to loss-dominated maps.
    """
    return LField(L.layout, np.exp(1j * theta) * L.values, L.omega, L.orientation,
                  L.physics, L.index)


def find_rotation(L):
    """Scan theta in (0, pi) for angles where the anti-Hermitian part of
    exp(i*theta) L is positive definite everywhere (checked once per
    phase); returns the midpoint of the widest contiguous passing run.
    Raises ValueError if no angle passes."""
    M = L.values.reshape(-1, L.ncomp, L.ncomp)
    Mh = np.conj(np.swapaxes(M, -1, -2))
    thetas = np.arange(_ROTATION_STEP, np.pi, _ROTATION_STEP)
    ok = np.zeros(len(thetas), dtype=bool)
    for idx, th in enumerate(thetas):
        A = (np.exp(1j * th) * M - np.exp(-1j * th) * Mh) / 2j
        ok[idx] = np.min(np.linalg.eigvalsh(A)) > _ROTATION_TOL
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
