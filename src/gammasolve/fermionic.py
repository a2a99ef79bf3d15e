"""Multi-particle grids, exchange antisymmetry, and stationary-state
perturbation solves.

States of N identical particles in d space dimensions live on periodic
grids over N*d coordinate axes (plus optional two-point spin axes, one per
particle, which participate in exchange but not in differentiation).
Scalar fields transform under particle exchange by argument permutation;
the stacked per-particle gradient blocks additionally relabel, so that the
vector antisymmetrizer commutes with taking gradients.  Sign-weighted
averages over the exchange group project onto the fermionic sector; a
reduced form needing only O(N^2) terms is available for fields already
antisymmetric in the trailing particles (the shape material laws produce).
The first-order state corrector is a canonical projected problem on the
Schrodinger projector, solved by :func:`gammasolve.solver.solve`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (Field, Grid, _pointwise, inner_product, norm, scalar_layout,
                     transform)
from .materials import (ParameterError, _matrix, _parameter, _read, default_projector,
                        resolve_parameter)
from .projectors import helmholtz_D
from .solver import Problem, solve

__all__ = [
    "MultiElectronGrid",
    "permutation_sign",
    "all_permutations",
    "permute_scalar",
    "permute_vector",
    "antisymmetrize_full",
    "antisymmetrize_vector",
    "lambda_a",
    "lambda_A",
    "is_antisymmetric",
    "symmetrized_apply",
    "pair_potential",
    "pairwise_sum_potential",
    "normalize_state",
    "ground_state",
    "perturbation_energy",
    "perturbation_solve",
    "PerturbationResult",
]

# ground_state assembles the dense npoints x npoints Hamiltonian.
GROUND_STATE_MAX_POINTS = 2048
# Values count as odd under a swap when swapped + original is at most this
# share of their largest magnitude (rounding).
_ANTISYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class MultiElectronGrid:
    """Configuration-space grid for N particles in d dimensions.

    ``points`` grid points per coordinate axis over length ``length``;
    with ``spin=True`` a two-point axis per particle is appended after the
    N*d coordinate axes (exchange swaps coordinates and spin jointly;
    differential operators act on coordinate axes only, so spin grids are
    meant for permutation work, not solves).
    """

    n_electrons: int
    space_dim: int = 1
    points: int = 8
    length: float = 2.0 * np.pi
    spin: bool = False

    @cached_property
    def grid(self):
        """The :class:`Grid`, built once per instance (so its cached
        coordinates are too)."""
        nd = self.n_electrons * self.space_dim
        dims = (self.points,) * nd
        lengths = (self.length,) * nd
        if self.spin:
            dims = dims + (2,) * self.n_electrons
            lengths = lengths + (2.0,) * self.n_electrons
        return Grid(dims, lengths)

    def coordinate_axes(self, i):
        """Array axes carrying particle i's coordinates."""
        return list(range(i * self.space_dim, (i + 1) * self.space_dim))

    def spin_axis(self, i):
        if not self.spin:
            raise ValueError("grid has no spin axes")
        return self.n_electrons * self.space_dim + i

    def electron_coordinates(self, i):
        """Coordinates of particle i at every grid point, (npoints, d)."""
        return self.grid.coordinates()[:, i * self.space_dim : (i + 1) * self.space_dim]


def permutation_sign(perm):
    """Parity sign of a permutation given as a tuple of images (0-based):
    -1 to the number of its inversions."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(tuple(perm), 2))


def all_permutations(n):
    return list(itertools.permutations(range(n)))


def _values(x, vector=False):
    """``(values, wrap)``: the input as an (npoints, ncomp) complex array,
    and the function that gives a result the input's kind: a Field like
    the input, a 1-D array for 1-D scalar input, the array itself
    otherwise (so 1-D vector input, one particle in one dimension, comes
    back (npoints, 1))."""
    if isinstance(x, Field):
        return x.values, lambda out: Field(x.grid, x.layout, out, x.representation)
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
        if not vector:
            return arr, lambda out: out[:, 0]
    return arr, lambda out: out


def _permute(vals, megrid, perm, vector=False):
    """The exchange ``perm`` on raw (npoints, ncomp) values: the argument
    permutation phi -> phi(x_{perm[0]}, x_{perm[1]}, ...) of every
    component, and with ``vector`` the relabelling of the stacked
    per-particle blocks, block i of the output taken from block
    perm^{-1}(i) of the input."""
    N, d = megrid.n_electrons, megrid.space_dim
    inv = np.argsort(perm)
    # Particle inv[j]'s coordinate axes (and vector components) move to slot j.
    coords = (inv[:, None] * d + np.arange(d)).ravel()
    if vector:
        if vals.shape[-1] != N * d:
            raise ValueError(f"expected {N * d} components, got {vals.shape[-1]}")
        vals = vals[:, coords]
    grid = megrid.grid
    order = [*coords, *(N * d + inv if megrid.spin else ()), grid.ndim]
    shaped = vals.reshape(grid.dims + (vals.shape[-1],))
    return np.ascontiguousarray(np.transpose(shaped, order)).reshape(vals.shape)


def _signed_sum(vals, megrid, perms, vector=False):
    """Sum of the exchanges ``perms`` of ``vals``, each weighted by its sign."""
    acc = np.zeros_like(vals)
    for perm in perms:
        acc += permutation_sign(perm) * _permute(vals, megrid, perm, vector)
    return acc


def permute_scalar(values, megrid, perm):
    """Argument permutation phi(x) -> phi(x_{perm[0]}, ...); acts on every
    component of the trailing axis independently."""
    vals, wrap = _values(values)
    return wrap(_permute(vals, megrid, perm))


def permute_vector(values, megrid, perm):
    """Exchange action on stacked per-particle vector blocks: block i of
    the output is the argument-permuted block perm^{-1}(i) of the input
    (so gradients of permuted scalars transform consistently)."""
    vals, wrap = _values(values, vector=True)
    return wrap(_permute(vals, megrid, perm, vector=True))


def antisymmetrize_full(values, megrid):
    """Full fermionic projector on scalar data: the sign-weighted average
    of all N! argument permutations."""
    vals, wrap = _values(values)
    N = megrid.n_electrons
    return wrap(_signed_sum(vals, megrid, all_permutations(N)) / math.factorial(N))


def antisymmetrize_vector(values, megrid):
    """Full fermionic projector on stacked per-particle vector blocks."""
    vals, wrap = _values(values, vector=True)
    N = megrid.n_electrons
    return wrap(_signed_sum(vals, megrid, all_permutations(N), vector=True)
                / math.factorial(N))


def _odd_under_swaps(vals, megrid, pairs, vector=False):
    """Whether swapping each particle pair (i, j) of ``pairs`` flips the
    sign of ``vals``, to :data:`_ANTISYMMETRY_TOL` relative to their largest
    magnitude."""
    scale = float(np.max(np.abs(vals))) or 1.0
    for i, j in pairs:
        tau = list(range(megrid.n_electrons))
        tau[i], tau[j] = j, i
        swapped = _permute(vals, megrid, tau, vector)
        if float(np.max(np.abs(swapped + vals))) > _ANTISYMMETRY_TOL * scale:
            return False
    return True


def _reduced_orders(N):
    """Particle orders of the reduced antisymmetrizer's terms: the identity,
    then for each trailing particle i the orders (1, i, 0, rest) and
    (0, i, 1, rest), then for each trailing pair i < j the order
    (i, j, 0, 1, rest), with the rest of 2..N-1 in increasing order."""
    rest = range(2, N)
    orders = [tuple(range(N))]
    for i in rest:
        tail = tuple(m for m in rest if m != i)
        orders += [(1, i, 0) + tail, (0, i, 1) + tail]
    for i, j in itertools.combinations(rest, 2):
        orders.append((i, j, 0, 1) + tuple(m for m in rest if m not in (i, j)))
    return orders


def lambda_a(values, megrid, check_tail=True):
    """Scalar fermionic projector in reduced form.

    For N <= 3 this is :func:`antisymmetrize_full`, exact on all inputs.
    For N >= 4 the reduced O(N^2)-term form is used: the sign-weighted sum
    of 1 + (N-2)(N+1)/2 exchanges, times 2/(N(N-1)).  It requires the input
    to be antisymmetric in particles 3..N (spot-checked on the swap of
    particles 3 and 4 unless ``check_tail=False``) and agrees with the full
    projector on the fields material laws produce (a pair potential in the
    first two particles times an antisymmetric state).
    """
    N = megrid.n_electrons
    if N <= 3:
        return antisymmetrize_full(values, megrid)
    vals, wrap = _values(values)
    if check_tail and not _odd_under_swaps(vals, megrid, [(2, 3)]):
        raise ValueError(
            "reduced antisymmetrizer needs input antisymmetric in the "
            "trailing particles (3..N)"
        )
    return wrap(_signed_sum(vals, megrid, _reduced_orders(N)) * (2.0 / (N * (N - 1))))


def lambda_A(values, megrid):
    """Vector fermionic projector (sign-weighted average of the exchange
    action on stacked per-particle vector blocks); commutes with taking
    per-particle gradients of scalar fields."""
    return antisymmetrize_vector(values, megrid)


def is_antisymmetric(values, megrid, vector=False):
    """Check oddness under every particle transposition."""
    pairs = itertools.combinations(range(megrid.n_electrons), 2)
    return _odd_under_swaps(_values(values)[0], megrid, pairs, vector)


def symmetrized_apply(material, values, megrid):
    """Apply a distinguishable-particle material map and project its output
    back onto the fermionic sector (vector blocks with the vector
    projector, the scalar slot with the scalar projector)."""
    out = material.apply(values)
    nd = megrid.n_electrons * megrid.space_dim
    head = lambda_A(out[:, :nd], megrid)
    tail = lambda_a(out[:, nd:], megrid, check_tail=False)
    return np.concatenate([head, tail], axis=1)


def pair_potential(megrid, fn):
    """Evaluate v(x_1, x_2) on the first two particles' coordinates,
    returning per-point values (npoints,)."""
    x1 = megrid.electron_coordinates(0)
    x2 = megrid.electron_coordinates(1)
    return np.asarray(fn(x1, x2), dtype=np.complex128)


def pairwise_sum_potential(megrid, fn):
    """Evaluate sum_{i<j} v(x_i, x_j) at every grid point."""
    N = megrid.n_electrons
    out = np.zeros(megrid.grid.npoints, dtype=np.complex128)
    for i in range(N):
        for j in range(i + 1, N):
            out += np.asarray(
                fn(megrid.electron_coordinates(i), megrid.electron_coordinates(j))
            )
    return out


# ---------------------------------------------------------------------------
# Stationary states and first-order perturbation
# ---------------------------------------------------------------------------


def normalize_state(psi):
    """Unit-norm copy with the phase fixed so the largest-magnitude
    component is real positive."""
    n = norm(psi)
    if n == 0.0:
        raise ValueError("cannot normalize the zero field")
    vals = psi.values / n
    idx = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
    pivot = vals[idx]
    vals = vals * (abs(pivot) / pivot)
    return Field(psi.grid, psi.layout, vals, psi.representation)


def ground_state(grid, kinetic, potential, nstates=1):
    """Lowest stationary states of -div(A grad) + V by dense spectral
    assembly (desk scales only; the Hamiltonian matrix is npoints^2).

    The kinetic matrix A must be Hermitian and the potential V real: a
    :class:`ParameterError` names the one that is not, above rounding, or
    that cannot be read on the grid.  Returns (energies, states):
    ndarray (nstates,) and a list of unit-norm scalar Fields with fixed
    phase.
    """
    npts = grid.npoints
    if npts > GROUND_STATE_MAX_POINTS:
        raise ValueError(f"dense stationary-state solve limited to "
                         f"{GROUND_STATE_MAX_POINTS} points")
    nd = grid.ndim
    A, index = _read("kinetic", _parameter, kinetic, grid, (nd, nd), ())
    if index is not None:
        raise ParameterError("kinetic", "dense stationary-state solve needs a constant "
                                        "kinetic matrix")
    A = _matrix(A, nd)
    asym = float(np.max(np.abs(A - np.conj(A.T))))
    if asym > 1e-12 * float(np.max(np.abs(A))):
        raise ParameterError("kinetic", f"must be Hermitian, got |A - A^H| up to {asym:.3g}")
    V = np.broadcast_to(_read("potential", resolve_parameter, potential, grid), (npts,))
    _require_real(V, "potential")
    K = grid.wavevectors()
    quad = np.einsum("pi,ij,pj->p", K, A, K)
    eye = np.eye(npts, dtype=np.complex128)
    hat = transform(eye, grid)
    H = transform(quad[:, None] * hat, grid, False)
    H += np.diag(V.astype(np.complex128))
    H = (H + np.conj(H.T)) / 2.0
    energies, vecs = np.linalg.eigh(H)
    states = []
    w = np.sqrt(grid.cell_volume)
    for j in range(nstates):
        f = Field(grid, scalar_layout(), vecs[:, j : j + 1] / w)
        states.append(normalize_state(f))
    return energies[:nstates].real, states


def _require_real(values, name):
    """``values``, after a :class:`ParameterError` naming ``name`` when
    their imaginary part exceeds 1e-12 of their largest magnitude: the
    inverse transform of a real potential's Fourier values leaves
    imaginary parts at rounding level."""
    imag = float(np.max(np.abs(np.imag(values))))
    if imag > 1e-12 * float(np.max(np.abs(values))):
        raise ParameterError(name, f"must be real, got an imaginary part of up to {imag:.3g}")
    return values


def _real_perturbation(vprime, grid):
    """V' read on ``grid`` by :func:`materials.resolve_parameter` (a
    constant or one real-space value per point), checked to be real."""
    return _require_real(_read("vprime", resolve_parameter, vprime, grid), "vprime")


def perturbation_energy(psi, vprime):
    """First-order energy shift <psi, V' psi> for a unit-norm state,
    returned as a real number.

    V' is read on the state's grid by :func:`materials.resolve_parameter`:
    a number, a flat or grid-shaped array, a callable of the coordinates, a
    descriptor or a one-component field on that grid.  It must be real.  A
    :class:`ParameterError` (a ValueError) names ``vprime`` when it cannot
    be read, as for a field on another grid or of several components, or
    when its imaginary part is above rounding."""
    return _shift(psi.to_real().values[:, 0], _real_perturbation(vprime, psi.grid), psi.grid)


def _shift(psi_r, vp, grid):
    """<psi, V' psi> from real-space values of psi and of a checked V'."""
    return float((np.vdot(psi_r, vp * psi_r) * grid.cell_volume).real)


@dataclass
class PerturbationResult:
    e_prime: float
    psi_prime: object
    residual: float
    iterations: int
    converged: bool


def perturbation_solve(material, psi, vprime, tol=1e-10, max_iter=2000):
    """First-order response of a stationary state to a potential change.

    Given the quantum material diag(-A, E - V) assembled at an eigenpair
    (E, psi) and the perturbing potential V', solves the deflated
    first-order equation for the state corrector psi' with the gauge
    <psi, psi'> = 0, and returns it with the energy shift
    E' = <psi, V' psi>.  V' is read and must be real as for
    :func:`perturbation_energy`.

    The corrector equation is the canonical projected problem with source
    (0, (V' - E') psi), solved by :func:`solve`.  Its kernel is the unit
    gradient pair D psi; the exact source is orthogonal to it, so the
    source's component along it (rounding noise) is removed first, and
    the gauge is enforced exactly afterwards.
    """
    grid = psi.grid
    nd = grid.ndim
    vp = _real_perturbation(vprime, grid)
    psi_r = psi.to_real().values[:, 0]
    e_prime = _shift(psi_r, vp, grid)

    svals = np.zeros((grid.npoints, nd + 1), dtype=np.complex128)
    svals[:, nd] = (vp - e_prime) * psi_r
    s_hat = Field(grid, material.layout, svals).to_fourier().values

    # The exact corrector source is orthogonal to the kernel pair D psi;
    # any content there is rounding noise from the (V' - E') cancellation,
    # so strip it, and treat a source at rounding level as exactly zero.
    psi_hat = Field(grid, scalar_layout(), psi_r[:, None]).to_fourier().values
    kernel = _pointwise(helmholtz_D(nd).matrices(grid.wavevectors()), psi_hat)
    kernel /= np.linalg.norm(kernel)
    s_hat -= np.vdot(kernel, s_hat) * kernel
    scale = float(np.linalg.norm((np.abs(vp) + abs(e_prime)) * np.abs(psi_r)))
    if np.linalg.norm(s_hat) <= 1e-13 * max(scale, 1e-300):
        zero = Field.zeros(grid, scalar_layout())
        return PerturbationResult(e_prime, zero, 0.0, 0, True)
    res = solve(Problem(grid=grid, L=material, gamma=default_projector("schrodinger", grid),
                        source=Field(grid, material.layout, s_hat, "fourier"), tol=tol,
                        max_iter=max_iter))
    psi_prime = Field(grid, scalar_layout(), res.E.values[:, nd:])
    psi_field = Field(grid, scalar_layout(), psi_r[:, None])
    overlap = inner_product(psi_field, psi_prime) / inner_product(psi_field, psi_field)
    psi_prime = Field(grid, scalar_layout(), psi_prime.values - overlap * psi_field.values)
    return PerturbationResult(e_prime, psi_prime, res.residual, res.iterations, res.converged)
