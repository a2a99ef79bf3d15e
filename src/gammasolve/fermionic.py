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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, Grid, _pointwise, scalar_layout, transform
from .projectors import helmholtz_D
from .solver import _CanonicalOperator, _krylov, _potential_matvec, _result

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

    @property
    def grid(self):
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
        g = self.grid
        return g.coordinates()[:, i * self.space_dim : (i + 1) * self.space_dim]


def permutation_sign(perm):
    """Parity sign of a permutation given as a tuple of images (0-based)."""
    perm = tuple(perm)
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def all_permutations(n):
    return list(itertools.permutations(range(n)))


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def _axis_order(megrid, perm):
    """Array-axis transpose order realizing the argument permutation
    phi -> phi(x_{perm[0]}, x_{perm[1]}, ...)."""
    inv = _inverse(perm)
    order = []
    for j in range(megrid.n_electrons):
        order.extend(megrid.coordinate_axes(inv[j]))
    if megrid.spin:
        order.extend(megrid.spin_axis(inv[j]) for j in range(megrid.n_electrons))
    return order


def _as_values(x):
    if isinstance(x, Field):
        return x.values, x
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 1:
        return arr[:, None], None
    return arr, None


def _rewrap(vals, template, squeeze):
    if template is not None:
        return Field(template.grid, template.layout, vals, template.representation)
    return vals[:, 0] if squeeze else vals


def permute_scalar(values, megrid, perm):
    """Argument permutation phi(x) -> phi(x_{perm[0]}, ...); acts on every
    component of the trailing axis independently."""
    vals, template = _as_values(values)
    squeeze = template is None and np.asarray(values).ndim == 1
    grid = megrid.grid
    shaped = vals.reshape(grid.dims + (vals.shape[-1],))
    order = _axis_order(megrid, perm) + [grid.ndim]
    out = np.ascontiguousarray(np.transpose(shaped, order)).reshape(vals.shape)
    return _rewrap(out, template, squeeze)


def permute_vector(values, megrid, perm):
    """Exchange action on stacked per-particle vector blocks: block i of
    the output is the argument-permuted block perm^{-1}(i) of the input
    (so gradients of permuted scalars transform consistently)."""
    vals, template = _as_values(values)
    N, d = megrid.n_electrons, megrid.space_dim
    if vals.shape[-1] != N * d:
        raise ValueError(f"expected {N * d} components, got {vals.shape[-1]}")
    inv = _inverse(perm)
    comp = [inv[i] * d + a for i in range(N) for a in range(d)]
    out = permute_scalar(vals[:, comp], megrid, perm)
    return _rewrap(out, template, False)


def _sign_average(vals, megrid, act):
    """Sign-weighted average of ``act`` over all N! permutations."""
    acc = np.zeros_like(vals)
    for perm in all_permutations(megrid.n_electrons):
        acc += permutation_sign(perm) * act(vals, megrid, perm)
    return acc / math.factorial(megrid.n_electrons)


def antisymmetrize_full(values, megrid):
    """Full fermionic projector on scalar data: the sign-weighted average
    of all N! argument permutations."""
    vals, template = _as_values(values)
    squeeze = template is None and np.asarray(values).ndim == 1
    return _rewrap(_sign_average(vals, megrid, permute_scalar), template, squeeze)


def antisymmetrize_vector(values, megrid):
    """Full fermionic projector on stacked per-particle vector blocks."""
    vals, template = _as_values(values)
    return _rewrap(_sign_average(vals, megrid, permute_vector), template, False)


def _tail_spot_check(vals, megrid, tol=1e-10):
    """Verify antisymmetry under one trailing-pair swap (particles 3 and 4,
    0-based 2 and 3)."""
    N = megrid.n_electrons
    tau = list(range(N))
    tau[2], tau[3] = tau[3], tau[2]
    swapped = permute_scalar(vals, megrid, tuple(tau))
    scale = float(np.max(np.abs(vals))) or 1.0
    return float(np.max(np.abs(swapped + vals))) <= tol * scale


def lambda_a(values, megrid, check_tail=True):
    """Scalar fermionic projector in reduced form.

    For N <= 3 this is :func:`antisymmetrize_full`, exact on all inputs.
    For N >= 4 the reduced O(N^2)-term form is used; it requires the input
    to be antisymmetric in particles 3..N (spot-checked unless
    ``check_tail=False``) and agrees with the full projector on the fields
    material laws produce (a pair potential in the first two particles
    times an antisymmetric state).
    """
    N = megrid.n_electrons
    if N <= 3:
        return antisymmetrize_full(values, megrid)
    vals, template = _as_values(values)
    squeeze = template is None and np.asarray(values).ndim == 1
    if check_tail and not _tail_spot_check(vals, megrid):
        raise ValueError(
            "reduced antisymmetrizer needs input antisymmetric in the "
            "trailing particles (3..N)"
        )
    acc = vals.copy()
    rest = list(range(3, N + 1))
    for i in range(3, N + 1):
        tail = [m for m in rest if m != i]
        args = [2, i, 1] + tail
        acc += (-1) ** (i + 1) * permute_scalar(
            vals, megrid, tuple(a - 1 for a in args)
        )
        args = [1, i, 2] + tail
        acc -= (-1) ** (i + 1) * permute_scalar(
            vals, megrid, tuple(a - 1 for a in args)
        )
    for i in range(3, N + 1):
        for ell in range(i + 1, N + 1):
            tail = [m for m in rest if m not in (i, ell)]
            args = [i, ell, 1, 2] + tail
            acc += (-1) ** (i + ell + 1) * permute_scalar(
                vals, megrid, tuple(a - 1 for a in args)
            )
    out = acc * (2.0 / (N * (N - 1)))
    return _rewrap(out, template, squeeze)


def lambda_A(values, megrid):
    """Vector fermionic projector (sign-weighted average of the exchange
    action on stacked per-particle vector blocks); commutes with taking
    per-particle gradients of scalar fields."""
    return antisymmetrize_vector(values, megrid)


def is_antisymmetric(values, megrid, vector=False, tol=1e-10):
    """Check oddness under every particle transposition."""
    vals, _ = _as_values(values)
    scale = float(np.max(np.abs(vals))) or 1.0
    N = megrid.n_electrons
    act = permute_vector if vector else permute_scalar
    for i in range(N):
        for j in range(i + 1, N):
            tau = list(range(N))
            tau[i], tau[j] = tau[j], tau[i]
            swapped = act(vals, megrid, tuple(tau))
            if float(np.max(np.abs(swapped + vals))) > tol * scale:
                return False
    return True


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
    from .fields import norm as field_norm

    n = field_norm(psi)
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

    Returns (energies, states): ndarray (nstates,) and a list of
    unit-norm scalar Fields with fixed phase.
    """
    from .materials import _as_matrix, resolve_parameter

    npts = grid.npoints
    if npts > GROUND_STATE_MAX_POINTS:
        raise ValueError(f"dense stationary-state solve limited to "
                         f"{GROUND_STATE_MAX_POINTS} points")
    nd = grid.ndim
    A = _as_matrix(kinetic, grid, nd)
    if A.ndim == 3:
        raise ValueError("dense stationary-state solve needs constant kinetic matrix")
    V = np.broadcast_to(resolve_parameter(potential, grid, ()), (npts,))
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


def perturbation_energy(psi, vprime):
    """First-order energy shift <psi, V' psi> for a unit-norm state
    (returned as a real number; V' must be real)."""
    vals = psi.to_real().values[:, 0]
    vp = np.asarray(vprime)
    if isinstance(vprime, Field):
        vp = vprime.to_real().values[:, 0]
    ip = np.vdot(vals, vp * vals) * psi.grid.cell_volume
    return float(ip.real)


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
    E' = <psi, V' psi>.

    The corrector equation is the canonical projected problem with source
    (0, (V' - E') psi), solved by GMRES on the projector's potential
    coefficients a with the operator a -> B^H F L F^-1 (B a); the
    (one-dimensional) kernel spanned by the gradient pair of psi is removed
    by adding a rank-one penalty on its coefficients kappa = B^H D psi, and
    the gauge is enforced exactly afterwards.
    """
    from .fields import inner_product
    from .materials import default_projector
    from .solver import Problem

    grid = psi.grid
    nd = grid.ndim
    layout = material.layout
    e_prime = perturbation_energy(psi, vprime)
    vp = vprime.to_real().values[:, 0] if isinstance(vprime, Field) else np.asarray(vprime)
    psi_r = psi.to_real().values[:, 0]

    svals = np.zeros((grid.npoints, nd + 1), dtype=np.complex128)
    svals[:, nd] = (vp - e_prime) * psi_r
    source = Field(grid, layout, svals, "real")

    problem = Problem(
        grid=grid,
        L=material,
        gamma=default_projector("schrodinger", grid),
        source=source,
        tol=tol,
        max_iter=max_iter,
    )
    op = _CanonicalOperator(problem)

    # kernel direction: the unit gradient pair D psi in Fourier form, and
    # its potential coefficients kappa = B^H D psi, also of unit norm since
    # D psi lies in range(B)
    psi_hat = Field(grid, scalar_layout(), psi_r[:, None]).to_fourier().values
    kernel = _pointwise(helmholtz_D(nd).matrices(grid.wavevectors()), psi_hat)
    kernel /= np.linalg.norm(kernel)
    kappa = _pointwise(op.Bh, kernel).ravel()
    sigma = max(1.0, abs(complex(material.omega)))

    def matvec(a):
        penalty = sigma * np.vdot(kappa, a) * kappa
        return _potential_matvec(grid, op.Bh, op.Lc.apply, op.B, a) + penalty

    # The exact corrector source is orthogonal to the kernel pair; any
    # content there is rounding noise from the (V' - E') cancellation, so
    # strip it, and treat a source at rounding level as exactly zero.
    s_hat = source.to_fourier().values
    s_hat -= np.vdot(kernel, s_hat) * kernel
    b = _pointwise(op.Bh, s_hat).ravel()
    b_norm = float(np.linalg.norm(b))
    scale = float(np.linalg.norm((np.abs(vp) + abs(e_prime)) * np.abs(psi_r)))
    if b_norm <= 1e-13 * max(scale, 1e-300):
        zero = Field.zeros(grid, scalar_layout())
        return PerturbationResult(e_prime, zero, 0.0, 0, True)
    a, history, _ = _krylov(matvec, b, tol, max_iter)
    e_hat = _pointwise(op.B, a.reshape(grid.npoints, -1))
    res = _result(op, problem, e_hat, s_hat, b_norm, len(history), "krylov")
    psi_prime = Field(grid, scalar_layout(), res.E.values[:, nd:])
    psi_field = Field(grid, scalar_layout(), psi_r[:, None])
    overlap = inner_product(psi_field, psi_prime) / inner_product(psi_field, psi_field)
    psi_prime = Field(grid, scalar_layout(), psi_prime.values - overlap * psi_field.values)
    return PerturbationResult(e_prime, psi_prime, res.residual, res.iterations, res.converged)
