"""Solvers for the canonical projected problem Gamma1 (L E - s) = 0.

The solve alternates pointwise material maps in real space with the
projector, applied mode by mode in Fourier space through its basis B as
Gamma1 v = B (B^H v): the Krylov path runs restarted GMRES on the
projector's potential coefficients (r of the c components per mode); the
fixed-point path iterates E <- E + (1/c) Gamma1 (s - L E) against a
reference constant c; and a brute-force dense assembly of the full-space
operator A = Gamma1 L Gamma1 + Gamma2 is provided as an oracle for small
grids.  A separate resolvent path solves (z - D^dagger B D) psi = f for
scalar-potential families.

The Krylov path solves A x = Gamma1 s right-preconditioned by the mean
medium: with L0 the mean of the canonical material over the grid points,
P = (Gamma1 L0 Gamma1 + Gamma2)^-1 = B M^+ B^H + Gamma2 with M = B^H L0 B
is exact mode by mode, and GMRES solves A P y = b for x = P y.  Since
b - A P y = b - A x, GMRES's stopping rule bounds the same residual as
without the preconditioner.  The Krylov space of A P that starts from
b = Gamma1 s never leaves range(B), and B is an isometry there, so GMRES
runs on the coefficients a = B^H y in C^(npts r) instead: right-hand side
B^H s, operator a -> B^H F L F^-1 (R a) with R = B M^+, and E = R a.  It
is the same GMRES in exact arithmetic, with the same residual norms, so
``tol`` keeps its meaning and the iteration count is unchanged; the
Gamma2 padding drops out of every matvec and every basis vector.  The
fixed-point path and the dense oracle are not preconditioned.

:func:`_krylov` is the one GMRES entry point: the canonical solve, the
resolvent solve and the fermionic perturbation solve all go through it,
and :func:`_potential_matvec` is the potential-space operator that the
canonical and resolvent solves share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse.linalg

from . import fields
from .fields import Block, BlockLayout, Field, _pointwise, scalar_layout, transform
from .materials import canonical_material
from .projectors import PINV_CUTOFF, _basis_on, helmholtz_D

__all__ = [
    "Problem",
    "SolveResult",
    "solve",
    "dense_operator",
    "solve_dense",
    "operator_norm_estimate",
    "solve_resolvent",
    "ResonanceError",
    "residual_functional",
]


class ResonanceError(RuntimeError):
    """The resolvent was evaluated too close to the operator spectrum."""


@dataclass
class Problem:
    """A canonical projected problem on a periodic grid.

    Attributes
    ----------
    grid : Grid
    L : LField
        Material map (either orientation; the canonical direct form is
        derived on demand).
    gamma : Projector
    source : Field
    shift : array_like or None
        Constant wavevector shift (Bloch phase) applied to the projector.
    tol : float
        Target relative residual |Gamma1 (L E - s)| / |Gamma1 s|.
    max_iter : int
        Cap on inner Krylov (or fixed-point) iterations, at least 1.  A
        Krylov cap above the restart length rounds up to whole restart
        cycles.
    method : {"krylov", "fixed_point"}
    reference : complex or None
        Reference constant for the fixed-point scheme (estimated if None).
    restart : int or None
        Krylov restart length (None picks min(40, n), where n = npts r
        counts the potential unknowns; raise it for stiff penalized
        problems where restarting stalls).
    seed : int
        Seed for randomized estimates.
    """

    grid: object
    L: object
    gamma: object
    source: object
    shift: object = None
    tol: float = 1e-8
    max_iter: int = 2000
    method: str = "krylov"
    reference: object = None
    restart: object = None
    seed: int = 42


@dataclass
class SolveResult:
    """Fields and convergence record of one solve.

    ``stop_reason`` is ``"converged"`` (residual <= tol, including a zero
    projected source), ``"max_iter"`` (the iteration budget ran out),
    ``"diverged"`` (the fixed-point scheme blew up) or ``"stalled"`` (the
    iteration stopped early with residual > tol).
    """

    E: object
    J: object
    residual: float
    iterations: int
    converged: bool
    method: str
    residual_history: list = dc_field(default_factory=list)
    stop_reason: str = "converged"


def _krylov(matvec, b, tol, max_iter, restart=None):
    """Restarted GMRES on a flat complex right-hand side ``b``.

    Stops at scipy's residual estimate 0.25 * tol (relative to |b|) or at
    the iteration cap; the restart length is min(40, n, max_iter) unless
    given, with n = b.size (npts r potential unknowns for the canonical
    solve), so a cap up to the restart length is exact and a larger one
    rounds up to whole restart cycles.  Returns ``(x, history, info)``: the solution,
    the residual estimate after each inner iteration, and GMRES's exit code
    (> 0 when the iteration budget ran out).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = b.size
    restart = min(40 if restart is None else restart, n, max_iter)
    linop = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=np.complex128)
    history = []
    x, info = scipy.sparse.linalg.gmres(
        linop,
        b,
        rtol=0.25 * tol,
        atol=0.0,
        restart=restart,
        maxiter=math.ceil(max_iter / restart),
        callback=lambda pr: history.append(float(pr)),
        callback_type="pr_norm",
    )
    return x, history, info


def _potential_matvec(grid, left, apply, right, a):
    """left F apply(F^-1 (right a)) for per-mode potential coefficients a
    of shape (npts, r): ``right`` lifts them to fields, ``apply`` is a
    pointwise real-space map and ``left`` takes the result back to
    potentials."""
    real = transform(_pointwise(right, a), grid, False)
    return _pointwise(left, transform(apply(real), grid))


class _CanonicalOperator:
    """Matrix-free A = Gamma1 L Gamma1 + Gamma2 on flattened Fourier data,
    with Gamma1 = B B^H applied through the projector's per-mode basis B,
    and the factor R = B M^+ of the mean-medium preconditioner once
    :meth:`precondition` has built it."""

    def __init__(self, problem):
        self.grid = problem.grid
        self.Lc = canonical_material(problem.L)
        if self.Lc.ncomp != problem.gamma.ncomp:
            raise ValueError("material and projector component counts differ")
        self.B = _basis_on(problem.gamma, problem.grid, problem.shift)
        self.Bh = np.ascontiguousarray(np.conj(np.swapaxes(self.B, -1, -2)))
        self.ncomp = self.Lc.ncomp
        self.n = problem.grid.npoints * self.ncomp

    def precondition(self):
        """Build P = (Gamma1 L0 Gamma1 + Gamma2)^-1 for the mean medium L0.

        With M = B^H L0 B, Gamma1 P = B M^+ B^H and Gamma2 P = Gamma2; only
        the thin factor R = B M^+ is kept.  The pseudo-inverse cutoff drops
        the directions in which M is singular: Brinkman's k = 0 hydrostatic
        stress, which L0 annihilates, and the zero directions of a
        partial-isometry basis.
        """
        c = self.ncomp
        L0 = self.Lc.values.reshape(-1, c, c).mean(axis=0)
        self.R = self.B @ np.linalg.pinv(self.Bh @ L0 @ self.B, rcond=PINV_CUTOFF)

    def project(self, vals):
        return _pointwise(self.B, _pointwise(self.Bh, vals))

    def material(self, vals_hat, apply=None):
        real = transform(vals_hat, self.grid, False)
        return transform((apply or self.Lc.apply)(real), self.grid)

    def apply_hat(self, x):
        gx = self.project(x)
        return self.project(self.material(gx)) + (x - gx)

    def apply_hat_adjoint(self, x):
        gx = self.project(x)
        return self.project(self.material(gx, self.Lc.apply_adjoint)) + (x - gx)

    def matvec(self, flat):
        return self.apply_hat(flat.reshape(-1, self.ncomp)).ravel()

    def residual(self, e_hat, s_hat, b_norm):
        r = self.project(self.material(e_hat) - s_hat)
        return float(np.linalg.norm(r) / b_norm)


def _projected_source(op, problem):
    """Fourier source s_hat, right-hand side Gamma1 s_hat and its norm."""
    s = problem.source
    if s.layout.ncomp != op.ncomp:
        raise ValueError("source layout does not match material")
    s_hat = s.to_fourier().values
    b = op.project(s_hat)
    return s_hat, b, float(np.linalg.norm(b))


def _zero_result(problem, method):
    """E = 0 and J = -s: the exact solution when Gamma1 s vanishes."""
    grid, layout = problem.grid, problem.L.layout
    J = Field(grid, layout, -problem.source.to_real().values)
    return SolveResult(Field.zeros(grid, layout), J, 0.0, 0, True, method)


def _result(op, problem, e_hat, s_hat, b_norm, iterations, method, history=(),
            stop_reason=None):
    """SolveResult for a Fourier-space solution e_hat (one material
    application serves J and the residual); ``stop_reason`` applies only
    when the residual misses the tolerance."""
    grid, layout = problem.grid, problem.L.layout
    E = Field(grid, layout, e_hat, "fourier").to_real()
    LE = op.Lc.apply(E.values)
    J = Field(grid, layout, LE - problem.source.to_real().values)
    residual = float(np.linalg.norm(op.project(transform(LE, grid) - s_hat)) / b_norm)
    converged = residual <= problem.tol
    return SolveResult(E, J, residual, iterations, converged, method, list(history),
                       "converged" if converged else stop_reason)


def solve(problem):
    """Solve Gamma1 (L E - s) = 0, Gamma1 E = E for E (and J = L E - s).

    Returns a SolveResult with real-space E and J fields; E is projected
    onto range(Gamma1) exactly.  With a source whose projection vanishes
    the zero field is returned as converged.
    """
    if problem.max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    op = _CanonicalOperator(problem)
    s_hat, b, b_norm = _projected_source(op, problem)
    if b_norm == 0.0:
        return _zero_result(problem, problem.method)

    if problem.method == "krylov":
        op.precondition()
        rank = op.B.shape[-1]

        def matvec(flat):
            a = flat.reshape(-1, rank)
            return _potential_matvec(op.grid, op.Bh, op.Lc.apply, op.R, a).ravel()

        a, history, info = _krylov(matvec, _pointwise(op.Bh, s_hat).ravel(), problem.tol,
                                   problem.max_iter, problem.restart)
        e_hat = _pointwise(op.R, a.reshape(-1, rank))
        iterations = len(history)
        stop_reason = "max_iter" if info > 0 else "stalled"
    elif problem.method == "fixed_point":
        c = problem.reference
        if c is None:
            M = op.Lc.values.reshape(-1, op.ncomp, op.ncomp)
            herm = np.conj(np.swapaxes(M, -1, -2)) @ M
            c = float(np.sqrt(np.max(np.linalg.eigvalsh(herm))))
        e_hat = np.zeros_like(b)
        r = b  # Gamma1 (s - L E) at E = 0
        history = []
        stop_reason = "max_iter"
        iterations = 0
        for iterations in range(1, problem.max_iter + 1):
            e_hat = e_hat + r / c
            r = op.project(s_hat - op.material(e_hat))
            rel = float(np.linalg.norm(r) / b_norm)
            history.append(rel)
            if rel <= problem.tol:
                break
            if not np.isfinite(rel) or rel > 1e8:
                stop_reason = "diverged"  # the scheme needs a definite material map
                break
    else:
        raise ValueError(f"unknown method {problem.method!r}")
    return _result(op, problem, e_hat, s_hat, b_norm, iterations, problem.method,
                   history, stop_reason)


def dense_operator(problem, limit=4096):
    """Assemble A = Gamma1 L Gamma1 + Gamma2 as a dense matrix in the
    Fourier basis by applying it to unit vectors (brute-force oracle)."""
    return _dense_matrix(_CanonicalOperator(problem), limit)


def _dense_matrix(op, limit):
    if op.n > limit:
        raise ValueError(f"dense assembly of size {op.n} exceeds limit {limit}")
    A = np.zeros((op.n, op.n), dtype=np.complex128)
    e = np.zeros(op.n, dtype=np.complex128)
    for j in range(op.n):
        e[j] = 1.0
        A[:, j] = op.matvec(e)
        e[j] = 0.0
    return A


def solve_dense(problem, limit=4096):
    """Direct dense solve of the canonical problem (oracle for small grids)."""
    op = _CanonicalOperator(problem)
    A = _dense_matrix(op, limit)
    s_hat, b, b_norm = _projected_source(op, problem)
    if b_norm == 0.0:
        return _zero_result(problem, "dense")
    x = np.linalg.solve(A, b.ravel())
    e_hat = op.project(x.reshape(-1, op.ncomp))
    return _result(op, problem, e_hat, s_hat, b_norm, 1, "dense", (), "stalled")


def operator_norm_estimate(problem, iters=50):
    """Power-iteration estimate of the spectral norm of
    A = Gamma1 L Gamma1 + Gamma2 (for a homogeneous material c I this is
    max(|c|, 1) and the estimate is exact)."""
    op = _CanonicalOperator(problem)
    rng = np.random.default_rng(problem.seed)
    x = rng.standard_normal((problem.grid.npoints, op.ncomp)) + 1j * rng.standard_normal(
        (problem.grid.npoints, op.ncomp)
    )
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(iters):
        y = op.apply_hat(x)
        sigma = float(np.linalg.norm(y))
        if sigma == 0.0:
            return 0.0
        x = op.apply_hat_adjoint(y)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return sigma
        x /= nx
    return float(np.sqrt(np.linalg.norm(op.apply_hat_adjoint(op.apply_hat(x)))))


# ---------------------------------------------------------------------------
# Resolvent path: (z - D^dagger B D) psi = f on scalar potentials
# ---------------------------------------------------------------------------


def solve_resolvent(grid, z, B, f, tol=1e-10, max_iter=2000):
    """Solve (z - D^dagger B D) psi = f for a scalar potential psi, where
    D c = (grad c, c) and B is a material on the (vector, scalar) layout
    (second-order coefficient matrix in the vector block, zero-order
    coefficient in the scalar slot).

    Constant B uses the exact per-mode inverse of z - D(ik)^H B D(ik);
    varying B uses GMRES on the scalar unknowns.  Raises ResonanceError if z is (numerically) in the
    spectrum: per-mode denominators below 1e-12 of their scale, or a
    Krylov solve that fails to reach tol.
    """
    nd = grid.ndim
    if f.layout != scalar_layout():
        raise ValueError("resolvent source must be a single scalar block")
    f_hat = f.to_fourier().values[:, 0]
    if B.layout != BlockLayout((Block("vector", nd), Block("scalar"))):
        raise ValueError("B must live on a (vector(ndim), scalar) layout")

    D = helmholtz_D(nd).matrices(grid.wavevectors())
    Dh = np.conj(np.swapaxes(D, -1, -2))
    if B.is_constant:
        denom = z - (Dh @ B.values @ D)[:, 0, 0]
        scale = max(abs(z), float(np.max(np.abs(denom))))
        if float(np.min(np.abs(denom))) <= 1e-12 * scale:
            raise ResonanceError(
                f"resolvent evaluated at z={z} within 1e-12 of the spectrum"
            )
        psi_hat = f_hat / denom
        out = Field(grid, scalar_layout(), psi_hat[:, None], "fourier")
        return out.to_real() if f.representation == "real" else out

    def matvec(psi_hat):
        return z * psi_hat - _potential_matvec(grid, Dh, B.apply, D, psi_hat[:, None])[:, 0]

    x, _, _ = _krylov(matvec, f_hat, tol, max_iter)
    rel = float(np.linalg.norm(matvec(x) - f_hat) / np.linalg.norm(f_hat))
    if rel > tol:
        raise ResonanceError(
            f"resolvent solve stalled at relative residual {rel:.3e} "
            f"(z may be near the spectrum)"
        )
    out = Field(grid, scalar_layout(), x[:, None], "fourier")
    return out.to_real() if f.representation == "real" else out


# ---------------------------------------------------------------------------
# Variational residual for stationary-state candidates
# ---------------------------------------------------------------------------


def residual_functional(psi, material, source=None):
    """Quadratic misfit of a stationary-state candidate.

    For a quantum-style material diag(-A, E - V) (V real) and a scalar
    candidate psi, returns

        W = || div(A grad psi) + (Re E - V) psi - s ||^2 + (Im E)^2 * vol,

    which vanishes exactly at a true real eigenpair with s = 0 and is
    bounded below by (Im E)^2 * vol in general.
    """
    grid = psi.grid
    nd = grid.ndim
    vals = material.values
    energy = material.omega
    psi_r = psi.to_real()
    g = fields.gradient(psi_r)
    Ag = _pointwise(-vals[..., :nd, :nd], g.values)
    coeff = np.broadcast_to(vals[..., nd, nd], (grid.npoints,))
    flux = Field(grid, fields.vector_layout(nd), Ag)
    p = fields.divergence(flux).values[:, 0]
    # coeff = E - V, so for real V its real part is Re E - V
    p = p + coeff.real * psi_r.values[:, 0]
    if source is not None:
        p = p - source.to_real().values[:, 0]
    W = float(np.sum(np.abs(p) ** 2) * grid.cell_volume)
    W += complex(energy).imag ** 2 * grid.volume
    return W
