"""Solvers for the canonical projected problem Gamma1 (L E - s) = 0.

The solve alternates pointwise material maps in real space with the
projector, applied mode by mode in Fourier space through its basis B as
Gamma1 v = B (B^H v).  Every solve works on the projector's potential
coefficients (r of the c components per mode): the iteration, the source
norm |Gamma1 s| = |B^H s| and the reported residual.  The only code that
applies the full-space operator A = Gamma1 L Gamma1 + Gamma2 is its
brute-force dense assembly :func:`dense_operator`, an oracle for small
grids.  The resolvent (z - D^dagger B D) psi = f of a second-order scalar
form is itself a canonical problem (:func:`solve_resolvent`), as is the
fermionic perturbation corrector, so every iterative solve is a
:func:`solve` call.

Both methods of :func:`solve` precondition A x = Gamma1 s on the right by
a constant reference medium L0: P = (Gamma1 L0 Gamma1 + Gamma2)^-1 =
B M^+ B^H + Gamma2 with M = B^H L0 B is exact mode by mode.  The Krylov
space of A P that starts from b = Gamma1 s never leaves range(B), and B is
an isometry there, so the iteration runs on the coefficients a = B^H y in
C^(npts r): right-hand side B^H s, operator K: a -> B^H F L F^-1 (B M^+ a),
and E_hat = B (M^+ a).  Since b - A P y = b - A x for x = P y, the
residual in potentials is the residual |Gamma1 (L E - s)| of E, so
``tol`` means the same for both methods.  M^+ is a batched inverse at
every mode where |M|_F |M^-1|_F <= 1e-2 / PINV_CUTOFF, where it equals
the pseudo-inverse under the cutoff; the other modes take that
pseudo-inverse (:func:`_inverse`), from an ``eigh`` when L0 is Hermitian
and from an SVD otherwise.

The solve reads B only through the products its basis object gives
(``projectors._basis_on``): B^H v, B phi, M = B^H L0 B and the two factors
below.  A scalar-gradient-pair family keeps only its pair h, and a
product with B is then a broadcast over h or one matrix product of h with
a constant matrix, so its set-up holds no array of the dense basis's size;
a dense basis forms each product as one matrix product of B.

K transforms only what it must.  With a reference L_ref, either 0 or L0,
and the contrast Delta = L - L_ref,

    K a = B^H L_ref B M^+ a + B^H F Delta F^-1 (B M^+ a),

where the first term is 0 for L_ref = 0 and M M^+ a for L_ref = L0, a
per-mode map that needs no FFT (the polarization form of Moulinec &
Suquet and Eyre & Milton).  The contrast runs on its joint range
(:func:`_joint_range`): with orthonormal bases Vr of the joint row space
and Uc of the joint column space of all Delta(x), Delta = Uc Dt Vr^H for
the smaller Dt = Uc^H Delta Vr, and the constant Uc and Vr commute with F,
so the second term is

    (Uc^H B)^H F Dt F^-1 (Vr^H B M^+ a),

which transforms c' components per mode instead of c.  L_ref = 0 gives
L's own joint range (9 of 12 components for isotropic elastodynamics,
whose stiffness drops the antisymmetric gradient).  L_ref = L0 is picked
when the contrast's joint range is strictly narrower (Maxwell with only
epsilon varying: 6 -> 3; a constant material: 0, and K = M M^+ with no
FFT) and when the rounding of the split, about 1e-15 max|L0| max|M^+|,
stays below the Krylov target.  On range(B^H), where b and every Krylov
vector lie, M M^+ a = a + D a with D = M M^+ - B^H B, which is zero except
at the modes where M is singular inside range(B^H) (Brinkman's k = 0
hydrostatic gauge); D is kept at those modes only.  The reported residual
reads |B^H F (L E) - B^H s_hat| for either reference.

* ``method="krylov"`` takes L0 as the mean of the canonical material over
  the grid points and runs GMRES-DR(m, m // 4) on K, restarted GMRES that
  carries a quarter of each cycle's m directions, the harmonic Ritz
  vectors of smallest modulus, into the next (Morgan 2002).  The driver
  (:func:`_krylov`, written here on numpy) checks the true residual
  |B^H s - K a| at every restart, so the residual history ends in the
  reported norm, and it reports a cycle without progress or a happy
  breakdown short of ``tol``.
* ``method="fixed_point"`` takes L0 = c I for a reference constant c and
  runs the unit-step Richardson iteration a <- a + (B^H s - K a).  With
  B M^+ = B / c this is the classical scheme E <- E + Gamma1 (s - L E) / c
  (Moulinec & Suquet; Eyre & Milton).

:func:`_krylov` is the one GMRES entry point and :func:`_contrast_matvec`
the one potential-space operator: the reference is its data, and both
methods iterate on it.  Its transform core :func:`_potential_matvec` also
assembles the dense oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields
from .fields import Block, BlockLayout, Field, _pointwise, scalar_layout, transform
from .materials import LField, canonical_material
from .projectors import PINV_CUTOFF, _basis_on, gamma_helmholtz, helmholtz_D

__all__ = [
    "Problem",
    "SolveResult",
    "solve",
    "dense_operator",
    "solve_dense",
    "solve_resolvent",
    "ResonanceError",
    "residual_functional",
]


# A new Krylov vector whose norm after orthogonalization is below _EPS of its
# norm before is a happy breakdown.
_EPS = np.finfo(float).eps

# The values Problem.method may take.
_METHODS = ("krylov", "fixed_point")

# A material's joint range drops the candidate null vectors (Gram eigenvalues
# at most _NULL_CANDIDATE of the largest) only if it maps each of them to at
# most _RANGE_TOL * max|L| in every entry.
_NULL_CANDIDATE = 1e-12
_RANGE_TOL = 1e-13

# The contrast form applies L0's part of L exactly and the contrast through
# the FFTs, so the two no longer cancel before rounding: it adds a relative
# error of about _SPLIT_ROUNDING max|L0| max|M^+| to K a, which must stay
# below the Krylov target 0.25 tol.
_SPLIT_ROUNDING = 1e-15

# Per-point materials are scanned and restricted this many matrices at a
# time, so that no copy of the whole material is made.
_BLOCK = 512

# A deflated restart rewrites the Krylov basis this many columns at a time.
_DEFLATE_BLOCK = 1024

# The dense oracle assembles at most this many unknowns (npts c), a
# (4096, 4096) complex matrix of 256 MiB.
_DENSE_LIMIT = 4096


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
        Target relative residual |Gamma1 (L E - s)| / |Gamma1 s|, positive.
    max_iter : int
        Cap on inner Krylov (or fixed-point) iterations, a positive integer.
    method : {"krylov", "fixed_point"}
    reference : complex or None
        The ``c`` of the fixed-point scheme's reference medium L0 = c I, a
        finite nonzero number (None estimates it as max_x |L(x)|_2).
    restart : int or None
        Krylov restart length m, at least 1: the GMRES basis holds m + 1
        vectors, and each restart carries m // 4 of its directions into
        the next cycle (None picks min(40, n, max_iter), where n = npts r
        counts the potential unknowns; raise it for stiff penalized
        problems where restarting stalls).
    x0 : Field or None
        Initial guess for E, on the source's grid and layout (either
        representation); it is read during the solve only.  The solve takes
        its projection Gamma1 x0.  When that meets 0.25 tol, the Krylov
        target, it is returned with no iteration and no operator set-up;
        otherwise both methods start from it, or from zero when its
        residual is no smaller than |Gamma1 s|.
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
    x0: object = None


@dataclass
class SolveResult:
    """Fields and convergence record of one solve.

    ``stop_reason`` is ``"converged"`` (residual <= tol, including a zero
    projected source), ``"max_iter"`` (the iteration budget ran out),
    ``"stagnated"`` (a GMRES restart cycle did not lower the true residual;
    E is the iterate from the start of that cycle), ``"breakdown"`` (GMRES
    found its Krylov space invariant with residual > tol, as for a source
    outside the operator's range), ``"diverged"`` (the fixed-point scheme
    blew up) or ``"stalled"`` (the method's own test passed but the
    residual of E missed tol: the dense oracle's direct solve, or a GMRES
    residual that rounding moved when measured again for E).
    An iterative solve's ``residual_history`` holds one relative residual
    per iteration and ends in ``residual``.  A solve whose guess ``x0``
    already met the target reports 0 iterations and an empty history.
    """

    E: object
    J: object
    residual: float
    iterations: int
    converged: bool
    method: str
    residual_history: list = dc_field(default_factory=list)
    stop_reason: str = "converged"


def _krylov(matvec, b, tol, max_iter, restart=None, x0=None):
    """Restarted GMRES with deflated restarts, GMRES-DR(m, m // 4) (Saad &
    Schultz 1986; Morgan 2002), on a flat complex right-hand side ``b``,
    from x = ``x0``, or from x = 0 when ``x0`` is None (:func:`_start`).
    Every tolerance and history entry stays relative to |b|.

    Each cycle builds an orthonormal Krylov basis V by classical
    Gram-Schmidt with reorthogonalization (CGS2: two passes, each two
    matrix-vector products on a preallocated basis; Giraud et al. 2005).
    V, the Hessenberg matrix H of the Arnoldi relation K V[:p] =
    V[:p + 1] H[:p + 1, :p] over the cycle's p columns and the coordinates
    rhs of its starting residual in V are all the state a cycle keeps.
    The least-squares residual after p iterations is |q^H rhs| / |q| for
    a null vector q of H[:p + 1, :p]^H (Brown 1991).  A cycle starts q at
    rhs / |rhs|, so the estimate is |rhs| / |q|, and column p - 1 adds the
    one entry q[p] = -(H[:p, p - 1]^H q[:p]) / H[p, p - 1]; a happy
    breakdown makes the estimate 0.  No rotation or QR of H serves it.
    A cycle ends when that estimate reaches 0.25 * tol * |b|, on a happy
    breakdown or when the basis holds m + 1 vectors, m = min(40, n,
    max_iter) unless ``restart`` gives it, with n = b.size (npts r
    potential unknowns for the canonical solve), or when the budget of
    ``max_iter`` iterations runs out.  The cycle's correction is the
    least-squares solution y of H[:p + 1, :p] y = rhs[:p + 1] by truncated
    SVD, and one more matvec measures the true residual |b - K x|, which
    replaces the cycle's last history entry, so the history ends in the
    norm of the returned iterate.  The solve stops as ``"converged"`` when
    the true residual is at most 0.25 * tol * |b|.  A cycle that does not
    lower the true residual returns its starting iterate as
    ``"stagnated"`` (the better iterate, as for singular or inconsistent
    systems: Brown & Walker 1997); a happy breakdown that misses the
    target returns ``"breakdown"``; else the budget ends it as
    ``"max_iter"``.

    A cycle that ran to its full length keeps k = m // 4 directions
    (:func:`_deflate`): the next cycle starts from the k harmonic Ritz
    vectors of smallest modulus and the cycle's residual, and adds m - k
    new ones, so the eigenvalues near 0 that stall plain restarted GMRES
    stay deflated across restarts.  Its first k + 1 basis vectors span
    the previous residual, which the next least-squares problem then
    minimizes over all m directions.  That rhs is orthogonal to the range
    of H's (k + 1) x k leading block, so q starts at rhs / |rhs| there
    just as at e_0 in a plain cycle.  A cycle restarts plainly from the
    true residual (V[0] = r / |r|, H = 0, rhs = |r| e_0) when m < 4, when
    the harmonic Ritz vectors cannot be formed, or when its estimate met
    the target but the true residual did not.  The first cycle is plain
    GMRES, so a solve that converges within it does not depend on the
    restart scheme.

    Returns ``(x, history, stop_reason)`` with the relative residual after
    each inner iteration in ``history``.  ``matvec`` must return a new
    complex array, which the orthogonalization overwrites.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = b.size
    m = min(40 if restart is None else restart, n, max_iter)
    keep = m // 4
    b_norm = _norm(b)
    target = 0.25 * tol * b_norm
    x, r = _start(matvec, b, x0)
    beta, start = _norm(r), 0
    # A cycle starts at column ``start``: 0, or keep after a deflation, which
    # writes the first columns of V, H and rhs.
    V = np.empty((m + 1, n), dtype=np.complex128)
    H = np.zeros((m + 1, m), dtype=np.complex128)
    rhs = np.zeros(m + 1, dtype=np.complex128)
    q = np.empty(m + 1, dtype=np.complex128)
    history = []
    while len(history) < max_iter:
        if not start:
            np.multiply(r, 1.0 / beta, out=V[0])
            H[:] = 0.0
            rhs[:] = 0.0
            rhs[0] = beta
        del r  # the cycle holds no residual beside V
        # q is orthogonal to the range of H[:j + 2, :j + 1], as rhs is to
        # that of the leading block, so the estimate is |rhs| / |q|
        rhs_norm, q_sq = _norm(rhs), 1.0
        np.multiply(rhs[: start + 1], 1.0 / rhs_norm, out=q[: start + 1])
        for j in range(start, min(m, start + max_iter - len(history))):
            w = matvec(V[j])
            Vj = V[: j + 1]
            h = (Vj @ w.conj()).conj()
            w -= h @ Vj
            h2 = (Vj @ w.conj()).conj()
            w -= h2 @ Vj
            h += h2
            h_next = _norm(w)
            breakdown = h_next <= _EPS * math.hypot(_norm(h), h_next)
            if not breakdown:
                np.multiply(w, 1.0 / h_next, out=V[j + 1])
                q[j + 1] = -np.vdot(h, q[: j + 1]) / h_next
                q_sq += abs(q[j + 1]) ** 2
            H[: j + 1, j], H[j + 1, j] = h, h_next
            estimate = 0.0 if breakdown else rhs_norm / math.sqrt(q_sq)
            history.append(estimate / b_norm)
            if estimate <= target or breakdown:
                break
        k = j + 1
        # The truncated SVD drops the directions of a numerically singular
        # H; back substitution there (a singular or inconsistent K) turns
        # rounding into a huge, useless correction.
        y = np.linalg.lstsq(H[: k + 1, :k], rhs[: k + 1], rcond=None)[0]
        x_new = x + y @ V[:k]
        r = matvec(x_new)
        np.subtract(b, r, out=r)
        r_norm = _norm(r)
        if r_norm <= target:
            history[-1] = r_norm / b_norm
            return x_new, history, "converged"
        if not r_norm < beta:  # also a NaN residual
            history[-1] = beta / b_norm
            return x, history, "stagnated"
        history[-1] = r_norm / b_norm
        if breakdown:
            return x_new, history, "breakdown"
        x, beta = x_new, r_norm
        start = keep if (keep and k == m and estimate > target and len(history) < max_iter
                         and _deflate(V, H, rhs, keep)) else 0
    return x, history, "max_iter"


def _deflate(V, H, rhs, k):
    """The deflated restart of GMRES-DR (Morgan 2002) after a full cycle
    with K V[:m] = V H that started from the residual V rhs.

    The cycle's least-squares residual is V s with s = q q^H rhs, where
    the unit q spans the null space of H^H (the last column of H's
    complete QR): formed so, s stays orthogonal to range(H) to rounding
    even when it is many orders below rhs, which rhs - H y does not.  The
    harmonic Ritz pairs (theta, g) of K on range(V[:m]) solve
    (H_m + |h_(m+1,m)|^2 f e_m^H) g = theta g with f = H_m^-H e_m, and H
    maps each g into the span of (g, 0) and s.  So with P ((m + 1) x
    (k + 1)) an orthonormal basis of the k pairs of smallest |theta|,
    padded with a zero, and s, the Arnoldi relation
    K (P^T V)[:k] = (P^T V)[:k + 1] (P^H H P[:m, :k]) holds again.

    Writes the new basis V[:k + 1] = P^T V (_DEFLATE_BLOCK columns at a time,
    so no (k + 1, n) array is made), its (k + 1) x k matrix H and the
    residual's coordinates rhs = P^H s in place and returns True.  Returns
    False and changes nothing when H_m is singular or the pairs are not
    finite."""
    m = H.shape[1]
    q = np.linalg.qr(H, mode="complete")[0][:, m]
    s = q * np.vdot(q, rhs)
    Hm = H[:m]
    try:
        f = np.linalg.solve(Hm.conj().T, np.eye(m)[-1])
        A = Hm.copy()
        A[:, -1] += abs(H[m, m - 1]) ** 2 * f
        theta, G = np.linalg.eig(A)
    except np.linalg.LinAlgError:
        return False
    if not (np.isfinite(theta).all() and np.isfinite(G).all()):
        return False
    W = np.zeros((m + 1, k + 1), dtype=np.complex128)
    W[:m, :k] = G[:, np.argsort(np.abs(theta))[:k]]
    W[:, k] = s
    P = np.linalg.qr(W)[0]
    Hk = P.conj().T @ H @ P[:m, :k]
    for i in range(0, V.shape[1], _DEFLATE_BLOCK):
        V[: k + 1, i:i + _DEFLATE_BLOCK] = P.T @ V[:, i:i + _DEFLATE_BLOCK]
    H[:] = 0.0
    H[: k + 1, :k] = Hk
    rhs[:] = 0.0
    rhs[: k + 1] = P.conj().T @ s
    return True


def _positive_integer(n):
    """Whether n is an integer of at least 1 (a bool is not one)."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1


def _norm(v):
    """2-norm of a flat complex vector as a float (np.linalg.norm costs a
    few microseconds more per call)."""
    return math.sqrt(np.vdot(v, v).real)


def _start(matvec, b, x0):
    """The starting iterate x of a solve of K x = b and its residual
    b - K x: ``x0`` and one matvec, or x = 0 and b itself when ``x0`` is
    None.  The caller has measured the guess and passes only one that
    beats the zero start."""
    if x0 is None:
        return np.zeros_like(b), b
    r = matvec(x0)
    np.subtract(b, r, out=r)
    return x0, r


def _richardson(matvec, b, tol, max_iter, x0=None):
    """Unit-step Richardson iteration a <- a + (b - K a) from the start
    :func:`_start` picks: ``x0``, or a = 0.

    Records |b - K a| / |b| after each step and stops when it reaches
    ``tol``, when it exceeds 1e8 or is not finite (``"diverged"``), or at
    ``max_iter`` steps.  Returns ``(a, history, stop_reason)`` with
    ``stop_reason`` ``"diverged"`` or ``"max_iter"``; the caller reports
    ``"converged"`` from the true residual.
    """
    b_norm = np.linalg.norm(b)
    a, r = _start(matvec, b, x0)
    history = []
    for _ in range(max_iter):
        a = a + r
        r = b - matvec(a)
        rel = float(np.linalg.norm(r) / b_norm)
        history.append(rel)
        if rel <= tol:
            break
        if not np.isfinite(rel) or rel > 1e8:
            return a, history, "diverged"  # the scheme needs a definite material map
    return a, history, "max_iter"


def _potential_matvec(grid, left, apply, right, a):
    """left F apply(F^-1 (right a)) for flat per-mode potential
    coefficients a (npts r of them): ``right`` lifts them to fields,
    ``apply`` is a pointwise real-space map and ``left`` takes the result
    back to flat potentials."""
    real = transform(_pointwise(right, a.reshape(-1, right.shape[-1])), grid, False)
    return _pointwise(left, transform(apply(real), grid)).ravel()


def _contrast_matvec(grid, left, apply, right, modes, D, a):
    """K a = B^H L_ref B M^+ a + left F apply(F^-1 (right a)) for flat
    potentials a in range(B^H).  The reference term is 0 when ``D`` is None
    (L_ref = 0) and otherwise M M^+ a = a + D a, where ``D`` holds
    M M^+ - B^H B at the ``modes`` where it is not zero.  A contrast of
    width 0 (``right`` has no rows) transforms nothing."""
    if right.shape[-2]:
        Ka = _potential_matvec(grid, left, apply, right, a)
    else:
        Ka = np.zeros_like(a)
    if D is not None:
        Ka += a
        if len(modes):
            x = a.reshape(len(right), -1)
            Ka.reshape(x.shape)[modes] += _pointwise(D, x[modes])
    return Ka


def _potentials(problem):
    """The canonical material Lc, the projector's per-mode basis B (as
    the products :func:`projectors._basis_on` provides) and the source's
    potential coefficients b = B^H s_hat (flat): everything a solve needs
    besides its reference medium.  Raises ValueError when the material,
    projector and source differ in component count, or when the source or
    a varying material lives on another grid than the problem's."""
    Lc = canonical_material(problem.L)
    if Lc.ncomp != problem.gamma.ncomp:
        raise ValueError("material and projector component counts differ")
    s = problem.source
    if s.layout.ncomp != Lc.ncomp:
        raise ValueError("source layout does not match material")
    if s.grid != problem.grid:
        raise ValueError("source and problem grids differ")
    if Lc.npoints not in (None, problem.grid.npoints):
        raise ValueError(f"material on {Lc.npoints} points, grid of {problem.grid.npoints}")
    B = _basis_on(problem.gamma, problem.grid, problem.shift)
    return Lc, B, B.adjoint(s.to_fourier().values).ravel()


def _zero_result(problem, method):
    """E = 0 and J = -s: the exact solution when Gamma1 s vanishes."""
    grid, layout = problem.grid, problem.L.layout
    J = Field(grid, layout, -problem.source.to_real().values)
    return SolveResult(Field.zeros(grid, layout), J, 0.0, 0, True, method)


def _result(problem, Lc, B, e_hat, b, scale, iterations, method, history, stop_reason):
    """SolveResult for a Fourier-space solution e_hat of the problem whose
    source is scaled by ``scale`` (one material application serves J and
    the residual).  The residual |Gamma1 (L E - s)| / |Gamma1 s| is
    measured in potentials as |B^H F (L E) - b| / |b|, equal since B is a
    partial isometry, for every method, reference and guess, before E and
    L E are scaled back.  ``stop_reason`` applies only when the residual
    misses the tolerance; a method that stopped as converged then reports
    ``"stalled"``."""
    grid, layout = problem.grid, problem.L.layout
    E = Field(grid, layout, e_hat, "fourier").to_real()
    LE = Lc.apply(E.values)
    r = B.adjoint(transform(LE, grid)).ravel() - b
    residual = float(np.linalg.norm(r) / np.linalg.norm(b))
    E.values /= scale
    LE /= scale
    J = Field(grid, layout, LE - problem.source.to_real().values)
    converged = residual <= problem.tol
    if converged:
        stop_reason = "converged"
    elif stop_reason == "converged":
        stop_reason = "stalled"
    return SolveResult(E, J, residual, iterations, converged, method, list(history),
                       stop_reason)


def solve(problem):
    """Solve Gamma1 (L E - s) = 0, Gamma1 E = E for E (and J = L E - s).

    Returns a SolveResult with real-space E and J fields; E is projected
    onto range(Gamma1) exactly.  With a source whose projection vanishes
    the zero field is returned as converged.  A guess ``problem.x0`` is
    measured first, as :func:`_result` measures E: if its projection
    Gamma1 x0 meets 0.25 tol it is returned with 0 iterations, before M^+,
    the joint range or the factors are built.  Otherwise, when its relative
    residual is below 1, the iteration starts from a0 = M B^H x0_hat, for
    which B M^+ a0 = Gamma1 x0_hat, and else from zero.  The result does not
    depend on the source's scale: a source 2^k s gives 2^k E and 2^k J with
    the same iterations and residuals, bitwise.
    """
    if not _positive_integer(problem.max_iter):
        raise ValueError(f"max_iter must be a positive integer, got {problem.max_iter!r}")
    restart = problem.restart
    if restart is not None and not _positive_integer(restart):
        raise ValueError(f"restart must be a positive integer or None, got {restart!r}")
    if not problem.tol > 0:  # also a NaN
        raise ValueError(f"tol must be a positive number, got {problem.tol!r}")
    if problem.method not in _METHODS:
        raise ValueError(f"unknown method {problem.method!r}")
    c = problem.reference
    if c is not None and not (np.isfinite(c) and c != 0):
        raise ValueError(f"reference must be a finite nonzero number, got {c!r}")
    x0 = problem.x0
    if x0 is not None and not (isinstance(x0, Field) and x0.grid == problem.source.grid
                               and x0.layout == problem.source.layout):
        raise ValueError("x0 must be a Field on the source's grid and layout")
    Lc, B, b = _potentials(problem)
    if not b.any():
        return _zero_result(problem, problem.method)
    # The solve runs on the source scaled by a power of two to a largest
    # potential in [0.5, 1), so that no norm under- or overflows; the
    # scaling is exact, and _result undoes it.
    scale = math.ldexp(1.0, -max(int(np.frexp(np.abs(b).max())[1]), -1022))
    b *= scale
    p0 = None
    if x0 is not None:
        p0 = B.adjoint(x0.to_fourier().values)
        p0 *= scale
        guess = _result(problem, Lc, B, B.apply(p0), b, scale, 0, problem.method, (),
                        "converged")
        if guess.residual <= 0.25 * problem.tol:
            return guess
        if not guess.residual < 1:  # no better than the zero start (or NaN)
            p0 = None
        del guess

    if problem.method == "krylov":
        L0 = Lc.mean()
    else:
        if c is None:
            # max_x |L(x)|_2, over the rows of a table or per-point array
            Lx = Lc.values.reshape(-1, Lc.ncomp, Lc.ncomp)
            herm = np.conj(np.swapaxes(Lx, -1, -2)) @ Lx
            c = float(np.sqrt(np.max(np.linalg.eigvalsh(herm))))
        L0 = c * np.eye(Lc.ncomp)
    bases, contrast_bases = _range_bases(Lc), _range_bases(Lc, L0)
    # B M^+ with M = B^H L0 B is the thin factor of the exact per-mode
    # inverse of Gamma1 L0 Gamma1 + Gamma2.  The pseudo-inverse cutoff drops
    # the directions in which M is singular: Brinkman's k = 0 hydrostatic
    # stress, which the mean medium annihilates, and the zero directions of
    # a partial-isometry basis.
    hermitian = np.abs(L0 - L0.conj().T).max() <= 1e-14 * np.abs(L0).max()
    M = B.gram(L0)
    Minv = _inverse(M, hermitian)
    a0 = None if p0 is None else _pointwise(M, p0).ravel()  # B M^+ a0 = B p0
    # The reference is L0 when the contrast L - L0 has the narrower joint
    # range and the split is faithful, else 0; the width test comes first,
    # so a tie never scans M^+.
    r = M.shape[-1]
    ref = modes = D = None
    if (_width(Lc.ncomp, contrast_bases) < _width(Lc.ncomp, bases)
            and _SPLIT_ROUNDING * np.abs(L0).max() * np.abs(Minv).max() <= 0.25 * problem.tol):
        ref, bases = L0, contrast_bases
        # D = M M^+ - B^H B is minus the projector onto the directions of
        # range(B^H) that M annihilates: at a mode it is either rounding, at
        # most about eps / PINV_CUTOFF, or has a diagonal entry of at least
        # 1 / r.
        D = M @ Minv - B.gram(None)
        modes = np.flatnonzero(np.abs(D).max(axis=(-2, -1)) > 0.5 / r)
        D = D[modes]
    del M
    Qc, Lt, Pr = _joint_range(Lc, ref, bases)
    # L - L_ref = Qc Lt Pr^H, and the constant Qc and Pr commute with F, so
    # B^H F (L - L_ref) F^-1 (B M^+ a) = left F Lt F^-1 (right a) with the
    # c'-wide factors left = B^H Qc and right = Pr^H B M^+; each is B^H or
    # B M^+ when nothing drops on its side.
    left, right = B.left(Qc), B.right(Pr, Minv)
    matvec = functools.partial(_contrast_matvec, problem.grid, left, Lt.apply, right, modes, D)
    if problem.method == "krylov":
        a, history, stop_reason = _krylov(matvec, b, problem.tol, problem.max_iter,
                                          restart, a0)
    else:
        a, history, stop_reason = _richardson(matvec, b, problem.tol, problem.max_iter,
                                              a0)
    del matvec, left, right  # the result needs neither factor
    e_hat = B.apply(_pointwise(Minv, a.reshape(problem.grid.npoints, -1)))
    return _result(problem, Lc, B, e_hat, b, scale, len(history), problem.method, history,
                   stop_reason)


def _joint_range(L, L0=None, bases=None):
    """The material (with ``L0``, the contrast L - L0) on its joint range:
    ``(Qc, Lt, Pr)`` with orthonormal bases Qc (c, kc) of the joint column
    space and Pr (c, kr) of the joint row space of all L(x), and
    Lt = Qc^H L Pr on L's phase index (kc x kr, possibly rectangular), so
    that L = Qc Lt Pr^H.  A side with nothing to drop is None, and with
    neither side (and no L0) Lt is L; the zero map has width 0.  The two
    sides are found apart (:func:`_range_bases`, unless ``bases`` gives
    them): a velocity coupling (Oseen, ``ns_perturbation``) reads the whole
    field gradient but still returns a symmetric stress.  Lt shares L's
    per-phase point lists, and L's matrices (one, one per phase or one per
    point) are restricted _BLOCK at a time, so L - L0 is never formed."""
    Qt, Pr = _range_bases(L, L0) if bases is None else bases
    if Qt is None and Pr is None and L0 is None:
        return None, L, None

    mats = L.values.reshape(-1, L.ncomp, L.ncomp)
    kc, kr = (L.ncomp if V is None else V.shape[1] for V in (Qt, Pr))
    values = np.empty((len(mats), kc, kr), dtype=np.complex128)
    for i in range(0, len(mats), _BLOCK):
        part = mats[i:i + _BLOCK]
        part = part if L0 is None else part - L0
        part = part if Pr is None else part @ Pr
        values[i:i + _BLOCK] = part if Qt is None else Qt.T @ part  # Qc^H = Qt^T
    values = values.reshape(L.values.shape[:-2] + (kc, kr))
    layout = BlockLayout((Block("vector", kr),) if kr else ())
    return None if Qt is None else Qt.conj(), L.with_matrices(layout, values), Pr


def _range_bases(L, L0=None):
    """``(Qt, Pr)``: orthonormal bases of the joint row spaces of the
    transposes (Qt, the conjugate of the joint column space) and of the
    matrices (Pr) of L - L0 (of L without ``L0``), each the complement of
    the common null space of those rows, or None when nothing drops on
    that side ((c, 0) for zero matrices).

    The candidates N are the Gram eigenvectors with eigenvalue at most
    _NULL_CANDIDATE of the largest, and they drop only if
    max|rows N| <= _RANGE_TOL max|rows|: an eigenvalue threshold alone
    cannot tell a null vector from a direction that is only small beside a
    large penalty (``ns_perturbation``'s 1e8 penalty puts its 0.2
    deviatoric block there).  Both sides' Grams are summed in one pass, and
    the maxima in at most one more, over _BLOCK matrices at a time with L0
    subtracted block by block, so that a per-point material is neither
    copied whole nor L - L0 formed (a phase table is one block)."""
    c = L.ncomp
    mats = L.values.reshape(-1, c, c)

    def blocks():  # each block's rows of the transposes and of the matrices
        for i in range(0, len(mats), _BLOCK):
            part = mats[i:i + _BLOCK]
            part = part if L0 is None else part - L0
            yield np.swapaxes(part, -1, -2).reshape(-1, c), part.reshape(-1, c)

    grams = [0, 0]
    for rows in blocks():
        for side in (0, 1):
            grams[side] = grams[side] + rows[side].conj().T @ rows[side]
    bases, nulls = [None, None], {}
    for side, G in enumerate(grams):
        w, V = np.linalg.eigh(G)
        drop = w <= _NULL_CANDIDATE * w[-1]
        if drop.any():
            bases[side], nulls[side] = V[:, ~drop], V[:, drop]
    if nulls:
        small, big = dict.fromkeys(nulls, 0.0), 0.0
        for rows in blocks():
            big = max(big, np.abs(rows[1]).max())
            for side, N in nulls.items():
                small[side] = max(small[side], np.abs(rows[side] @ N).max())
        for side in nulls:
            if small[side] > _RANGE_TOL * big:
                bases[side] = None
    return tuple(bases)


def _width(c, bases):
    """kc + kr, the summed widths of a joint range's sides (c for a side
    with nothing to drop)."""
    return sum(c if V is None else V.shape[1] for V in bases)


def _inverse(M, hermitian=False):
    """M^+ of a stack of per-mode matrices as :func:`_pinv` defines it, by a
    batched inverse wherever that equals it: at a mode with
    |M|_F |M^-1|_F <= 1e-2 / PINV_CUTOFF, an upper bound on its condition
    number, the cutoff keeps every singular value.  The other modes, or the
    whole stack when the inverse fails at an exactly singular mode
    (Brinkman's k = 0), take :func:`_pinv`'s value."""
    if M.shape[-2:] == (1, 1):
        return _pinv(M)
    try:
        X = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return _pinv(M, hermitian)
    bad = ~(np.linalg.norm(M, axis=(-2, -1)) * np.linalg.norm(X, axis=(-2, -1))
            <= 1e-2 / PINV_CUTOFF)  # also a non-finite inverse
    if bad.any():
        X[bad] = _pinv(M[bad], hermitian)
    return X


def _pinv(M, hermitian=False):
    """Pseudo-inverses of a stack of per-mode matrices under the relative
    cutoff PINV_CUTOFF.  A 1 x 1 matrix m has the singular value |m|, which
    the cutoff keeps exactly when m != 0, so its pseudo-inverse is 1/m
    there and 0 elsewhere, with no SVD.  A ``hermitian`` stack has the
    singular values |lambda| of its eigenvalues, so an ``eigh`` gives the
    same pseudo-inverse at about half the cost of the SVD."""
    if M.shape[-2:] != (1, 1):
        return np.linalg.pinv(M, rcond=PINV_CUTOFF, hermitian=hermitian)
    out = np.zeros_like(M)
    np.divide(1.0, M, out=out, where=M != 0)
    return out


def dense_operator(problem):
    """Assemble A = Gamma1 L Gamma1 + Gamma2 as a dense matrix in the
    Fourier basis, one column per unit vector e: with Gamma1 = B B^H,
    A e = B B^H F L F^-1 B B^H e + (e - B B^H e).  A brute-force oracle
    for small grids of at most _DENSE_LIMIT unknowns (npts c), and the
    only full-space operator in the package."""
    Lc, B, _ = _potentials(problem)
    return _dense_matrix(problem.grid, Lc, B)


def _dense_matrix(grid, Lc, B):
    n = grid.npoints * Lc.ncomp
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense assembly of size {n} exceeds limit {_DENSE_LIMIT}")
    A = np.zeros((n, n), dtype=np.complex128)
    e = np.zeros((grid.npoints, Lc.ncomp), dtype=np.complex128)
    Bh, Bd = B.left(None), B.rows()
    for j in range(n):
        e.flat[j] = 1.0
        a = B.adjoint(e)
        Ka = _potential_matvec(grid, Bh, Lc.apply, Bd, a.ravel()).reshape(a.shape)
        A[:, j] = (B.apply(Ka - a) + e).ravel()
        e.flat[j] = 0.0
    return A


def solve_dense(problem):
    """Direct dense solve of the canonical problem (oracle for small grids,
    as :func:`dense_operator`)."""
    Lc, B, b = _potentials(problem)
    A = _dense_matrix(problem.grid, Lc, B)
    if not b.any():
        return _zero_result(problem, "dense")
    x = np.linalg.solve(A, B.apply(b.reshape(problem.grid.npoints, -1)).ravel())
    e_hat = B.apply(B.adjoint(x.reshape(problem.grid.npoints, -1)))
    return _result(problem, Lc, B, e_hat, b, 1.0, 1, "dense", (), "stalled")


# ---------------------------------------------------------------------------
# Resolvent path: (z - D^dagger B D) psi = f on scalar potentials
# ---------------------------------------------------------------------------


def solve_resolvent(grid, z, B, f, tol=1e-10, max_iter=2000):
    """Solve (z - D^dagger B D) psi = f for a scalar potential psi, where
    D c = (grad c, c) and B is a material on the (vector, scalar) layout
    (second-order coefficient matrix in the vector block, zero-order
    coefficient in the scalar slot).

    This is the canonical problem Gamma1 (L E - s) = 0 on the Helmholtz
    projector with L = B - z e_s e_s^T, source s = (0, -f) and E = D psi:
    since range Gamma1 = range D, it says D^dagger (L D psi - s) = 0, the
    resolvent equation.  :func:`solve` solves it, so ``tol`` bounds the
    canonical residual |Gamma1 (L E - s)| / |Gamma1 s|, and psi is the
    scalar slot of E, returned in f's representation.  Raises
    ResonanceError when that solve does not reach ``tol`` (z is then
    numerically in or near the spectrum).
    """
    nd = grid.ndim
    if f.layout != scalar_layout():
        raise ValueError("resolvent source must be a single scalar block")
    if B.layout != helmholtz_D(nd).layout:
        raise ValueError("B must live on a (vector(ndim), scalar) layout")
    values = B.values.copy()  # one matrix per phase in a phase table
    values[..., nd, nd] -= z
    s = np.zeros((grid.npoints, nd + 1), dtype=np.complex128)
    s[:, nd] = -f.values[:, 0]
    L = LField(B.layout, values, index=B.index)
    res = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(nd),
                        source=Field(grid, B.layout, s, f.representation), tol=tol,
                        max_iter=max_iter))
    if not res.converged:
        raise ResonanceError(
            f"resolvent solve stopped ({res.stop_reason}) at relative residual "
            f"{res.residual:.3e} (z may be near the spectrum)"
        )
    psi = Field(grid, scalar_layout(), res.E.values[:, nd:])
    return psi if f.representation == "real" else psi.to_fourier()


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
    energy = material.omega
    psi_r = psi.to_real()
    g = fields.gradient(psi_r)
    # L (grad psi, 0) has -A grad psi in its vector block
    Ag = -material.apply(np.pad(g.values, ((0, 0), (0, 1))))[:, :nd]
    coeff = material.values[..., nd, nd]
    if material.index is not None:
        coeff = coeff[material.index]
    coeff = np.broadcast_to(coeff, (grid.npoints,))
    flux = Field(grid, fields.vector_layout(nd), Ag)
    p = fields.divergence(flux).values[:, 0]
    # coeff = E - V, so for real V its real part is Re E - V
    p = p + coeff.real * psi_r.values[:, 0]
    if source is not None:
        p = p - source.to_real().values[:, 0]
    W = float(np.sum(np.abs(p) ** 2) * grid.cell_volume)
    W += complex(energy).imag ** 2 * grid.volume
    return W
