"""Closed-form resonator models and guided-wave dispersion utilities.

Two desk-scale reference models: (i) the frequency-dependent effective mass
of a rigid shell containing spring-mounted internal masses, which feeds
anisotropic dynamic densities for the acoustic family; and (ii) the
dispersion relation and direct resonance scan for shear waves guided by a
soft layer embedded in a stiffer medium.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import zgelsy, zgelsy_lwork, zgeqrf, zunmqr
from scipy.optimize import brentq

from .fields import Field, Grid
from .materials import LField, build_love, default_projector
from .projectors import apply_projector
from .solver import Problem, solve

__all__ = [
    "effective_mass",
    "resonance_frequency",
    "resonator_density",
    "love_dispersion",
    "love_resonance_scan",
    "peak_estimate",
]


def effective_mass(omega, m0, stiffness, count, mass):
    """Dynamic effective mass M(omega) = M0 + 2*K*n*m / (2*K - m*omega^2)
    of a shell of rest mass M0 holding n internal masses m, each attached
    by a pair of springs of stiffness K.

    Vectorized over omega.  At omega = 0 this is exactly M0 + n*m (the
    masses move rigidly with the shell); it grows on the way up to the
    internal resonance sqrt(2K/m) and flips sign across it; a lossy spring
    (negative imaginary K under the e^{-i omega t} convention) gives M a
    positive imaginary part.
    """
    omega = np.asarray(omega)
    return m0 + 2.0 * stiffness * count * mass / (2.0 * stiffness - mass * omega**2)


def resonance_frequency(stiffness, mass):
    """Internal resonance sqrt(2K/m) of the spring-mass unit."""
    return float(np.sqrt(2.0 * stiffness / mass))


def resonator_density(omega, m0, springs, cell_volume):
    """Per-axis diagonal dynamic density for a cell of volume V holding a
    shell resonator: entry j is M_j(omega)/V with M_j from the springs
    (stiffness, count, mass) acting along axis j.

    ``springs`` is either a single (K, n, m) triple (isotropic) applied to
    all three axes or a sequence of per-axis triples.
    """
    if np.ndim(springs[0]) == 0:
        springs = [tuple(springs)] * 3
    entries = [
        effective_mass(omega, m0, K, n, m) / cell_volume for (K, n, m) in springs
    ]
    return np.diag(entries).astype(np.complex128)


# ---------------------------------------------------------------------------
# Guided shear waves in a soft layer
# ---------------------------------------------------------------------------

# love_dispersion brackets roots on this many evenly spaced wavenumbers.
_DISPERSION_SAMPLES = 2000
# love_resonance_scan's depth cell length, the loss on its shear moduli and
# the width of its Gaussian source.
_CELL_LENGTH = 12.0
_LOSS = 1e-6
_SOURCE_WIDTH = _CELL_LENGTH / 64.0


def _love_function(k1, omega, mu1, rho1, h, mu2, rho2):
    q1 = np.sqrt(omega**2 * rho1 / mu1 - k1**2)
    q2 = np.sqrt(k1**2 - omega**2 * rho2 / mu2)
    return mu1 * q1 * np.sin(q1 * h) - mu2 * q2 * np.cos(q1 * h)


def love_dispersion(omega, layer_mu, layer_rho, half_thickness, substrate_mu,
                    substrate_rho):
    """Guided-mode wavenumbers of a layer of half-thickness h embedded in
    (or equivalently, by midplane symmetry, sitting with a free surface on)
    a faster substrate.

    Roots k1 of mu1*q1*sin(q1*h) = mu2*q2hat*cos(q1*h) with
    q1 = sqrt(omega^2 rho1/mu1 - k1^2), q2hat = sqrt(k1^2 - omega^2 rho2/mu2),
    bracketed between the substrate and layer wavenumbers: a sign change
    between neighbours of 2000 evenly spaced wavenumbers brackets a root.
    Returns the roots in increasing order (the fundamental mode is the
    largest).
    """
    lo = omega * np.sqrt(substrate_rho / substrate_mu)
    hi = omega * np.sqrt(layer_rho / layer_mu)
    if hi <= lo:
        raise ValueError("layer must be slower than the substrate for guiding")
    eps = 1e-9 * (hi - lo)
    ks = np.linspace(lo + eps, hi - eps, _DISPERSION_SAMPLES)
    vals = _love_function(
        ks, omega, layer_mu, layer_rho, half_thickness, substrate_mu, substrate_rho
    )
    roots = []
    for a, b, fa, fb in zip(ks[:-1], ks[1:], vals[:-1], vals[1:]):
        if np.isfinite(fa) and np.isfinite(fb) and fa * fb < 0:
            roots.append(
                brentq(
                    _love_function, a, b,
                    args=(omega, layer_mu, layer_rho, half_thickness,
                          substrate_mu, substrate_rho),
                    xtol=1e-13,
                )
            )
    return np.asarray(roots)


def love_resonance_scan(
    omega,
    k1_values,
    layer_mu,
    layer_rho,
    half_thickness,
    substrate_mu,
    substrate_rho,
    points=192,
    tol=1e-6,
    max_iter=6000,
):
    """Response amplitude of the embedded layer versus propagation
    wavenumber.

    A 1-D periodic depth cell of length 12, sampled at ``points`` points,
    holds the layer (thickness 2h, centered) in substrate material; a fixed
    Gaussian displacement source of width 12/64 at the layer center, scaled
    to a largest sample of 1, drives the canonical solve at each k1 of
    ``k1_values`` (a 1-D array of finite real numbers, in any order,
    repeats allowed), on the projector ``PHYSICS["love"]`` names, and the
    recorded response |E|/|s| peaks where k1 crosses a guided-mode
    wavenumber.  A small loss (a factor 1 - 1e-6 i on the shear moduli)
    keeps the resonance finite.

    The material is affine in k1^2, so only the first k1's is built in
    full: after that solve one more :func:`build_love` at k1 = 0 gives La,
    and each later k1's material is La with k1^2 mu added to its (1, 1)
    entry, bitwise equal to ``build_love`` at that k1.

    Each solve after the first that iterates starts from the combination of
    the fields solved so far with the least residual at its k1
    (:class:`_ScanSeed`: an extended Householder factor of their projected
    columns and one ``zgelsy`` fit per k1).
    :func:`~gammasolve.solver.solve` measures that guess: one within
    0.25 tol is returned with 0 iterations, any other is iterated from.  So
    each response comes from a solve to ``tol`` in residual and moves by
    about ``tol`` against a scan that starts every solve from zero.  Near a
    sharp resonance a field can be further from the solution than its
    residual says, and the response error can then exceed ``tol``.
    """
    k1s = np.asarray(k1_values)
    if k1s.ndim != 1 or k1s.dtype.kind not in "iuf" or not np.isfinite(k1s).all():
        raise ValueError(f"k1_values must be a 1-D array of finite real numbers, "
                         f"got {k1_values!r}")
    grid = Grid((points,), (_CELL_LENGTH,))
    x = grid.coordinates()[:, 0]
    center = _CELL_LENGTH / 2.0
    in_layer = np.abs(x - center) < half_thickness
    damp = 1.0 - 1j * _LOSS
    mu = np.where(in_layer, layer_mu, substrate_mu) * damp
    rho = np.where(in_layer, layer_rho, substrate_rho).astype(np.complex128)
    bump = np.exp(-((x - center) ** 2) / (2.0 * _SOURCE_WIDTH**2))
    bump /= bump.max()  # |s| stays a normal number on a coarse grid
    gamma = default_projector("love", grid)
    svals = np.zeros((grid.npoints, 2), dtype=np.complex128)
    svals[:, 1] = bump
    source = Field(grid, gamma.layout, svals)
    responses = np.zeros(len(k1s))
    La = seed = None  # La is built after the first solve, seed after the first that iterates
    for idx, k1 in enumerate(k1s):
        k1 = float(k1)
        L = build_love(grid, omega, k1, mu, rho) if La is None else _love_at(La, k1)
        res = solve(
            Problem(grid=grid, L=L, gamma=gamma, source=source, tol=tol,
                    max_iter=max_iter, x0=None if seed is None else seed.guess(k1))
        )
        responses[idx] = float(np.linalg.norm(res.E.values))
        if La is None:
            La = build_love(grid, omega, 0.0, mu, rho)
        if res.iterations:
            if seed is None:
                seed = _ScanSeed(grid, gamma, La, source)
            seed.add(res.E)
    return responses / float(np.linalg.norm(svals))


def _love_at(La, k1):
    """build_love's material at k1, from its material La at k1 = 0: the
    (1, 1) entry k1^2 mu - omega^2 rho is La's plus k1^2 times the (0, 0)
    entry mu, which rounds exactly as build_love does."""
    vals = La.values.copy()
    vals[..., 1, 1] += k1**2 * vals[..., 0, 0]
    return LField(La.layout, vals, La.omega, La.orientation, La.physics, La.index)


class _ScanSeed:
    """Minimum-residual guesses from the fields a Love scan has solved
    (a parametric form of projection onto previous solutions: Fischer,
    Comput. Methods Appl. Mech. Engrg. 163, 1998).

    The material is L(k1) = La + k1^2 Lb with Lb E = (0, mu E_2), so the
    residual Gamma1 F(L(k1) E - s) of E = sum_j c_j E_j is
    sum_j c_j (Pa_j + k1^2 Pb_j) - g, with the fixed vectors
    Pa_j = Gamma1 F(La E_j), Pb_j = Gamma1 F(Lb E_j) and g = Gamma1 F s.
    The columns Pa_1, Pb_1, Pa_2, ... are held as a Householder QR, so Q
    stays orthonormal however nearly dependent the fields are.  Each field
    that joins extends that factor (Golub & Van Loan, Matrix Computations,
    sections 5.2 and 6.5): ``zunmqr`` applies the stored reflectors to its
    two columns, ``zgeqrf`` factors what lies below the rows already
    reduced, and the new reflectors update Q^H g, at O(M N) for M rows and
    N fields.  Once 2N reaches M no reflector is added and R is
    trapezoidal.  Minimizing the residual over c is then the least-squares
    problem of the matrix R_a + k1^2 R_b (the even and odd columns of R)
    and the right-hand side Q^H g, which ``zgelsy`` solves by a
    rank-revealing QR (Quintana-Orti, Sun & Bischof, SIAM J. Sci. Comput.
    19, 1998) at O(N^3) per guess.
    """

    def __init__(self, grid, gamma, La, source):
        self.grid, self.gamma, self.layout = grid, gamma, source.layout
        Lb = np.zeros_like(La.values)
        Lb[..., 1, 1] = La.values[..., 0, 0]  # mu
        self.La, self.Lb = La, La.with_matrices(La.layout, Lb)
        self.d = self._project(source.values)[:, None]  # Q^H g
        self.n = 0  # fields joined
        self._tau = np.zeros(len(self.d), dtype=np.complex128)
        self._qr = np.empty((len(self.d), 0), dtype=np.complex128, order="F")
        self._R = np.empty((0, 0), dtype=np.complex128)
        self._E = np.empty((0,) + source.values.shape, dtype=np.complex128)

    def _project(self, values):
        """Gamma1 F(values), flat."""
        field = Field(self.grid, self.layout, values).to_fourier()
        return apply_projector(field, self.gamma).values.ravel()

    @property
    def R(self):
        """R of the columns' QR: min(M, 2N) x 2N, upper trapezoidal."""
        ncols = 2 * self.n
        return self._R[:min(len(self.d), ncols), :ncols]

    def add(self, E):
        """Take a solved field E into the span and extend the factor."""
        n, m = self.n, len(self.d)
        if n == len(self._E):  # full: double the room
            E_room = np.empty((2 * n or 8,) + self._E.shape[1:], dtype=np.complex128)
            E_room[:n] = self._E
            qr_room = np.empty((m, 2 * len(E_room)), dtype=np.complex128, order="F")
            qr_room[:, :2 * n] = self._qr
            R_room = np.zeros((min(m, 2 * len(E_room)), 2 * len(E_room)),
                              dtype=np.complex128)
            R_room[:len(self._R), :2 * n] = self._R
            self._E, self._qr, self._R = E_room, qr_room, R_room
        cols = np.empty((m, 2), dtype=np.complex128, order="F")
        cols[:, 0] = self._project(self.La.apply(E.values))
        cols[:, 1] = self._project(self.Lb.apply(E.values))
        k = min(m, 2 * n)  # reflectors so far
        if k:
            cols = _lapack(zunmqr, "L", "C", self._qr[:, :k], self._tau[:k], cols, 2)[0]
        if k < m:
            lower, tau, _ = _lapack(zgeqrf, cols[k:])
            cols[k:] = lower
            self._tau[k:k + len(tau)] = tau
            self.d[k:] = _lapack(zunmqr, "L", "C", lower, tau, self.d[k:], 1)[0]
        self._qr[:, 2 * n:2 * n + 2] = cols
        self._R[:, 2 * n:2 * n + 2] = np.triu(cols[:len(self._R)], -k)  # no reflectors
        self._E[n] = E.values
        self.n += 1

    def guess(self, k1):
        """The field sum_j c_j E_j of least residual at k1."""
        R = self.R
        A = R[:, 0::2] + k1**2 * R[:, 1::2]
        rows, n = A.shape
        b = np.zeros((max(rows, n), 1), dtype=np.complex128)
        b[:rows] = self.d[:rows]
        cond = max(rows, n) * np.finfo(float).eps  # numpy lstsq's rcond=None
        work = _lapack(zgelsy_lwork, rows, n, 1, cond)[0]
        c = _lapack(zgelsy, A, b, np.zeros(n, dtype=np.int32), cond, int(work.real))[1]
        E = c[:n, 0] @ self._E[:n].reshape(n, -1)
        return Field(self.grid, self.layout, E.reshape(self._E.shape[1:]))


def _lapack(routine, *args):
    """The outputs of a scipy.linalg.lapack routine but its last, ``info``;
    a nonzero ``info`` raises LinAlgError."""
    *out, info = routine(*args)
    if info:
        raise np.linalg.LinAlgError(f"{routine.__name__} returned info {info}")
    return out


def peak_estimate(k1_values, responses):
    """Peak location from a sampled response curve: the argmax sample,
    refined, when it is interior, to the vertex of the parabola through
    its own and its two neighbours' (k1, log response) points, clipped to
    the neighbours' interval.  The argmax sample is returned unrefined when
    a neighbouring response is zero or the three points are collinear."""
    k1_values = np.asarray(k1_values, dtype=float)
    responses = np.asarray(responses, dtype=float)
    if k1_values.ndim != 1 or k1_values.shape != responses.shape or not k1_values.size:
        raise ValueError(
            f"k1_values and responses must be equal-length non-empty 1-D arrays, "
            f"got shapes {k1_values.shape} and {responses.shape}"
        )
    i = int(np.argmax(responses))
    if i == 0 or i == len(responses) - 1 or not np.all(responses[i - 1 : i + 2] > 0):
        return float(k1_values[i])
    x0, x1, x2 = k1_values[i - 1 : i + 2]
    y0, y1, y2 = np.log(responses[i - 1 : i + 2])
    a, b = (x1 - x0) * (y1 - y2), (x1 - x2) * (y1 - y0)
    denom = a - b
    if denom == 0.0:
        return float(k1_values[i])
    vertex = x1 - 0.5 * ((x1 - x0) * a - (x1 - x2) * b) / denom
    return float(np.clip(vertex, min(x0, x2), max(x0, x2)))
