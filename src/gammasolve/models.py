"""Closed-form resonator models and guided-wave dispersion utilities.

Two desk-scale reference models: (i) the frequency-dependent effective mass
of a rigid shell containing spring-mounted internal masses, which feeds
anisotropic dynamic densities for the acoustic family; and (ii) the
dispersion relation and direct resonance scan for shear waves guided by a
soft layer embedded in a stiffer medium.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .fields import Field, Grid
from .materials import build_love, default_projector
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
    Gaussian displacement source of width 12/64 at the layer center drives
    the canonical solve at each k1, on the projector ``PHYSICS["love"]``
    names, and the recorded response |E|/|s| peaks where k1 crosses a
    guided-mode wavenumber.  A small loss (a factor 1 - 1e-6 i on the shear
    moduli) keeps the resonance finite.

    Each solve starts from its neighbours: the fields of the last three
    solves (in the order of ``k1_values``, which need not be sorted or
    evenly spaced) are extrapolated to the next k1 by the Lagrange
    polynomial through their wavenumbers, and a repeated k1 reuses the
    field solved there.  :func:`~gammasolve.solver.solve` measures that
    guess and falls back to a zero start when it is worse, so each response
    is that of a solve to ``tol`` and moves by about ``tol`` against a scan
    that starts every solve from zero.
    """
    grid = Grid((points,), (_CELL_LENGTH,))
    x = grid.coordinates()[:, 0]
    center = _CELL_LENGTH / 2.0
    in_layer = np.abs(x - center) < half_thickness
    damp = 1.0 - 1j * _LOSS
    mu = np.where(in_layer, layer_mu, substrate_mu) * damp
    rho = np.where(in_layer, layer_rho, substrate_rho).astype(np.complex128)
    bump = np.exp(-((x - center) ** 2) / (2.0 * _SOURCE_WIDTH**2))
    gamma = default_projector("love", grid)
    responses = np.zeros(len(k1_values))
    solved = []  # (k1, E values) of the last three solves, at distinct k1
    for idx, k1 in enumerate(k1_values):
        k1 = float(k1)
        L = build_love(grid, omega, k1, mu, rho)
        svals = np.zeros((grid.npoints, 2), dtype=np.complex128)
        svals[:, 1] = bump
        source = Field(grid, L.layout, svals)
        guess = _extrapolate(solved, k1)
        res = solve(
            Problem(grid=grid, L=L, gamma=gamma, source=source, tol=tol,
                    max_iter=max_iter,
                    x0=None if guess is None else Field(grid, L.layout, guess))
        )
        snorm = float(np.linalg.norm(source.values))
        responses[idx] = float(np.linalg.norm(res.E.values)) / snorm
        solved = [s for s in solved if s[0] != k1][-2:] + [(k1, res.E.values)]
    return responses


def _extrapolate(solved, k1):
    """Value at k1 of the Lagrange polynomial through the (k, E) pairs in
    ``solved``, whose k are distinct: E itself when k1 is one of them, and
    None when ``solved`` is empty."""
    ks = [k for k, _ in solved]
    if k1 in ks:
        return solved[ks.index(k1)][1]
    if not solved:
        return None
    return sum(np.prod([(k1 - ki) / (kj - ki) for ki in ks if ki != kj]) * E
               for kj, E in solved)


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
