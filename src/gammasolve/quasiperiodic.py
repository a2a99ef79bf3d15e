"""Bloch-shifted solves and effective-tensor extraction.

A quasiperiodic excitation e^{i k0 . x} s_p(x) (s_p periodic) is handled by
shifting every projector symbol from Gamma(k) to Gamma(k + k0) and solving
for the periodic parts of the fields.  Averaging the periodic parts of E
and J over the cell for each constant source direction yields the two
effective tensors mapping source amplitudes to mean responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import Field, transform
from .materials import _read, resolve_parameter
from .projectors import PINV_CUTOFF, _basis_on
from .solver import Problem, solve

__all__ = ["QuasiSource", "EffectiveTensors", "solve_quasiperiodic", "effective_tensors", "modulate"]


@dataclass
class QuasiSource:
    """Quasiperiodic source: amplitude vector over components, constant
    wavevector k0, and an optional scalar periodic modulation profile
    alpha(x); the periodic source part is amplitude * (1 + alpha(x)).
    ``modulation`` is read by :func:`materials.resolve_parameter` as one
    value per point (a number, array, callable, descriptor or one-component
    field on the solve's grid)."""

    k0: object
    amplitude: object
    modulation: object = None


@dataclass
class EffectiveTensors:
    k0: object
    tensor_e: object
    tensor_j: object
    fluctuation_e: float = 0.0
    fluctuation_j: float = 0.0
    results: list = dc_field(default_factory=list)


def _profile(grid, modulation):
    """The source's periodic profile 1 + alpha(x) on the grid points; a
    modulation that cannot be read raises :class:`ParameterError` naming
    ``modulation``."""
    profile = np.ones(grid.npoints, dtype=np.complex128)
    if modulation is None:
        return profile
    return profile + _read("modulation", resolve_parameter, modulation, grid)


def _source_field(grid, layout, qsource):
    amp = np.asarray(qsource.amplitude, dtype=np.complex128)
    if amp.shape != (layout.ncomp,):
        raise ValueError(f"amplitude must have {layout.ncomp} entries")
    profile = _profile(grid, qsource.modulation)
    return Field(grid, layout, profile[:, None] * amp[None, :], "real")


def solve_quasiperiodic(grid, L, gamma, qsource, tol=1e-10, max_iter=2000, method="krylov",
                        x0=None):
    """Solve the canonical problem for the periodic parts of the fields
    under a quasiperiodic excitation; returns the usual SolveResult (E and
    J are the periodic parts; multiply by the Bloch phase via
    :func:`modulate` to reconstruct the full fields).  ``x0`` is an
    optional guess for the periodic part of E (``Problem.x0``)."""
    s = _source_field(grid, L.layout, qsource)
    problem = Problem(
        grid=grid, L=L, gamma=gamma, source=s,
        shift=np.asarray(qsource.k0, dtype=float),
        tol=tol, max_iter=max_iter, method=method, x0=x0,
    )
    return solve(problem)


def _fluctuation(values, mean):
    denom = np.linalg.norm(values)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(values - mean) / denom)


def _source_gram_root(grid, gamma, k0, modulation):
    """R with R^H R = G = sum_k |p_hat(k)|^2 Gamma(k + k0) for the profile
    p = 1 + alpha, so that |Gamma1 s|^2 = |R a|^2 for the source
    s = a p(x) of amplitude a: the source's projection, and with it E, sees
    a only through R a.  G is summed over the projector's kept basis, which
    the first solve built, at the modes where p_hat is not zero: mode 0
    alone for a constant profile, where G = npts Gamma(k0)."""
    w = np.abs(transform(_profile(grid, modulation)[:, None], grid)[:, 0]) ** 2
    k = np.flatnonzero(w)
    B = _basis_on(gamma, grid, np.asarray(k0, dtype=float)).rows(k)
    G = np.einsum("k,kcr,kdr->cd", w[k], B, B.conj())
    lam, U = np.linalg.eigh(G)
    return np.sqrt(np.clip(lam, 0.0, None))[:, None] * U.conj().T


def effective_tensors(grid, L, gamma, k0, modulation=None, tol=1e-12, max_iter=4000):
    """Mean-response tensors at Bloch wavevector k0.

    Column j of ``tensor_e`` (``tensor_j``) is the cell average of the
    periodic part of E (J) for a unit constant source in component j,
    modulated by 1 + alpha(x) when a ``modulation`` alpha is given (see
    :class:`QuasiSource`; one that cannot be read on ``grid``, such as a
    field on another grid, a one-entry array or a field of several
    components, raises :class:`ParameterError` before any solve).  The
    recorded fluctuation norms are the largest relative size of the
    zero-mean fluctuating parts across the solves — zero for homogeneous
    media, growing with heterogeneity.

    E is linear in the source amplitude and sees it only through its
    projection, so the c columns span at most rank G independent solves,
    G = sum_k |p_hat(k)|^2 Gamma(k + k0) (G = Gamma(k0) without
    modulation).  Each column is still one solve, seeded (``Problem.x0``)
    with sum_i g_i E_i over the columns already solved, where e_j ~
    sum_i g_i e_i is the least-squares fit in the G^(1/2) norm: a column in
    their span starts at its solution and, when that meets the target,
    returns it with 0 iterations.  A fitted part |R[:, :j] g| of at most
    PINV_CUTOFF times R's largest column norm is rounding noise, as for a
    column independent of those solved: that column starts from zero, and
    no seed is built only for the solve to reject it.  ``results`` holds
    one SolveResult per column.
    """
    c = L.layout.ncomp
    TE = np.zeros((c, c), dtype=np.complex128)
    TJ = np.zeros((c, c), dtype=np.complex128)
    fe = fj = 0.0
    results = []
    R = None
    for j in range(c):
        amp = np.zeros(c, dtype=np.complex128)
        amp[j] = 1.0
        x0 = None
        if j:
            if R is None:  # after the first solve, which keeps the basis
                R = _source_gram_root(grid, gamma, k0, modulation)
                noise = PINV_CUTOFF * np.linalg.norm(R, axis=0).max()
            g = np.linalg.lstsq(R[:, :j], R[:, j], rcond=PINV_CUTOFF)[0]
            if np.linalg.norm(R[:, :j] @ g) > noise:
                x0 = Field(grid, L.layout, sum(w * r.E.values for w, r in zip(g, results)))
        res = solve_quasiperiodic(
            grid, L, gamma, QuasiSource(k0, amp, modulation),
            tol=tol, max_iter=max_iter, x0=x0,
        )
        e_mean = res.E.values.mean(axis=0)
        j_mean = res.J.values.mean(axis=0)
        TE[:, j] = e_mean
        TJ[:, j] = j_mean
        fe = max(fe, _fluctuation(res.E.values, e_mean))
        fj = max(fj, _fluctuation(res.J.values, j_mean))
        results.append(res)
    return EffectiveTensors(np.asarray(k0, float), TE, TJ, fe, fj, results)


def modulate(field, k0, sign=1):
    """Multiply a real-space field by the Bloch phase e^{i sign k0 . x}."""
    f = field.to_real()
    x = f.grid.coordinates()
    phase = np.exp(1j * sign * (x @ np.asarray(k0, dtype=float)))
    out = Field(f.grid, f.layout, phase[:, None] * f.values, "real")
    return out if field.representation == "real" else out.to_fourier()
