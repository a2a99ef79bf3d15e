"""Fourier-space orthogonal projectors onto constraint-compatible fields.

Each physics family pairs a "derived" block (a gradient, curl, or symmetric
gradient of some potential) with the potential itself.  At every wavevector k
the admissible pairs form a small subspace of the component space, and the
projector onto it is an explicit Hermitian idempotent matrix-valued symbol
Gamma(k).  Solvers alternate these projectors (applied mode-by-mode in
Fourier space) with pointwise material maps in real space.

Builders return a :class:`Projector`; use :func:`apply_projector` to act on
fields, optionally with a constant shift of the wavevector grid (Bloch
boundary conditions) or taking the complementary projector instead.
:data:`FAMILIES` names every family, as a factory of the dimension and the
propagation wavenumber k1.
"""

from __future__ import annotations

import numpy as np

from .fields import Block, BlockLayout, Field, _pointwise

__all__ = [
    "Projector",
    "DOperator",
    "gamma_from_D",
    "helmholtz_D",
    "gradient_D",
    "sym_gradient_D",
    "maxwell_D",
    "gamma_helmholtz",
    "gamma_elastic",
    "gamma_maxwell",
    "gamma_brinkman",
    "gamma_thermoacoustic",
    "gamma_schrodinger",
    "gamma_surface",
    "FAMILIES",
    "projector_symbols",
    "apply_projector",
]


class Projector:
    """Matrix-valued Hermitian idempotent symbol Gamma(k).

    Attributes
    ----------
    name : str
    layout : BlockLayout
        Canonical block layout of the fields the symbol acts on.
    """

    def __init__(self, name, layout, fn):
        self.name = name
        self.layout = layout
        self._fn = fn
        self._grid_symbols = None  # ((grid, shift), symbols) of the last grid

    @property
    def ncomp(self):
        return self.layout.ncomp

    def symbols(self, K):
        """Evaluate at wavevectors K of shape (npts, D) -> (npts, c, c)."""
        K = np.atleast_2d(np.asarray(K, dtype=float))
        return self._fn(K)

    def symbol(self, k):
        """Evaluate at a single wavevector -> (c, c)."""
        return self.symbols(np.asarray(k, dtype=float)[None, :])[0]

    def __repr__(self):
        return f"Projector({self.name!r}, ncomp={self.ncomp})"


class DOperator:
    """Matrix symbol D(ik) mapping potentials to derived/potential pairs.

    D has shape (ncomp, npot); its range at each k is the admissible
    subspace, so the associated projector is the orthogonal projector onto
    range(D(ik)).
    """

    def __init__(self, name, layout, npot, fn):
        self.name = name
        self.layout = layout
        self.npot = npot
        self._fn = fn

    @property
    def ncomp(self):
        return self.layout.ncomp

    def matrices(self, K):
        K = np.atleast_2d(np.asarray(K, dtype=float))
        return self._fn(K)

    def matrix(self, k):
        return self.matrices(np.asarray(k, dtype=float)[None, :])[0]


PINV_CUTOFF = 1e-12


def gamma_from_D(dop, cutoff=PINV_CUTOFF):
    """Orthogonal projector onto range(D(ik)), via SVD with a relative
    singular-value cutoff (columns below cutoff * sigma_max are dropped)."""

    def fn(K):
        D = dop.matrices(K)
        U, S, _ = np.linalg.svd(D, full_matrices=False)
        smax = S[:, :1]
        keep = S > cutoff * np.where(smax > 0, smax, 1.0)
        Ur = U * keep[:, None, :]
        return Ur @ np.conj(np.swapaxes(Ur, -1, -2))

    return Projector(f"from_D[{dop.name}]", dop.layout, fn)


# ---------------------------------------------------------------------------
# D symbols
# ---------------------------------------------------------------------------


def helmholtz_D(d):
    """Scalar-potential symbol: c -> (ik c, c), shape (d+1, 1)."""
    layout = BlockLayout((Block("vector", d), Block("scalar")))

    def fn(K):
        npts = K.shape[0]
        D = np.zeros((npts, d + 1, 1), dtype=np.complex128)
        D[:, :d, 0] = 1j * K
        D[:, d, 0] = 1.0
        return D

    return DOperator("helmholtz_D", layout, 1, fn)


def gradient_D(d):
    """Vector-potential symbol: a -> (ik (x) a, a); matrix block stored
    row-major with the derivative axis first.  Shape (d*d + d, d)."""
    layout = BlockLayout((Block("matrix", d), Block("vector", d)))

    def fn(K):
        npts = K.shape[0]
        D = np.zeros((npts, d * d + d, d), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                D[:, i * d + j, j] = 1j * K[:, i]
        for j in range(d):
            D[:, d * d + j, j] = 1.0
        return D

    return DOperator("gradient_D", layout, d, fn)


def _sym_pairs(d):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def sym_gradient_D(d=3):
    """Vector-potential symbol: a -> (i sym(k (x) a) packed, nothing);
    symmetric block in norm-preserving packed order.  Shape (d(d+1)/2, d)."""
    nsym = d * (d + 1) // 2
    layout = BlockLayout((Block("sym", d),))

    def fn(K):
        npts = K.shape[0]
        D = np.zeros((npts, nsym, d), dtype=np.complex128)
        for j in range(d):
            D[:, j, j] = 1j * K[:, j]
        for row, (i, j) in enumerate(_sym_pairs(d)):
            D[:, d + row, j] += 1j * K[:, i] / np.sqrt(2.0)
            D[:, d + row, i] += 1j * K[:, j] / np.sqrt(2.0)
        return D

    return DOperator("sym_gradient_D", layout, d, fn)


def _cross_matrices(K):
    npts = K.shape[0]
    eta = np.zeros((npts, 3, 3), dtype=np.complex128)
    eta[:, 0, 1] = -K[:, 2]
    eta[:, 0, 2] = K[:, 1]
    eta[:, 1, 0] = K[:, 2]
    eta[:, 1, 2] = -K[:, 0]
    eta[:, 2, 0] = -K[:, 1]
    eta[:, 2, 1] = K[:, 0]
    return eta


def maxwell_D():
    """Vector-potential symbol for curl pairs: a -> (a, i k x a), (6, 3)."""
    layout = BlockLayout((Block("vector", 3), Block("vector", 3)))

    def fn(K):
        npts = K.shape[0]
        D = np.zeros((npts, 6, 3), dtype=np.complex128)
        D[:, :3, :] = np.eye(3)
        D[:, 3:, :] = 1j * _cross_matrices(K)
        return D

    return DOperator("maxwell_D", layout, 3, fn)


# ---------------------------------------------------------------------------
# Closed-form projector families
# ---------------------------------------------------------------------------


def _helmholtz_symbols(K):
    npts, d = K.shape
    k2 = np.sum(K * K, axis=1)
    G = np.zeros((npts, d + 1, d + 1), dtype=np.complex128)
    G[:, :d, :d] = K[:, :, None] * K[:, None, :]
    G[:, :d, d] = 1j * K
    G[:, d, :d] = -1j * K
    G[:, d, d] = 1.0
    G /= (k2 + 1.0)[:, None, None]
    return G


def gamma_helmholtz(d):
    """Projector fixing scalar-gradient pairs (ik c, c) on a
    (vector(d), scalar) layout; at k = 0 only the scalar slot survives."""
    layout = BlockLayout((Block("vector", d), Block("scalar")))
    return Projector("helmholtz", layout, _helmholtz_symbols)


def gamma_schrodinger(ndim):
    """Scalar-gradient-pair projector over an ndim-coordinate grid
    (multi-particle configuration spaces use ndim = particles * space dims)."""
    layout = BlockLayout((Block("vector", ndim), Block("scalar")))
    return Projector("schrodinger", layout, _helmholtz_symbols)


def gamma_elastic(d):
    """Projector fixing vector-gradient pairs (ik (x) a, a) on a
    (matrix(d), vector(d)) layout.

    Acts independently on each column c: the scalar-gradient projector
    couples the matrix components (i, c), i = 0..d-1, with vector
    component c.
    """
    layout = BlockLayout((Block("matrix", d), Block("vector", d)))
    n = d * d + d

    def fn(K):
        npts = K.shape[0]
        Z = _helmholtz_symbols(K)
        G = np.zeros((npts, n, n), dtype=np.complex128)
        for c in range(d):
            rows = np.array([i * d + c for i in range(d)] + [d * d + c])
            G[np.ix_(np.arange(npts), rows, rows)] = Z
        return G

    return Projector("elastic", layout, fn)


def gamma_maxwell():
    """Projector fixing curl pairs (a, i k x a) on two stacked 3-vectors;
    at k = 0 the first vector block survives and the second is removed."""
    layout = BlockLayout((Block("vector", 3), Block("vector", 3)))

    def fn(K):
        npts = K.shape[0]
        k2 = np.sum(K * K, axis=1)
        M = np.eye(3) + K[:, :, None] * K[:, None, :]
        M = M / (k2 + 1.0)[:, None, None]
        ie = 1j * _cross_matrices(K)
        G = np.zeros((npts, 6, 6), dtype=np.complex128)
        G[:, :3, :3] = M
        G[:, :3, 3:] = M @ ie
        G[:, 3:, :3] = ie @ M
        G[:, 3:, 3:] = ie @ M @ ie
        return G

    return Projector("maxwell", layout, fn)


def gamma_brinkman(d=3):
    """Projector annihilating symmetric-gradient pairs on a
    (packed-symmetric(d), vector(d)) layout.

    The complement — the projector onto pairs (i sym(k (x) a) packed, a) —
    is built as the range projector of the always-full-rank augmented symbol
    [D_sym(ik); I], so no pseudo-inverse cutoff is involved.  Fields fixed
    by this projector are exactly the (stress, divergence-of-stress) pairs.
    At k = 0 the packed-symmetric block survives and the vector block is
    removed.
    """
    nsym = d * (d + 1) // 2
    layout = BlockLayout((Block("sym", d), Block("vector", d)))
    dsym = sym_gradient_D(d)

    def fn(K):
        npts = K.shape[0]
        Dm = dsym.matrices(K)
        T = np.concatenate(
            [Dm, np.broadcast_to(np.eye(d), (npts, d, d)).astype(np.complex128)],
            axis=1,
        )
        Th = np.conj(np.swapaxes(T, -1, -2))
        Gram = Th @ T
        G2 = T @ np.linalg.solve(Gram, Th)
        return np.eye(nsym + d) - G2

    return Projector("brinkman", layout, fn)


def gamma_thermoacoustic():
    """Block-diagonal projector for coupled mechanical/thermal pairs:
    vector-gradient pairs on (matrix(3), vector(3)) plus scalar-gradient
    pairs on (vector(3), scalar); 16 components total."""
    layout = BlockLayout(
        (Block("matrix", 3), Block("vector", 3), Block("vector", 3), Block("scalar"))
    )
    elast = gamma_elastic(3)

    def fn(K):
        npts = K.shape[0]
        G = np.zeros((npts, 16, 16), dtype=np.complex128)
        G[:, :12, :12] = elast.symbols(K)
        G[:, 12:, 12:] = _helmholtz_symbols(K)
        return G

    return Projector("thermoacoustic", layout, fn)


def gamma_surface(k1=0.0, base=None):
    """Projector family for layered/guided problems on 1-D depth grids.

    With ``base=None`` this is the two-component scalar-gradient-pair
    projector in the depth wavenumber k3 (out-of-plane shear motion at
    fixed propagation wavenumber k1; the symbol itself does not depend on
    k1).  With a base projector it evaluates ``base`` at the embedded
    3-vector (k1, 0, k3).
    """
    if base is None:
        layout = BlockLayout((Block("vector", 1), Block("scalar")))

        def fn(K):
            return _helmholtz_symbols(K)

        return Projector("surface", layout, fn)

    def fn(K):
        npts = K.shape[0]
        K3 = np.zeros((npts, 3))
        K3[:, 0] = k1
        K3[:, 2] = K[:, 0]
        return base.symbols(K3)

    return Projector(f"surface[{base.name}]", base.layout, fn)


FAMILIES = {
    "helmholtz": lambda d, k1: gamma_helmholtz(d),
    "elastic": lambda d, k1: gamma_elastic(d),
    "maxwell": lambda d, k1: gamma_maxwell(),
    "brinkman": lambda d, k1: gamma_brinkman(d),
    "thermoacoustic": lambda d, k1: gamma_thermoacoustic(),
    "schrodinger": lambda d, k1: gamma_schrodinger(d),
    "surface": lambda d, k1: gamma_surface(k1),
}


# ---------------------------------------------------------------------------
# Application to fields
# ---------------------------------------------------------------------------


def projector_symbols(projector, grid, shift=None, keep=True):
    """Symbols of ``projector`` on the grid's wavevectors (plus optional
    constant shift).

    The projector keeps the array of its last (grid, shift), so repeated
    solves with one projector build it once.  With ``keep=False`` a kept
    array is still reused, but a new one is not stored on the projector.
    """
    shift_key = None if shift is None else tuple(float(s) for s in np.atleast_1d(shift))
    key = (grid, shift_key)
    if projector._grid_symbols is not None and projector._grid_symbols[0] == key:
        return projector._grid_symbols[1]
    K = grid.wavevectors()
    if shift_key is not None:
        if len(shift_key) != grid.ndim:
            raise ValueError("shift must have one entry per grid axis")
        K = K + np.asarray(shift_key)
    G = projector.symbols(K)
    if keep:
        projector._grid_symbols = (key, G)
    return G


def apply_projector(field, projector, shift=None, which=1):
    """Apply Gamma(k + shift) (which=1) or its complement (which=2) to a
    field.  Real-space input is transformed, projected, and transformed
    back; Fourier input stays in Fourier form.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if field.layout.ncomp != projector.ncomp:
        raise ValueError(
            f"field has {field.layout.ncomp} components, projector expects "
            f"{projector.ncomp}"
        )
    hat = field.to_fourier()
    # A one-off application does not pin the symbols to the projector.
    G = projector_symbols(projector, field.grid, shift, keep=False)
    vals = _pointwise(G, hat.values)
    if which == 2:
        vals = hat.values - vals
    out = Field(field.grid, field.layout, vals, "fourier")
    return out.to_real() if field.representation == "real" else out
