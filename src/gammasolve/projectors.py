"""Fourier-space orthogonal projectors onto constraint-compatible fields.

Each family is declared once, as a potential symbol D(ik) (a
:class:`DOperator`, the ``*_D`` functions) mapping potentials to the
admissible pairs: a gradient, curl or divergence paired with the potential
(or stress) itself.  D owns the family's block layout: its projector and
the material builders of its physics (``materials``) read the layout from
it.  Every D contains an identity block, so it has full column rank at
every wavevector k.  A projector is given by its per-mode basis B,
orthonormal columns spanning range(D(ik)), so Gamma(k) = B B^H is the
orthogonal projector onto it.  The five families built from scalar-gradient
pairs (Helmholtz, Schrodinger, surface, elastic, thermoacoustic) have
D = kron(h', I_m) up to a fixed order of its rows, for the scalar pair
h'(k) = (ik, 1) and m potentials, so B = D / sqrt(1 + |k|^2) = kron(h, I_m)
with h = h' / |h'|; they keep only h, an (npts, d + 1) array
(:class:`_PairBasis`).  Maxwell, Brinkman and any other projector keep the
dense (npts, c, r) basis (:class:`_DenseBasis`; for Maxwell and Brinkman,
whose Gram matrix is not diagonal, the reduced QR basis of D).  Either kind
gives a solve the same few products: B^H v, B phi, B^H L B and the factors
B^H Q and P^H B X; a pair basis forms them from h without a dense
temporary.  Solvers apply Gamma as B (B^H v) without forming the dense
(c, c) symbols, alternating it (mode by mode in Fourier space) with
pointwise material maps in real space.  ``Projector.basis`` returns the
dense B of either kind, as that basis object's rows, and
``Projector.symbols`` and :func:`projector_symbols` form B B^H from it.

Builders return a :class:`Projector`; use :func:`apply_projector` to act on
fields, optionally with a constant shift of the wavevector grid (Bloch
boundary conditions) or taking the complementary projector instead.
:data:`FAMILIES` names every family, as a factory of the grid dimension
(``d -> Projector``); the Maxwell and thermoacoustic factories accept only
d = 3 and the surface factory only d = 1.
"""

from __future__ import annotations

import numpy as np

from .fields import Block, BlockLayout, Field, _pointwise, _sym_pairs

__all__ = [
    "Projector",
    "DOperator",
    "gamma_from_D",
    "helmholtz_D",
    "gradient_D",
    "sym_gradient_D",
    "stress_D",
    "maxwell_D",
    "thermoacoustic_D",
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
    """Hermitian idempotent symbol Gamma(k) = B B^H, stored as its basis.

    ``fn(K)`` returns B, shape (npts, c, r), with orthonormal columns or any
    partial isometry: a projector's own symbols qualify (G G^H = G).  A
    pair family (:class:`_PairProjector`) has no ``fn``.

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
        self._grid_basis = None  # ((grid, shift), basis) of the last grid

    @property
    def ncomp(self):
        return self.layout.ncomp

    def basis(self, K):
        """Per-mode basis at wavevectors K of shape (npts, D) -> (npts, c, r)."""
        return self._on(np.atleast_2d(np.asarray(K, dtype=float))).rows()

    def symbols(self, K):
        """Dense symbols B B^H at wavevectors K -> (npts, c, c)."""
        return _outer(self.basis(K))

    def symbol(self, k):
        """Evaluate at a single wavevector -> (c, c)."""
        return self.symbols(np.asarray(k, dtype=float)[None, :])[0]

    def _on(self, K):
        """The basis at wavevectors K as the products a solve takes from it
        (:class:`_DenseBasis` here, :class:`_PairBasis` for a pair family)."""
        return _DenseBasis(self._fn(K))

    def __repr__(self):
        return f"Projector({self.name!r}, ncomp={self.ncomp})"


class _PairProjector(Projector):
    """A projector whose basis is kron(h, I_m) for the scalar pair
    h(k) = (ik, 1) / sqrt(1 + |k|^2), with its rows taken to the layout's
    component order by ``order`` (row a m + j of the Kronecker product is
    component ``order[a m + j]``; None keeps it).  Its kept basis is h."""

    def __init__(self, name, layout, m, order=None):
        super().__init__(name, layout, None)
        self.m, self.order = m, order

    def _on(self, K):
        return _PairBasis(_scalar_pair(K), self.m, self.order)


class DOperator:
    """Matrix symbol D(ik) mapping potentials to derived/potential pairs.

    D has shape (ncomp, npot); its range at each k is the admissible
    subspace, so the associated projector is the orthogonal projector onto
    range(D(ik)).
    """

    def __init__(self, name, layout, fn):
        self.name = name
        self.layout = layout
        self._fn = fn

    @property
    def ncomp(self):
        return self.layout.ncomp

    def matrices(self, K):
        K = np.atleast_2d(np.asarray(K, dtype=float))
        return self._fn(K)


PINV_CUTOFF = 1e-12


def gamma_from_D(dop):
    """Orthogonal projector onto range(D(ik)), via SVD with a relative
    singular-value cutoff: its basis is the left singular vectors, with the
    columns below PINV_CUTOFF * sigma_max set to zero."""

    def fn(K):
        U, S, _ = np.linalg.svd(dop.matrices(K), full_matrices=False)
        smax = S[:, :1]
        keep = S > PINV_CUTOFF * np.where(smax > 0, smax, 1.0)
        return U * keep[:, None, :]

    return Projector(f"from_D[{dop.name}]", dop.layout, fn)


# ---------------------------------------------------------------------------
# D symbols: one per family, each with full column rank at every k
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

    return DOperator("helmholtz_D", layout, fn)


def gradient_D(d):
    """Vector-potential symbol: a -> (ik (x) a, a), the scalar pair of
    :func:`helmholtz_D` once per component of a; matrix block stored
    row-major with the derivative axis first.  Shape (d*d + d, d)."""
    layout = BlockLayout((Block("matrix", d), Block("vector", d)))
    scalar = helmholtz_D(d)

    def fn(K):
        # row r*d + j, column j holds row r of the scalar pair
        return np.kron(scalar.matrices(K), np.eye(d))

    return DOperator("gradient_D", layout, fn)


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

    return DOperator("sym_gradient_D", layout, fn)


def stress_D(d=3):
    """Stress symbol: sigma -> (sigma, div sigma), that is
    [I; -D_sym(ik)^H] with D_sym from :func:`sym_gradient_D`; its range is
    the orthogonal complement of the symmetric-gradient pairs
    (i sym(k (x) a) packed, a).  Shape (d(d+1)/2 + d, d(d+1)/2)."""
    nsym = d * (d + 1) // 2
    layout = BlockLayout((Block("sym", d), Block("vector", d)))
    dsym = sym_gradient_D(d)

    def fn(K):
        D = np.zeros((K.shape[0], nsym + d, nsym), dtype=np.complex128)
        D[:, :nsym] = np.eye(nsym)
        D[:, nsym:] = -np.conj(np.swapaxes(dsym.matrices(K), -1, -2))
        return D

    return DOperator("stress_D", layout, fn)


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

    return DOperator("maxwell_D", layout, fn)


def thermoacoustic_D():
    """Coupled mechanical/thermal symbol: (a, theta) -> the
    :func:`gradient_D` pair of a and the :func:`helmholtz_D` pair of theta,
    block-diagonal.  Shape (16, 4)."""
    mech, heat = gradient_D(3), helmholtz_D(3)
    layout = BlockLayout(mech.layout.blocks + heat.layout.blocks)

    def fn(K):
        D = np.zeros((K.shape[0], 16, 4), dtype=np.complex128)
        D[:, :12, :3] = mech.matrices(K)
        D[:, 12:, 3:] = heat.matrices(K)
        return D

    return DOperator("thermoacoustic_D", layout, fn)


# ---------------------------------------------------------------------------
# Projector families: the range projector of each family's D
# ---------------------------------------------------------------------------


def _range_projector(name, dop):
    """The projector whose basis is Q, the reduced QR basis of D(ik), for a
    D whose Gram matrix D^H D is not diagonal (the Maxwell and Brinkman
    families).

    Every family's D contains an identity block, so it has full column rank
    at every k (k = 0 included) and Q spans exactly range(D(ik)); unlike
    :func:`gamma_from_D` no singular-value cutoff is involved.
    """
    return Projector(name, dop.layout, lambda K: np.linalg.qr(dop.matrices(K))[0])


def _scalar_pair(K):
    """h(k) = (ik, 1) / sqrt(1 + |k|^2) at wavevectors K (npts, d) ->
    (npts, d + 1): the orthonormal basis of :func:`helmholtz_D`'s range,
    whose Gram matrix is 1 + |k|^2, so it needs no factorization."""
    h = np.empty((len(K), K.shape[1] + 1), dtype=np.complex128)
    h[:, :-1] = 1j * K
    h[:, -1] = 1.0
    h *= (1.0 / np.sqrt(1.0 + np.einsum("pi,pi->p", K, K)))[:, None]
    return h


def gamma_helmholtz(d):
    """Projector fixing scalar-gradient pairs (ik c, c) on a
    (vector(d), scalar) layout; at k = 0 only the scalar slot survives."""
    return _PairProjector("helmholtz", helmholtz_D(d).layout, 1)


def gamma_schrodinger(ndim):
    """Scalar-gradient-pair projector over an ndim-coordinate grid
    (multi-particle configuration spaces use ndim = particles * space dims)."""
    return _PairProjector("schrodinger", helmholtz_D(ndim).layout, 1)


def gamma_elastic(d):
    """Projector fixing vector-gradient pairs (ik (x) a, a) on a
    (matrix(d), vector(d)) layout.  It acts on each column c separately, as
    the scalar-gradient projector on matrix components (i, c) and vector
    component c."""
    return _PairProjector("elastic", gradient_D(d).layout, d)


def gamma_maxwell():
    """Projector fixing curl pairs (a, i k x a) on two stacked 3-vectors;
    at k = 0 the first vector block survives and the second is removed."""
    return _range_projector("maxwell", maxwell_D())


def gamma_brinkman(d=3):
    """Projector fixing (stress, divergence-of-stress) pairs on a
    (packed-symmetric(d), vector(d)) layout, so it annihilates the
    symmetric-gradient pairs (i sym(k (x) a) packed, a).  At k = 0 the
    packed-symmetric block survives and the vector block is removed."""
    return _range_projector("brinkman", stress_D(d))


def gamma_thermoacoustic():
    """Block-diagonal projector for coupled mechanical/thermal pairs:
    vector-gradient pairs on (matrix(3), vector(3)) plus scalar-gradient
    pairs on (vector(3), scalar); 16 components total.  Its basis is
    kron(h, I_4) with row a 4 + j moved to mechanical row 3 a + j (j < 3)
    or thermal row 12 + a (j = 3)."""
    order = np.array([12 + a if j == 3 else 3 * a + j for a in range(4) for j in range(4)])
    return _PairProjector("thermoacoustic", thermoacoustic_D().layout, 4, order)


def gamma_surface(k1=0.0, base=None):
    """Projector family for layered/guided problems on 1-D depth grids.

    With ``base=None`` this is the two-component scalar-gradient-pair
    projector in the depth wavenumber k3 (out-of-plane shear motion at
    fixed propagation wavenumber k1; the symbol itself does not depend on
    k1).  With a base projector it evaluates the basis of ``base`` at the
    embedded 3-vector (k1, 0, k3).
    """
    if base is None:
        return _PairProjector("surface", helmholtz_D(1).layout, 1)

    def fn(K):
        npts = K.shape[0]
        K3 = np.zeros((npts, 3))
        K3[:, 0] = k1
        K3[:, 2] = K[:, 0]
        return base.basis(K3)

    return Projector(f"surface[{base.name}]", base.layout, fn)


def _on_dimension(dim, make):
    """Factory of a family defined on ``dim``-dimensional grids only."""

    def factory(d):
        projector = make()
        if d != dim:
            raise ValueError(f"the {projector.name} projector acts on {dim}-D grids, "
                             f"not {d}-D")
        return projector

    return factory


FAMILIES = {
    "helmholtz": gamma_helmholtz,
    "elastic": gamma_elastic,
    "maxwell": _on_dimension(3, gamma_maxwell),
    "brinkman": gamma_brinkman,
    "thermoacoustic": _on_dimension(3, gamma_thermoacoustic),
    "schrodinger": gamma_schrodinger,
    "surface": _on_dimension(1, gamma_surface),
}


# ---------------------------------------------------------------------------
# Per-mode bases: the products a solve takes from B
# ---------------------------------------------------------------------------

# The pair Gram and the right factor are formed this many modes at a time,
# so that no temporary of the (npts, (d+1)^2) pair products is made.
_MODES = 4096


def _by_block(fn, *arrays):
    """fn(*arrays) for per-mode arrays, evaluated _MODES modes at a time
    into one array."""
    n = len(arrays[0])
    if n <= _MODES:
        return fn(*arrays)
    first = fn(*(x[:_MODES] for x in arrays))
    out = np.empty((n,) + first.shape[1:], dtype=first.dtype)
    out[:_MODES] = first
    for i in range(_MODES, n, _MODES):
        out[i:i + _MODES] = fn(*(x[i:i + _MODES] for x in arrays))
    return out


class _DenseBasis:
    """A per-mode basis stored as its (npts, c, r) array B.

    These are the products a solve takes from a basis, each one matrix
    product of B.  Q and P are constant (c, k) matrices, X per-mode (r, q)
    matrices and v, phi per-mode vectors."""

    def __init__(self, B):
        self.B = B
        self.shape = B.shape

    def adjoint(self, v):
        """B^H v for v (npts, c) -> (npts, r)."""
        # the conjugate of B^T conj(v): a transposed view, not a copy of B
        return _pointwise(np.swapaxes(self.B, 1, 2), v.conj()).conj()

    def apply(self, phi):
        """B phi for phi (npts, r) -> (npts, c), or B X for X (npts, r, q)."""
        return _pointwise(self.B, phi) if phi.ndim == 2 else self.B @ phi

    def gram(self, L):
        """B^H L B for a constant (c, c) matrix L -> (npts, r, r), or B^H B
        for L None."""
        return self.left(L) @ self.B

    def left(self, Q):
        """B^H Q -> (npts, r, k), or B^H for Q None."""
        npts, c, r = self.shape
        Bh = np.ascontiguousarray(np.conj(np.swapaxes(self.B, 1, 2)))
        # one flat BLAS product
        return Bh if Q is None else (Bh.reshape(npts * r, c) @ Q).reshape(npts, r, -1)

    def right(self, P, X):
        """P^H B X -> (npts, k, q), or B X for P None."""
        return self.apply(X) if P is None else (P.conj().T @ self.B) @ X

    def rows(self, modes=slice(None)):
        """The dense basis at ``modes`` -> (nmodes, c, r)."""
        return self.B[modes]


class _PairBasis:
    """The basis kron(h, I_m) of a scalar pair h (npts, n), with row a m + j
    stored as component ``order[a m + j]`` (None: in place), kept as h.

    Every product is a broadcast over (npts, n, m) views of the fields or
    one matrix product of h, or of conj(h) (x) h, with a constant matrix.
    The operations are those of :class:`_DenseBasis`."""

    def __init__(self, h, m, order=None):
        self.h, self.m, self.order = h, m, order
        self.shape = (len(h), h.shape[1] * m, m)

    def _pairs(self, Q):
        """The rows of a constant (c, k) matrix in Kronecker order, as
        (n, m, k)."""
        Q = Q if self.order is None else Q[self.order]
        return Q.reshape(self.h.shape[1], self.m, -1)

    def adjoint(self, v):
        v = v if self.order is None else v[:, self.order]
        return np.einsum("pa,paj->pj", self.h.conj(), v.reshape(len(v), -1, self.m))

    def apply(self, phi):
        h = self.h.reshape(self.h.shape + (1,) * (phi.ndim - 1))
        out = (h * phi[:, None]).reshape(len(phi), -1, *phi.shape[2:])
        if self.order is None:
            return out
        ordered = np.empty_like(out)
        ordered[:, self.order] = out
        return ordered

    def gram(self, L):
        n, m = self.h.shape[1], self.m
        if L is None:  # |h|^2 I
            return np.einsum("pa,pa->p", self.h.conj(), self.h)[:, None, None] * np.eye(m)
        # (B^H L B)_ij = sum_ab conj(h_a) h_b L[(a, i), (b, j)]
        L = L if self.order is None else L[np.ix_(self.order, self.order)]
        W = L.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)

        def block(h):
            return (h.conj()[:, :, None] * h[:, None, :]).reshape(len(h), -1) @ W

        return _by_block(block, self.h).reshape(-1, m, m)

    def left(self, Q):
        if Q is None:
            return self._dense(self.h.conj(), transpose=True)
        W = self._pairs(Q)
        return (self.h.conj() @ W.reshape(len(W), -1)).reshape(len(self.h), self.m, -1)

    def right(self, P, X):
        if P is None:
            return self.apply(X)
        W = self._pairs(P).conj().transpose(0, 2, 1)
        W = W.reshape(len(W), -1)
        return _by_block(lambda h, X: (h @ W).reshape(len(h), -1, self.m) @ X, self.h, X)

    def rows(self, modes=slice(None)):
        return self._dense(self.h[modes])

    def _dense(self, h, transpose=False):
        """kron(h, I_m) per mode in component order, (len(h), c, m), or with
        ``transpose`` its transpose (len(h), m, c)."""
        n, m = h.shape[1], self.m
        if m == 1:  # kron(h, I_1) is h
            B = h[:, None, :] if transpose else h[:, :, None]
        else:
            B = np.zeros((len(h), m, n, m) if transpose else (len(h), n, m, m),
                         dtype=np.complex128)
            for j in range(m):
                if transpose:
                    B[:, j, :, j] = h
                else:
                    B[:, :, j, j] = h
            B = B.reshape(len(h), m, -1) if transpose else B.reshape(len(h), -1, m)
        if self.order is None:
            return B
        ordered = np.empty_like(B)
        ordered[(slice(None),) * (2 if transpose else 1) + (self.order,)] = B
        return ordered


# ---------------------------------------------------------------------------
# Application to fields
# ---------------------------------------------------------------------------


def _basis_on(projector, grid, shift=None, keep=True):
    """Basis of ``projector`` on the grid's wavevectors (plus optional
    constant shift), as the products a solve takes from it
    (:class:`_DenseBasis` or :class:`_PairBasis`).

    The projector keeps the basis of its last (grid, shift), so repeated
    solves with one projector build it once.  With ``keep=False`` a kept
    basis is still reused, but a new one is not stored on the projector.
    """
    shift_key = None if shift is None else tuple(float(s) for s in np.atleast_1d(shift))
    key = (grid, shift_key)
    if projector._grid_basis is not None and projector._grid_basis[0] == key:
        return projector._grid_basis[1]
    K = grid.wavevectors()
    if shift_key is not None:
        if len(shift_key) != grid.ndim:
            raise ValueError("shift must have one entry per grid axis")
        K = K + np.asarray(shift_key)
    basis = projector._on(K)
    if keep:
        projector._grid_basis = (key, basis)
    return basis


def _outer(B):
    """B B^H per mode for a basis stack B (npts, c, r) -> (npts, c, c)."""
    return B @ np.conj(np.swapaxes(B, -1, -2))


def projector_symbols(projector, grid, shift=None):
    """Dense symbols B B^H of ``projector`` on the grid's wavevectors (plus
    optional constant shift), shape (npts, c, c), formed on demand from the
    basis the projector keeps for its last (grid, shift)."""
    return _outer(_basis_on(projector, grid, shift).rows())


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
    # A one-off application does not pin the basis to the projector.
    basis = _basis_on(projector, field.grid, shift, keep=False)
    vals = basis.apply(basis.adjoint(hat.values))
    if which == 2:
        vals = hat.values - vals
    out = Field(field.grid, field.layout, vals, "fourier")
    return out.to_real() if field.representation == "real" else out
