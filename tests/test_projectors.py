"""Projector symbol algebra: idempotency, Hermiticity, fixed subspaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gammasolve import projectors
from gammasolve.fields import Block, BlockLayout, Field, Grid, gradient, random_field
from gammasolve.projectors import (
    Projector,
    apply_projector,
    gamma_brinkman,
    gamma_elastic,
    gamma_from_D,
    gamma_helmholtz,
    gamma_maxwell,
    gamma_schrodinger,
    gamma_surface,
    gamma_thermoacoustic,
    gradient_D,
    helmholtz_D,
    maxwell_D,
    projector_symbols,
    stress_D,
    sym_gradient_D,
    thermoacoustic_D,
)

RNG = np.random.default_rng(1234)

FAMILIES = [
    (gamma_helmholtz(3), 3),
    (gamma_helmholtz(2), 2),
    (gamma_schrodinger(4), 4),
    (gamma_elastic(3), 3),
    (gamma_elastic(2), 2),
    (gamma_maxwell(), 3),
    (gamma_brinkman(3), 3),
    (gamma_thermoacoustic(), 3),
    (gamma_surface(0.8), 1),
    (gamma_surface(0.8, gamma_elastic(3)), 1),
]


def _random_k(ndim, n=200, scale=4.0):
    return RNG.normal(scale=scale, size=(n, ndim))


@pytest.mark.parametrize("proj,ndim", FAMILIES, ids=lambda v: getattr(v, "name", v))
def test_idempotent_and_hermitian(proj, ndim):
    K = _random_k(ndim)
    G = proj.symbols(K)
    Gh = np.conj(np.swapaxes(G, -1, -2))
    assert np.max(np.abs(G @ G - G)) < 1e-12
    assert np.max(np.abs(G - Gh)) < 1e-12


@pytest.mark.parametrize(
    "dop,proj,ndim",
    [
        (helmholtz_D(3), gamma_helmholtz(3), 3),
        (helmholtz_D(2), gamma_helmholtz(2), 2),
        (gradient_D(3), gamma_elastic(3), 3),
        (gradient_D(2), gamma_elastic(2), 2),
        (maxwell_D(), gamma_maxwell(), 3),
    ],
)
def test_gamma_from_D_matches_closed_forms(dop, proj, ndim):
    K = _random_k(ndim, n=300)
    assert np.max(np.abs(gamma_from_D(dop).symbols(K) - proj.symbols(K))) < 1e-12


@pytest.mark.parametrize(
    "dop,ndim",
    [
        (helmholtz_D(3), 3),
        (gradient_D(3), 3),
        (maxwell_D(), 3),
    ],
)
def test_projector_fixes_range_of_D(dop, ndim):
    K = _random_k(ndim, n=100)
    D = dop.matrices(K)
    G = gamma_from_D(dop).symbols(K)
    assert np.max(np.abs(G @ D - D)) < 1e-11


# Each projector family and the potential symbol whose range it projects on.
FAMILY_D = {
    "helmholtz": helmholtz_D,
    "elastic": gradient_D,
    "maxwell": lambda d: maxwell_D(),
    "brinkman": stress_D,
    "thermoacoustic": lambda d: thermoacoustic_D(),
    "schrodinger": helmholtz_D,
    "surface": helmholtz_D,
}


@pytest.mark.parametrize("name", sorted(projectors.FAMILIES))
def test_family_is_range_projector_of_its_D_at_fine_grid_wavevectors(name):
    # 16 points on a box of side 0.1 reach |k| ~ 870, where a closed form
    # built from 1/(1 + k^2) loses idempotency.
    d = 1 if name == "surface" else 3
    K = Grid((16,) * d, (0.1,) * d).wavevectors()
    G = projectors.FAMILIES[name](d).symbols(K)
    D = FAMILY_D[name](d).matrices(K)
    scale = np.linalg.norm(G)
    assert np.linalg.norm(G @ G - G) <= 1e-12 * scale
    assert np.linalg.norm(G - np.conj(np.swapaxes(G, -1, -2))) <= 1e-12 * scale
    assert np.linalg.norm(G @ D - D) <= 1e-12 * np.linalg.norm(D)


@pytest.mark.parametrize("name", sorted(projectors.FAMILIES))
def test_family_carries_its_D(name):
    # The family's basis B is orthonormal and spans range(D): B B^H D = D.
    d = 1 if name == "surface" else 3
    K = Grid((16,) * d, (0.1,) * d).wavevectors()
    B = projectors.FAMILIES[name](d).basis(K)
    D = FAMILY_D[name](d).matrices(K)
    Bh = np.conj(np.swapaxes(B, -1, -2))
    eye = np.eye(B.shape[-1])
    assert np.max(np.abs(Bh @ B - eye)) <= 1e-12
    assert np.linalg.norm(B @ (Bh @ D) - D) <= 1e-12 * np.linalg.norm(D)


@pytest.mark.parametrize("name,dim", [("maxwell", 3), ("thermoacoustic", 3),
                                      ("surface", 1)])
def test_fixed_dimension_families_reject_other_grid_dimensions(name, dim):
    assert projectors.FAMILIES[name](dim).name == name
    for d in {1, 2, 3} - {dim}:
        with pytest.raises(ValueError, match=f"acts on {dim}-D grids, not {d}-D"):
            projectors.FAMILIES[name](d)


def test_helmholtz_closed_form_value():
    # frozen at k = (1, 2, 2): k^2 = 9, denominator 10
    G = gamma_helmholtz(3).symbol(np.array([1.0, 2.0, 2.0]))
    k = np.array([1.0, 2.0, 2.0])
    expected = np.zeros((4, 4), complex)
    expected[:3, :3] = np.outer(k, k)
    expected[:3, 3] = 1j * k
    expected[3, :3] = -1j * k
    expected[3, 3] = 1.0
    expected /= 10.0
    assert_allclose(G, expected, atol=1e-15)


def test_zero_wavevector_behavior():
    k0 = np.zeros(3)
    # scalar-gradient pair: only the scalar survives at k = 0
    G = gamma_helmholtz(3).symbol(k0)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert_allclose(G, expected, atol=1e-15)
    # curl pair: the first vector block survives
    Gm = gamma_maxwell().symbol(k0)
    em = np.zeros((6, 6))
    em[:3, :3] = np.eye(3)
    assert_allclose(Gm, em, atol=1e-15)
    # stress pair: the packed-symmetric block survives
    Gb = gamma_brinkman(3).symbol(k0)
    eb = np.zeros((9, 9))
    eb[:6, :6] = np.eye(6)
    assert_allclose(Gb, eb, atol=1e-13)
    # vector-gradient pair: the vector block survives
    Ge = gamma_elastic(3).symbol(k0)
    ee = np.zeros((12, 12))
    ee[9:, 9:] = np.eye(3)
    assert_allclose(Ge, ee, atol=1e-15)


def test_elastic_acts_per_column():
    k = np.array([0.3, -1.2, 2.0])
    G = gamma_elastic(3).symbol(k)
    Z = gamma_helmholtz(3).symbol(k)
    for c in range(3):
        rows = [i * 3 + c for i in range(3)] + [9 + c]
        assert_allclose(G[np.ix_(rows, rows)], Z, atol=1e-14)
    # no coupling across columns
    rows0 = [0, 3, 6, 9]
    rows1 = [1, 4, 7, 10]
    assert np.max(np.abs(G[np.ix_(rows0, rows1)])) == 0.0


def test_brinkman_annihilates_gradient_pairs_and_fixes_stress_pairs():
    K = _random_k(3, n=50)
    G = gamma_brinkman(3).symbols(K)
    D = sym_gradient_D(3).matrices(K)
    # pairs (i sym(k x a) packed, a) are annihilated
    pairs = np.concatenate([D, np.broadcast_to(np.eye(3), (50, 3, 3))], axis=1)
    assert np.max(np.abs(G @ pairs)) < 1e-12
    # complementary rank: trace = 9 - 3
    assert_allclose(np.trace(G, axis1=1, axis2=2), 6.0, atol=1e-12)


def test_maxwell_blocks_structure():
    k = np.array([0.5, -0.7, 1.1])
    G = gamma_maxwell().symbol(k)
    k2 = k @ k
    M = (np.eye(3) + np.outer(k, k)) / (1.0 + k2)
    eta = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    assert_allclose(G[:3, :3], M, atol=1e-14)
    assert_allclose(G[:3, 3:], M @ (1j * eta), atol=1e-14)
    assert_allclose(G[3:, 3:], (1j * eta) @ M @ (1j * eta), atol=1e-14)


def test_thermoacoustic_is_block_diagonal():
    k = np.array([1.0, -0.4, 0.2])
    G = gamma_thermoacoustic().symbol(k)
    assert_allclose(G[:12, :12], gamma_elastic(3).symbol(k), atol=1e-14)
    assert_allclose(G[12:, 12:], gamma_helmholtz(3).symbol(k), atol=1e-14)
    assert np.max(np.abs(G[:12, 12:])) == 0.0


def test_surface_embedding_uses_fixed_k1():
    base = gamma_elastic(3)
    proj = gamma_surface(0.8, base)
    K = np.array([[1.7]])
    embedded = base.symbol(np.array([0.8, 0.0, 1.7]))
    assert_allclose(proj.symbols(K)[0], embedded, atol=1e-15)
    # the scalar-pair surface projector ignores k1 (depth wavenumber only)
    a = gamma_surface(0.0).symbol(np.array([2.0]))
    b = gamma_surface(5.0).symbol(np.array([2.0]))
    assert_allclose(a, b, atol=1e-15)


def test_gamma_from_D_cutoff_drops_rank_deficiency():
    # gradient_D at any k has full column rank d (the identity rows);
    # a synthetic zero column must be dropped, not blown up
    from gammasolve.projectors import DOperator

    layout = BlockLayout((Block("vector", 2),))

    def fn(K):
        n = K.shape[0]
        D = np.zeros((n, 2, 2), complex)
        D[:, 0, 0] = 1.0
        return D

    dop = DOperator("degenerate", layout, fn)
    G = gamma_from_D(dop).symbols(np.zeros((3, 2)))
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0
    assert_allclose(G, np.broadcast_to(expected, (3, 2, 2)), atol=1e-14)


def test_projector_symbols_shift_and_cache():
    g = Grid((4, 4, 4), (2.0 * np.pi,) * 3)
    proj = gamma_helmholtz(3)
    B0 = projectors._basis_on(proj, g)
    B0_again = projectors._basis_on(proj, g)
    assert B0 is B0_again  # cached object identity
    assert_allclose(projector_symbols(proj, g), proj.symbols(g.wavevectors()),
                    atol=1e-15)
    shift = np.array([0.3, 0.0, -0.1])
    Gs = projector_symbols(proj, g, shift)
    K = g.wavevectors()
    assert_allclose(Gs, proj.symbols(K + shift), atol=1e-15)
    with pytest.raises(ValueError):
        projector_symbols(proj, g, np.array([0.1, 0.2]))


def test_symbol_memo_is_per_projector_object():
    # Two projectors sharing a name but not a symbol function must not share
    # symbols: the zero projector maps every field to zero.
    g = Grid((4, 4), (2.0 * np.pi,) * 2)
    layout = BlockLayout((Block("vector", 2), Block("scalar")))

    def identity(K):
        return np.broadcast_to(np.eye(3, dtype=complex), (K.shape[0], 3, 3))

    f = random_field(g, layout, seed=3)
    ones = Projector("custom", layout, identity)
    assert_allclose(apply_projector(f, ones).values, f.values, atol=1e-13)
    assert_allclose(projector_symbols(ones, g), identity(g.wavevectors()))
    zero = Projector("custom", layout, lambda K: np.zeros((K.shape[0], 3, 3), complex))
    assert np.max(np.abs(projector_symbols(zero, g))) == 0.0
    assert np.max(np.abs(apply_projector(f, zero).values)) == 0.0


def test_apply_projector_field_roundtrip():
    g = Grid((8, 8), (2.0 * np.pi, 2.0 * np.pi))
    layout = BlockLayout((Block("vector", 2), Block("scalar")))
    f = random_field(g, layout, seed=11)
    proj = gamma_helmholtz(2)
    p1 = apply_projector(f, proj, which=1)
    p2 = apply_projector(f, proj, which=2)
    assert p1.representation == "real"
    assert_allclose(p1.values + p2.values, f.values, atol=1e-12)
    # idempotency through the field path
    assert_allclose(apply_projector(p1, proj).values, p1.values, atol=1e-12)
    with pytest.raises(ValueError):
        apply_projector(f, proj, which=3)
    with pytest.raises(ValueError):
        apply_projector(f, gamma_maxwell())


def test_apply_projector_fixes_gradient_pairs():
    g = Grid((12, 12), (2.0 * np.pi, 2.0 * np.pi))
    x = g.coordinates()
    phi = (np.exp(1j * x[:, 0]) + 0.5 * np.exp(1j * (x[:, 0] + 2 * x[:, 1])))[:, None]
    from gammasolve.fields import scalar_layout

    pot = Field(g, scalar_layout(), phi)
    grad = gradient(pot)
    layout = BlockLayout((Block("vector", 2), Block("scalar")))
    pair = Field(g, layout, np.concatenate([grad.values, pot.values], axis=1))
    fixed = apply_projector(pair, gamma_helmholtz(2))
    assert_allclose(fixed.values, pair.values, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.floats(-20, 20, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
    )
)
def test_helmholtz_idempotent_any_wavevector(ktuple):
    G = gamma_helmholtz(3).symbol(np.asarray(ktuple))
    assert np.max(np.abs(G @ G - G)) < 1e-12
    assert np.max(np.abs(G - np.conj(G.T))) < 1e-12


CLOSED_FORM = ["helmholtz", "schrodinger", "surface", "elastic", "thermoacoustic"]
_NUMPY_QR = np.linalg.qr


@pytest.fixture
def no_qr(monkeypatch):
    """Make np.linalg.qr raise, for bases that must be built without it."""

    def qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", qr)


def _closed_form_case(name, shifted):
    # 16 points per axis hold k = 0 and the Nyquist mode; the surface family
    # lives on a 1-D grid and takes the first component of k0.
    d = 1 if name == "surface" else 3
    grid = Grid((16,) * d, (2.0 * np.pi,) * d)
    shift = np.array([0.3, 0.1, 0.0][:d]) if shifted else None
    return projectors.FAMILIES[name](d), grid, shift


@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "k0"])
@pytest.mark.parametrize("name", CLOSED_FORM)
def test_closed_form_basis_is_orthonormal_and_spans_the_qr_range(name, shifted, no_qr):
    proj, grid, shift = _closed_form_case(name, shifted)
    B = projectors._basis_on(proj, grid, shift).rows()
    K = grid.wavevectors() + (0.0 if shift is None else shift)
    Q = _NUMPY_QR(FAMILY_D[name](grid.ndim).matrices(K))[0]
    Bh = np.conj(np.swapaxes(B, -1, -2))
    assert np.max(np.abs(Bh @ B - np.eye(B.shape[-1]))) <= 1e-14
    QQh = Q @ np.conj(np.swapaxes(Q, -1, -2))
    assert np.max(np.abs(B @ Bh - QQh)) <= 1e-14


@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "k0"])
@pytest.mark.parametrize("name", CLOSED_FORM)
def test_closed_form_apply_matches_the_dense_symbols(name, shifted, no_qr):
    proj, grid, shift = _closed_form_case(name, shifted)
    rng = np.random.default_rng(7)
    shape = (grid.npoints, proj.ncomp)
    hat = Field(grid, proj.layout, rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape), "fourier")
    G = projector_symbols(proj, grid, shift)
    fixed = np.einsum("pij,pj->pi", G, hat.values)
    for which, expected in ((1, fixed), (2, hat.values - fixed)):
        out = apply_projector(hat, proj, shift=shift, which=which)
        assert out.representation == "fourier"
        assert np.max(np.abs(out.values - expected)) <= 1e-14


# Each scalar-pair family on a small grid, unshifted and Bloch-shifted: the
# projector keeps only h, and a hand-made Projector over its dense basis
# takes the dense path.
PAIR_CASES = [("helmholtz", 2), ("helmholtz", 3), ("schrodinger", 2), ("surface", 1),
              ("elastic", 3), ("thermoacoustic", 3)]


def _pair_and_dense(name, d, shifted):
    grid = Grid((8,) * d, (2.0 * np.pi,) * d)
    shift = np.array([0.3, -0.2, 0.1][:d]) if shifted else None
    pair = projectors.FAMILIES[name](d)
    dense = Projector(name, pair.layout, pair.basis)
    return grid, shift, pair, dense


@pytest.mark.parametrize("modes", [None, 7], ids=["one_block", "blocks_of_7"])
@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "k0"])
@pytest.mark.parametrize("name,d", PAIR_CASES, ids=[f"{n}{d}d" for n, d in PAIR_CASES])
def test_pair_basis_products_equal_the_dense_basis_products(monkeypatch, name, d, shifted,
                                                            modes):
    if modes is not None:  # the pair Gram and right factor across block boundaries
        monkeypatch.setattr(projectors, "_MODES", modes)
    grid, shift, pair, dense = _pair_and_dense(name, d, shifted)
    P = projectors._basis_on(pair, grid, shift, keep=False)
    D = projectors._basis_on(dense, grid, shift, keep=False)
    assert isinstance(P, projectors._PairBasis) and isinstance(D, projectors._DenseBasis)
    assert P.h.shape == (grid.npoints, d + 1)  # all a pair family keeps
    assert P.shape == D.shape
    npts, c, r = D.shape
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v, phi, X, L = cplx(npts, c), cplx(npts, r), cplx(npts, r, 2), cplx(c, c)
    Q, Pr = np.linalg.qr(cplx(c, 5))[0], np.linalg.qr(cplx(c, 4))[0]
    modes = np.array([0, 3, npts - 1])
    # Projector.basis is still D(ik) / sqrt(1 + |k|^2), to the bit
    K = grid.wavevectors() + (0.0 if shift is None else shift)
    scale = 1.0 / np.sqrt(1.0 + np.einsum("pi,pi->p", K, K))
    scaled = FAMILY_D[name](d).matrices(K) * scale[:, None, None]
    np.testing.assert_array_equal(pair.basis(K), scaled)
    np.testing.assert_array_equal(P.rows(), scaled)
    assert_allclose(P.rows(modes), D.B[modes], rtol=0, atol=0)
    for got, want in [(P.adjoint(v), D.adjoint(v)), (P.apply(phi), D.apply(phi)),
                      (P.apply(X), D.apply(X)), (P.gram(L), D.gram(L)),
                      (P.gram(None), D.gram(None)),
                      (P.left(Q), D.left(Q)), (P.left(None), D.left(None)),
                      (P.right(Pr, X), D.right(Pr, X)), (P.right(None, X), D.right(None, X))]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    B = D.B
    Bh = np.conj(np.swapaxes(B, -1, -2))
    assert_allclose(D.gram(L), Bh @ L @ B, rtol=0, atol=1e-13)
    assert_allclose(D.gram(None), Bh @ B, rtol=0, atol=1e-14)
    assert_allclose(D.left(Q), Bh @ Q, rtol=0, atol=1e-14)
    assert_allclose(D.right(Pr, X), Pr.conj().T @ B @ X, rtol=0, atol=1e-13)
    assert_allclose(D.apply(X), B @ X, rtol=0, atol=1e-14)
    assert_allclose(D.adjoint(v), np.einsum("pcr,pc->pr", B.conj(), v), rtol=0, atol=1e-14)


@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "k0"])
@pytest.mark.parametrize("name,d", PAIR_CASES, ids=[f"{n}{d}d" for n, d in PAIR_CASES])
def test_pair_and_dense_bases_apply_the_same_projector(name, d, shifted):
    grid, shift, pair, dense = _pair_and_dense(name, d, shifted)
    field = random_field(grid, pair.layout, seed=4)
    for which in (1, 2):
        got = apply_projector(field, pair, shift, which).values
        want = apply_projector(field, dense, shift, which).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
