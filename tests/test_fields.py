"""Grid, field, transform, and file-format tests."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gammasolve.fields import (
    Block,
    BlockLayout,
    Field,
    Grid,
    UPLFError,
    axpy,
    divergence,
    gradient,
    inner_product,
    norm,
    pointwise_map,
    random_field,
    read_uplf,
    scalar_layout,
    scale,
    sym_pack,
    sym_unpack,
    vector_layout,
    write_uplf,
)

GRID = Grid((8, 6, 4), (2.0 * np.pi, 3.0, 1.0))
LAYOUT = BlockLayout((Block("vector", 3), Block("scalar")))


def test_block_component_counts():
    assert Block("scalar").ncomp == 1
    assert Block("vector", 3).ncomp == 3
    assert Block("matrix", 3).ncomp == 9
    assert Block("sym", 3).ncomp == 6
    assert LAYOUT.ncomp == 4
    assert LAYOUT.block_slice(0) == slice(0, 3)
    assert LAYOUT.block_slice(1) == slice(3, 4)


@pytest.mark.parametrize("kind,d,ncomp", [("scalar", 1, 1), ("vector", 2, 2),
                                          ("matrix", 2, 4), ("sym", 3, 6)])
def test_layout_component_count_of_every_block_kind(kind, d, ncomp):
    assert BlockLayout((Block(kind, d),)).ncomp == ncomp
    assert BlockLayout([Block(kind, d), Block("vector", 3)]).ncomp == ncomp + 3


def test_layout_equality_and_hash_depend_on_blocks_only():
    same = BlockLayout([Block("vector", 3), Block("scalar")])
    assert same == LAYOUT and hash(same) == hash(LAYOUT)
    assert hash(LAYOUT) == hash((LAYOUT.blocks,))  # the dataclass hash of its one field
    assert repr(LAYOUT) == ("BlockLayout(blocks=(Block(kind='vector', d=3), "
                            "Block(kind='scalar', d=1)))")
    other = BlockLayout((Block("scalar"), Block("vector", 3)))
    assert other != LAYOUT and other.ncomp == LAYOUT.ncomp
    assert len({LAYOUT, same, other}) == 2


def test_block_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Block("spinor", 2)


@pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf])
def test_grid_rejects_lengths_that_are_not_finite_and_positive(length):
    with pytest.raises(ValueError, match="finite and positive"):
        Grid((4, 4), (1.0, length))


@pytest.mark.parametrize("dims", [(3.5,), (True, 4), (np.bool_(False), 4), ("4",), (4.0,)])
def test_grid_rejects_dims_that_are_not_integers(dims):
    with pytest.raises(ValueError, match="integers"):
        Grid(dims, (1.0,) * len(dims))


def test_grid_takes_numpy_integer_dims():
    assert Grid((np.int64(4), np.uint8(2)), (1.0, 1.0)).dims == (4, 2)


def test_grid_basic_properties():
    assert GRID.ndim == 3
    assert GRID.npoints == 8 * 6 * 4
    assert_allclose(GRID.volume, 2.0 * np.pi * 3.0 * 1.0)
    assert_allclose(GRID.cell_volume, GRID.volume / GRID.npoints)


def test_coordinates_are_uniform_and_start_at_zero():
    x = GRID.coordinates()
    assert x.shape == (GRID.npoints, 3)
    assert_allclose(x[0], [0.0, 0.0, 0.0])
    # C-order: the last axis varies fastest
    assert_allclose(x[1], [0.0, 0.0, 0.25])
    assert_allclose(x[:, 0].max(), 2.0 * np.pi * 7 / 8)


def test_wavevectors_signed_convention():
    g = Grid((4,), (2.0 * np.pi,))
    k = g.wavevectors()[:, 0]
    # fftfreq layout: 0, 1, -2 (negative Nyquist), -1
    assert_allclose(k, [0.0, 1.0, -2.0, -1.0])
    g2 = Grid((4,), (1.0,))
    assert_allclose(g2.wavevectors()[:, 0], 2.0 * np.pi * np.array([0, 1, -2, -1]))


def test_mode_flat_index_wraps():
    g = Grid((4, 4), (1.0, 1.0))
    k = g.wavevectors()
    idx = g.mode_flat_index((-1, 2))
    assert_allclose(k[idx], 2.0 * np.pi * np.array([-1.0, -2.0]))


@pytest.mark.parametrize("forward", [True, False])
def test_one_dimensional_transform_equals_the_n_dimensional_one(forward):
    import scipy.fft

    from gammasolve.fields import transform

    g = Grid((192,), (2.0 * np.pi,))
    values = random_field(g, BlockLayout((Block("vector", 2),)), seed=3).values
    fn = scipy.fft.fftn if forward else scipy.fft.ifftn
    expected = fn(values, axes=(0,), norm="ortho")
    np.testing.assert_array_equal(transform(values, g, forward), expected)


def test_fft_roundtrip_and_plane_wave_coefficient():
    f = random_field(GRID, LAYOUT, seed=1)
    back = f.to_fourier().to_real()
    assert np.max(np.abs(back.values - f.values)) < 1e-13

    # single plane wave -> single unitary-normalized coefficient
    g = Grid((8, 8), (2.0 * np.pi, 2.0 * np.pi))
    x = g.coordinates()
    vals = np.exp(1j * (2 * x[:, 0] - x[:, 1]))[:, None]
    hat = Field(g, scalar_layout(), vals).to_fourier()
    idx = g.mode_flat_index((2, -1))
    assert_allclose(hat.values[idx, 0], np.sqrt(g.npoints), rtol=1e-12)
    other = np.abs(hat.values[:, 0])
    other[idx] = 0.0
    assert np.max(other) < 1e-10


def test_inner_product_plancherel_and_volume_weight():
    f = random_field(GRID, LAYOUT, seed=2)
    g = random_field(GRID, LAYOUT, seed=3)
    a = inner_product(f, g)
    b = inner_product(f.to_fourier(), g.to_fourier())
    assert abs(a - b) <= 1e-12 * abs(a)
    # constant scalar field of value 1 has |f|^2 = cell volume * npoints
    one = Field(GRID, scalar_layout(), np.ones((GRID.npoints, 1), complex))
    assert_allclose(inner_product(one, one), GRID.volume, rtol=1e-13)
    assert_allclose(norm(one), np.sqrt(GRID.volume), rtol=1e-13)


def test_inner_product_rejects_mismatched_representations():
    f = random_field(GRID, LAYOUT, seed=2)
    with pytest.raises(ValueError):
        inner_product(f, f.to_fourier())
    g = random_field(Grid((4, 4), (1.0, 1.0)), LAYOUT, seed=2)
    with pytest.raises(ValueError):
        inner_product(f, g)


def test_axpy_and_scale():
    f = random_field(GRID, LAYOUT, seed=4)
    g = random_field(GRID, LAYOUT, seed=5)
    h = axpy(2.0 - 1.0j, f, g)
    assert_allclose(h.values, (2.0 - 1.0j) * f.values + g.values)
    assert_allclose(scale(3.0, f).values, 3.0 * f.values)


def test_gradient_and_divergence_analytic():
    g = Grid((16, 16), (2.0 * np.pi, 1.0))
    x = g.coordinates()
    phi = np.exp(1j * (3 * x[:, 0] + 2.0 * np.pi * 2 * x[:, 1]))
    f = Field(g, scalar_layout(), phi[:, None])
    grad = gradient(f)
    assert grad.layout == vector_layout(2)
    assert_allclose(grad.values[:, 0], 3j * phi, atol=1e-10)
    assert_allclose(grad.values[:, 1], 2.0 * np.pi * 2j * phi, atol=1e-9)
    div = divergence(grad)
    assert_allclose(div.values[:, 0], -(9.0 + (4.0 * np.pi) ** 2) * phi, rtol=1e-12)


def test_pointwise_map_constant_and_varying():
    f = random_field(GRID, LAYOUT, seed=6)
    M = np.arange(16.0).reshape(4, 4) + 1j
    out = pointwise_map(M, f)
    assert_allclose(out.values, f.values @ M.T)
    rng = np.random.default_rng(0)
    Mp = rng.normal(size=(GRID.npoints, 4, 4))
    outp = pointwise_map(Mp, f)
    assert_allclose(outp.values[17], Mp[17] @ f.values[17])


def test_sym_pack_unpack_roundtrip_preserves_norm():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(10, 3, 3)) + 1j * rng.normal(size=(10, 3, 3))
    S = (A + np.swapaxes(A, -1, -2)) / 2.0
    packed = sym_pack(S)
    assert packed.shape == (10, 6)
    # packing is an isometry on symmetric matrices
    assert_allclose(
        np.sum(np.abs(packed) ** 2, axis=1),
        np.sum(np.abs(S) ** 2, axis=(1, 2)),
        rtol=1e-12,
    )
    assert_allclose(sym_unpack(packed, 3), S, atol=1e-13)


def test_uplf_roundtrip_and_byte_stability(tmp_path):
    f = random_field(GRID, LAYOUT, seed=7, representation="fourier")
    p1 = tmp_path / "a.uplf"
    p2 = tmp_path / "b.uplf"
    write_uplf(p1, f)
    g = read_uplf(p1)
    assert g.grid == f.grid
    assert g.layout == f.layout
    assert g.representation == "fourier"
    assert_allclose(g.values, f.values)
    write_uplf(p2, g)
    assert p1.read_bytes() == p2.read_bytes()


def test_uplf_header_layout(tmp_path):
    f = Field.zeros(Grid((2, 3), (1.0, 2.0)), scalar_layout())
    p = tmp_path / "h.uplf"
    write_uplf(p, f)
    raw = p.read_bytes()
    assert raw[:4] == b"UPLF"
    version, ndim = struct.unpack_from("<II", raw, 4)
    assert version == 1 and ndim == 2
    dims = struct.unpack_from("<2Q", raw, 12)
    lengths = struct.unpack_from("<2d", raw, 28)
    assert dims == (2, 3)
    assert lengths == (1.0, 2.0)


def test_uplf_rejects_corrupt_input(tmp_path):
    f = Field.zeros(Grid((2, 2), (1.0, 1.0)), scalar_layout())
    p = tmp_path / "c.uplf"
    write_uplf(p, f)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    bad = tmp_path / "bad.uplf"
    bad.write_bytes(bytes(raw))
    with pytest.raises(UPLFError):
        read_uplf(bad)
    trunc = tmp_path / "trunc.uplf"
    trunc.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(UPLFError):
        read_uplf(trunc)


def _uplf_header(dims, lengths, blocks):
    """A UPLF file of the given header and no payload."""
    raw = struct.pack("<4sII", b"UPLF", 1, len(dims))
    raw += struct.pack(f"<{len(dims)}Q", *dims) + struct.pack(f"<{len(dims)}d", *lengths)
    raw += struct.pack("<I", len(blocks))
    raw += b"".join(struct.pack("<BI", kind, d) for kind, d in blocks)
    return raw + struct.pack("<B", 0)


@pytest.mark.parametrize("dims,lengths,blocks", [
    ((0, 2), (1.0, 1.0), [(0, 1)]),
    ((2, 2), (0.0, 1.0), [(0, 1)]),
    ((2, 2), (-1.0, 1.0), [(0, 1)]),
    ((2, 2), (np.nan, 1.0), [(0, 1)]),
    ((2, 2), (np.inf, 1.0), [(0, 1)]),
    ((2, 2), (1.0, 1.0), [(1, 0)]),
    ((), (), [(0, 1)]),
], ids=["zero-dim", "zero-length", "negative-length", "nan-length", "inf-length",
        "zero-block-size", "no-axes"])
def test_uplf_rejects_headers_that_grid_or_block_reject(tmp_path, dims, lengths, blocks):
    p = tmp_path / "h.uplf"
    p.write_bytes(_uplf_header(dims, lengths, blocks))
    with pytest.raises(UPLFError, match="bad header"):
        read_uplf(p)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parseval_random_fields(seed):
    g = Grid((6, 5), (2.0, 3.0))
    f = random_field(g, scalar_layout(), seed=seed)
    a = norm(f)
    b = norm(f.to_fourier())
    assert abs(a - b) <= 1e-12 * max(a, 1e-30)


def test_field_requires_matching_shape():
    with pytest.raises(ValueError):
        Field(GRID, LAYOUT, np.zeros((GRID.npoints, 3), complex))
    with pytest.raises(ValueError):
        Field(GRID, LAYOUT, np.zeros((GRID.npoints, 4), complex), "momentum")


def test_every_module_export_is_a_top_level_name():
    import importlib
    import pkgutil

    import gammasolve

    for info in pkgutil.iter_modules(gammasolve.__path__):
        names = getattr(importlib.import_module(f"gammasolve.{info.name}"), "__all__", [])
        assert [n for n in names if not hasattr(gammasolve, n)] == [], info.name
        assert set(names) <= set(gammasolve.__all__), info.name
