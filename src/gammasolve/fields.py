"""Periodic grids and block-structured complex fields with unitary FFTs.

A field is a complex array of shape (npoints, ncomponents) over a periodic
rectangular grid, in either real-space or Fourier representation.  Components
are grouped into blocks (scalar / vector / full matrix / packed symmetric
matrix) so that material laws and projector symbols can address physically
meaningful slices.  All transforms are unitary (norm="ortho"), so the
weighted inner product takes the same form in both representations.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.fft

__all__ = [
    "Block",
    "BlockLayout",
    "Grid",
    "Field",
    "scalar_layout",
    "vector_layout",
    "inner_product",
    "norm",
    "axpy",
    "scale",
    "pointwise_map",
    "gradient",
    "divergence",
    "random_field",
    "sym_pack",
    "sym_unpack",
    "read_uplf",
    "write_uplf",
    "UPLFError",
    "transform",
    "set_fft_workers",
    "get_fft_workers",
]

_KIND_CODES = {"scalar": 0, "vector": 1, "matrix": 2, "sym": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_REP_CODES = {"real": 0, "fourier": 1}
_REP_NAMES = {v: k for k, v in _REP_CODES.items()}

_fft_workers = None


def set_fft_workers(n):
    """Set the worker count passed to scipy.fft (None = scipy default);
    a count below 1 raises ValueError.

    The environment variable GAMMA_SOLVE_THREADS provides the initial value
    (ignored unless it is a positive integer).
    """
    global _fft_workers
    if n is not None:
        n = int(n)
        if n < 1:
            raise ValueError(f"FFT worker count must be at least 1, got {n}")
    _fft_workers = n


def get_fft_workers():
    return _fft_workers


_env_workers = os.environ.get("GAMMA_SOLVE_THREADS")
if _env_workers:
    try:
        set_fft_workers(int(_env_workers))
    except ValueError:
        pass


def _ncomp(kind, d):
    if kind == "scalar":
        return 1
    if kind == "vector":
        return d
    if kind == "matrix":
        return d * d
    if kind == "sym":
        return d * (d + 1) // 2
    raise ValueError(f"unknown block kind {kind!r}")


@dataclass(frozen=True)
class Block:
    """One component block: a scalar, a d-vector, a full dxd matrix stored
    row-major, or a symmetric dxd matrix in norm-preserving packed form
    (diagonal entries, then sqrt(2)-weighted off-diagonals)."""

    kind: str
    d: int = 1

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("block dimension must be >= 1")

    @property
    def ncomp(self):
        return _ncomp(self.kind, self.d)


@dataclass(frozen=True)
class BlockLayout:
    """Ordered collection of blocks; defines the component axis of a field."""

    blocks: tuple
    # The total component count, summed once: every Field reads it.
    ncomp: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for b in self.blocks:
            if not isinstance(b, Block):
                raise TypeError("BlockLayout takes Block instances")
        object.__setattr__(self, "ncomp", sum(b.ncomp for b in self.blocks))

    def slices(self):
        """Component slice for each block, in order."""
        out, start = [], 0
        for b in self.blocks:
            out.append(slice(start, start + b.ncomp))
            start += b.ncomp
        return out

    def block_slice(self, i):
        return self.slices()[i]


def scalar_layout():
    return BlockLayout((Block("scalar"),))


def vector_layout(d):
    return BlockLayout((Block("vector", d),))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: dims[i] points on an axis of length lengths[i]."""

    dims: tuple
    lengths: tuple

    def __post_init__(self):
        if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in self.dims):
            raise ValueError(f"grid dims must be integers, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        if len(self.dims) != len(self.lengths):
            raise ValueError("dims and lengths must have equal length")
        if not self.dims:
            raise ValueError("a grid needs at least one axis")
        if any(n < 1 for n in self.dims):
            raise ValueError("grid dims must be positive")
        if not all(0 < L < math.inf for L in self.lengths):  # also a NaN
            raise ValueError("grid lengths must be finite and positive")

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def npoints(self):
        return math.prod(self.dims)

    @property
    def volume(self):
        return float(np.prod(self.lengths))

    @property
    def cell_volume(self):
        return self.volume / self.npoints

    def axis_coordinates(self, axis):
        """The coordinates along one axis, shaped (1, .., dims[axis], .., 1)
        to broadcast over the grid; column ``axis`` of :meth:`coordinates`
        without the point array."""
        n, length = self.dims[axis], self.lengths[axis]
        shape = [1] * self.ndim
        shape[axis] = n
        return (np.arange(n) * (length / n)).reshape(shape)

    @cached_property
    def _coords(self):
        out = np.empty(self.dims + (self.ndim,))
        for axis in range(self.ndim):
            out[..., axis] = self.axis_coordinates(axis)
        return out.reshape(self.npoints, self.ndim)

    def coordinates(self):
        """Real-space point coordinates, shape (npoints, ndim)."""
        return self._coords

    @cached_property
    def _wavevectors(self):
        axes = [
            2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
            for n, L in zip(self.dims, self.lengths)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def wavevectors(self):
        """Signed wavevectors 2*pi*m/L per axis in FFT order, shape
        (npoints, ndim).  Integer mode indices follow numpy's fftfreq
        convention (the Nyquist mode of an even axis is negative)."""
        return self._wavevectors

    def mode_flat_index(self, mode):
        """Flat Fourier index of an integer mode tuple (wrapped periodically)."""
        mode = np.asarray(mode, dtype=int)
        if mode.shape != (self.ndim,):
            raise ValueError("mode must have one integer per axis")
        idx = tuple(int(m) % n for m, n in zip(mode, self.dims))
        return int(np.ravel_multi_index(idx, self.dims))


class Field:
    """Block-structured complex field on a periodic grid.

    Parameters
    ----------
    grid : Grid
    layout : BlockLayout
    values : array_like, shape (npoints, ncomp), complex
    representation : {"real", "fourier"}
    """

    __slots__ = ("grid", "layout", "values", "representation")

    def __init__(self, grid, layout, values, representation="real"):
        if representation not in _REP_CODES:
            raise ValueError(f"unknown representation {representation!r}")
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape != (grid.npoints, layout.ncomp):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"(npoints, ncomp) = ({grid.npoints}, {layout.ncomp})"
            )
        self.grid = grid
        self.layout = layout
        self.values = values
        self.representation = representation

    @classmethod
    def zeros(cls, grid, layout):
        """The zero field in real space."""
        return cls(grid, layout, np.zeros((grid.npoints, layout.ncomp), dtype=np.complex128))

    def copy(self):
        return Field(self.grid, self.layout, self.values.copy(), self.representation)

    def block(self, i):
        """View of one block's components, shape (npoints, block.ncomp)."""
        return self.values[:, self.layout.block_slice(i)]

    def to_fourier(self):
        """Unitary DFT along all grid axes; no-op if already in Fourier form."""
        if self.representation == "fourier":
            return self
        return Field(self.grid, self.layout, transform(self.values, self.grid), "fourier")

    def to_real(self):
        if self.representation == "real":
            return self
        vals = transform(self.values, self.grid, False)
        return Field(self.grid, self.layout, vals, "real")


def transform(values, grid, forward=True):
    """Unitary DFT (or its inverse) along the grid axes of a raw
    (npoints, c) array; the one FFT entry point of the package.  A 1-D grid
    goes through ``fft``/``ifft``, which give the same values as
    ``fftn``/``ifftn`` with less overhead per call."""
    if grid.ndim == 1:
        fn = scipy.fft.fft if forward else scipy.fft.ifft
        return fn(values, axis=0, norm="ortho", workers=_fft_workers)
    fn = scipy.fft.fftn if forward else scipy.fft.ifftn
    out = fn(
        values.reshape(*grid.dims, values.shape[-1]),
        axes=tuple(range(grid.ndim)),
        norm="ortho",
        workers=_fft_workers,
    )
    return out.reshape(values.shape)


def _check_compatible(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if a.layout != b.layout:
        raise ValueError("fields have different block layouts")
    if a.representation != b.representation:
        raise ValueError(
            f"representation mismatch: {a.representation!r} vs {b.representation!r}"
        )


def inner_product(a, b):
    """Volume-weighted inner product, conjugating the first argument.

    Both fields must share grid, layout and representation; unitary
    transforms make the value representation-independent.
    """
    _check_compatible(a, b)
    return complex(np.vdot(a.values, b.values) * a.grid.cell_volume)


def norm(a):
    return float(np.sqrt(max(inner_product(a, a).real, 0.0)))


def axpy(alpha, x, y):
    """Return y + alpha*x as a new field."""
    _check_compatible(x, y)
    return Field(x.grid, x.layout, y.values + alpha * x.values, x.representation)


def scale(alpha, x):
    return Field(x.grid, x.layout, alpha * x.values, x.representation)


def _pointwise(matrices, values):
    """The per-point matvec: component vectors (npoints, c) times a constant
    (m, c) matrix or per-point (npoints, m, c) matrices.  Constant and
    per-point materials, projector bases and :func:`pointwise_map` apply
    through it."""
    if matrices.ndim == 2:
        return values @ matrices.T
    return np.einsum("pij,pj->pi", matrices, values)


def pointwise_map(matrices, field):
    """Apply a (ncomp, ncomp) matrix — constant or per point — at every point."""
    m = np.asarray(matrices)
    c = field.layout.ncomp
    if m.shape not in ((c, c), (field.grid.npoints, c, c)):
        raise ValueError(f"matrix shape {m.shape} incompatible with ncomp={c}")
    return Field(field.grid, field.layout, _pointwise(m, field.values),
                 field.representation)


def gradient(field):
    """Spectral gradient of a single-scalar-block field.

    Returns a field with one vector block of dimension grid.ndim; the output
    representation matches the input.
    """
    if field.layout.blocks != (Block("scalar"),):
        raise ValueError("gradient expects a single scalar block")
    hat = field.to_fourier()
    k = field.grid.wavevectors()
    g = 1j * k * hat.values
    out = Field(field.grid, vector_layout(field.grid.ndim), g, "fourier")
    return out if field.representation == "fourier" else out.to_real()


def divergence(field):
    """Spectral divergence of a single-vector-block field (block dim = ndim)."""
    if field.layout.blocks != (Block("vector", field.grid.ndim),):
        raise ValueError("divergence expects a single vector block of grid dimension")
    hat = field.to_fourier()
    k = field.grid.wavevectors()
    dv = np.sum(1j * k * hat.values, axis=1, keepdims=True)
    out = Field(field.grid, scalar_layout(), dv, "fourier")
    return out if field.representation == "fourier" else out.to_real()


def random_field(grid, layout, seed=0, representation="real"):
    """Standard-normal complex field (deterministic for a given seed)."""
    rng = np.random.default_rng(seed)
    shape = (grid.npoints, layout.ncomp)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Field(grid, layout, vals, representation)


def _sym_pairs(d):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def sym_pack(mats):
    """Pack symmetric matrices (..., d, d) into norm-preserving packed form
    (..., d*(d+1)//2): diagonal entries, then sqrt(2) * off-diagonals."""
    mats = np.asarray(mats)
    d = mats.shape[-1]
    parts = [mats[..., i, i] for i in range(d)]
    parts += [np.sqrt(2.0) * mats[..., i, j] for i, j in _sym_pairs(d)]
    return np.stack(parts, axis=-1)


def sym_unpack(packed, d):
    """Inverse of sym_pack."""
    packed = np.asarray(packed)
    out = np.zeros(packed.shape[:-1] + (d, d), dtype=packed.dtype)
    for i in range(d):
        out[..., i, i] = packed[..., i]
    for idx, (i, j) in enumerate(_sym_pairs(d)):
        v = packed[..., d + idx] / np.sqrt(2.0)
        out[..., i, j] = v
        out[..., j, i] = v
    return out


# ---------------------------------------------------------------------------
# UPLF binary container (version 1, little-endian):
#   magic "UPLF" | u32 version | u32 D | D*u64 dims | D*f64 lengths
#   | u32 nblocks | nblocks * (u8 kind, u32 d) | u8 representation
#   | npoints*ncomp complex128 values, point-major, component-minor.
# ---------------------------------------------------------------------------

_MAGIC = b"UPLF"
_VERSION = 1


def write_uplf(path, field):
    """Write a field to the binary container format (see module source)."""
    grid, layout = field.grid, field.layout
    parts = [struct.pack("<4sI", _MAGIC, _VERSION)]
    parts.append(struct.pack("<I", grid.ndim))
    parts.append(struct.pack(f"<{grid.ndim}Q", *grid.dims))
    parts.append(struct.pack(f"<{grid.ndim}d", *grid.lengths))
    parts.append(struct.pack("<I", len(layout.blocks)))
    for b in layout.blocks:
        parts.append(struct.pack("<BI", _KIND_CODES[b.kind], b.d))
    parts.append(struct.pack("<B", _REP_CODES[field.representation]))
    parts.append(np.ascontiguousarray(field.values, dtype="<c16").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class UPLFError(ValueError):
    pass


def read_uplf(path):
    """Read a field written by write_uplf."""
    with open(path, "rb") as fh:
        buf = fh.read()
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(buf):
            raise UPLFError("truncated UPLF file")
        out = struct.unpack_from(fmt, buf, off)
        off += size
        return out

    magic, version = take("<4sI")
    if magic != _MAGIC:
        raise UPLFError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise UPLFError(f"unsupported UPLF version {version}")
    (ndim,) = take("<I")
    dims = take(f"<{ndim}Q")
    lengths = take(f"<{ndim}d")
    (nblocks,) = take("<I")
    blocks = []
    for _ in range(nblocks):
        kind_code, d = take("<BI")
        if kind_code not in _KIND_NAMES:
            raise UPLFError(f"unknown block kind code {kind_code}")
        blocks.append((_KIND_NAMES[kind_code], d))
    (rep_code,) = take("<B")
    if rep_code not in _REP_NAMES:
        raise UPLFError(f"unknown representation code {rep_code}")
    try:
        grid = Grid(dims, lengths)
        layout = BlockLayout(tuple(Block(kind, d) for kind, d in blocks))
    except ValueError as exc:  # a header that Grid or Block rejects
        raise UPLFError(f"bad header: {exc}") from None
    count = grid.npoints * layout.ncomp
    expected = count * 16
    payload = buf[off:]
    if len(payload) != expected:
        raise UPLFError(
            f"payload has {len(payload)} bytes, expected {expected} "
            f"({grid.npoints} points x {layout.ncomp} components)"
        )
    values = np.frombuffer(payload, dtype="<c16").reshape(grid.npoints, layout.ncomp)
    return Field(grid, layout, values.copy(), _REP_NAMES[rep_code])
