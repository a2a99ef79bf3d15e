"""One reader for every value a caller gives on a grid: material
parameters, forces, Bloch modulations, potentials and V' all accept the same
kinds of input through ``materials.resolve_parameter`` and reject the same
malformed ones."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammasolve import cli
from gammasolve.fermionic import ground_state, normalize_state, perturbation_energy
from gammasolve.fields import Block, BlockLayout, Field, Grid
from gammasolve.materials import (Constant, Layered, ParameterError, Voxel, block_source,
                                  build_acoustics)
from gammasolve.projectors import gamma_helmholtz
from gammasolve.quasiperiodic import effective_tensors

GRID = Grid((4, 4), (2.0 * np.pi, 2.0 * np.pi))
OTHER = Grid((2, 8), (2.0 * np.pi, 2.0 * np.pi))  # the same 16 points in another order
X = GRID.coordinates()
LAYOUT = BlockLayout((Block("vector", 2), Block("scalar")))
PSI = normalize_state(Field(GRID, BlockLayout((Block("scalar"),)),
                            (1.0 + 0.3 * np.cos(X[:, 0]) + 0.2j * np.sin(X[:, 1]))[:, None]))


def _kappa(value):
    # 16 points hold no phase table: the material is constant or per point.
    return np.broadcast_to(build_acoustics(GRID, 1.1, value, 1.0).values, (GRID.npoints, 3, 3))


def _tensors(modulation):
    L = build_acoustics(GRID, 0.5, 1.0, 1.0)
    eff = effective_tensors(GRID, L, gamma_helmholtz(2), (0.5, 0.0), modulation=modulation)
    return np.stack([eff.tensor_e, eff.tensor_j])


# Entry point: (read, shape of one value, parameter name or None, the two
# layer values of a per-point input).
ENTRIES = {
    "builder kappa": (_kappa, (), "kappa", (1.0, 2.0)),
    "block_source force": (lambda f: block_source(GRID, LAYOUT, 0, f).values, (2,), None,
                           (np.array([1.0, 2.0]), np.array([3.0, -1.0]))),
    "effective_tensors modulation": (_tensors, (), "modulation", (0.5, -0.25)),
    "perturbation_energy vprime": (lambda v: perturbation_energy(PSI, v), (), "vprime",
                                   (0.3, -0.2)),
    "ground_state potential": (lambda v: ground_state(GRID, 1.0, v, nstates=3)[0], (),
                               "potential", (0.5, -0.5)),
}


def _field(grid, values):
    values = values.reshape(grid.npoints, -1)
    return Field(grid, BlockLayout((Block("vector", values.shape[1]),)), values)


def _valid_inputs(shape, a, b):
    """Groups of inputs that hold equal values: a constant, and a per-point
    value that is ``a`` where x < pi and ``b`` elsewhere."""
    v = np.where((X[:, 0] < np.pi).reshape((-1,) + (1,) * len(shape)), a, b)
    constant = [a, Constant(a), np.full((GRID.npoints,) + shape, a)]
    per_point = [v, v.reshape(GRID.dims + shape), lambda x: v, Layered(0, (np.pi,), (a, b)),
                 Voxel(v.reshape(GRID.dims + shape)), _field(GRID, v)]
    return constant, per_point


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_point_reads_each_input_kind_alike(entry):
    read, shape, _, (a, b) = ENTRIES[entry]
    firsts = []
    for group in _valid_inputs(shape, a, b):
        results = [read(value) for value in group]
        for value, result in zip(group[1:], results[1:]):
            assert_allclose(result, results[0], rtol=1e-14, atol=1e-15,
                            err_msg=f"{entry}: {type(value).__name__}")
        firsts.append(results[0])
    assert not np.allclose(*firsts)  # the constant and the per-point value differ


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("bad", ["field on another grid", "one-entry array",
                                 "field with a component too many", "wrong-length array"])
def test_every_entry_point_rejects_each_malformed_input(entry, bad):
    # The modulation and V' once took a field's first component whatever its
    # grid, and a one-entry array by numpy broadcasting.
    read, shape, name, _ = ENTRIES[entry]
    n = int(np.prod(shape))
    value = {
        "field on another grid": _field(OTHER, np.ones((OTHER.npoints, n))),
        "one-entry array": np.array([0.5]),
        "field with a component too many": _field(GRID, np.ones((GRID.npoints, n + 1))),
        "wrong-length array": np.ones((GRID.npoints - 1,) + shape),
    }[bad]
    with pytest.raises(ValueError) as info:
        read(value)
    if name is not None:
        assert isinstance(info.value, ParameterError) and info.value.name == name


def _run(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_a_one_number_voxel_file_is_a_constant(tmp_path, capsys):
    # A 0-d array is a constant, as an inline array of one number is.
    np.save(tmp_path / "kappa.npy", np.array(2.0))
    config = {"grid": {"dims": [4, 4]},
              "material": {"physics": "acoustics", "omega": 1.1,
                           "params": {"kappa": {"type": "voxel",
                                                "path": str(tmp_path / "kappa.npy")},
                                      "rho": 1.0}},
              "source": {"type": "force_constant", "force": [1.0, 0.5]}}
    assert _run(tmp_path, capsys, config) == (0, "")


def test_unsorted_layer_breakpoints_are_a_config_error(tmp_path, capsys):
    # np.searchsorted on [4, 2] would drop the soft layer without a word.
    mu = {"type": "layered", "axis": 0, "breakpoints": [4, 2], "values": [4, 1, 4]}
    config = {"grid": {"dims": [16]},
              "material": {"physics": "love", "omega": 4.6,
                           "params": {"k1": 3.0, "mu": mu, "rho": 1.0}},
              "source": {"type": "force_constant", "force": [1.0]}}
    code, err = _run(tmp_path, capsys, config)
    assert code == 1 and "'material.params.mu'" in err and "non-decreasing" in err
    # Equal breakpoints leave an empty layer and stay valid.
    mu["breakpoints"] = [2, 2]
    assert _run(tmp_path, capsys, config)[0] == 0
