"""Command-line front end.

:data:`_COMMANDS` is the table of subcommands: each one's implementation,
help text and the command-line flags it reads.  Configuration is JSON:
every section is an object, every name or file path a string, and a key
or value the command cannot read is rejected with its JSON path.
Exit codes: 0 on success/convergence, 2 on non-convergence (or failed
verification), 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import fields, models
from .fields import Field, Grid, UPLFError, read_uplf, write_uplf
from .fields import inner_product
from .materials import (
    Checkerboard,
    Layered,
    MaterialSpec,
    PHYSICS,
    ParameterError,
    Voxel,
    acoustic_source,
    block_source,
    build_material,
    build_schrodinger,
    canonical_material,
    default_projector,
    physics_family,
    resolve_parameter,
)
from .projectors import FAMILIES, apply_projector
from .solver import _METHODS, Problem, solve
from .quasiperiodic import effective_tensors
from .fermionic import ground_state, perturbation_solve


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON readers: each rejects a value at its config path
# ---------------------------------------------------------------------------


def _object(node, path, required, optional=()):
    """The values of the ``required`` keys of the JSON object ``node`` at
    ``path`` (``""`` for the whole config), which may hold the ``optional``
    keys too but no others."""
    if not isinstance(node, dict):
        raise ConfigError(f"'{path or 'config'}' must be a JSON object")
    prefix = f"{path}." if path else ""
    for key in node:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    for key in required:
        if key not in node:
            raise ConfigError(f"missing key '{prefix}{key}'")
    return [node[key] for key in required]


def _text(node, path):
    """A JSON string: a name or a file path."""
    if not isinstance(node, str):
        raise ConfigError(f"'{path}' must be a string")
    return node


def _output_name(node, path):
    """A JSON string naming a file inside ``--out``: a relative path that
    stays there once normalized, returned normalized."""
    name = _text(node, path)
    normal = os.path.normpath(name)
    if os.path.isabs(name) or normal.split(os.sep)[0] in (os.curdir, os.pardir):
        raise ConfigError(f"'{path}' must name a file inside --out, not {name!r}")
    return normal


def _is_number(node):
    """A finite JSON number: Python's json also reads NaN and Infinity."""
    return (isinstance(node, (int, float)) and not isinstance(node, bool)
            and math.isfinite(node))


def _scalar(node, path):
    """A JSON number, or a [re, im] pair for complex values."""
    if _is_number(node):
        return float(node)
    if isinstance(node, list) and len(node) == 2 and all(map(_is_number, node)):
        return complex(node[0], node[1])
    raise ConfigError(f"'{path}' must be a finite number or [re, im] pair")


def _number(node, path, positive=False):
    """A real JSON number, positive when ``positive``."""
    if not _is_number(node) or (positive and not node > 0):
        raise ConfigError(f"'{path}' must be a finite {'positive ' if positive else ''}"
                          "number")
    return float(node)


def _integer(node, path, low, high=None):
    """A JSON integer in low..high (no upper bound when ``high`` is None)."""
    if (isinstance(node, bool) or not isinstance(node, int) or node < low
            or (high is not None and node > high)):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"'{path}' must be an integer {bounds}")
    return node


def _list(node, path, item=_scalar, length=None):
    """A JSON list (of ``length`` entries when given) whose entries
    ``item(entry, entry_path)`` parses."""
    if not isinstance(node, list) or (length is not None and len(node) != length):
        raise ConfigError(f"'{path}' must be a list" if length is None else
                          f"'{path}' must be a list of {length} entries")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(node)]


# parameter descriptor type -> its keys besides ``type``
_PARAM_KEYS = {
    "constant": ("value",),
    "layered": ("axis", "breakpoints", "values"),
    "checkerboard": ("values",),
    "voxel": ("path",),
    "array": ("values",),
}

# source type -> its keys besides ``type``
_SOURCE_KEYS = {
    "plane_wave": ("mode", "amplitude"),
    "constant": ("amplitude",),
    "gaussian": ("center", "width", "block", "amplitude"),
    "force_plane_wave": ("mode", "force"),
    "force_constant": ("force",),
    "uplf": ("path",),
}


def _type(node, path, table, what):
    """The ``type`` of the JSON object ``node`` at ``path``, once ``node``
    holds exactly the other keys ``table`` declares for that type."""
    [kind] = _object(node, path, ("type",), node)  # the type names the other keys
    kind = _text(kind, f"{path}.type")
    if kind not in table:
        raise ConfigError(f"unknown {what} type '{kind}' at '{path}'")
    _object(node, path, ("type",) + table[kind])
    return kind


def _parse_param(node, path, ndim):
    """Material parameter on an ``ndim``-axis grid: scalar, [re,im], or a
    descriptor object.  A JSON boolean is not a number anywhere in it,
    while a ``voxel`` file of booleans reads as 0 and 1."""
    if not isinstance(node, dict):
        return _scalar(node, path)
    kind = _type(node, path, _PARAM_KEYS, "parameter")
    if kind == "constant":
        return _scalar(node["value"], f"{path}.value")
    if kind == "layered":
        return Layered(_integer(node["axis"], f"{path}.axis", 0, ndim - 1),
                       tuple(_list(node["breakpoints"], f"{path}.breakpoints", _number)),
                       tuple(_list(node["values"], f"{path}.values")))
    if kind == "checkerboard":
        return Checkerboard(tuple(_list(node["values"], f"{path}.values", length=2)))
    if kind == "voxel":
        try:
            values = np.load(_text(node["path"], f"{path}.path"))
        except (ValueError, EOFError) as exc:
            raise ConfigError(f"'{path}.path' is not a NumPy array file: {exc}")
        except OSError as exc:
            raise ConfigError(f"'{path}.path': {exc}")
        # Booleans count as 0 and 1; strings and other non-numbers do not.
        if not (values.dtype.kind in "biufc" and np.isfinite(values).all()):
            raise ConfigError(f"'{path}.path' must hold finite numbers")
        return Voxel(values)
    values = node["values"]  # an inline array
    try:
        if not any(isinstance(v, bool) for v in np.array(values, dtype=object).flat):
            values = np.array(values, dtype=np.complex128)
            if np.isfinite(values).all():
                return values
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"'{path}.values' must hold finite numbers")


def _parse_grid(node, path="grid"):
    [dims] = _object(node, path, ("dims",), ("lengths",))
    dims = _list(dims, f"{path}.dims", lambda n, where: _integer(n, where, 1))
    if not dims:
        raise ConfigError(f"'{path}.dims' must list at least one axis")
    lengths = _list(node.get("lengths", [2.0 * np.pi] * len(dims)), f"{path}.lengths",
                    lambda x, where: _number(x, where, positive=True), len(dims))
    return Grid(tuple(dims), tuple(lengths))


def _parse_material(node, ndim, path="material"):
    physics, omega = _object(node, path, ("physics", "omega"), ("params", "options"))
    physics = _text(physics, f"{path}.physics")
    if physics not in PHYSICS:
        raise ConfigError(f"unknown physics {physics!r} at '{path}.physics'; "
                          f"known: {', '.join(sorted(PHYSICS))}")
    omega = _scalar(omega, f"{path}.omega")
    raw = node.get("params", {})
    raw_options = node.get("options", {})
    # The keys are the builder's keyword arguments after (grid, omega).
    keys = dict(list(inspect.signature(PHYSICS[physics].builder).parameters.items())[2:])
    _object(raw_options, f"{path}.options", (), keys)
    # A parameter without a default may come as an option instead.
    _object(raw, f"{path}.params", [name for name, p in keys.items()
                                    if p.default is p.empty and name not in raw_options], keys)
    params = {k: _parse_param(v, f"{path}.params.{k}", ndim) for k, v in raw.items()}
    options = {}
    for k, v in raw_options.items():
        options[k] = v if isinstance(v, bool) else _scalar(v, f"{path}.options.{k}")
    return MaterialSpec(physics, omega, params, options)


def _parse_problem(grid_node, material_node):
    """Grid, material (in its canonical direct form), projector and physics
    name of a config's ``grid`` and ``material`` sections."""
    grid = _parse_grid(grid_node)
    spec = _parse_material(material_node, grid.ndim)
    try:
        L = build_material(spec, grid)
    except ParameterError as exc:
        section = "options" if exc.name in spec.options else "params"
        raise ConfigError(f"'material.{section}.{exc.name}': {exc.reason}")
    except ValueError as exc:
        raise ConfigError(f"'material': {exc}")
    try:
        # Every solve needs the direct form; inverting here does it once
        # and reports a singular material before any solve starts.
        L = canonical_material(L)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"'material' is singular at some grid point: {exc}")
    return grid, L, default_projector(spec.physics, grid), spec.physics


def _parse_source(node, grid, L, physics, path="source"):
    kind = _type(node, path, _SOURCE_KEYS, "source")
    if kind == "uplf":
        return _read_uplf(node["path"], f"{path}.path")
    x = grid.coordinates()
    if kind == "gaussian":
        c = np.asarray(_list(node["center"], f"{path}.center", _number, grid.ndim))
        width = _number(node["width"], f"{path}.width", positive=True)
        env = np.exp(-np.sum((x - c) ** 2, axis=1) / (2.0 * width**2))
        block = _integer(node["block"], f"{path}.block", 0, len(L.layout.blocks) - 1)
        amp = np.asarray(_list(node["amplitude"], f"{path}.amplitude",
                               length=L.layout.blocks[block].ncomp), dtype=np.complex128)
        return block_source(grid, L.layout, block, env[:, None] * amp[None, :])
    # The other four share an envelope, ones or the plane wave of ``mode``,
    # times the ``amplitude`` of every component or the family's ``force``.
    env = np.ones(grid.npoints)
    if "mode" in node:
        mode = np.asarray(_list(node["mode"], f"{path}.mode", _number, grid.ndim))
        env = np.exp(1j * (x @ (2.0 * np.pi * mode / np.asarray(grid.lengths))))
    if "amplitude" in node:
        amp = np.asarray(_list(node["amplitude"], f"{path}.amplitude",
                               length=L.layout.ncomp), dtype=np.complex128)
        return Field(grid, L.layout, env[:, None] * amp[None, :])
    f = np.asarray(_list(node["force"], f"{path}.force"), dtype=np.complex128)
    try:
        return physics_family(physics).force_source(L, env[:, None] * f, grid)
    except ValueError as exc:  # the force does not fit its block
        raise ConfigError(f"'{path}.force' does not fit the {physics} force "
                          f"({len(f)} entries): {exc}")


def _parse_solver(cfg, args, default_tol, allowed):
    """Options of the config's ``solver`` section, whose keys must be in
    ``allowed``: ``tol`` is ``--tol``, else ``solver.tol``, else
    ``default_tol``, and must be positive; ``max_iter`` must be a positive
    integer and ``method`` a solver method; ``shift`` and ``history_csv``
    come back as given."""
    node = cfg.get("solver", {})
    _object(node, "solver", (), allowed)
    opts = dict(node)
    tol, where = ((node.get("tol", default_tol), "solver.tol") if args.tol is None
                  else (args.tol, "--tol"))
    opts["tol"] = _number(tol, where, positive=True)
    if "max_iter" in node:
        _integer(node["max_iter"], "solver.max_iter", 1)
    if "method" in node and node["method"] not in _METHODS:
        raise ConfigError(f"'solver.method' must be one of {', '.join(_METHODS)}")
    return opts


def _shift(values, path, grid):
    """A constant wavevector shift: one number per grid axis."""
    return np.asarray(_list(values, path, _number, grid.ndim))


def _grid_param(node, path, grid):
    """A scalar parameter resolved on ``grid`` (constant or per point)."""
    try:
        return resolve_parameter(_parse_param(node, path, grid.ndim), grid, ())
    except ValueError as exc:
        raise ConfigError(f"'{path}': {exc}")


def _cj(z):
    z = complex(z)
    return [z.real, z.imag]


def _matrix_json(M):
    return [[_cj(v) for v in row] for row in np.asarray(M)]


def _read_uplf(node, path):
    """The field stored in the UPLF file named at config key ``path``."""
    filename = _text(node, path)
    try:
        return read_uplf(filename)
    except UPLFError as exc:
        raise ConfigError(f"'{path}': {filename} is not a valid UPLF file: {exc}")
    except OSError as exc:
        raise ConfigError(f"'{path}': {exc}")


def _load_config(args):
    try:
        with open(args.config) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _config_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(out, name, payload):
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_solve(args):
    cfg = _load_config(args)
    grid, material, source = _object(cfg, "", ("grid", "material", "source"), ("solver",))
    grid, L, gamma, physics = _parse_problem(grid, material)
    source = _parse_source(source, grid, L, physics)
    opts = _parse_solver(cfg, args, 1e-8,
                         {"tol", "max_iter", "method", "shift", "history_csv"})
    history_csv = opts.pop("history_csv", None)
    if history_csv is not None:
        history_csv = _output_name(history_csv, "solver.history_csv")
    if "shift" in opts:
        opts["shift"] = _shift(opts["shift"], "solver.shift", grid)
    problem = Problem(grid=grid, L=L, gamma=gamma, source=source, **opts)
    t0 = time.perf_counter()
    result = solve(problem)
    elapsed = time.perf_counter() - t0
    out = _outdir(args)
    write_uplf(os.path.join(out, "E.uplf"), result.E)
    write_uplf(os.path.join(out, "J.uplf"), result.J)
    if history_csv:
        with open(os.path.join(out, history_csv), "w") as fh:
            fh.write("iteration,residual\n")
            for i, r in enumerate(result.residual_history):
                fh.write(f"{i},{r:.16e}\n")
    _write_json(out, "summary.json", {
        "physics": physics,
        "grid": {"dims": list(grid.dims), "lengths": list(grid.lengths)},
        "converged": bool(result.converged),
        "stop_reason": result.stop_reason,
        "iterations": int(result.iterations),
        "residual": float(result.residual),
        "elapsed_s": elapsed,
        "outputs": {"E": "E.uplf", "J": "J.uplf"},
        "config_sha256": _config_digest(args.config),
    })
    print(f"converged={result.converged} iterations={result.iterations} "
          f"residual={result.residual:.3e}")
    return 0 if result.converged else 2


def _cmd_effective(args):
    cfg = _load_config(args)
    grid, material, bloch = _object(cfg, "", ("grid", "material", "bloch"), ("solver",))
    grid, L, gamma, _ = _parse_problem(grid, material)
    [k0] = _object(bloch, "bloch", ("k0",), ("modulation",))
    k0 = _shift(k0, "bloch.k0", grid)
    modulation = bloch.get("modulation")
    if modulation is not None:
        modulation = _grid_param(modulation, "bloch.modulation", grid)
    opts = _parse_solver(cfg, args, 1e-12, {"tol", "max_iter"})
    t0 = time.perf_counter()
    tensors = effective_tensors(grid, L, gamma, k0, modulation=modulation, **opts)
    elapsed = time.perf_counter() - t0
    converged = all(r.converged for r in tensors.results)
    _write_json(_outdir(args), "effective.json", {
        "k0": list(map(float, k0)),
        "tensor_e": _matrix_json(tensors.tensor_e),
        "tensor_j": _matrix_json(tensors.tensor_j),
        "fluctuation_e": tensors.fluctuation_e,
        "fluctuation_j": tensors.fluctuation_j,
        "converged": bool(converged),
        "iterations": [r.iterations for r in tensors.results],
        "elapsed_s": elapsed,
        "config_sha256": _config_digest(args.config),
    })
    print(f"effective tensors at k0={list(map(float, k0))} converged={converged}")
    return 0 if converged else 2


# dispersion model -> its ``params`` keys, in the order the model takes them
_DISPERSION_PARAMS = {
    "effective_mass": ("m0", "stiffness", "count", "mass"),
    "love": ("omega", "layer_mu", "layer_rho", "half_thickness", "substrate_mu",
             "substrate_rho"),
}


def _cmd_dispersion(args):
    cfg = _load_config(args)
    model, params = _object(cfg, "", ("model", "params"), ("scan",))
    model = _text(model, "model")
    if model not in _DISPERSION_PARAMS:
        raise ConfigError(f"unknown dispersion model '{model}' at 'model'")
    keys = _DISPERSION_PARAMS[model]
    values = [_scalar(v, f"params.{k}") for k, v in zip(keys, _object(params, "params", keys))]
    if model == "effective_mass":
        [scan] = _object(cfg, "", ("scan",), cfg)  # the other keys were checked above
        start, stop, count = _object(scan, "scan", ("start", "stop", "count"))
        omegas = np.linspace(_number(start, "scan.start"), _number(stop, "scan.stop"),
                             _integer(count, "scan.count", 1))
        M = np.atleast_1d(models.effective_mass(omegas, *values))
        rows = ["omega,re,im"] + [f"{w:.16e},{v.real:.16e},{v.imag:.16e}"
                                  for w, v in zip(omegas, M)]
        stiffness, mass = values[1].real, values[3].real
        meta = {"resonance_frequency": models.resonance_frequency(stiffness, mass)}
    else:
        if any(isinstance(v, complex) for v in values):
            raise ConfigError("'params' of the love model must be real numbers")
        roots = models.love_dispersion(*values)
        rows = ["index,k1"] + [f"{i},{r:.16e}" for i, r in enumerate(roots)]
        meta = {"roots": list(map(float, roots))}
    out = _outdir(args)
    with open(os.path.join(out, "dispersion.csv"), "w") as fh:
        fh.writelines(row + "\n" for row in rows)
    _write_json(out, "dispersion.json",
                dict(meta, model=model, outputs={"csv": "dispersion.csv"}))
    print(f"dispersion model={model} written to {out}")
    return 0


def _cmd_schrodinger(args):
    cfg = _load_config(args)
    grid, kinetic, potential, vprime = _object(
        cfg, "", ("grid", "kinetic", "potential", "perturbation"), ("state_index", "solver"))
    grid = _parse_grid(grid)
    kinetic = _parse_param(kinetic, "kinetic", grid.ndim)
    potential = _grid_param(potential, "potential", grid)
    vprime = _grid_param(vprime, "perturbation", grid)
    state_index = _integer(cfg.get("state_index", 0), "state_index", 0, grid.npoints - 1)
    opts = _parse_solver(cfg, args, 1e-10, {"tol", "max_iter"})
    try:
        energies, states = ground_state(grid, kinetic, potential,
                                        nstates=state_index + 1)
    except ParameterError as exc:
        raise ConfigError(f"'{exc.name}': {exc.reason}")
    except ValueError as exc:
        raise ConfigError(f"'grid': {exc}")
    energy = float(energies[state_index])
    psi = states[state_index]
    material = build_schrodinger(grid, energy, kinetic, potential)
    try:
        result = perturbation_solve(material, psi, vprime, **opts)
    except ParameterError as exc:
        raise ConfigError(f"'perturbation': {exc.reason}")
    out = _outdir(args)
    write_uplf(os.path.join(out, "psi.uplf"), psi)
    write_uplf(os.path.join(out, "psi_prime.uplf"), result.psi_prime)
    _write_json(out, "schrodinger.json", {
        "energy": energy,
        "energy_shift": result.e_prime,
        "orthogonality": abs(inner_product(psi, result.psi_prime)),
        "residual": result.residual,
        "converged": bool(result.converged),
        "outputs": {"psi": "psi.uplf", "psi_prime": "psi_prime.uplf"},
        "config_sha256": _config_digest(args.config),
    })
    print(f"E={energy:.12g} E'={result.e_prime:.12g} residual={result.residual:.3e}")
    return 0 if result.converged else 2


def _cmd_project(args):
    cfg = _load_config(args)
    stored, output, pnode = _object(cfg, "", ("input", "output", "projector"),
                                    ("which", "shift"))
    output = _output_name(output, "output")
    field = _read_uplf(stored, "input")
    family = _text(_object(pnode, "projector", ("family",))[0], "projector.family")
    if family not in FAMILIES:
        raise ConfigError(f"unknown projector family '{family}' at 'projector.family'")
    try:
        projector = FAMILIES[family](field.grid.ndim)
    except ValueError as exc:
        raise ConfigError(f"'projector.family': {exc}")
    if projector.ncomp != field.layout.ncomp:
        raise ConfigError(f"'projector.family': {family} acts on {projector.ncomp} "
                          f"components, the input field has {field.layout.ncomp}")
    which = _integer(cfg.get("which", 1), "which", 1, 2)
    shift = None if cfg.get("shift") is None else _shift(cfg["shift"], "shift", field.grid)
    out_field = apply_projector(field, projector, shift=shift, which=which)
    dest = os.path.join(_outdir(args), output)
    write_uplf(dest, out_field)
    print(f"projected {args.config}:{family} (which={which}) -> {dest}")
    return 0


# ---------------------------------------------------------------------------
# verify: built-in self checks
# ---------------------------------------------------------------------------


def _verify_checks(seed):
    from . import projectors as P
    from .fields import random_field
    from .materials import LField, build_acoustics
    from .solver import solve_dense, solve_resolvent

    rng = np.random.default_rng(seed)
    checks = []

    grid = Grid((8, 8, 8), (2 * np.pi,) * 3)
    layout = fields.BlockLayout((fields.Block("vector", 3), fields.Block("scalar")))
    f = random_field(grid, layout, seed=seed)
    err = np.max(np.abs(f.to_fourier().to_real().values - f.values))
    checks.append(("fft_roundtrip", err <= 1e-13, f"max err {err:.2e}"))

    g = random_field(grid, layout, seed=seed + 1)
    a = inner_product(f, g)
    b = inner_product(f.to_fourier(), g.to_fourier())
    err = abs(a - b) / abs(a)
    checks.append(("plancherel", err <= 1e-12, f"rel err {err:.2e}"))

    import tempfile

    with tempfile.TemporaryDirectory() as td:
        p1 = os.path.join(td, "a.uplf")
        p2 = os.path.join(td, "b.uplf")
        write_uplf(p1, f)
        write_uplf(p2, read_uplf(p1))
        same = Path(p1).read_bytes() == Path(p2).read_bytes()
    checks.append(("uplf_roundtrip", same, "byte-identical" if same else "differs"))

    worst = 0.0
    for family, make in P.FAMILIES.items():
        ndim = {"schrodinger": 2, "surface": 1}.get(family, 3)
        proj = make(ndim)
        K = rng.normal(scale=3.0, size=(25, ndim))
        G = proj.symbols(K)
        Gh = np.conj(np.swapaxes(G, -1, -2))
        scale = np.linalg.norm(G)
        worst = max(worst, float(np.linalg.norm(G @ G - G) / scale))
        worst = max(worst, float(np.linalg.norm(G - Gh) / scale))
    checks.append(("projector_algebra", worst <= 1e-12, f"worst {worst:.2e}"))

    K = rng.normal(scale=3.0, size=(25, 3))
    err = float(np.max(np.abs(
        P.gamma_from_D(P.helmholtz_D(3)).symbols(K) - P.gamma_helmholtz(3).symbols(K)
    )))
    err = max(err, float(np.max(np.abs(
        P.gamma_from_D(P.maxwell_D()).symbols(K) - P.gamma_maxwell().symbols(K)
    ))))
    checks.append(("projector_svd_vs_qr", err <= 1e-12, f"max err {err:.2e}"))

    omega, kappa, rho = 1.3, 1.0, 1.0
    L = build_acoustics(grid, omega, kappa, rho)
    mode = (1, 0, 0)
    force = np.zeros((grid.npoints, 3), dtype=np.complex128)
    k0 = 2.0 * np.pi * np.asarray(mode) / np.asarray(grid.lengths)
    env = np.exp(1j * (grid.coordinates() @ k0))
    f0 = np.array([1.0, 0.0, 0.0])
    force[:] = env[:, None] * f0[None, :]
    s = acoustic_source(L, force, grid)
    res = solve(Problem(grid=grid, L=L, gamma=P.gamma_helmholtz(3), source=s,
                        tol=1e-10))
    k2 = float(k0 @ k0)
    pred = 1j * (k0 @ f0) / (omega**2 * rho / kappa - k2)
    got = res.E.values[:, 3] / env
    err = float(np.max(np.abs(got - pred)) / abs(pred))
    checks.append(("acoustic_plane_wave", res.converged and err <= 1e-8,
                   f"rel err {err:.2e}"))

    small = Grid((6, 6), (2 * np.pi, 2 * np.pi))
    L2 = build_acoustics(small, 1.1, Checkerboard((1.0, 2.0 + 0.5j)), 1.0)
    s2 = random_field(small, L2.layout, seed=seed + 2)
    prob2 = Problem(grid=small, L=L2, gamma=P.gamma_helmholtz(2), source=s2,
                    tol=1e-10)
    res2 = solve(prob2)
    res2d = solve_dense(prob2)
    err = float(np.linalg.norm(res2.E.values - res2d.E.values)
                / np.linalg.norm(res2d.E.values))
    checks.append(("dense_oracle", err <= 1e-8, f"rel err {err:.2e}"))

    Bmat = np.zeros((4, 4), dtype=np.complex128)
    Bmat[:3, :3] = kappa * np.eye(3)
    Bfield = LField(L.layout, Bmat, omega)
    div_f = kappa * np.sum(1j * k0 * f0) * env
    fsrc = Field(grid, fields.scalar_layout(), div_f[:, None])
    psi = solve_resolvent(grid, rho * omega**2, Bfield, fsrc)
    err = float(np.max(np.abs(psi.values[:, 0] - res.E.values[:, 3]))
                / np.max(np.abs(psi.values)))
    checks.append(("resolvent_duality", err <= 1e-8, f"rel err {err:.2e}"))

    M0 = models.effective_mass(0.0, 1.0, 1.0, 2.0, 0.5)
    static_ok = abs(M0 - 2.0) <= 1e-14
    damped = models.effective_mass(1.0, 1.0, 1.0 - 0.1j, 1.0, 1.0)
    checks.append(("effective_mass", static_ok and damped.imag > 0,
                   f"M(0)={complex(M0):.3g}, Im M={damped.imag:.3g}"))

    from .fermionic import (MultiElectronGrid, antisymmetrize_full, lambda_a,
                            pair_potential)

    # N = 4: the reduced form takes a pair potential times an antisymmetric state
    me = MultiElectronGrid(4, 1, 5, 2 * np.pi)
    vals = antisymmetrize_full(rng.normal(size=(me.grid.npoints, 2)) @ [1, 1j], me)
    vals = pair_potential(me, lambda a, b: np.cos(a[:, 0] - b[:, 0])) * vals
    full = antisymmetrize_full(vals, me)
    err = float(np.max(np.abs(lambda_a(vals, me) - full)) / np.max(np.abs(full)))
    checks.append(("fermionic_reduction", err <= 1e-13, f"rel err {err:.2e}"))

    return checks


def _cmd_verify(args):
    t0 = time.perf_counter()
    checks = _verify_checks(args.seed)
    ok = True
    for name, passed, metric in checks:
        ok = ok and passed
        print(f"CHECK {name}: {'PASS' if passed else 'FAIL'} ({metric})")
    elapsed = time.perf_counter() - t0
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'} in {elapsed:.1f}s")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


# flag -> its argparse keyword arguments
_FLAGS = {
    "config": {"required": True, "help": "JSON configuration"},
    "out": {"default": None, "help": "output directory (default: current)"},
    "seed": {"type": int, "default": 42, "help": "seed of the random checks"},
    "threads": {"type": _positive_int, "default": None, "help": "FFT worker threads"},
    "tol": {"type": float, "default": None, "help": "overrides solver.tol"},
}

# subcommand -> (implementation, help, the flags it reads)
_COMMANDS = {
    "solve": (_cmd_solve, "solve a canonical problem from a JSON config",
              ("config", "out", "threads", "tol")),
    "effective": (_cmd_effective, "extract effective tensors at a Bloch wavevector",
                  ("config", "out", "threads", "tol")),
    "dispersion": (_cmd_dispersion, "evaluate closed-form dispersion models",
                   ("config", "out")),
    "schrodinger": (_cmd_schrodinger, "stationary state + first-order perturbation",
                    ("config", "out", "threads", "tol")),
    "project": (_cmd_project, "apply a projector family to a stored field",
                ("config", "out", "threads")),
    "verify": (_cmd_verify, "run built-in self checks", ("seed", "threads")),
}


def _build_parser():
    parser = _Parser(prog="gamma-solve",
                     description="FFT projector solver for periodic media")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if getattr(args, "threads", None) is not None:
        fields.set_fft_workers(args.threads)
    try:
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"gamma-solve: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a named file that is missing or cannot be opened
        print(f"gamma-solve: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
