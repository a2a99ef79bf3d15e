"""Command-line front end.

:data:`_COMMANDS` is the table of subcommands: each one's implementation,
help text and the command-line flags it reads.  Configuration is JSON;
unknown keys are rejected with their JSON path.
Exit codes: 0 on success/convergence, 2 on non-convergence (or failed
verification), 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import fields, models
from .fields import Field, Grid, read_uplf, write_uplf
from .fields import inner_product
from .materials import (
    Checkerboard,
    Layered,
    MaterialSpec,
    PHYSICS,
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
from .solver import Problem, solve
from .quasiperiodic import effective_tensors
from .fermionic import GROUND_STATE_MAX_POINTS, ground_state, perturbation_solve


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------


def _check_unknown(node, allowed, path):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else
                              f"unknown key '{key}'")


def _require(node, key, path):
    if key not in node:
        raise ConfigError(f"missing key '{path}.{key}'" if path else
                          f"missing key '{key}'")
    return node[key]


def _is_number(node):
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def _scalar(node, path):
    """A JSON number, or a [re, im] pair for complex values."""
    if _is_number(node):
        return float(node)
    if isinstance(node, list) and len(node) == 2 and all(map(_is_number, node)):
        return complex(node[0], node[1])
    raise ConfigError(f"'{path}' must be a number or [re, im] pair")


def _scalar_list(node, path):
    if not isinstance(node, list):
        raise ConfigError(f"'{path}' must be a list")
    return [_scalar(v, f"{path}[{i}]") for i, v in enumerate(node)]


def _parse_param(node, path):
    """Material parameter: scalar, [re,im], or a descriptor object."""
    if not isinstance(node, dict):
        return _scalar(node, path)
    kind = _require(node, "type", path)
    if kind == "constant":
        _check_unknown(node, {"type", "value"}, path)
        return _scalar(_require(node, "value", path), f"{path}.value")
    if kind == "layered":
        _check_unknown(node, {"type", "axis", "breakpoints", "values"}, path)
        return Layered(
            int(_require(node, "axis", path)),
            tuple(float(b) for b in _require(node, "breakpoints", path)),
            tuple(_scalar_list(_require(node, "values", path), f"{path}.values")),
        )
    if kind == "checkerboard":
        _check_unknown(node, {"type", "values"}, path)
        vals = _scalar_list(_require(node, "values", path), f"{path}.values")
        if len(vals) != 2:
            raise ConfigError(f"'{path}.values' must have exactly two entries")
        return Checkerboard(tuple(vals))
    if kind == "voxel":
        _check_unknown(node, {"type", "path"}, path)
        return Voxel(np.load(_require(node, "path", path)))
    if kind == "array":
        _check_unknown(node, {"type", "values"}, path)
        return np.array(_require(node, "values", path), dtype=np.complex128)
    raise ConfigError(f"unknown parameter type '{kind}' at '{path}'")


def _parse_grid(node, path="grid"):
    _check_unknown(node, {"dims", "lengths"}, path)
    dims = _require(node, "dims", path)
    lengths = node.get("lengths", [2.0 * np.pi] * len(dims))
    return Grid(tuple(int(n) for n in dims), tuple(float(x) for x in lengths))


def _parse_material(node, path="material"):
    _check_unknown(node, {"physics", "omega", "params", "options"}, path)
    physics = _require(node, "physics", path)
    if not isinstance(physics, str) or physics not in PHYSICS:
        raise ConfigError(f"unknown physics {physics!r} at '{path}.physics'; "
                          f"known: {', '.join(sorted(PHYSICS))}")
    omega = _scalar(_require(node, "omega", path), f"{path}.omega")
    raw = node.get("params", {})
    raw_options = node.get("options", {})
    # The keys are the builder's keyword arguments after (grid, omega).
    keys = dict(list(inspect.signature(PHYSICS[physics].builder).parameters.items())[2:])
    _check_unknown(raw, keys, f"{path}.params")
    _check_unknown(raw_options, keys, f"{path}.options")
    for name, p in keys.items():
        if p.default is p.empty and name not in raw and name not in raw_options:
            raise ConfigError(f"missing key '{path}.params.{name}'")
    params = {k: _parse_param(v, f"{path}.params.{k}") for k, v in raw.items()}
    options = {}
    for k, v in raw_options.items():
        options[k] = v if isinstance(v, bool) else _scalar(v, f"{path}.options.{k}")
    return MaterialSpec(physics, omega, params, options)


def _misfit_param_path(spec, grid):
    """Path of the parameter a builder's ValueError most likely concerns:
    the one array parameter shaped neither as a constant nor as per-point
    values on ``grid``; ``material.params`` when there is not exactly one."""

    def misfit(value):
        value = value.values if isinstance(value, Voxel) else value
        if not isinstance(value, np.ndarray) or value.ndim == 0:
            return False
        shape = value.shape
        return not (shape[0] == grid.npoints or shape[: grid.ndim] == grid.dims
                    or (value.ndim == 2 and shape[0] == shape[1]))

    keys = [key for key, value in spec.params.items() if misfit(value)]
    return f"material.params.{keys[0]}" if len(keys) == 1 else "material.params"


def _parse_problem(cfg):
    """Grid, material (in its canonical direct form), projector and physics
    name of a config's ``grid`` and ``material`` sections."""
    grid = _parse_grid(_require(cfg, "grid", ""))
    spec = _parse_material(_require(cfg, "material", ""))
    try:
        L = build_material(spec, grid)
    except ValueError as exc:
        raise ConfigError(f"'{_misfit_param_path(spec, grid)}': {exc}")
    try:
        # Every solve needs the direct form; inverting here does it once
        # and reports a singular material before any solve starts.
        L = canonical_material(L)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"'material' is singular at some grid point: {exc}")
    return grid, L, default_projector(spec.physics, grid), spec.physics


def _parse_source(node, grid, L, physics, path="source"):
    kind = _require(node, "type", path)
    ncomp = L.layout.ncomp
    x = grid.coordinates()

    def envelope_plane(mode):
        mode = np.asarray(mode, dtype=float)
        if mode.shape != (grid.ndim,):
            raise ConfigError(f"'{path}.mode' needs one integer per axis")
        k = 2.0 * np.pi * mode / np.asarray(grid.lengths)
        return np.exp(1j * (x @ k))

    def envelope_gauss(center, width):
        c = np.asarray(center, dtype=float)
        return np.exp(-np.sum((x - c) ** 2, axis=1) / (2.0 * width**2))

    def force_source(envelope):
        f = np.asarray(_scalar_list(_require(node, "force", path), f"{path}.force"),
                       dtype=np.complex128)
        try:
            return physics_family(physics).force_source(L, envelope[:, None] * f, grid)
        except ValueError as exc:  # the force does not fit its block
            raise ConfigError(f"'{path}.force' does not fit the {physics} force "
                              f"({len(f)} entries): {exc}")

    def amplitude(size):
        amp = np.asarray(_scalar_list(_require(node, "amplitude", path),
                                      f"{path}.amplitude"), dtype=np.complex128)
        if amp.shape != (size,):
            raise ConfigError(f"'{path}.amplitude' must have {size} entries")
        return amp

    if kind == "plane_wave":
        _check_unknown(node, {"type", "mode", "amplitude"}, path)
        amp = amplitude(ncomp)
        env = envelope_plane(_require(node, "mode", path))
        return Field(grid, L.layout, env[:, None] * amp[None, :])
    if kind == "constant":
        _check_unknown(node, {"type", "amplitude"}, path)
        return Field(grid, L.layout,
                     np.broadcast_to(amplitude(ncomp), (grid.npoints, ncomp)).copy())
    if kind == "gaussian":
        _check_unknown(node, {"type", "center", "width", "block", "amplitude"}, path)
        env = envelope_gauss(_require(node, "center", path),
                             float(_require(node, "width", path)))
        block = int(_require(node, "block", path))
        nblocks = len(L.layout.blocks)
        if not 0 <= block < nblocks:
            raise ConfigError(f"'{path}.block' must be in 0..{nblocks - 1}")
        amp = amplitude(L.layout.blocks[block].ncomp)
        return block_source(grid, L.layout, block, env[:, None] * amp[None, :])
    if kind == "force_plane_wave":
        _check_unknown(node, {"type", "mode", "force"}, path)
        return force_source(envelope_plane(_require(node, "mode", path)))
    if kind == "force_constant":
        _check_unknown(node, {"type", "force"}, path)
        return force_source(np.ones(grid.npoints))
    if kind == "uplf":
        _check_unknown(node, {"type", "path"}, path)
        return read_uplf(_require(node, "path", path))
    raise ConfigError(f"unknown source type '{kind}' at '{path}'")


_METHODS = ("krylov", "fixed_point")


def _parse_solver(cfg, args, default_tol, allowed):
    """Options of the config's ``solver`` section, whose keys must be in
    ``allowed``: ``tol`` is ``--tol``, else ``solver.tol``, else
    ``default_tol``, and must be positive; ``max_iter`` must be a positive
    integer; ``shift`` and ``history_csv`` come back as given."""
    node = cfg.get("solver", {})
    _check_unknown(node, allowed, "solver")
    opts = dict(node)
    tol, where = ((node.get("tol", default_tol), "solver.tol") if args.tol is None
                  else (args.tol, "--tol"))
    if not _is_number(tol) or not tol > 0:
        raise ConfigError(f"'{where}' must be a positive number")
    opts["tol"] = float(tol)
    max_iter = node.get("max_iter", 1)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
        raise ConfigError("'solver.max_iter' must be a positive integer")
    if opts.get("method", _METHODS[0]) not in _METHODS:
        raise ConfigError(f"'solver.method' must be one of {', '.join(_METHODS)}")
    return opts


def _shift(values, path, grid):
    """A constant wavevector shift: one number per grid axis."""
    if not isinstance(values, list) or len(values) != grid.ndim:
        raise ConfigError(f"'{path}' must be a list of {grid.ndim} numbers")
    return np.asarray([float(v) for v in values])


def _grid_param(node, path, grid):
    """A scalar parameter resolved on ``grid`` (constant or per point)."""
    try:
        return resolve_parameter(_parse_param(node, path), grid, ())
    except ValueError as exc:
        raise ConfigError(f"'{path}': {exc}")


def _cj(z):
    z = complex(z)
    return [z.real, z.imag]


def _matrix_json(M):
    return [[_cj(v) for v in row] for row in np.asarray(M)]


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
    _check_unknown(cfg, {"grid", "material", "source", "solver"}, "")
    grid, L, gamma, physics = _parse_problem(cfg)
    source = _parse_source(_require(cfg, "source", ""), grid, L, physics)
    opts = _parse_solver(cfg, args, 1e-8,
                         {"tol", "max_iter", "method", "shift", "history_csv"})
    history_csv = opts.pop("history_csv", None)
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
    _check_unknown(cfg, {"grid", "material", "bloch", "solver"}, "")
    grid, L, gamma, _ = _parse_problem(cfg)
    bloch = _require(cfg, "bloch", "")
    _check_unknown(bloch, {"k0", "modulation"}, "bloch")
    k0 = _shift(_require(bloch, "k0", "bloch"), "bloch.k0", grid)
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
    _check_unknown(cfg, {"model", "params", "scan"}, "")
    model = _require(cfg, "model", "")
    if model not in _DISPERSION_PARAMS:
        raise ConfigError(f"unknown dispersion model '{model}'")
    params = _require(cfg, "params", "")
    keys = _DISPERSION_PARAMS[model]
    _check_unknown(params, keys, "params")
    values = [_scalar(_require(params, k, "params"), f"params.{k}") for k in keys]
    out = _outdir(args)
    if model == "effective_mass":
        scan = _require(cfg, "scan", "")
        _check_unknown(scan, {"start", "stop", "count"}, "scan")
        start, stop, count = (_require(scan, k, "scan") for k in ("start", "stop", "count"))
        omegas = np.linspace(float(start), float(stop), int(count))
        M = models.effective_mass(omegas, *values)
        with open(os.path.join(out, "dispersion.csv"), "w") as fh:
            fh.write("omega,re,im\n")
            for w, v in zip(omegas, np.atleast_1d(M)):
                fh.write(f"{w:.16e},{v.real:.16e},{v.imag:.16e}\n")
        stiffness, mass = values[1].real, values[3].real
        meta = {
            "model": model,
            "resonance_frequency": models.resonance_frequency(stiffness, mass),
            "outputs": {"csv": "dispersion.csv"},
        }
    else:
        if any(isinstance(v, complex) for v in values):
            raise ConfigError("'params' of the love model must be real numbers")
        roots = models.love_dispersion(*values)
        with open(os.path.join(out, "dispersion.csv"), "w") as fh:
            fh.write("index,k1\n")
            for i, r in enumerate(roots):
                fh.write(f"{i},{r:.16e}\n")
        meta = {"model": model, "roots": list(map(float, roots)),
                "outputs": {"csv": "dispersion.csv"}}
    _write_json(out, "dispersion.json", meta)
    print(f"dispersion model={model} written to {out}")
    return 0


def _cmd_schrodinger(args):
    cfg = _load_config(args)
    _check_unknown(cfg, {"grid", "kinetic", "potential", "perturbation",
                         "state_index", "solver"}, "")
    grid = _parse_grid(_require(cfg, "grid", ""))
    kinetic = _parse_param(_require(cfg, "kinetic", ""), "kinetic")
    potential = _grid_param(_require(cfg, "potential", ""), "potential", grid)
    vprime = _grid_param(_require(cfg, "perturbation", ""), "perturbation", grid)
    state_index = int(cfg.get("state_index", 0))
    opts = _parse_solver(cfg, args, 1e-10, {"tol", "max_iter"})
    try:
        energies, states = ground_state(grid, kinetic, potential,
                                        nstates=state_index + 1)
    except ValueError as exc:
        # ground_state checks the grid size first; its only other check is
        # on kinetic (potential is already resolved on the grid).
        where = "grid" if grid.npoints > GROUND_STATE_MAX_POINTS else "kinetic"
        raise ConfigError(f"'{where}': {exc}")
    energy = float(energies[state_index])
    psi = states[state_index]
    material = build_schrodinger(grid, energy, kinetic, potential)
    result = perturbation_solve(material, psi, vprime, **opts)
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
    _check_unknown(cfg, {"input", "output", "projector", "which", "shift"}, "")
    field = read_uplf(_require(cfg, "input", ""))
    pnode = _require(cfg, "projector", "")
    _check_unknown(pnode, {"family"}, "projector")
    family = _require(pnode, "family", "projector")
    if family not in FAMILIES:
        raise ConfigError(f"unknown projector family '{family}' at 'projector.family'")
    try:
        projector = FAMILIES[family](field.grid.ndim)
    except ValueError as exc:
        raise ConfigError(f"'projector.family': {exc}")
    if projector.ncomp != field.layout.ncomp:
        raise ConfigError(f"'projector.family': {family} acts on {projector.ncomp} "
                          f"components, the input field has {field.layout.ncomp}")
    which = cfg.get("which", 1)
    if which not in (1, 2):
        raise ConfigError("'which' must be 1 or 2")
    shift = None if cfg.get("shift") is None else _shift(cfg["shift"], "shift", field.grid)
    out_field = apply_projector(field, projector, shift=shift, which=which)
    dest = os.path.join(_outdir(args), _require(cfg, "output", ""))
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


# flag -> its argparse keyword arguments
_FLAGS = {
    "config": {"required": True, "help": "JSON configuration"},
    "out": {"default": None, "help": "output directory (default: current)"},
    "seed": {"type": int, "default": 42, "help": "seed of the random checks"},
    "threads": {"type": int, "default": None, "help": "FFT worker threads"},
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
    except FileNotFoundError as exc:
        print(f"gamma-solve: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
