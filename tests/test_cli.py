"""End-to-end command-line checks: every subcommand run in-process against
temporary JSON configs, with exit codes, output files, and error paths."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gammasolve import cli
from gammasolve.fields import Field, get_fft_workers, random_field, read_uplf, set_fft_workers, write_uplf
from gammasolve.materials import (
    PHYSICS,
    MaterialSpec,
    acoustic_source,
    brinkman_source,
    build_material,
)


def _write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


SOLVE_CFG = {
    "grid": {"dims": [8, 8, 8]},
    "material": {
        "physics": "acoustics",
        "omega": 1.3,
        "params": {"kappa": 1.0, "rho": 1.0},
    },
    "source": {"type": "force_plane_wave", "mode": [1, 0, 0],
               "force": [1.0, 0.0, 0.0]},
    "solver": {"tol": 1e-9, "history_csv": "history.csv"},
}


def test_solve_outputs_and_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path / "solve.json", SOLVE_CFG)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "converged=True" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"physics", "grid", "converged", "stop_reason",
                            "iterations", "residual", "elapsed_s", "outputs",
                            "config_sha256"}
    assert summary["converged"] is True
    assert summary["stop_reason"] == "converged"
    assert summary["residual"] <= 1e-9
    assert summary["physics"] == "acoustics"
    assert summary["grid"]["dims"] == [8, 8, 8]
    digest = hashlib.sha256(Path(cfg).read_bytes()).hexdigest()
    assert summary["config_sha256"] == digest
    E = read_uplf(str(out / "E.uplf"))
    assert E.grid.dims == (8, 8, 8) and E.layout.ncomp == 4
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,residual"
    assert len(lines) == summary["iterations"] + 1
    residuals = [float(l.split(",")[1]) for l in lines[1:]]
    assert residuals[-1] <= residuals[0]


def test_solve_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "solve.json", SOLVE_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("E.uplf", "J.uplf"):
        b0 = (outs[0] / fname).read_bytes()
        b1 = (outs[1] / fname).read_bytes()
        assert b0 == b1


def test_solve_uplf_source_roundtrip(tmp_path):
    from gammasolve.fields import Block, BlockLayout, Grid

    grid = Grid((8, 8), (2 * np.pi, 2 * np.pi))
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    s = random_field(grid, lay, seed=3)
    src_path = tmp_path / "s.uplf"
    write_uplf(str(src_path), s)
    cfg = _write_config(tmp_path / "solve.json", {
        "grid": {"dims": [8, 8]},
        "material": {"physics": "acoustics", "omega": 1.1,
                     "params": {"kappa": [1.0, -0.2], "rho": 1.0}},
        "source": {"type": "uplf", "path": str(src_path)},
    })
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0


def test_solve_nonconvergence_exits_2(tmp_path):
    cfg = _write_config(tmp_path / "solve.json", {
        "grid": {"dims": [6, 6]},
        "material": {"physics": "acoustics", "omega": 1.1,
                     "params": {"kappa": {"type": "checkerboard",
                                          "values": [1.0, 2.0]},
                                "rho": 1.0}},
        "source": {"type": "constant", "amplitude": [0.0, 0.0, 1.0]},
        "solver": {"method": "fixed_point", "max_iter": 10},
    })
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["stop_reason"] in ("max_iter", "diverged", "stalled")


def test_unknown_key_is_named_with_path(tmp_path, capsys):
    bad = dict(SOLVE_CFG, material=dict(SOLVE_CFG["material"], sauce=1.0))
    cfg = _write_config(tmp_path / "bad.json", bad)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "material.sauce" in capsys.readouterr().err


_ACOUSTICS_2D = {"grid": {"dims": [4, 4]},
                 "material": {"physics": "acoustics", "omega": 1.1,
                              "params": {"kappa": 1.0, "rho": 1.0}}}


@pytest.mark.parametrize("material,source,path", [
    ({"physics": "phlogiston"}, {"type": "constant", "amplitude": [1.0]},
     "material.physics"),
    ({"params": {"kappa": 1.0, "rho": 1.0, "bogus": 2.0}},
     {"type": "constant", "amplitude": [0.0, 0.0, 1.0]}, "material.params.bogus"),
    ({"params": {"rho": 1.0}}, {"type": "constant", "amplitude": [0.0, 0.0, 1.0]},
     "material.params.kappa"),
    ({}, {"type": "force_constant", "force": [1.0, 0.0, 0.0, 0.0, 0.0]},
     "source.force"),
    ({}, {"type": "gaussian", "center": [0.0, 0.0], "width": 1.0, "block": 2,
          "amplitude": [1.0]}, "source.block"),
    ({"params": {"kappa": {"type": "array", "values": [1.0, 2.0, 3.0]}, "rho": 1.0}},
     {"type": "constant", "amplitude": [0.0, 0.0, 1.0]}, "material.params.kappa"),
    ({}, {"type": "force_constant", "force": [1.0]}, "source.force"),
    ({"params": {"kappa": 0.0, "rho": 1.0}},
     {"type": "constant", "amplitude": [0.0, 0.0, 1.0]}, "'material'"),
], ids=["unknown-physics", "unknown-param", "missing-param", "force-length",
        "block-range", "param-array-length", "force-one-entry", "singular-material"])
def test_config_errors_exit_1_with_path(tmp_path, capsys, material, source, path):
    cfg = _write_config(tmp_path / "bad.json", dict(
        _ACOUSTICS_2D, material=dict(_ACOUSTICS_2D["material"], **material),
        source=source))
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and path in err
    assert "Traceback" not in err


EFFECTIVE_CFG = {"grid": {"dims": [4, 4]},
                 "material": {"physics": "acoustics", "omega": 0.5,
                              "params": {"kappa": 1.0, "rho": 1.0}},
                 "bloch": {"k0": [0.5, 0.0]}}
SCHRODINGER_CFG = {"grid": {"dims": [8]}, "kinetic": 1.0, "potential": 0.0,
                   "perturbation": 0.1}


@pytest.mark.parametrize("command,payload,key,value", [
    ("effective", EFFECTIVE_CFG, "shift", [0.1, 0.0]),
    ("effective", EFFECTIVE_CFG, "method", "fixed_point"),
    ("schrodinger", SCHRODINGER_CFG, "history_csv", "h.csv"),
], ids=["effective-shift", "effective-method", "schrodinger-history_csv"])
def test_solver_keys_a_subcommand_ignores_are_rejected(tmp_path, capsys, command,
                                                       payload, key, value):
    cfg = _write_config(tmp_path / "c.json",
                        dict(payload, solver={"tol": 1e-8, key: value}))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"unknown key 'solver.{key}'" in capsys.readouterr().err


_PROJECT_CFG = {"input": "f.uplf", "output": "g.uplf",
                "projector": {"family": "helmholtz"}}


@pytest.mark.parametrize("command,config,path", [
    ("effective", dict(EFFECTIVE_CFG, bloch={
        "k0": [0.5, 0.0], "modulation": {"type": "array", "values": [1, 2, 3]}}),
     "bloch.modulation"),
    ("effective", dict(EFFECTIVE_CFG, bloch={"k0": [0.5, 0.0, 0.0]}), "bloch.k0"),
    ("schrodinger", dict(SCHRODINGER_CFG, potential={"type": "array",
                                                     "values": [1, 2, 3]}),
     "potential"),
    ("schrodinger", dict(SCHRODINGER_CFG, perturbation={"type": "array",
                                                        "values": [1, 2, 3]}),
     "perturbation"),
    ("schrodinger", dict(SCHRODINGER_CFG, kinetic={"type": "array",
                                                   "values": [1.0] * 8}),
     "kinetic"),
    ("schrodinger", dict(SCHRODINGER_CFG, grid={"dims": [2050]}), "grid"),
    ("solve", dict(SOLVE_CFG, solver={"shift": [0.1, 0.0]}), "solver.shift"),
    ("solve", dict(SOLVE_CFG, solver={"method": "jacobi"}), "solver.method"),
    ("project", dict(_PROJECT_CFG, which=3), "which"),
    ("project", dict(_PROJECT_CFG, shift=[0.1]), "shift"),
    ("project", dict(_PROJECT_CFG, input="f6.uplf"), "projector.family"),
    ("project", dict(_PROJECT_CFG, input="f6.uplf", projector={"family": "maxwell"}),
     "projector.family"),
    ("solve", dict(SOLVE_CFG, solver={"max_iter": "abc"}), "solver.max_iter"),
    ("solve", dict(SOLVE_CFG, solver={"max_iter": None}), "solver.max_iter"),
    ("solve", dict(SOLVE_CFG, solver={"tol": "abc"}), "solver.tol"),
    ("effective", dict(EFFECTIVE_CFG, solver={"max_iter": 0}), "solver.max_iter"),
    ("schrodinger", dict(SCHRODINGER_CFG, solver={"tol": -1}), "solver.tol"),
    ("solve", dict(SOLVE_CFG, material=dict(SOLVE_CFG["material"],
                                            params={"kappa": [True, False], "rho": 1.0})),
     "material.params.kappa"),
], ids=["effective-modulation", "effective-k0", "schrodinger-potential",
        "schrodinger-perturbation", "schrodinger-kinetic", "schrodinger-grid",
        "solve-shift", "solve-method", "project-which", "project-shift",
        "project-family-components", "project-family-dimension",
        "solve-max_iter-string", "solve-max_iter-null", "solve-tol-string",
        "effective-max_iter-zero", "schrodinger-tol-negative", "solve-kappa-bool-pair"])
def test_config_errors_of_every_subcommand_name_their_path(
        tmp_path, monkeypatch, capsys, command, config, path):
    from gammasolve.fields import Block, BlockLayout, Grid

    monkeypatch.chdir(tmp_path)
    grid = Grid((4, 4), (1.0, 1.0))
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    write_uplf("f.uplf", random_field(grid, lay, seed=0))
    lay6 = BlockLayout((Block("vector", 3), Block("vector", 3)))
    write_uplf("f6.uplf", random_field(grid, lay6, seed=0))
    cfg = _write_config(tmp_path / "bad.json", config)
    assert cli.main([command, "--config", cfg, "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"'{path}'" in err
    assert "Traceback" not in err


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,message", [
    (["solve", "--config", "c.json", "--seed", "1"], "unrecognized arguments: --seed"),
    (["effective", "--config", "c.json", "--seed", "1"], "unrecognized arguments: --seed"),
    (["dispersion", "--config", "c.json", "--seed", "1"],
     "unrecognized arguments: --seed"),
    (["schrodinger", "--config", "c.json", "--seed", "1"],
     "unrecognized arguments: --seed"),
    (["project", "--config", "c.json", "--seed", "1"], "unrecognized arguments: --seed"),
    (["dispersion", "--config", "c.json", "--tol", "1e-6"],
     "unrecognized arguments: --tol"),
    (["project", "--config", "c.json", "--tol", "1e-6"], "unrecognized arguments: --tol"),
    (["verify", "--tol", "1e-6"], "unrecognized arguments: --tol"),
    (["verify", "--out", "o"], "unrecognized arguments: --out"),
    (["dispersion", "--config", "c.json", "--threads", "1"],
     "unrecognized arguments: --threads"),
    (["project", "--config", "k1.json"], "unknown key 'projector.k1'"),
    (["project", "--config", "dimension.json"], "unknown key 'projector.dimension'"),
], ids=["solve-seed", "effective-seed", "dispersion-seed", "schrodinger-seed",
        "project-seed", "dispersion-tol", "project-tol", "verify-tol", "verify-out",
        "dispersion-threads", "projector-k1", "projector-dimension"])
def test_settings_no_subcommand_reads_are_rejected(tmp_path, monkeypatch, capsys,
                                                   argv, message):
    from gammasolve.fields import Block, BlockLayout, Grid

    monkeypatch.chdir(tmp_path)
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    write_uplf("f.uplf", random_field(Grid((4, 4), (1.0, 1.0)), lay, seed=0))
    for key, value in (("k1", 0.8), ("dimension", 2)):
        _write_config(tmp_path / f"{key}.json", dict(
            _PROJECT_CFG, projector={"family": "helmholtz", key: value}))
    assert _exit_code(argv) == 1
    assert message in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["solve", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    assert cli.main(["solve", "--config", str(p)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])  # missing --config
    assert exc.value.code == 1


def test_effective_tensors_json(tmp_path):
    cfg = _write_config(tmp_path / "eff.json", {
        "grid": {"dims": [4, 4, 4]},
        "material": {"physics": "acoustics", "omega": 0.5,
                     "params": {"kappa": [1.0, -0.1], "rho": 1.0}},
        "bloch": {"k0": [0.5, 0.0, 0.0]},
    })
    out = tmp_path / "run"
    assert cli.main(["effective", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "effective.json").read_text())
    assert payload["converged"] is True
    assert payload["k0"] == [0.5, 0.0, 0.0]
    TE = np.array([[complex(re, im) for re, im in row]
                   for row in payload["tensor_e"]])
    assert TE.shape == (4, 4)
    # homogeneous lossy medium at the delta=0.1 resonance point (frozen)
    assert np.linalg.norm(TE) == pytest.approx(25.124689052802225, rel=1e-9)


def test_dispersion_effective_mass(tmp_path):
    cfg = _write_config(tmp_path / "disp.json", {
        "model": "effective_mass",
        "params": {"m0": 1.0, "stiffness": 1.0, "count": 1, "mass": 1.0},
        "scan": {"start": 0.0, "stop": 1.0, "count": 3},
    })
    out = tmp_path / "run"
    assert cli.main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dispersion.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,re,im"
    rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
    assert len(rows) == 3
    assert rows[0][1] == pytest.approx(2.0, abs=1e-14)   # M(0) = m0 + n m
    assert rows[-1][1] == pytest.approx(3.0, abs=1e-14)  # M(1) with unit params
    meta = json.loads((out / "dispersion.json").read_text())
    assert meta["resonance_frequency"] == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_dispersion_love_roots(tmp_path):
    cfg = _write_config(tmp_path / "love.json", {
        "model": "love",
        "params": {"omega": 5.0, "layer_mu": 1.0, "layer_rho": 1.0,
                   "half_thickness": 1.0, "substrate_mu": 4.0,
                   "substrate_rho": 1.0},
    })
    out = tmp_path / "run"
    assert cli.main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "dispersion.json").read_text())
    assert_allclose(meta["roots"],
                    [2.8768006316003243, 4.7759043269387638], atol=1e-10)
    lines = (out / "dispersion.csv").read_text().strip().splitlines()
    assert lines[0] == "index,k1" and len(lines) == 3


def test_dispersion_unknown_model(tmp_path):
    cfg = _write_config(tmp_path / "d.json", {"model": "whistler", "params": {}})
    assert cli.main(["dispersion", "--config", cfg]) == 1


def test_schrodinger_subcommand(tmp_path):
    x = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    V = 0.8 * np.cos(x) + 0.3 * np.cos(2 * x)
    vpath = tmp_path / "well.npy"
    np.save(vpath, V)
    cfg = _write_config(tmp_path / "schro.json", {
        "grid": {"dims": [24]},
        "kinetic": 1.0,
        "potential": {"type": "voxel", "path": str(vpath)},
        "perturbation": {"type": "constant", "value": 0.25},
    })
    out = tmp_path / "run"
    assert cli.main(["schrodinger", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "schrodinger.json").read_text())
    assert payload["energy"] == pytest.approx(-0.23250296823594763, abs=1e-10)
    assert payload["energy_shift"] == pytest.approx(0.25, abs=1e-12)
    assert payload["orthogonality"] < 1e-10
    assert payload["converged"] is True
    psi = read_uplf(str(out / "psi.uplf"))
    assert psi.grid.dims == (24,)
    psi_prime = read_uplf(str(out / "psi_prime.uplf"))
    assert np.max(np.abs(psi_prime.values)) < 1e-12  # constant shift: no mixing


def test_project_splits_field(tmp_path):
    from gammasolve.fields import Block, BlockLayout, Grid
    from gammasolve.projectors import apply_projector, gamma_helmholtz

    grid = Grid((8, 8), (2 * np.pi, 2 * np.pi))
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    f = random_field(grid, lay, seed=12)
    src = tmp_path / "f.uplf"
    write_uplf(str(src), f)
    parts = {}
    for which in (1, 2):
        cfg = _write_config(tmp_path / f"proj{which}.json", {
            "input": str(src),
            "output": f"part{which}.uplf",
            "projector": {"family": "helmholtz"},
            "which": which,
        })
        out = tmp_path / "run"
        assert cli.main(["project", "--config", cfg, "--out", str(out)]) == 0
        parts[which] = read_uplf(str(out / f"part{which}.uplf"))
        expected = apply_projector(f, gamma_helmholtz(2), which=which)
        assert_allclose(parts[which].values, expected.values, atol=1e-13)
    total = parts[1].values + parts[2].values
    assert_allclose(total, f.values, atol=1e-12)


def test_project_unknown_family(tmp_path):
    from gammasolve.fields import Block, BlockLayout, Grid

    grid = Grid((4, 4), (1.0, 1.0))
    lay = BlockLayout((Block("vector", 2), Block("scalar")))
    src = tmp_path / "f.uplf"
    write_uplf(str(src), random_field(grid, lay, seed=0))
    cfg = _write_config(tmp_path / "p.json", {
        "input": str(src), "output": "o.uplf",
        "projector": {"family": "discombobulator"},
    })
    assert cli.main(["project", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_verify_self_checks(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("CHECK ")]
    assert len(lines) == 10
    assert all(": PASS" in l for l in lines)
    assert "all checks passed" in out


def test_threads_flag_sets_fft_workers(tmp_path):
    before = get_fft_workers()
    try:
        cfg = _write_config(tmp_path / "solve.json", SOLVE_CFG)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--threads", "2"]) == 0
        assert get_fft_workers() == 2
    finally:
        set_fft_workers(before)


def _velocity(grid):
    x = grid.coordinates()
    return np.stack([0.2 * np.sin(x[:, 1]), 0.1 * np.cos(x[:, 0]),
                     0.05 * np.ones(grid.npoints)], axis=1)


# physics -> (dims, omega, params, where today's mapping puts the force):
# an int is the block the force fills, a name the source builder applied.
FORCE_CASES = {
    "acoustics": ((4, 4), 1.1, dict(kappa=1.5, rho=1.2), "acoustic_source"),
    "elastodynamics": ((4, 4), 1.1, dict(rho=1.3, bulk=1.0, shear=0.7), 1),
    "maxwell": ((4, 4, 4), 1.1, dict(epsilon=2.0, mu=1.0), 0),
    "brinkman": ((4, 4, 4), 1.1, dict(rho=1.0, eta=0.3, permeability=2.0,
                                      shear_viscosity=0.8), "brinkman_source"),
    "oseen": ((4, 4, 4), 1.1, dict(rho=1.0, kappa=2.0, eta=0.3, eta_bulk=0.1,
                                   velocity=_velocity), 1),
    "ns_perturbation": ((4, 4, 4), 1.1, dict(rho=1.0, eta=0.3,
                                             background_velocity=_velocity,
                                             penalty=1e2), 1),
    "thermoacoustic": ((4, 4, 4), 1.1, dict(rho0=1.1, eta=0.4, eta_bulk=0.2,
                                            conductivity=0.5, T0=1.0, alpha0=0.3,
                                            beta_T=0.9, cp=1.2), 1),
    "love": ((8,), 4.6, dict(k1=3.0, mu=1.0, rho=1.0), 1),
    "schrodinger": ((4, 4), -0.5, dict(kinetic=1.0, potential=0.5), 1),
}


@pytest.mark.parametrize("physics", sorted(PHYSICS))
def test_force_source_for_every_registered_family(physics):
    from gammasolve.fields import Grid

    dims, omega, params, target = FORCE_CASES[physics]
    grid = Grid(dims, (2 * np.pi,) * len(dims))
    params = {k: v(grid) if callable(v) else v for k, v in params.items()}
    L = build_material(MaterialSpec(physics, omega, params), grid)
    if isinstance(target, int):
        nforce = L.layout.blocks[target].ncomp
    else:
        nforce = grid.ndim
    force = np.arange(1, nforce + 1) * (1.0 + 0.5j)
    node = {"type": "force_constant", "force": [[f.real, f.imag] for f in force]}
    s = cli._parse_source(node, grid, L, physics)
    assert s.layout == L.layout and s.representation == "real"
    fvals = np.broadcast_to(force, (grid.npoints, nforce))
    if isinstance(target, int):
        expected = np.zeros((grid.npoints, L.layout.ncomp), dtype=complex)
        expected[:, L.layout.block_slice(target)] = fvals
    else:
        expected = {"acoustic_source": acoustic_source,
                    "brinkman_source": brinkman_source}[target](L, fvals, grid).values
    assert_allclose(s.values, expected, atol=0.0)
