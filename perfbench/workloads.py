"""The benchmark's workloads: inputs made from a seed, the timed task, and
the checks that the task's results are correct.

Each workload builds its inputs in ``__init__`` (outside every timed
region) and exposes:

* ``solve_site``: the (module, attribute) through which its code reaches
  ``solve``; the harness wraps it to time solves and keep their results;
* ``task()``: the gammasolve calls a user would make, from the first call
  to the solved result;
* ``verify(out, solves)``: the solves to check, as :class:`Case` objects
  stated from the benchmark's own inputs, and (name, ok, detail) tuples
  for the workload-level checks;
* ``sizes()``: array sizes computed from the problem dimensions.

Why each workload exists is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import gammasolve as gs
from gammasolve import cli, models, quasiperiodic

# An exact projection leaves |Gamma2 E| at rounding level; 1e-10 of |E|
# separates that from any real component outside range(Gamma1).
GAMMA2_TOL = 1e-10
# A projected source below this share of |s| counts as zero (solve returns
# E = 0 for it).
ZERO_RHS = 1e-13
TWO_PI = 2.0 * np.pi
C128 = 16


@dataclass
class Case:
    """One solve to check: the problem as the benchmark states it and the
    field the program returned."""

    L: object
    gamma: object
    source: object
    E: object
    tol: float
    shift: object = None


def check_case(case, E=None):
    """Recompute |Gamma1 (L E - s)| / |Gamma1 s| and |Gamma2 E| / |E| with
    the public apply_projector and LField.apply; never trusts the solver's
    own residual."""
    E = (case.E if E is None else E).to_real()
    s = case.source.to_real()

    def project(field, which=1):
        return gs.apply_projector(field, case.gamma, case.shift, which).values

    flux = gs.Field(E.grid, E.layout, gs.canonical_material(case.L).apply(E.values) - s.values)
    r = float(np.linalg.norm(project(flux)))
    b = float(np.linalg.norm(project(s)))
    s_norm = float(np.linalg.norm(s.values))
    e_norm = float(np.linalg.norm(E.values))
    g2 = float(np.linalg.norm(project(E, 2)))
    if b <= ZERO_RHS * s_norm:
        ok = e_norm <= ZERO_RHS * s_norm and r <= ZERO_RHS * s_norm
        return ok, f"zero projected source, |E|/|s| {e_norm / s_norm:.1e}"
    rel, g2_rel = r / b, g2 / max(e_norm, 1e-300)
    ok = rel <= case.tol and g2_rel <= GAMMA2_TOL
    return ok, f"residual {rel:.2e} (tol {case.tol:.0e}), |G2 E|/|E| {g2_rel:.1e}"


def self_test(case, seed):
    """Show that check_case rejects a perturbed E: one perturbation of 1e-4
    |E| inside range(Gamma1) (the residual check must fail) and one outside
    it (the Gamma2 check must fail)."""
    E = case.E.to_real()
    rng = np.random.default_rng(seed)
    noise = gs.Field(E.grid, E.layout,
                     rng.standard_normal(E.values.shape)
                     + 1j * rng.standard_normal(E.values.shape))
    scale = 1e-4 * np.linalg.norm(E.values) / np.linalg.norm(noise.values)
    lines, ok = [], check_case(case)[0]
    for which in (1, 2):
        part = gs.apply_projector(noise, case.gamma, case.shift, which).values
        bad = gs.Field(E.grid, E.layout, E.values + scale * part)
        accepted, detail = check_case(case, bad)
        ok = ok and not accepted
        lines.append(f"E + 1e-4 noise in Gamma{which}: "
                     f"{'accepted' if accepted else 'rejected'} ({detail})")
    return ok, lines


def _random_source(rng, npoints, ncomp):
    shape = (npoints, ncomp)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _sizes(npoints, ncomp):
    """Computed bytes of a dense per-point material, its symbols and a
    GMRES(40) basis."""
    per_point = ncomp * ncomp * C128
    return {
        "material_bytes": npoints * per_point,
        "symbol_bytes": npoints * per_point,
        "krylov_basis_bytes": 41 * npoints * ncomp * C128,
    }


class Elastic32Cli:
    """One elastodynamics solve through ``gamma-solve solve`` on 32^3."""

    name = "elastic32_cli"
    solve_site = (cli, "solve")
    N, OMEGA, TOL = 32, 1.0, 1e-8
    RHO, BULK, SHEAR = (1.0, 2.0), (2.0, 6.0), (1.0, 3.0)

    def __init__(self, seed, workdir):
        self.grid = gs.Grid((self.N,) * 3, (TWO_PI,) * 3)
        self.layout = gs.BlockLayout((gs.Block("matrix", 3), gs.Block("vector", 3)))
        rng = np.random.default_rng(seed)
        self.svals = _random_source(rng, self.grid.npoints, self.layout.ncomp)
        os.makedirs(workdir, exist_ok=True)
        source_path = os.path.join(workdir, "source.uplf")
        gs.write_uplf(source_path, gs.Field(self.grid, self.layout, self.svals))
        self.config = os.path.join(workdir, "solve.json")
        self.out = os.path.join(workdir, "out")

        def board(values):
            return {"type": "checkerboard", "values": list(values)}

        with open(self.config, "w") as fh:
            json.dump({
                "grid": {"dims": [self.N] * 3},
                "material": {"physics": "elastodynamics", "omega": self.OMEGA,
                             "params": {"rho": board(self.RHO),
                                        "bulk": board(self.BULK),
                                        "shear": board(self.SHEAR)}},
                "source": {"type": "uplf", "path": source_path},
                "solver": {"tol": self.TOL},
            }, fh)

    def task(self):
        return cli.main(["solve", "--config", self.config, "--out", self.out,
                         "--threads", "1"])

    def verify(self, rc, solves):
        # The material and source are rebuilt from the benchmark's own
        # description, so a CLI that parsed the config wrongly fails here.
        E = gs.read_uplf(os.path.join(self.out, "E.uplf"))
        J = gs.read_uplf(os.path.join(self.out, "J.uplf"))
        with open(os.path.join(self.out, "summary.json")) as fh:
            summary = json.load(fh)
        L = gs.build_elastodynamics(
            self.grid, self.OMEGA, gs.Checkerboard(self.RHO),
            bulk=gs.Checkerboard(self.BULK), shear=gs.Checkerboard(self.SHEAR))
        s = gs.Field(self.grid, self.layout, self.svals)
        case = Case(L, gs.gamma_elastic(3), s, E, self.TOL)
        j_err = float(np.linalg.norm(J.values - (L.apply(E.values) - self.svals))
                      / np.linalg.norm(self.svals))
        iterations = solves[0].info[1].iterations
        return [case], [
            ("exit code", rc == 0, f"rc {rc}"),
            ("summary.json", summary["converged"] is True
             and summary["iterations"] == iterations,
             f"converged {summary['converged']}, iterations {summary['iterations']}"),
            ("J.uplf = L E - s", j_err <= 1e-12, f"rel err {j_err:.1e}"),
        ]

    def sizes(self):
        return _sizes(self.grid.npoints, 12)


def _cases_from_solves(solves):
    return [Case(p.L, p.gamma, p.source, r.E, p.tol, p.shift)
            for p, r in (s.info for s in solves)]


class Maxwell16Resonant:
    """Maxwell 16^3, checkerboard eps in {1, 4+0.1i}, omega 1.3, tol 1e-5."""

    name = "maxwell16_resonant"
    solve_site = (gs, "solve")
    N, OMEGA, EPS, TOL = 16, 1.3, (1.0, 4.0 + 0.1j), 1e-5

    def __init__(self, seed, workdir):
        self.grid = gs.Grid((self.N,) * 3, (TWO_PI,) * 3)
        rng = np.random.default_rng(seed)
        self.svals = _random_source(rng, self.grid.npoints, 6)

    def task(self):
        L = gs.build_maxwell(self.grid, self.OMEGA, gs.Checkerboard(self.EPS), 1.0)
        source = gs.Field(self.grid, L.layout, self.svals)
        return gs.solve(gs.Problem(grid=self.grid, L=L, gamma=gs.gamma_maxwell(),
                                   source=source, tol=self.TOL, restart=40,
                                   max_iter=4000))

    def verify(self, result, solves):
        return _cases_from_solves(solves), [
            ("converged", result.converged, f"{result.iterations} iterations")]

    def sizes(self):
        return _sizes(self.grid.npoints, 6)


class LoveSweep:
    """love_resonance_scan over 200 k1 values on the 192-point depth cell."""

    name = "love_sweep"
    solve_site = (models, "solve")
    # omega, layer mu and rho, half thickness, substrate mu and rho
    MODEL = (5.0, 1.0, 1.0, 1.0, 4.0, 1.0)
    NK, K_LO, K_HI = 200, 4.4, 5.0

    def __init__(self, seed, workdir):
        step = (self.K_HI - self.K_LO) / (self.NK - 1)
        offset = np.random.default_rng(seed).uniform(0.0, step)
        self.k1 = self.K_LO + offset + step * np.arange(self.NK)

    def task(self):
        omega, *materials = self.MODEL
        return gs.love_resonance_scan(omega, self.k1, *materials)

    def verify(self, responses, solves):
        cases = _cases_from_solves(solves)
        measured = np.array([np.linalg.norm(c.E.values) / np.linalg.norm(c.source.values)
                             for c in cases])
        resp_err = float(np.max(np.abs(measured - responses) / responses))
        root = gs.love_dispersion(*self.MODEL)[-1]
        peak = gs.peak_estimate(self.k1, responses)
        peak_err = abs(peak - root) / root
        return cases, [
            ("one solve per k1", len(solves) == self.NK, f"{len(solves)} solves"),
            ("response = |E|/|s|", resp_err <= 1e-12, f"max rel err {resp_err:.1e}"),
            ("peak vs dispersion root", peak_err <= 0.02,
             f"peak {peak:.5f}, root {root:.5f}, rel err {peak_err:.1e} <= 2e-2"),
        ]

    def sizes(self):
        return _sizes(192, 2)


class BlochElastic16:
    """effective_tensors on elastodynamics 16^3 at k0 = (0.3, 0.1, 0)."""

    name = "bloch_elastic16"
    solve_site = (quasiperiodic, "solve")
    N, OMEGA, TOL, K0 = 16, 1.0, 1e-10, (0.3, 0.1, 0.0)
    BULK, SHEAR = (2.0, 6.0), (1.0, 3.0)

    def __init__(self, seed, workdir):
        self.grid = gs.Grid((self.N,) * 3, (TWO_PI,) * 3)
        # The seed moves the dense phase's density by up to 2.5%; the
        # iteration count does not change with it.
        self.rho = (1.0, 2.0 + 0.05 * np.random.default_rng(seed).uniform(-1.0, 1.0))

    def task(self):
        L = gs.build_elastodynamics(
            self.grid, self.OMEGA, gs.Checkerboard(self.rho),
            bulk=gs.Checkerboard(self.BULK), shear=gs.Checkerboard(self.SHEAR))
        return gs.effective_tensors(self.grid, L, gs.gamma_elastic(3),
                                    np.array(self.K0), tol=self.TOL)

    def verify(self, eff, solves):
        c = 12
        cases = []
        mean_err = 0.0
        for j, span in enumerate(solves):
            problem, result = span.info
            amp = np.zeros(c, dtype=np.complex128)
            amp[j] = 1.0
            source = gs.Field(self.grid, problem.L.layout,
                              np.broadcast_to(amp, (self.grid.npoints, c)).copy())
            cases.append(Case(problem.L, gs.gamma_elastic(3), source, result.E,
                              self.TOL, self.K0))
            mean_err = max(mean_err, float(np.max(np.abs(
                eff.tensor_e[:, j] - result.E.values.mean(axis=0)))))
        return cases, [
            ("one solve per component", len(solves) == c, f"{len(solves)} solves"),
            ("tensor_e columns = mean E", mean_err <= 1e-12, f"max err {mean_err:.1e}"),
        ]

    def sizes(self):
        return _sizes(self.grid.npoints, 12)


WORKLOADS = {w.name: w for w in (Elastic32Cli, Maxwell16Resonant, LoveSweep, BlochElastic16)}
