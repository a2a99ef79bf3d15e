"""One solve per physics family, each checked against dense assembly.

The same canonical loop (real-space material map, Fourier-space
projection) serves nine time-harmonic families; only the block layout,
the material builder, and the projector change.  Small grids keep the
brute-force dense oracle affordable for every family.
"""

import numpy as np

from gammasolve import (
    Grid,
    MaterialSpec,
    Problem,
    block_source,
    brinkman_source,
    build_material,
    default_projector,
    random_field,
    solve,
    solve_dense,
)
from gammasolve.materials import Checkerboard

CASES = [
    ("acoustics", (6, 6), 1.1,
     dict(kappa=Checkerboard((1.0, 2.0 + 0.5j)), rho=1.2), {}),
    ("elastodynamics", (6, 6), 1.1,
     dict(rho=1.3, bulk=Checkerboard((1.0, 1.5)), shear=0.7), {}),
    ("maxwell", (4, 4, 4), 1.1,
     dict(epsilon=lambda x: 1.0 + 0.5 * (x[:, 0] > np.pi), mu=1.0), {}),
    ("brinkman", (4, 4, 4), 1.1,
     dict(rho=1.0, eta=0.3, permeability=2.0, shear_viscosity=0.8), {}),
    ("oseen", (4, 4, 4), 1.1,
     dict(rho=1.0, kappa=2.0, eta=0.3, eta_bulk=0.1, velocity=None), {}),
    ("ns_perturbation", (4, 4, 4), 1.1,
     dict(rho=1.0, eta=0.3, background_velocity=None, penalty=1e2), {}),
    ("thermoacoustic", (4, 4, 4), 1.1,
     dict(rho0=1.1, eta=0.4, eta_bulk=0.2, conductivity=0.5, T0=1.0,
          alpha0=0.3, beta_T=0.9, cp=1.2), {}),
    ("love", (16,), 4.6, dict(k1=3.0, mu=1.0, rho=1.0), {}),
    ("schrodinger", (6, 6), 1.1,
     dict(kinetic=1.0, potential=lambda x: 0.5 + 0.3 * np.cos(x[:, 0])), {}),
]


def background_flow(grid):
    x = grid.coordinates()
    return np.stack([0.2 * np.sin(x[:, 1]), 0.1 * np.cos(x[:, 0]),
                     0.05 * np.ones(grid.npoints)], axis=1)


print(f"{'physics':16s} {'unknowns':>8s} {'iters':>6s} {'residual':>10s} "
      f"{'vs dense':>10s}")
for physics, dims, omega, params, options in CASES:
    grid = Grid(dims, (2 * np.pi,) * len(dims))
    if physics in ("oseen", "ns_perturbation"):
        key = "velocity" if physics == "oseen" else "background_velocity"
        params = dict(params, **{key: background_flow(grid)})
    spec = MaterialSpec(physics, omega, params, options)
    L = build_material(spec, grid)
    gamma = default_projector(physics, grid)

    if physics == "brinkman":
        # drive with a body force: it never excites the constant
        # hydrostatic stress mode (the pressure gauge) in the kernel
        rng = np.random.default_rng(4)
        f = rng.normal(size=(grid.npoints, 3)) + 1j * rng.normal(
            size=(grid.npoints, 3))
        s = brinkman_source(L, f, grid)
    elif physics == "ns_perturbation":
        rng = np.random.default_rng(4)
        f = rng.normal(size=(grid.npoints, 3)) + 1j * rng.normal(
            size=(grid.npoints, 3))
        s = block_source(grid, L.layout, 1, f)
    else:
        s = random_field(grid, L.layout, seed=5)

    prob = Problem(grid=grid, L=L, gamma=gamma, source=s, tol=1e-9,
                   max_iter=6000, restart=256)
    rk = solve(prob)
    if physics == "brinkman":
        # dense assembly is singular here (constant hydrostatic stress is
        # a pure pressure gauge), so take the minimum-norm solution
        from gammasolve.fields import Field
        from gammasolve.solver import _CanonicalOperator, dense_operator

        op = _CanonicalOperator(prob)
        A = dense_operator(prob)
        b = op.project(s.to_fourier().values).ravel()
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        e_hat = op.project(x.reshape(-1, op.ncomp))
        Ed = Field(grid, L.layout, e_hat, "fourier").to_real()
        dev = np.linalg.norm(rk.E.values - Ed.values) / np.linalg.norm(Ed.values)
    else:
        rd = solve_dense(prob)
        dev = np.linalg.norm(rk.E.values - rd.E.values) / np.linalg.norm(rd.E.values)
    n = grid.npoints * L.layout.ncomp
    print(f"{physics:16s} {n:8d} {rk.iterations:6d} {rk.residual:10.2e} "
          f"{dev:10.2e}")
