"""Solve a single-frequency acoustic cell and check it two ways.

A homogeneous cell driven by a plane-wave body force has a closed-form
pressure response mode by mode, so this is the cleanest smoke test of the
whole pipeline: material map, projector symbols, Krylov solve, and the
second-order resolvent path must all agree with pencil and paper.
"""

import numpy as np

from gammasolve import (
    Block,
    BlockLayout,
    Field,
    Grid,
    LField,
    Problem,
    acoustic_source,
    build_acoustics,
    gamma_helmholtz,
    scalar_layout,
    solve,
    solve_resolvent,
)

grid = Grid((32, 32, 32), (2 * np.pi,) * 3)
omega, kappa, rho = 1.3, 1.0, 1.0
L = build_acoustics(grid, omega, kappa, rho)

# body force f0 e^{i k0 . x} along x
x = grid.coordinates()
k0 = np.array([1.0, 0.0, 0.0])
f0 = np.array([1.0, 0.0, 0.0])
env = np.exp(1j * (x @ k0))
source = acoustic_source(L, env[:, None] * f0[None, :], grid)

result = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(3), source=source,
                       tol=1e-10))
print(f"grid {grid.dims}, {grid.npoints * 4} unknowns")
print(f"converged={result.converged} after {result.iterations} iterations, "
      f"residual {result.residual:.2e}")

# closed form: P(k0) = i k0.f0 / (omega^2 rho / kappa - |k0|^2)
pred = 1j * (k0 @ f0) / (omega**2 * rho / kappa - k0 @ k0)
pressure = result.E.values[:, 3] / env
print(f"pressure amplitude {pressure[0]:.12f}")
print(f"closed form        {pred:.12f}")
print(f"max deviation      {np.max(np.abs(pressure - pred)):.2e}")

# the same pressure from the scalar resolvent at z = rho omega^2, itself a
# canonical problem: L = B - z e_s e_s^T on the Helmholtz projector
lay = BlockLayout((Block("vector", 3), Block("scalar")))
B = LField(lay, np.diag([kappa, kappa, kappa, 0.0]).astype(complex))
fdiv = kappa * (1j * (k0 @ f0)) * env
psi = solve_resolvent(grid, rho * omega**2, B,
                      Field(grid, scalar_layout(), fdiv[:, None]))
gap = np.max(np.abs(psi.values[:, 0] - result.E.values[:, 3]))
print(f"resolvent duality gap {gap:.2e}")
