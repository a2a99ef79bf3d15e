"""Quasiperiodic excitation and cell-averaged effective tensors.

A source with a Bloch phase e^{i k0 . x} turns into a plain periodic
problem once every projector symbol is shifted to k + k0.  Averaging the
periodic field parts over the cell for each unit source direction gives a
pair of effective tensors; for a homogeneous medium they reduce to shifted
projectors, for a lossy medium driven on its resonance they blow up as
the loss is removed.
"""

import numpy as np

from gammasolve import (
    Block,
    BlockLayout,
    Grid,
    LField,
    QuasiSource,
    build_acoustics,
    effective_tensors,
    gamma_helmholtz,
    modulate,
    solve_quasiperiodic,
)

# --- homogeneous sanity: tensors are shifted projectors -------------------
grid = Grid((8, 8), (2 * np.pi, 2 * np.pi))
c = 2.0 - 0.5j
lay = BlockLayout((Block("vector", 2), Block("scalar")))
L = LField(lay, c * np.eye(3))
g = gamma_helmholtz(2)
k0 = np.array([0.3, 0.7])
eff = effective_tensors(grid, L, g, k0, tol=1e-12)
G1 = g.symbol(k0)
print("homogeneous medium, L = c I with c =", c)
print(f"  |T_E - Gamma1(k0)/c| = {np.max(np.abs(eff.tensor_e - G1 / c)):.2e}")
print(f"  |T_J + Gamma2(k0)|   = {np.max(np.abs(eff.tensor_j - (G1 - np.eye(3)))):.2e}")
print(f"  fluctuation          = {eff.fluctuation_e:.2e} (zero: nothing varies)")

# --- a heterogeneous cell fluctuates ---------------------------------------
x = grid.coordinates()
Lhet = build_acoustics(grid, 1.1, 1.0 + 0.5 * np.cos(x[:, 0]) - 0.1j, 1.0)
eff_het = effective_tensors(grid, Lhet, g, np.array([0.25, 0.0]), tol=1e-11)
print(f"\ncosine-modulated cell: fluctuation {eff_het.fluctuation_e:.3f}")
# E sees a source only through Gamma1 s: the columns in the span of those
# already solved start from their combination and take no iteration
print("iterations per column:", [r.iterations for r in eff_het.results])

# --- full fields come back through the Bloch phase --------------------------
res = solve_quasiperiodic(grid, Lhet, g,
                          QuasiSource(np.array([0.25, 0.0]),
                                      np.array([0.0, 0.0, 1.0])),
                          tol=1e-11)
full = modulate(res.E, np.array([0.25, 0.0]))
print(f"periodic part norm {np.linalg.norm(res.E.values):.4f}, "
      f"modulated field norm {np.linalg.norm(full.values):.4f} (equal)")

# --- resonant growth as loss is removed -------------------------------------
# omega = |k0| sits exactly on the lossless acoustic branch
grid3 = Grid((4, 4, 4), (2 * np.pi,) * 3)
kr = np.array([0.5, 0.0, 0.0])
print("\nloss sweep at a resonant Bloch wavevector (omega = |k0| = 0.5):")
print(f"  {'loss':>6s} {'|T_E|':>10s}")
for delta in (0.3, 0.1, 0.03, 0.01):
    Ld = build_acoustics(grid3, 0.5, 1.0 - 1j * delta, 1.0)
    e = effective_tensors(grid3, Ld, gamma_helmholtz(3), kr, tol=1e-12)
    print(f"  {delta:6.2f} {np.linalg.norm(e.tensor_e):10.4f}")
print("the response scales like 1/loss: the mean field diverges on resonance")
