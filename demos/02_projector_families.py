"""Tour of the Fourier-space projector families.

Every physics family comes with an orthogonal projector whose symbol is a
small Hermitian idempotent matrix at each wavevector; splitting a field
into its range and complement is what turns a constitutive law into a
solvable problem.  Each family is the range projector of a potential
symbol D(ik), built by QR; it is checked against the generic SVD
construction of the same range projector (gamma_from_D).
"""

import numpy as np

from gammasolve import (
    Block,
    BlockLayout,
    Grid,
    apply_projector,
    gamma_brinkman,
    gamma_elastic,
    gamma_from_D,
    gamma_helmholtz,
    gamma_maxwell,
    gamma_surface,
    gamma_thermoacoustic,
    gradient_D,
    helmholtz_D,
    maxwell_D,
    random_field,
)

rng = np.random.default_rng(0)

families = [
    ("helmholtz (grad, id)", gamma_helmholtz(3), 3),
    ("elastic (full gradient)", gamma_elastic(3), 3),
    ("maxwell (curl pair)", gamma_maxwell(), 3),
    ("brinkman (sym grad + id)", gamma_brinkman(3), 3),
    ("thermoacoustic (16 comp)", gamma_thermoacoustic(), 3),
    ("surface (shifted axis)", gamma_surface(0.7), 1),
]

print(f"{'family':28s} {'ncomp':>5s} {'idempotency':>12s} {'hermiticity':>12s}")
for name, proj, ndim in families:
    K = rng.normal(scale=4.0, size=(2000, ndim))
    G = proj.symbols(K)
    scale = np.linalg.norm(G)
    idem = np.linalg.norm(G @ G - G) / scale
    herm = np.linalg.norm(G - np.conj(np.swapaxes(G, -1, -2))) / scale
    print(f"{name:28s} {proj.ncomp:5d} {idem:12.2e} {herm:12.2e}")

# the same projectors from an SVD of the underlying operator's symbol
print("\nSVD construction vs the QR-built families:")
for name, dop, family in [
    ("helmholtz", helmholtz_D(3), gamma_helmholtz(3)),
    ("elastic", gradient_D(3), gamma_elastic(3)),
    ("maxwell", maxwell_D(), gamma_maxwell()),
]:
    K = rng.normal(scale=4.0, size=(500, 3))
    dev = np.max(np.abs(gamma_from_D(dop).symbols(K) - family.symbols(K)))
    print(f"  {name:10s} max deviation {dev:.2e}")

# splitting a field: the two parts are orthogonal and sum back exactly
grid = Grid((16, 16), (2 * np.pi, 2 * np.pi))
lay = BlockLayout((Block("vector", 2), Block("scalar")))
f = random_field(grid, lay, seed=1)
g = gamma_helmholtz(2)
part1 = apply_projector(f, g, which=1)
part2 = apply_projector(f, g, which=2)
recon = np.max(np.abs(part1.values + part2.values - f.values))
overlap = abs(np.vdot(part1.values, part2.values))
print(f"\nfield split on {grid.dims}: reconstruction {recon:.2e}, "
      f"cross term {overlap:.2e}")
