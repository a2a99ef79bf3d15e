"""gammasolve: FFT-projector solvers for periodic linear media.

Nine time-harmonic physics families (acoustics, elastodynamics,
electromagnetism, porous and perturbed viscous flow, thermoacoustics,
guided shear waves, stationary quantum states) are posed in one canonical
shape: find a field E in the range of a Hermitian projector valued symbol
Gamma_1(k) such that the flux J = L(x) E - s is annihilated by Gamma_1.
Material maps act pointwise in real space, projectors act per Fourier
mode, and Krylov iteration alternates the two.

Quick start::

    import numpy as np
    from gammasolve import (Grid, build_acoustics, gamma_helmholtz,
                            acoustic_source, Problem, solve)

    grid = Grid((32, 32, 32), (2 * np.pi,) * 3)
    L = build_acoustics(grid, omega=1.3, kappa=1.0, rho=1.0)
    x = grid.coordinates()
    force = np.exp(1j * x[:, 0])[:, None] * np.array([1.0, 0, 0])
    s = acoustic_source(L, force, grid)
    result = solve(Problem(grid=grid, L=L, gamma=gamma_helmholtz(3), source=s))
"""

from .fields import *
from .projectors import *
from .materials import *
from .solver import *
from .quasiperiodic import *
from .fermionic import *
from .models import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
