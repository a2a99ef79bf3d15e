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

from .fields import (
    Block,
    BlockLayout,
    Field,
    Grid,
    UPLFError,
    axpy,
    divergence,
    get_fft_workers,
    gradient,
    inner_product,
    norm,
    pointwise_map,
    random_field,
    read_uplf,
    scalar_layout,
    scale,
    set_fft_workers,
    sym_pack,
    sym_unpack,
    vector_layout,
    write_uplf,
)
from .projectors import (
    DOperator,
    Projector,
    apply_projector,
    gamma_brinkman,
    gamma_elastic,
    gamma_from_D,
    gamma_helmholtz,
    gamma_maxwell,
    gamma_schrodinger,
    gamma_surface,
    gamma_thermoacoustic,
    gradient_D,
    helmholtz_D,
    maxwell_D,
    projector_symbols,
    stress_D,
    sym_gradient_D,
    thermoacoustic_D,
)
from .materials import (
    Checkerboard,
    Constant,
    Layered,
    LField,
    MaterialSpec,
    PassivityReport,
    Voxel,
    acoustic_source,
    block_source,
    brinkman_source,
    build_acoustics,
    build_brinkman,
    build_elastodynamics,
    build_love,
    build_material,
    build_maxwell,
    build_ns_perturbation,
    build_oseen_inverse,
    build_schrodinger,
    build_thermoacoustic,
    canonical_material,
    default_projector,
    deviatoric_projector,
    find_rotation,
    gibiansky_rotation,
    hydrostatic_projector,
    invert_blockwise,
    isotropic_stiffness,
    kelvin_deviatoric,
    kelvin_hydrostatic,
    passivity_check,
    resolve_parameter,
)
from .solver import (
    Problem,
    ResonanceError,
    SolveResult,
    dense_operator,
    operator_norm_estimate,
    residual_functional,
    solve,
    solve_dense,
    solve_resolvent,
)
from .quasiperiodic import (
    EffectiveTensors,
    QuasiSource,
    effective_tensors,
    modulate,
    solve_quasiperiodic,
)
from .fermionic import (
    MultiElectronGrid,
    PerturbationResult,
    antisymmetrize_full,
    antisymmetrize_vector,
    ground_state,
    is_antisymmetric,
    lambda_A,
    lambda_a,
    normalize_state,
    pair_potential,
    pairwise_sum_potential,
    permutation_sign,
    perturbation_energy,
    perturbation_solve,
    permute_scalar,
    permute_vector,
    symmetrized_apply,
)
from .models import (
    effective_mass,
    love_dispersion,
    love_resonance_scan,
    peak_estimate,
    resonance_frequency,
    resonator_density,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
