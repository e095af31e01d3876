"""Fourier-Galerkin simulation and verification toolkit for the periodic
fourth-order cubic NLS and its Wick-ordered variant."""

from types import ModuleType as _ModuleType

from .spectrum import (
    FileFormatError,
    FourierState,
    Trajectory,
    load_state,
    load_trajectory,
    mass,
    save_state,
    save_trajectory,
)
from .dynamics import (
    FULL,
    WICK,
    EquationKind,
    IntegratorSpec,
    Kind,
    NumericFailure,
    Scheme,
    cubic_convolution,
    exact_resonant_flow,
    integrate,
    integrate_batch,
    nonlinearity_nonresonant,
    nonlinearity_resonant,
    step,
)
from .resonance import (
    ModifiedPhase,
    ResonanceQuadruple,
    enumerate_nonresonant,
    h_factored,
    h_value,
    normal_form_boundary,
)
from .gauge import gauge_apply, gauge_equivalence_check
from .diagnostics import (
    SpaceTimeField,
    dyadic_gap_profile,
    hamiltonian,
    modulus_rate,
    smoothing_gap,
    symplectic_form,
    ysb_norm,
)
from .experiments import (
    ExperimentReport,
    ProfileKind,
    ProfileSpec,
    fit_decay_rate,
    run_approximation_study,
    run_perturbation_study,
    run_squeeze_probe,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
