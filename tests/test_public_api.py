import fournls

PUBLIC = {
    # spectrum
    "DyadicBlock", "FileFormatError", "FourierState", "Trajectory", "blocks_covering",
    "load_state", "load_trajectory", "mass", "save_state", "save_trajectory",
    # dynamics
    "FULL", "WICK", "EquationKind", "IntegratorSpec", "Kind", "NumericFailure", "Scheme",
    "cubic_convolution", "exact_resonant_flow", "integrate", "integrate_batch",
    "nonlinearity_nonresonant", "nonlinearity_resonant", "step",
    # resonance
    "ModifiedPhase", "ResonanceQuadruple", "enumerate_nonresonant", "g_tilde_value",
    "g_value", "h_factored", "h_value", "normal_form_boundary",
    # gauge
    "gauge_apply", "gauge_equivalence_check",
    # diagnostics
    "SpaceTimeField", "dyadic_gap_profile", "hamiltonian", "modulus_rate",
    "smoothing_gap", "symplectic_form", "trilinear_ratio", "ysb_norm",
    # experiments
    "ExperimentReport", "ProfileKind", "ProfileSpec", "fit_decay_rate",
    "run_approximation_study", "run_perturbation_study", "run_squeeze_probe",
}


def test_export_list_is_pinned():
    """A name belongs in fournls.__all__ only if a 4nls subcommand, a study,
    an acceptance criterion, perfbench/ or a test that uses it as an
    independent oracle reaches it; a helper that only its own tests reach
    and that re-spells another function does not. Adding or removing an
    export means editing this list on purpose."""
    assert set(fournls.__all__) == PUBLIC
