import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import fournls
from fournls import diagnostics, dynamics, spectrum
from fournls import FourierState, ModifiedPhase, SpaceTimeField, Trajectory
from fournls.gauge import GaugeEquivalenceReport

PUBLIC = {
    # spectrum
    "FileFormatError", "FourierState", "Trajectory", "load_state", "load_trajectory", "mass",
    "save_state", "save_trajectory",
    # dynamics
    "FULL", "WICK", "EquationKind", "IntegratorSpec", "Kind", "NumericFailure", "Scheme",
    "cubic_convolution", "exact_resonant_flow", "integrate", "integrate_batch",
    "nonlinearity_nonresonant", "nonlinearity_resonant", "step",
    # resonance
    "ModifiedPhase", "ResonanceQuadruple", "enumerate_nonresonant", "h_factored", "h_value",
    "normal_form_boundary",
    # gauge
    "gauge_apply", "gauge_equivalence_check",
    # diagnostics
    "SpaceTimeField", "dyadic_gap_profile", "hamiltonian", "modulus_rate", "smoothing_gap",
    "symplectic_form",  # kept for ROADMAP item 11's symplectic defect of the discrete map
    "ysb_norm",
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


def test_estimators_do_not_import_the_study_drivers():
    """diagnostics sits below experiments: the estimators import nothing from
    the seeded study drivers, neither a name nor the module."""
    tree = ast.parse(Path(diagnostics.__file__).read_text())
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for a in node.names]
    assert not [name for name in imported if "experiments" in name.split(".")]


@pytest.mark.parametrize("make", [
    lambda: FourierState(1, [1, 2, 3]),
    lambda: Trajectory(0.0, 0.1, np.ones((8, 3), dtype=np.complex128)),
    lambda: ModifiedPhase(FourierState(1, [1, 2, 3])),
    lambda: GaugeEquivalenceReport(0.0, np.zeros(3), np.zeros(3), np.zeros(3)),
    lambda: SpaceTimeField(Trajectory(0.0, 0.1, np.ones((8, 3), dtype=np.complex128))),
], ids=["FourierState", "Trajectory", "ModifiedPhase", "GaugeEquivalenceReport",
        "SpaceTimeField"])
def test_array_holders_compare_and_hash_by_identity(make):
    """A generated __eq__ would compare the arrays and raise on their truth
    value; these classes compare and hash by identity instead."""
    u, v = make(), make()
    assert u == u and u != v
    assert u in [v, u] and u not in [v]
    assert hash(u) == hash(u) and len({u, v, u}) == 2


def test_overflow_policy_has_one_owner():
    """The one errstate in the package is spectrum.quiet: every function whose
    arithmetic can overflow wears that decorator instead of spelling the
    policy again."""
    calls = [(path.name, line) for path in sorted(Path(fournls.__file__).parent.glob("*.py"))
             for line in path.read_text().splitlines() if "errstate(" in line]
    assert calls == [("spectrum.py", 'quiet = np.errstate(over="ignore", invalid="ignore")')]


def test_grid_layout_has_one_owner():
    """The slot rule, mode n at grid slot n + N, lives only in spectrum.to_grid and
    from_grid: dynamics and diagnostics index no grid themselves, grid_plan gives
    only the grid length, and no function takes or builds a layout index."""
    src = Path(fournls.__file__).parent
    for name in ("dynamics.py", "diagnostics.py"):
        text = (src / name).read_text()
        assert [s for s in (".take(", "% m", ".T[") if s in text] == [], name
    assert not [path.name for path in src.glob("*.py") if re.search(r"\bidx\b", path.read_text())]
    assert type(spectrum.grid_plan(16)) is int
    for f in (spectrum.to_grid, spectrum.from_grid, spectrum.grid_plan, dynamics._cubic_conv_raw,
              dynamics._nonlinear_rhs_raw, dynamics._stepper, diagnostics.hamiltonian):
        assert "idx" not in inspect.signature(f).parameters, f.__name__
