"""Where the tracer hooks into fournls, and how spans become per-layer metrics.

Each patch replaces a public function at the module attribute its callers
resolve at call time, so a call from ``fournls.experiments`` goes through the
wrapper on ``fournls.experiments.integrate`` and a call from the CLI goes
through ``fournls.cli.integrate``. The layers are the package modules.
"""
from __future__ import annotations

import os

from fournls import cli, diagnostics, dynamics, experiments, gauge, resonance
from fournls.spectrum import FourierState
from tracing import self_times

# Step sizes reported per truncation radius of the integrated datum.
RK4_STEP_SIZES = (16, 64, 256, 1024)
STRANG_STEP_SIZES = (256, 1024)

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    [("spectrum.state_constructions", "count")]
    + [(f"dynamics.rk4_step_us.n{n}", "us") for n in RK4_STEP_SIZES]
    + [(f"dynamics.strang_step_us.n{n}", "us") for n in STRANG_STEP_SIZES]
    + [
        ("dynamics.integrate_calls", "count"),
        ("dynamics.steps", "count"),
        ("dynamics.mode_steps", "count"),
        ("dynamics.integrate_self_s", "s"),
        ("dynamics.numeric_failures", "count"),
        ("gauge.self_s", "s"),
        ("experiments.self_s", "s"),
        ("experiments.trajectories", "count"),
        ("spectrum.save_trajectory_s", "s"),
        ("spectrum.load_trajectory_s", "s"),
        ("spectrum.traj_bytes", "bytes"),
        ("spectrum.save_mb_per_s", "MB/s"),
        ("spectrum.load_mb_per_s", "MB/s"),
        ("diagnostics.ysb_norm_s", "s"),
        ("diagnostics.smoothing_gap_s", "s"),
        ("diagnostics.dyadic_gap_profile_s", "s"),
        ("diagnostics.hamiltonian_s", "s"),
        ("resonance.enumerate_nonresonant_s", "s"),
        ("resonance.triples", "count"),
        ("resonance.normal_form_boundary_s", "s"),
        ("cli.self_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
)


def _integrate_attrs(u0, T, spec, kind, sample_stride=1):
    return {"n_max": u0.n_max, "scheme": spec.scheme.value,
            "steps": round(T / spec.dt)}


def _span(name, **kw):
    return lambda tracer, fn: tracer.wrap(name, fn, **kw)


def _saved_bytes(_result, traj, path):
    return {"bytes": os.path.getsize(path)}


def _loaded_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _triples(result, *_args):
    return {"triples": len(result)}


def patches():
    """(owner, attribute, wrapper factory) for every traced entry point."""
    integrate = _span("dynamics.integrate", attrs=_integrate_attrs)
    return [
        (dynamics, "integrate", integrate),
        (experiments, "integrate", integrate),
        (gauge, "integrate", integrate),
        (cli, "integrate", integrate),
        (experiments, "run_approximation_study",
         _span("experiments.run_approximation_study")),
        (experiments, "run_perturbation_study",
         _span("experiments.run_perturbation_study")),
        (experiments, "run_squeeze_probe", _span("experiments.run_squeeze_probe")),
        (gauge, "gauge_equivalence_check", _span("gauge.gauge_equivalence_check")),
        (cli, "save_trajectory",
         _span("spectrum.save_trajectory", result_attrs=_saved_bytes)),
        (cli, "load_trajectory",
         _span("spectrum.load_trajectory", attrs=_loaded_bytes)),
        (diagnostics, "ysb_norm", _span("diagnostics.ysb_norm")),
        (diagnostics, "smoothing_gap", _span("diagnostics.smoothing_gap")),
        (diagnostics, "dyadic_gap_profile", _span("diagnostics.dyadic_gap_profile")),
        (diagnostics, "hamiltonian", _span("diagnostics.hamiltonian")),
        (resonance, "enumerate_nonresonant",
         _span("resonance.enumerate_nonresonant", result_attrs=_triples)),
        (resonance, "normal_form_boundary", _span("resonance.normal_form_boundary")),
        (cli, "main", _span("cli.main")),
        (FourierState, "__post_init__",
         lambda tracer, fn: tracer.count("spectrum.state_constructions", fn)),
    ]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced round (layers it never entered read 0)."""
    spans = tracer.spans
    own = self_times(spans)
    self_s, total_s = {}, {}
    for span, t in zip(spans, own):
        self_s[span.name] = self_s.get(span.name, 0.0) + t
        total_s[span.name] = total_s.get(span.name, 0.0) + span.duration

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    runs = [s for s in spans if s.name == "dynamics.integrate"]

    def step_us(scheme, n_max):
        sel = [s for s in runs if s.attrs["scheme"] == scheme and s.attrs["n_max"] == n_max]
        return _ratio(sum(s.duration for s in sel), sum(s.attrs["steps"] for s in sel), 1e6)

    saved = attr_sum("spectrum.save_trajectory", "bytes")
    loaded = attr_sum("spectrum.load_trajectory", "bytes")
    out = {"spectrum.state_constructions": tracer.counters["spectrum.state_constructions"]}
    for n in RK4_STEP_SIZES:
        out[f"dynamics.rk4_step_us.n{n}"] = step_us("exp_rk4", n)
    for n in STRANG_STEP_SIZES:
        out[f"dynamics.strang_step_us.n{n}"] = step_us("strang", n)
    out.update({
        "dynamics.integrate_calls": len(runs),
        "dynamics.steps": sum(s.attrs["steps"] for s in runs),
        "dynamics.mode_steps": sum(s.attrs["steps"] * (2 * s.attrs["n_max"] + 1)
                                   for s in runs),
        "dynamics.integrate_self_s": self_s.get("dynamics.integrate", 0.0),
        "dynamics.numeric_failures": sum(s.attrs.get("error") == "NumericFailure"
                                         for s in runs),
        "gauge.self_s": self_s.get("gauge.gauge_equivalence_check", 0.0),
        "experiments.self_s": sum(t for name, t in self_s.items()
                                  if name.startswith("experiments.")),
        "experiments.trajectories": sum(
            s.parent is not None and spans[s.parent].name.startswith("experiments.")
            for s in runs),
        "spectrum.save_trajectory_s": self_s.get("spectrum.save_trajectory", 0.0),
        "spectrum.load_trajectory_s": self_s.get("spectrum.load_trajectory", 0.0),
        "spectrum.traj_bytes": saved,
        "spectrum.save_mb_per_s": _ratio(
            saved, total_s.get("spectrum.save_trajectory", 0.0), 1e-6),
        "spectrum.load_mb_per_s": _ratio(
            loaded, total_s.get("spectrum.load_trajectory", 0.0), 1e-6),
        "diagnostics.ysb_norm_s": self_s.get("diagnostics.ysb_norm", 0.0),
        "diagnostics.smoothing_gap_s": self_s.get("diagnostics.smoothing_gap", 0.0),
        "diagnostics.dyadic_gap_profile_s": self_s.get("diagnostics.dyadic_gap_profile", 0.0),
        "diagnostics.hamiltonian_s": self_s.get("diagnostics.hamiltonian", 0.0),
        "resonance.enumerate_nonresonant_s": self_s.get("resonance.enumerate_nonresonant", 0.0),
        "resonance.triples": attr_sum("resonance.enumerate_nonresonant", "triples"),
        "resonance.normal_form_boundary_s": self_s.get("resonance.normal_form_boundary", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    })
    return out
