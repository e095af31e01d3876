"""The Python block of README's quick start runs as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(code, f"{README.name}: Quick start", "exec"), ns)
    samples = len(ns["traj"])
    assert ns["amps"].shape == (samples, 17)
    assert ns["gauged"].shape == (samples, 17)
    assert ns["mass_drift"].shape == ns["energy_drift"].shape == (samples,)
    assert ns["samples"].shape == (samples, 2, 17)
    assert ns["masses"].shape == (samples, 2)
    assert np.all(np.abs(ns["mass_drift"]) < 1e-10)
    assert ns["gap"] < 1e-8
