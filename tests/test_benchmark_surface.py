"""The benchmark in perfbench/ calls fournls through its public functions.
Each workload runs once here at tiny size under the tracer's patches, so a
change that breaks a call the benchmark makes fails in this suite too.
Only reads perfbench/."""
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_and_checks_clean(name, tmp_path):
    workload = workloads.build(name, 0, "tiny", str(tmp_path))
    with tracing.Tracer().installed(layers.patches()):
        summaries = {job: workload.summary(job, workload.run(job)) for job in workload.jobs}
        assert workload.check(summaries) == []
        values = workload.reference_values(summaries)
    assert values and all(math.isfinite(v) for v in values.values())
