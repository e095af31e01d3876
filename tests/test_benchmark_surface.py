"""The benchmark in perfbench/ calls fournls through its public functions.
Each workload runs once here at tiny size under the tracer's patches, so a
change that breaks a call the benchmark makes fails in this suite too, and
once at full size against the stored reference outputs, so a change that
moves an output past the refactor rule fails here too.
Only reads perfbench/."""
import json
import math
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

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


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_full_size_outputs_match_the_reference(name, tmp_path):
    # the benchmark's own seed-0 check: |got - ref| <= 1e-14 * max(1, |ref|)
    workload = workloads.build(name, workloads.REFERENCE_SEED, "full", str(tmp_path))
    summaries = {job: workload.summary(job, workload.run(job)) for job in workload.jobs}
    assert workload.check(summaries) == []
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)["full"][name]
    assert workloads.compare_reference(workload.reference_values(summaries), reference) == []
