"""The benchmark's answer checks hold on a slice of every workload.

``perfbench/workloads.py`` checks each answer it times against an
independent route: bundled ``expected`` blocks, the Toeplitz kernels, the
normal ranks, closed-form simulation errors.  Running every op of the first
``small_batch`` and ``ladder`` plant and one whole ``simulate`` pass here
makes a broken benchmarked API or a wrong answer fail the test suite, not
only a benchmark run.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


NAMES = ["small_batch", "ladder", "simulate"]


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_answers_pass_the_benchmark_checks(workloads, name):
    wl = workloads.WORKLOADS[name](1)
    ops = wl.ops()
    if name != "simulate":
        label = wl.plants[0][0]
        wanted = {f"{label}.{proc}" for proc in wl.procedures}
        ops = [op for op in ops if op.name in wanted]
        assert len(ops) == len(wanted)
    results = {op.name: op.fn() for op in ops}  # in order: fading.build comes first
    assert wl.check(results) == {}
    assert wl.digest_items(results)
