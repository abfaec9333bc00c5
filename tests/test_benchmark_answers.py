"""The benchmark's answer checks hold on a slice of every workload, and
its verdict digests match the recorded ones.

``perfbench/workloads.py`` checks each answer it times against an
independent route: bundled ``expected`` blocks, the Toeplitz kernels, the
normal ranks, closed-form simulation errors.  Running every op of the first
``small_batch`` and ``ladder`` plant and one whole ``simulate`` pass here
makes a broken benchmarked API or a wrong answer fail the test suite, not
only a benchmark run.  The digests of every ``small_batch`` and ``ladder``
pass of seeds 0-10, and of the ``simulate`` pass, which no seed changes,
must equal ``perfbench/digests.json``: a change that moves any
certificate the digests cover fails here.
"""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


@pytest.fixture
def verdict_digest(workloads):
    from run import verdict_digest
    return verdict_digest


NAMES = ["small_batch", "ladder", "simulate"]


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_answers_pass_the_benchmark_checks(workloads, verdict_digest, name):
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
    if name == "simulate":
        assert verdict_digest(wl.digest_items(results)) == RECORDED[name]["1"]


@pytest.mark.parametrize("seed", range(11))
@pytest.mark.parametrize("name", ["small_batch", "ladder"])
def test_verdict_digest_matches_the_recorded_one(workloads, verdict_digest, name, seed):
    wl = workloads.WORKLOADS[name](seed)
    results = {op.name: op.fn() for op in wl.ops()}
    assert verdict_digest(wl.digest_items(results)) == RECORDED[name][str(seed)]
