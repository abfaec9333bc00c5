"""The benchmark tracer still installs on the package.

``perfbench/tracer.py`` wraps the public functions of the traced modules
and looks up ``QMatrix.rank``/``rref`` and ``Subspace.intersect``/``sum`` in
each class's ``__dict__``.  Removing or renaming one of those methods makes
``install`` fail here, in the test suite, rather than in a traced benchmark
run.
"""

from pathlib import Path

from funcobs import decide
from funcobs.exactlin import QMatrix, Subspace

import support

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_decision_keeps_its_verdict(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    classes = {"QMatrix": QMatrix, "Subspace": Subspace}
    originals = {(c, m): classes[c].__dict__[m] for _, c, m in tracer.TRACED_METHODS}
    t = tracer.Tracer()
    t.install()
    try:
        assert not decide.strong_star_functional_detectable(support.integrator_chain()).holds
        assert decide.strong_star_functional_detectable(support.stable_pair()).holds
    finally:
        t.uninstall()
    spans = t.summary()
    assert spans["decide.strong_star_functional_detectable"]["calls"] == 2
    assert spans["geometry.strong_star_inclusion"]["calls"] == 2
    assert spans["exactlin.Subspace.intersect"]["calls"] > 0
    assert all(classes[c].__dict__[m] is fn for (c, m), fn in originals.items())
