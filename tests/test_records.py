"""The records of the exact path: every verdict, certificate and report,
and the plant, is a ``NamedTuple``.  Each is immutable, written by
``to_jsonable`` as an object keyed by its fields in declaration order, and
hashed like any equal record; the plant checks its shape on every way of
building one."""

import pickle

import pytest

from funcobs import decide, geometry, markov, polymat, stability, witness
from funcobs.corpus import bundled_names, bundled_text
from funcobs.exactlin import QMatrix
from funcobs.fileio import load_system_text, to_jsonable
from funcobs.system import SystemSextuple

RECORDS = [
    decide.Verdict, decide.DetectabilityCertificate, decide.KnownInputCertificate,
    decide.StrongStarCertificate, decide.HautusCertificate, decide.KernelInclusionCertificate,
    decide.HautusStarCertificate, decide.LeftInvertibilityCertificate,
    decide.LeftInvertibilityStarCertificate, decide.RankEqualityCertificate,
    decide.DarouachCertificate, geometry.InclusionCertificate, markov.KernelInclusionReport,
    polymat.SmithDecomposition, stability.HurwitzReport, stability.AntistableComparison,
    witness.Classification, witness.WitnessReport, SystemSextuple,
]

DECISIONS = [decide.functional_detectable, decide.strongly_functional_detectable,
             decide.strong_star_functional_detectable, decide.hautus_strong_detectable,
             decide.hautus_strong_star_detectable, decide.asympt_strong_left_invertible,
             decide.asympt_strong_star_left_invertible, decide.darouach_fixed_order]


def _outputs(name: str) -> list:
    """A freshly read bundled plant and everything the exact path reports on it."""
    plant = load_system_text(bundled_text(name))[0]
    forms = decide.PlantForms(plant)
    rep = witness.solve_over_field(forms)
    P = polymat.pencil(forms.system_matrix, plant.n)
    return [plant, *(fn(plant) for fn in DECISIONS), rep,
            markov.kernel_inclusion_upto(plant, plant.n + plant.m),
            polymat.smith_form(P)] + ([witness.classify(rep.MN)] if rep.MN is not None else [])


def _records(obj, found: list) -> list:
    """Every record inside ``obj``, depth first, in field order."""
    if hasattr(obj, "_fields"):
        found.append(obj)
    if isinstance(obj, (list, tuple)):
        for item in obj:
            _records(item, found)
    return found


@pytest.fixture(scope="module")
def twice() -> list[tuple]:
    """Pairs of equal records built independently: each bundled plant's
    outputs, computed twice."""
    pairs = []
    for name in bundled_names():
        pairs += zip(_records(_outputs(name), []), _records(_outputs(name), []))
    return pairs


def _examples(twice: list[tuple], cls) -> list[tuple]:
    pairs = [pair for pair in twice if type(pair[0]) is cls]
    assert pairs, f"no {cls.__name__} in the outputs of the bundled plants"
    return pairs


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecord:
    def test_fields_are_read_only(self, twice, cls):
        record = _examples(twice, cls)[0][0]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_jsonable_keys_follow_the_declaration(self, twice, cls):
        for record, _ in _examples(twice, cls):
            doc = to_jsonable(record)
            assert isinstance(doc, dict) and list(doc) == list(cls._fields)

    def test_equal_records_hash_equal(self, twice, cls):
        for a, b in _examples(twice, cls):
            assert a is not b and a == b and hash(a) == hash(b)


def _plant() -> SystemSextuple:
    """n = 2, m = 1, p = 1, q = 1."""
    return SystemSextuple.from_lists(A=[[0, 1], [-2, -3]], B=[[0], [1]], C=[[1, 0]], D=[[0]],
                                     E=[[0, 1]], F=[[1]])


# one block for each of the eight shape checks, and the field it names
MISMATCHES = [("A", QMatrix.zeros(2, 3)), ("B", QMatrix.zeros(3, 1)), ("C", QMatrix.zeros(1, 3)),
              ("D", QMatrix.zeros(2, 1)), ("D", QMatrix.zeros(1, 2)), ("E", QMatrix.zeros(1, 3)),
              ("F", QMatrix.zeros(2, 1)), ("F", QMatrix.zeros(1, 2))]


@pytest.mark.parametrize("field,block", MISMATCHES,
                         ids=[f"{f}{b.rows}x{b.cols}" for f, b in MISMATCHES])
class TestPlantShape:
    def test_constructor(self, field, block):
        with pytest.raises(ValueError, match=f"'{field}'"):
            SystemSextuple(**{**_plant()._asdict(), field: block})

    def test_replace(self, field, block):
        with pytest.raises(ValueError, match=f"'{field}'"):
            _plant()._replace(**{field: block})

    def test_make(self, field, block):
        blocks = {**_plant()._asdict(), field: block}
        with pytest.raises(ValueError, match=f"'{field}'"):
            SystemSextuple._make(blocks.values())


def test_plant_round_trips():
    plant = _plant()
    assert SystemSextuple._make(plant) == plant == pickle.loads(pickle.dumps(plant))
    assert type(plant._replace(F=QMatrix.zeros(1, 1))) is SystemSextuple
