import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from funcobs import decide, witness
from funcobs.cli import main
from funcobs.corpus import bundled_names, bundled_text
from funcobs.exactlin import QMatrix, adjugate_solve
from funcobs.fileio import load_system_text, to_jsonable
from funcobs.polymat import POLY_ONE, Poly, PolyMatrix, smith_form
from funcobs.system import SystemSextuple
from funcobs.witness import (RationalFunction, RationalFunctionMatrix, classify,
                             decision_consistency, residual_is_zero, solve_over_field)

import support


def rf(num, den=(1,)):
    return RationalFunction(Poly(list(num)), Poly(list(den)))


class TestRationalFunction:
    def test_reduction_is_canonical(self):
        a = RationalFunction(Poly([2, 2]), Poly([0, 4]))       # (2s+2)/(4s)
        b = RationalFunction(Poly([1, 1]), Poly([0, 2]))
        assert a == b
        assert a.den.leading == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly([1]), Poly())


def _wide_polys(max_degree, nonzero=False):
    coeffs = st.lists(st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6])),
                      min_size=0, max_size=max_degree + 1).map(Poly)
    return coeffs.filter(lambda p: not p.is_zero()) if nonzero else coeffs


@st.composite
def _numerators_and_dens(draw):
    """A numerator, possibly zero, and a nonzero denominator, both of
    degree <= 3 with coefficients in -9..9 over 1, 2, 3, 4 or 6, and in
    some draws both times a common factor of degree <= 1."""
    num = draw(_wide_polys(3))
    den = draw(_wide_polys(3, nonzero=True))
    if draw(st.booleans()):
        f = draw(_wide_polys(1, nonzero=True))
        num, den = num * f, den * f
    return num, den


@st.composite
def _shared_rows(draw):
    """Rows of numerators over one denominator f g, f and g of degree
    <= 2 and possibly constant: each numerator is x c or x f c, with x of
    degree <= 3, possibly zero or constant, and a content c."""
    f, g = draw(_wide_polys(2, nonzero=True)), draw(_wide_polys(2, nonzero=True))

    def numerator():
        x = draw(_wide_polys(3)) * draw(st.sampled_from([POLY_ONE, f]))
        return x.scale(draw(st.sampled_from([1, -1, 6, 12, Fraction(5, 7)])))

    width = draw(st.integers(0, 3))
    return [[numerator() for _ in range(width)] for _ in range(draw(st.integers(1, 3)))], f * g


class TestSharedDenominator:
    """``witness._over_shared`` against the constructor, and the
    constructor against the ``Fraction`` normalization of
    ``support.ref_rational_function``."""

    @given(_numerators_and_dens())
    @example((Poly(), Poly([-3])))
    @example((Poly([4, 6]), Poly([6, 9])))
    @example((Poly([Fraction(1, 2), 1]), Poly([Fraction(1, 6), Fraction(5, 6), 1])))
    def test_constructor_matches_fraction_scaling(self, case):
        e = RationalFunction(*case)
        assert (e.num, e.den) == support.ref_rational_function(*case)

    @given(_shared_rows())
    # a constant denominator, with zero and constant numerators
    @example(([[Poly(), Poly([2]), Poly([1, 1])]], Poly([Fraction(-3, 2)])))
    # (s + 1)(3 - 2s): a negative leading coefficient, and numerators
    # with content, one of them sharing the factor s + 1
    @example(([[Poly([6, 6]), Poly([0, 12]), Poly([-5])], [Poly(), Poly([3, -2]), Poly([1])]],
              Poly([3, 1, -2])))
    # (s + 1/2)(s + 1/3) over 6, and a numerator sharing s + 1/2
    @example(([[Poly([2, 4]), Poly([1, 0, 1])]], Poly([Fraction(1, 6), Fraction(5, 6), 1])))
    def test_matches_the_constructor(self, case):
        rows, den = case
        want = tuple(tuple(RationalFunction(x, den) for x in row) for row in rows)
        assert witness._over_shared(rows, den) == want

    def test_only_entries_with_a_common_factor_take_the_gcd(self, monkeypatch):
        # (s + 1)(s + 2): s + 1 and 4 s (s + 1) share a factor with it, and
        # 1, s + 3 and 5 s^2 do not
        den = Poly([2, 3, 1])
        rows = [[Poly([1, 1]), Poly([1]), Poly([3, 1]), Poly()], [Poly([0, 4, 4]), Poly([0, 0, 5])]]
        calls, gcd = [], witness.poly_gcd
        monkeypatch.setattr(witness, "poly_gcd", lambda a, b: calls.append(a) or gcd(a, b))
        got = witness._over_shared(rows, den)
        assert calls == [Poly([1, 1]), Poly([0, 4, 4])]
        assert got == tuple(tuple(RationalFunction(x, den) for x in row) for row in rows)
        assert got[1][1].den is got[0][1].den

    def test_ladder_entries_take_no_gcd(self, monkeypatch):
        """No entry of a seed-1 ladder witness shares a factor with det P,
        and each is written with no ``poly_gcd``."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import plants
        calls, gcd = [], witness.poly_gcd
        monkeypatch.setattr(witness, "poly_gcd", lambda a, b: calls.append(a) or gcd(a, b))
        reports = [solve_over_field(SystemSextuple.from_lists(**doc))
                   for _, doc in plants.ladder_plants(1)]
        assert all(rep.residual_zero for rep in reports)
        assert sum(not e.is_zero() for rep in reports for row in rep.MN.data for e in row) > 100
        assert calls == []


class TestClassify:
    def test_constant_matrix(self):
        MN = RationalFunctionMatrix.from_rows([[rf((2,)), rf((0,))]])
        cls = classify(MN)
        assert cls.proper and cls.stable
        assert cls.pole_polynomial == POLY_ONE

    def test_proper_unstable(self):
        MN = RationalFunctionMatrix.from_rows([[rf((1,), (-1, 1))]])  # 1/(s-1)
        cls = classify(MN)
        assert cls.proper and not cls.stable

    def test_improper_stable(self):
        MN = RationalFunctionMatrix.from_rows([[rf((0, 0, 1), (1, 1))]])  # s^2/(s+1)
        cls = classify(MN)
        assert not cls.proper and cls.stable

    def test_invariant_under_entry_scaling(self):
        a = RationalFunctionMatrix.from_rows([[RationalFunction(Poly([2, 2]), Poly([2, 0, 2]))]])
        b = RationalFunctionMatrix.from_rows([[RationalFunction(Poly([1, 1]), Poly([1, 0, 1]))]])
        assert classify(a) == classify(b)


class TestSolveOverField:
    def test_copy_target_verifies(self, rng):
        for _ in range(10):
            sys = support.random_system(rng)
            same = sys.with_target(sys.C, sys.D)
            rep = solve_over_field(same)
            assert rep.solvable_over_field and rep.residual_zero

    def test_measured_input_proper_not_stable(self):
        rep = solve_over_field(support.measured_input())
        assert rep.solvable_over_field and rep.residual_zero
        assert rep.is_proper
        assert not rep.denominator_hurwitz.is_hurwitz
        assert rep.pole_denominator == Poly([0, 0, 1])  # s^2
        # the pencil is square nonsingular, so the solution is unique
        mn = rep.MN
        assert mn[0, 0] == rf((1,), (0, 1))
        assert mn[0, 1] == rf((1, -1), (0, 0, 1))
        assert mn[0, 2] == rf((1,), (0, 0, 1))

    def test_feedthrough_gap_unsolvable(self):
        rep = solve_over_field(support.feedthrough_gap())
        assert not rep.solvable_over_field
        assert rep.MN is None
        assert rep.inconsistent_column is not None

    def test_solvability_equals_rank_equality(self, rng):
        for _ in range(80):
            sys = support.random_system(rng)
            P, EF = support.pencils(sys)
            Pe = support.stack([[P], [EF]])
            rep = solve_over_field(sys)
            assert rep.solvable_over_field == (support.ref_normal_rank(P)
                                               == support.ref_normal_rank(Pe))
            if rep.solvable_over_field:
                assert rep.residual_zero

    def test_left_kernel_dimension(self):
        sys = support.integrator_chain()
        rep = solve_over_field(sys)
        P, _ = support.pencils(sys)
        assert rep.left_kernel_dim == P.rows - support.ref_normal_rank(P)


def _oracle_systems():
    rng = random.Random(20261018)
    systems = [build() for build in support.GOLDEN.values()]
    systems += [support.random_system(rng) for _ in range(30)]
    systems += [support.random_system(rng, max_nm=7, max_p=3, max_q=2) for _ in range(10)]
    return systems


def _maxdeg(M: PolyMatrix) -> int:
    return max((e.degree for row in M.data for e in row), default=0)


class TestWitnessOracle:
    """[M N] against W(s0) diag(1/d_j(s0)) U(s0) with W = [E F] V, evaluated
    exactly at points, without rational-function arithmetic."""

    def test_pointwise_agreement(self):
        solved = 0
        for sys in _oracle_systems():
            rep = solve_over_field(sys)
            if not rep.solvable_over_field:
                continue
            solved += 1
            P, _ = support.pencils(sys)
            dec = smith_form(P)
            d = dec.invariant_polys
            r = len(d)
            L = d[-1] if d else POLY_ONE
            EF = support.stack([[sys.E, sys.F]])
            entries = [e for row in rep.MN.data for e in row]
            num_deg = max((e.num.degree for e in entries), default=0)
            den_deg = max((e.den.degree for e in entries), default=0)
            # a/b and R/L (deg R <= deg V + deg L + deg U) agree as functions
            # once a L - b R vanishes at more points than its degree
            bound = max(num_deg + L.degree,
                        den_deg + _maxdeg(dec.V) + L.degree + _maxdeg(dec.U))
            checked, s0, at = 0, Fraction(0), support.poly_at
            while checked <= bound:
                s0 = -s0 + (s0 <= 0)  # 1, -1, 2, -2, ...
                if at(L, s0) == 0 or any(at(e.den, s0) == 0 for e in entries):
                    continue
                W0 = support.ref_qmatmul(EF, support.polymatrix_at(dec.V, s0))
                Y0 = QMatrix.from_rows(
                    [[W0[i, j] / at(d[j], s0) if j < r else 0 for j in range(P.rows)]
                     for i in range(sys.q)], cols=P.rows)
                assert support.ref_qmatmul(Y0, support.polymatrix_at(dec.U, s0)) == \
                    QMatrix.from_rows(support.rational_matrix_at(rep.MN, s0), cols=P.rows)
                checked += 1
        assert solved >= 10

    def test_residual_check_rejects_perturbed_entry(self):
        perturbed = 0
        for sys in _oracle_systems():
            rep = solve_over_field(sys)
            if not rep.solvable_over_field or sys.q == 0 or sys.n == 0:
                continue
            P, _ = support.pencils(sys)
            EF = PolyMatrix.from_rows(support.stack([[sys.E, sys.F]]).data, cols=P.cols)
            assert residual_is_zero(rep.MN, P, EF)
            # column 0 of [M N] multiplies the row [s - a_11, ...] of P, never zero
            e = rep.MN[0, 0]
            shift = Poly([7, 1])
            for bad in (RationalFunction(e.num + e.den, e.den),
                        RationalFunction(e.num * shift + e.den, e.den * shift)):
                rows = [list(row) for row in rep.MN.data]
                rows[0][0] = bad
                assert not residual_is_zero(RationalFunctionMatrix.from_rows(rows), P, EF)
            perturbed += 1
        assert perturbed >= 5


_coef = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def _residual_cases(draw):
    """(MN, P, EF), exact or with one entry of MN or EF moved.  Row r of P
    is f_r P0_r, with f_r a nonzero constant or s + c and P0 of degree
    <= 1, so P has degree 2; entry (k, r) of MN is x_kr / f_r, so a row
    has several distinct denominators, and EF = X P0.  Rows of X may be
    zero, and q may be 0."""
    rows, cols, q = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))

    def poly(degree):
        return Poly([draw(_coef) for _ in range(degree + 1)])

    f = [Poly([draw(_coef), 1]) if draw(st.booleans())
         else Poly([draw(st.sampled_from([-2, 1, Fraction(1, 3)]))]) for _ in range(rows)]
    P0 = PolyMatrix.from_rows([[poly(1) for _ in range(cols)] for _ in range(rows)], cols=cols)
    X = PolyMatrix.from_rows([[Poly() if zero else poly(1) for _ in range(rows)]
                              for zero in (draw(st.booleans()) for _ in range(q))], cols=rows)
    P = PolyMatrix.from_rows([[f[r] * e for e in P0.data[r]] for r in range(rows)], cols=cols)
    MN = [[RationalFunction(x, d) for x, d in zip(row, f)] for row in X.data]
    EF = [list(row) for row in support.ref_polymatmul(X, P0).data]
    move = draw(st.sampled_from(["none", "mn", "ef"])) if q else "none"
    if move == "mn":
        k, r = draw(st.integers(0, q - 1)), draw(st.integers(0, rows - 1))
        e, (num, den) = MN[k][r], (poly(1), Poly([draw(_coef), 1]))
        MN[k][r] = RationalFunction(e.num * den + num * e.den, e.den * den)
    elif move == "ef":
        k, j = draw(st.integers(0, q - 1)), draw(st.integers(0, cols - 1))
        EF[k][j] = EF[k][j] + poly(2)
    return (RationalFunctionMatrix.from_rows(MN, cols=rows), P,
            PolyMatrix.from_rows(EF, cols=cols), move)


class TestResidual:
    """The check at one point against ``support.ref_residual_is_zero``,
    which multiplies each row's numerators over its denominator lcm."""

    @given(_residual_cases())
    def test_matches_polymatrix_product(self, case):
        MN, P, EF, move = case
        got = residual_is_zero(MN, P, EF)
        assert got == support.ref_residual_is_zero(MN, P, EF)
        if move == "none":
            assert got

    @pytest.mark.parametrize("k", range(4))
    def test_integer_roots_are_no_zeros(self, k):
        # MN @ P - EF is s - k - c, the second time through a denominator:
        # its root k + c walks through every integer below the point that
        # a weaker bound would pick
        s1 = Poly([1, 1])
        for c in range(12):
            for MN, P in ((rf((1,)), Poly([-k, 1])), (rf((1,), (1, 1)), Poly([-k, 1]) * s1)):
                assert not residual_is_zero(RationalFunctionMatrix.from_rows([[MN]]),
                                            PolyMatrix.from_rows([[P]]),
                                            PolyMatrix.from_rows([[c]]))

    def test_zero_width_plant(self):
        # n + p = 0: MN has no columns, so the residual is -EF
        P = PolyMatrix(0, 2, ())
        MN = RationalFunctionMatrix(1, 0, ((),))
        assert residual_is_zero(MN, P, PolyMatrix.from_rows([[0, 0]], cols=2))
        assert not residual_is_zero(MN, P, PolyMatrix.from_rows([[0, 1]], cols=2))

    def test_shape_mismatch_rejected(self):
        P = PolyMatrix.from_rows([[1, 0], [0, 1]], cols=2)
        with pytest.raises(ValueError):
            residual_is_zero(RationalFunctionMatrix.from_rows([[rf((1,))]]), P, P)


class TestDecisionConsistency:
    def test_golden_systems(self):
        for build in support.GOLDEN.values():
            assert decision_consistency(build())

    def test_strongly_implies_solvable(self, rng):
        for _ in range(40):
            sys = support.random_system(rng)
            if decide.strongly_functional_detectable(sys).holds:
                rep = solve_over_field(sys)
                assert rep.solvable_over_field and rep.residual_zero

    def test_random_batch(self, rng):
        for _ in range(40):
            assert decision_consistency(support.random_system(rng))


class TestSharedForms:
    """The witness reads the plant through ``decide.PlantForms``, as the
    decisions do: forms passed in give the same witness as the bare plant,
    and keep the S_e it read."""

    @staticmethod
    def _plants():
        plants = [load_system_text(bundled_text(name))[0] for name in bundled_names()]
        plants += [SystemSextuple.from_lists(**support.seeded_n6_lists(p))
                   for p in (1, 2, 3)]
        plants += [support.reanchor_plant(6),
                   SystemSextuple.from_lists(**support.rational_blocks_lists())]
        return plants

    def test_forms_give_the_bare_plants_witness(self):
        for plant in self._plants():
            forms = decide.PlantForms(plant)
            assert to_jsonable(solve_over_field(forms)) == to_jsonable(solve_over_field(plant))
            assert "system_matrix_e" in forms.__dict__

    def test_witness_command_reads_the_plant_once(self, monkeypatch, tmp_path, capsys):
        read = decide.PlantForms.system_matrix_e.func
        calls = []

        def counted(forms):
            calls.append(forms)
            return read(forms)

        monkeypatch.setattr(decide.PlantForms.system_matrix_e, "func", counted)
        rational = tmp_path / "rational_blocks.json"
        rational.write_text(json.dumps(support.rational_blocks_lists()))
        for name in [*bundled_names(), str(rational)]:
            calls.clear()
            main(["witness", name, "--out", str(tmp_path / "out.json")])
            assert len(calls) == 1, name
        capsys.readouterr()


def _fields(rep) -> dict:
    return rep._asdict()


def _ref_adjugate_solve(rows):
    """det M by cofactor expansion and adj(M) R = det M * M^-1 R by
    Gauss-Jordan over Fraction on [M | R]."""
    n = len(rows)
    M = PolyMatrix.from_rows([[Poly([x]) for x in row[:n]] for row in rows], cols=n)
    det = support.cofactor_det(M)
    det = det.leading if not det.is_zero() else 0
    if not det:
        return 0, []
    reduced, _ = support.ref_rref([[Fraction(x) for x in row] for row in rows])
    return det, [[det * x for x in row[n:]] for row in reduced]


@st.composite
def _augmented(draw):
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    return [[draw(st.integers(-3, 3)) for _ in range(n + k)] for _ in range(n)]


class TestAdjugateSolve:
    @given(_augmented())
    def test_matches_gauss_jordan(self, rows):
        assert adjugate_solve(rows) == _ref_adjugate_solve(rows)

    @pytest.mark.parametrize("rows,det,sol", [
        # N = 0: the empty determinant is 1
        ([], 1, []),
        # a zero leading entry: one row swap, det -1
        ([[0, 1, 5], [1, 0, 7]], -1, [[-7], [-5]]),
        # the swap comes at the second pivot
        ([[1, 2, 3, 1], [2, 4, 7, 0], [0, 1, 1, 2]], -1, [[1], [-4], [2]]),
        # singular: the last pivot vanishes
        ([[1, 2, 1], [2, 4, 3]], 0, []),
        # no right-hand side
        ([[2, 1], [1, 1]], 1, [[], []])])
    def test_named_cases(self, rows, det, sol):
        assert adjugate_solve(rows) == (det, sol) == _ref_adjugate_solve(rows)


@st.composite
def _square_plants(draw):
    """Plants with p = m, n in 0..5, m and q in 0..2 and rational entries;
    in some, rows of A and B that make 0, 1, 2 uncontrollable modes, zeros
    of det P at the first points the solve tries."""
    sys = draw(support.plants(5, 2, square=True, rational=True))
    A = [list(row) for row in sys.A.data]
    B = [list(row) for row in sys.B.data]
    for i in range(min(draw(st.integers(0, 3)), sys.n)):
        A[i] = [Fraction(i) if j == i else Fraction(0) for j in range(sys.n)]
        B[i] = [Fraction(0)] * sys.m
    return SystemSextuple.from_lists(A=A, B=B, C=sys.C.data, D=sys.D.data, E=sys.E.data,
                                     F=sys.F.data, m=sys.m)


@st.composite
def _wide_square_plants(draw):
    """Plants with p = m, n in 0..4 (n + m > 0), m and q in 0..2, and
    entries that are small integers, fractions over 1..6 or integers up to
    +-10^6; in some, B and D are zero in the first input column, so P is
    singular."""
    m, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    n = draw(st.integers(0 if m else 1, 4))
    entry = st.one_of(st.integers(-2, 2), st.integers(-10 ** 6, 10 ** 6),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    B, D = block(n, m), block(m, m)
    if m and draw(st.booleans()):
        for row in B + D:
            row[0] = 0
    return SystemSextuple.from_lists(A=block(n, n), B=B, C=block(m, n), D=D, E=block(q, n),
                                     F=block(q, m), m=m)


def _det_p(sys) -> Poly:
    return support.ref_determinant(support.pencils(sys)[0])


_UNIQUE_CASES = {
    # det P = s (s - 1)(s - 2): the oracle's point solves skip s = 0, 1, 2
    "skipped_points": SystemSextuple.from_lists(
        A=[[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [1, 1, 1, -1]],
        B=[[0], [0], [0], [1]], C=[[1, 1, 1, 1]], D=[[0]], E=[[1, 0, 0, 1]], F=[[1]]),
    "rational": SystemSextuple.from_lists(
        A=[[Fraction(1, 2), 1], [0, Fraction(-1, 3)]], B=[[1], [Fraction(2, 3)]],
        C=[[1, Fraction(3, 4)]], D=[[Fraction(1, 5)]], E=[[Fraction(1, 7), 2]],
        F=[[Fraction(-1, 2)]]),
    "n_zero": SystemSextuple.from_lists(A=[], D=[[1, 2], [3, 4]], F=[[1, 1]]),
    "q_zero": SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[0]]),
}

_FALLBACK_CASES = {
    # B = 0 and D = 0: the input column of P is zero
    "square_singular": SystemSextuple.from_lists(A=[[1, 0], [0, -1]], B=[[0], [0]],
                                                 C=[[1, 1]], D=[[0]], E=[[1, 0]], F=[[1]]),
    "square_singular_n_zero": SystemSextuple.from_lists(A=[], D=[[1, 2], [2, 4]], F=[[1, 1]]),
    "p_ne_m": support.stable_pair(),
    "p_ne_m_unsolvable": support.feedthrough_gap(),
    "n_plus_m_zero": SystemSextuple.from_lists(A=[], m=0),
}


_RATIONALS = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))


def _polys(max_degree):
    return st.lists(_RATIONALS, min_size=1, max_size=max_degree + 1).map(Poly)


@st.composite
def _square_pencils(draw):
    """A square P of size 1..4 with entries of degree <= 2 and an EF of
    0..3 rows with entries of degree <= 1, rational coefficients in -2..2
    over 1, 2 or 3; a drawn flag makes P's last row a multiple of its
    first, so singular P come up too."""
    N, q = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    rows = [[draw(_polys(2)) for _ in range(N)] for _ in range(N)]
    if N > 1 and draw(st.booleans()):
        c = draw(_RATIONALS)
        rows[-1] = [c * e for e in rows[0]]
    EF = [[draw(_polys(1)) for _ in range(N)] for _ in range(q)]
    return PolyMatrix.from_rows(rows), PolyMatrix(q, N, tuple(map(tuple, EF)))


class TestUniqueSolution:
    """The solve at one point against the Smith route,
    ``support.ref_witness``, field by field, and against the n + 1 point
    solves of ``support.ref_unique_solution``: in the unique case their
    reduced entries agree."""

    @given(_square_pencils())
    def test_solves_any_square_pencil(self, pencil):
        """P of any degree: no solution exactly when P is singular, that is
        when its Smith form has fewer than N invariants; else the solution
        verifies against the oracle's residual."""
        P, EF = pencil
        MN = witness._unique_solution(P, EF)
        assert (MN is None) == (len(smith_form(P).invariant_polys) < P.rows)
        if MN is not None:
            assert support.ref_residual_is_zero(MN, P, EF)

    @pytest.mark.parametrize("p_shape", [(2, 2), (2, 3)], ids=["ef_wider", "p_not_square"])
    def test_shape_mismatch(self, p_shape):
        with pytest.raises(ValueError, match="solve shapes differ"):
            witness._unique_solution(PolyMatrix.zeros(*p_shape), PolyMatrix.zeros(1, 3))

    @given(_wide_square_plants())
    @example(_UNIQUE_CASES["n_zero"])
    @example(_UNIQUE_CASES["q_zero"])
    @example(_FALLBACK_CASES["square_singular"])
    @example(_FALLBACK_CASES["square_singular_n_zero"])
    @example(SystemSextuple.from_lists(A=[], D=[[-10 ** 6]], F=[[10 ** 6 - 1]]))
    def test_matches_point_solves(self, sys):
        assert (witness._unique_solution(*support.pencils(sys))
                == support.ref_unique_solution(sys))

    @given(_square_plants())
    def test_matches_smith_route(self, sys):
        assert _fields(solve_over_field(sys)) == _fields(support.ref_witness(sys))

    @pytest.mark.parametrize("name", sorted(_UNIQUE_CASES))
    def test_unique_cases(self, name):
        sys = _UNIQUE_CASES[name]
        assert witness._unique_solution(*support.pencils(sys)) is not None
        rep = solve_over_field(sys)
        assert rep.residual_zero
        assert _fields(rep) == _fields(support.ref_witness(sys))

    def test_skipped_points_are_zeros_of_det_p(self):
        det = _det_p(_UNIQUE_CASES["skipped_points"])
        assert det == Poly([0, 2, -3, 1])

    @pytest.mark.parametrize("name", sorted(_FALLBACK_CASES))
    def test_fallback_cases(self, name):
        sys = _FALLBACK_CASES[name]
        if sys.p == sys.m and sys.n + sys.m:
            assert _det_p(sys).is_zero()
            assert witness._unique_solution(*support.pencils(sys)) is None
        assert _fields(solve_over_field(sys)) == _fields(support.ref_witness(sys))

    def test_reanchor_10_matches_smith_route(self):
        sys = support.reanchor_plant(10)
        assert witness._unique_solution(*support.pencils(sys)) is not None
        assert _fields(solve_over_field(sys)) == _fields(support.ref_witness(sys))

    def test_reanchor_20(self):
        # the Smith route takes tens of seconds here: check the residual
        # and the contract with strong detectability instead
        sys = support.reanchor_plant(20)
        forms = decide.PlantForms(sys)
        rep = solve_over_field(sys)
        assert rep.solvable_over_field and rep.residual_zero
        assert rep.left_kernel_dim == 0
        assert decide.strongly_functional_detectable(forms).holds == \
            rep.denominator_hurwitz.is_hurwitz
