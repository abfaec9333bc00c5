import ast
import copy
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from funcobs import decide, geometry
from funcobs.corpus import bundled_names, bundled_text
from funcobs.exactlin import IntegerMatrix, QMatrix, Subspace, kernel_basis
from funcobs.fileio import load_system_text
from funcobs.geometry import rank_and_zeros, strong_star_inclusion, vstar
from funcobs.markov import kernel_inclusion_upto
from funcobs.polymat import Poly
from funcobs.system import SystemSextuple

import support
from support import vstar_fields as fields


def frac(x):
    return Fraction(x)


def system_matrix(*grid):
    """The integer system matrix that ``vstar`` and its kin take, stacked
    from grid rows of ``QMatrix`` blocks: ``system_matrix([A, B], [C, D])``
    is S = [A B; C D], and ``system_matrix([A], [C])`` is [A; C]."""
    return IntegerMatrix.of(support.stack(grid))


def inclusion(sys):
    """``strong_star_inclusion`` on the plant's system matrix and [E F]."""
    return strong_star_inclusion(system_matrix([sys.A, sys.B], [sys.C, sys.D]),
                                 system_matrix([sys.E, sys.F]), sys.n)


class TestReachableWithin:
    """The chain-reachable pairs that ``strong_star_inclusion`` reports."""

    def test_integrator_chain(self):
        cert = inclusion(support.integrator_chain())
        assert cert.reachable == Subspace.span(3, [[0, 0, 1]])

    def test_no_input_gives_zero(self):
        cert = inclusion(support.stable_pair())
        assert cert.reachable.dim == 0


def observed(A, C):
    """``vstar`` of [A; C], with no input columns: the rows of the
    unobservable subspace's annihilator, with their step count."""
    v = vstar(system_matrix([A], [C]), A.rows)
    assert fields(v) == support.ref_vstar_restacked(A, QMatrix.zeros(A.rows, 0), C,
                                                    QMatrix.zeros(C.rows, 0))
    return v.rows, v.steps


class TestObservedRows:
    def test_matches_full_observability_matrix(self, rng):
        # the rows of [C; CA; ...; CA^(n-1)], all n blocks, spanned at once
        for _ in range(60):
            n, p = rng.randint(0, 5), rng.randint(0, 2)
            A = support.random_qmatrix(rng, n, n, -1, 1)
            C = support.random_qmatrix(rng, p, n, -1, 1)
            blocks, block = [], C
            for _ in range(n):
                blocks.append(block)
                block = support.ref_qmatmul(block, A)
            rows = [list(r) for b in blocks for r in b.data]
            assert observed(A, C)[0] == Subspace.span(n, rows)

    def test_chain_grows_one_row_per_block(self):
        A = QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert observed(A, QMatrix.from_rows([[1, 0, 0]])) == (support.full_subspace(3), 3)
        assert observed(A, QMatrix.from_rows([[0, 0, 1]])) == (Subspace.span(3, [[0, 0, 1]]), 1)
        assert observed(A, QMatrix.zeros(0, 3)) == (support.zero_subspace(3), 0)

    def test_seed_is_grown_from(self, rng):
        # (A, [C; E])'s rows grown from (A, C)'s equal those grown from nothing
        for _ in range(40):
            sys = support.random_system(rng)
            AC, ACE = system_matrix([sys.A], [sys.C]), system_matrix([sys.A], [sys.C], [sys.E])
            seeded = vstar(ACE, sys.n, vstar(AC, sys.n))
            assert seeded.rows == vstar(ACE, sys.n).rows
        # a shift chain read in the middle: E adds the head, one step on
        # from the seed and two from nothing
        A = QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        AC = system_matrix([A], [QMatrix.from_rows([[0, 1, 0]])])
        ACE = system_matrix([A], [QMatrix.from_rows([[0, 1, 0], [1, 0, 0]])])
        seeded = vstar(ACE, 3, vstar(AC, 3))
        assert (seeded.rows, seeded.steps) == (support.full_subspace(3), 1)
        assert vstar(ACE, 3).steps == 2

    def test_dual_pair_decides_controllability(self, rng):
        for _ in range(40):
            sys = support.random_system(rng)
            got = observed(support.transpose(sys.A), support.transpose(sys.B))[0].dim == sys.n
            assert got == support.ref_controllable(sys)


class TestVStar:
    # n in 0..4, m, p, q in 0..3
    @given(support.plants(4, 3))
    @example(SystemSextuple.from_lists(A=[], D=[[1, 0]], F=[[0, 1]]))
    # the input holds y = x_1 at zero by cancelling x_2: V* = span(e_2)
    @example(SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[1], [0]], C=[[1, 0]], D=[[0]]))
    def test_matches_textbook_recursion(self, sys):
        v = vstar(system_matrix([sys.A, sys.B], [sys.C, sys.D]), sys.n)
        V = kernel_basis(IntegerMatrix.of(QMatrix(v.rows.dim, sys.n, v.rows.rows)))
        assert V == support.ref_vstar(sys)
        # the friend holds V* and its output at zero
        friend = support.vstar_friend(v)
        closed = support.ref_add(sys.A, support.ref_qmatmul(sys.B, friend))
        feed = support.ref_add(sys.C, support.ref_qmatmul(sys.D, friend))
        for x in V.rows:
            x = support.column_vector(x)
            assert support.contains(V, support.columns(support.ref_qmatmul(closed, x))[0])
            assert support.is_zero(support.ref_qmatmul(feed, x))
        # the canonical rows of [Y*B; D]
        YB = support.ref_qmatmul(QMatrix(v.rows.dim, sys.n, v.rows.rows), sys.B)
        rows, pivots = support.ref_rref([list(r) for r in YB.data + sys.D.data])
        assert support.vstar_input_rows(v) == support.ref_subspace(sys.m, rows[:len(pivots)])

    @given(st.one_of(support.plants(4, 3), support.plants(4, 3, rational=True)))
    @example(SystemSextuple.from_lists(A=[], D=[[1, 0]], F=[[0, 1]]))
    @example(SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[1], [0]], C=[[1, 0]], D=[[0]]))
    # E adds the head of a shift chain that C reads in the middle
    @example(SystemSextuple.from_lists(A=[[0, 1, 0], [0, 0, 1], [0, 0, 0]], C=[[0, 1, 0]],
                                       E=[[1, 0, 0]], m=0))
    def test_matches_whole_stack_loop(self, sys):
        """The kept echelon gives what re-eliminating the whole stack at
        every step gives: rows, steps, friend and input rows, for plain
        calls, for the dual plant's (whose system matrix is S^T), for P_e's
        call grown from P's and for an m = 0 call grown from (A, C)'s,
        against the loop seeded with their rows.  A grown call reads S_e's
        rows and leaves the ``VStar`` it grew from as it was."""
        n = sys.n
        S = system_matrix([sys.A, sys.B], [sys.C, sys.D])
        dual = tuple(map(support.transpose, (sys.A, sys.C, sys.B, sys.D)))
        assert fields(vstar(S.transpose(), n)) == support.ref_vstar_restacked(*dual)
        CE, DF = support.stack([[sys.C], [sys.E]]), support.stack([[sys.D], [sys.F]])
        none = QMatrix.zeros(n, 0)
        for M, Me, B, D, tail in (
                (S, system_matrix([sys.A, sys.B], [sys.C, sys.D], [sys.E, sys.F]), sys.B,
                 sys.D, DF),
                (system_matrix([sys.A], [sys.C]), system_matrix([sys.A], [sys.C], [sys.E]), none,
                 QMatrix.zeros(sys.p, 0), QMatrix.zeros(CE.rows, 0))):
            seed = vstar(M, n)
            assert fields(seed) == support.ref_vstar_restacked(sys.A, B, sys.C, D)
            before = (copy.deepcopy(seed.echelon), *seed[1:])
            grown = vstar(Me, n, seed)
            assert fields(grown) == support.ref_vstar_restacked(sys.A, B, CE, tail, seed.rows)
            assert (seed.echelon, *seed[1:]) == before
            assert (seed.read, grown.read) == (M.rows, Me.rows)

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_matches_whole_stack_loop_on_ladder_plants(self, n):
        sys = support.reanchor_plant(n)
        CE, DF = support.stack([[sys.C], [sys.E]]), support.stack([[sys.D], [sys.F]])
        plain = vstar(system_matrix([sys.A, sys.B], [sys.C, sys.D]), n)
        assert fields(plain) == support.ref_vstar_restacked(sys.A, sys.B, sys.C, sys.D)
        Se = system_matrix([sys.A, sys.B], [sys.C, sys.D], [sys.E, sys.F])
        assert (fields(vstar(Se, n, plain))
                == support.ref_vstar_restacked(sys.A, sys.B, CE, DF, plain.rows))

    def test_seed_is_grown_from(self):
        # P_e's V* grown from P's equals the one grown from nothing
        sys = support.integrator_chain()
        Se = system_matrix([sys.A, sys.B], [sys.C, sys.D], [sys.E, sys.F])
        v = vstar(system_matrix([sys.A, sys.B], [sys.C, sys.D]), sys.n)
        seeded, fresh = vstar(Se, sys.n, v), vstar(Se, sys.n)
        assert seeded.rows == fresh.rows
        assert support.vstar_input_rows(seeded) == support.vstar_input_rows(fresh)
        assert seeded.steps < fresh.steps

    def test_steps_at_index_one(self):
        # a benchmark tracer adds result[1] of every vstar call to its count
        v = vstar(system_matrix([QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])],
                                [QMatrix.from_rows([[1, 0, 0]])]), 3)
        assert v[1] == v.steps == 3


# plants that reach each branch of rank_and_zeros
_BRANCHES = {
    "n0": SystemSextuple.from_lists(A=[], D=[[1, 0]], F=[[0, 1]]),
    "m0": SystemSextuple.from_lists(A=[[1, 2], [0, 3]], C=[[1, 0]], E=[[0, 1]], m=0),
    # p < m: Ker [Y*B; D] != 0, so the zeros come through R*
    "r_star": SystemSextuple.from_lists(**support.seeded_n6_lists(1)),
    # no output: V* = Q^2, and the chain is reachable from u, so R* = V*
    "r_star_is_v_star": SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[0], [1]],
                                                  C=[[0, 0]], D=[[0]]),
}


class TestRankAndZeros:
    """``rank_and_zeros`` on integer rows against its Fraction route,
    ``support.ref_rank_and_zeros``, on the calls the decisions make: P's
    V*, P_e's grown from P's, the m = 0 unobservable subspace and
    the dual plant's V*."""

    @staticmethod
    def _check(sys):
        A, B, C, D, n = sys.A, sys.B, sys.C, sys.D, sys.n
        S = system_matrix([A, B], [C, D])
        Se = system_matrix([A, B], [C, D], [sys.E, sys.F])
        v = vstar(S, n)
        # the m = 0 call reads A alone, and the dual plant's matrix is S^T
        calls = [(S, A, B, v), (Se, A, B, vstar(Se, n, v)),
                 (IntegerMatrix.of(A), A, QMatrix.zeros(n, 0), vstar(system_matrix([A], [C]), n)),
                 (S.transpose(), support.transpose(A), support.transpose(C),
                  vstar(S.transpose(), n))]
        for M, a, b, w in calls:
            assert rank_and_zeros(M, n, w) == support.ref_rank_and_zeros(a, b, w)

    @given(support.plants(4, 3))
    @example(_BRANCHES["n0"])
    @example(_BRANCHES["m0"])
    @example(_BRANCHES["r_star"])
    @example(_BRANCHES["r_star_is_v_star"])
    def test_matches_fraction_route(self, sys):
        self._check(sys)

    @given(support.plants(4, 3, rational=True))
    def test_matches_fraction_route_rational(self, sys):
        self._check(sys)

    def test_examples_reach_their_branches(self):
        for name, sys in _BRANCHES.items():
            v = vstar(system_matrix([sys.A, sys.B], [sys.C, sys.D]), sys.n)
            through_r_star = v.rows.dim < sys.n and support.vstar_input_rows(v).dim < sys.m
            assert through_r_star == name.startswith("r_star"), name
        sys = _BRANCHES["r_star_is_v_star"]
        S = system_matrix([sys.A, sys.B], [sys.C, sys.D])
        assert rank_and_zeros(S, sys.n, vstar(S, sys.n))[1] == Poly([1])

    def test_r_star_zeros_go_through_vstar(self, monkeypatch):
        # R*'s annihilator is one more vstar call, the unobservable subspace
        # of (A_V^T, G^T), and no second loop
        sys = _BRANCHES["r_star"]
        S = system_matrix([sys.A, sys.B], [sys.C, sys.D])
        v = vstar(S, sys.n)
        calls = []

        def spy(*args):
            calls.append(args)
            return vstar(*args)

        monkeypatch.setattr(geometry, "vstar", spy)
        assert rank_and_zeros(S, sys.n, v) == support.ref_rank_and_zeros(sys.A, sys.B, v)
        assert len(calls) == 1

    def test_r_star_route_stacks_and_transposes_nothing(self, monkeypatch):
        """R*'s matrix [A_V^T; G^T] is written straight from the image, and
        the unobservable subspace is the V* of [A; C]: neither makes a
        zero-width block, an hstack or a transpose."""
        sys = _BRANCHES["r_star"]
        forms = decide.PlantForms(sys)
        v = forms.vstar
        forms.AC  # the plant is read before the count starts
        made = Counter()

        def counted(name, fn):
            def wrapper(*args):
                made[name] += 1
                return fn(*args)
            return wrapper

        for name in ("zeros", "hstack"):
            monkeypatch.setattr(IntegerMatrix, name,
                                staticmethod(counted(name, getattr(IntegerMatrix, name))))
        monkeypatch.setattr(IntegerMatrix, "transpose",
                            counted("transpose", IntegerMatrix.transpose))
        got = rank_and_zeros(forms.system_matrix, sys.n, v)
        modes = forms.unobservable_modes
        assert made == {}
        assert got == support.ref_rank_and_zeros(sys.A, sys.B, v)
        assert modes == support.ref_rank_and_zeros(sys.A, QMatrix.zeros(sys.n, 0),
                                                   forms.unobservable)[1]


def test_vstar_is_the_only_loop():
    """Within ``geometry``, only ``vstar``'s body names the echelon
    routines, so no second fixed-point loop grows beside it."""
    tree = ast.parse(Path(geometry.__file__).read_text(encoding="utf-8"))
    loop = {"_echelon_add", "_reduce"}

    def named(node):
        return [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in loop]

    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "vstar")
    assert set(named(body)) == loop
    assert sorted(named(tree)) == sorted(named(body))


class TestStrongStarInclusion:
    def test_target_equals_measurement(self, rng):
        for _ in range(10):
            sys = support.random_system(rng)
            same = sys.with_target(sys.C, sys.D)
            assert inclusion(same).holds

    def test_no_input_vacuous(self):
        cert = inclusion(support.stable_pair())
        assert cert.holds
        assert cert.reachable.dim == 0

    def test_integrator_chain_fails_with_witness(self):
        cert = inclusion(support.integrator_chain())
        assert not cert.holds
        assert cert.violation is not None
        sys = support.integrator_chain()
        EF = support.stack([[sys.E, sys.F]])
        assert not support.is_zero(support.ref_qmatmul(EF, support.column_vector(cert.violation)))
        assert support.contains(cert.reachable, cert.violation)

    # n in 0..5, m, p, q in 0..3; n = 0, m = 0 and p = 0 are all drawn
    @given(support.plants(5, 3))
    @example(SystemSextuple.from_lists(A=[], D=[[1, 0]], F=[[0, 1]]))
    @example(SystemSextuple.from_lists(A=[[0, 1], [0, 0]], C=[[1, 0]], m=0))
    @example(SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[0], [1]], E=[[1, 0]]))
    # a shift chain read at its head: R grows for two steps, T* for three
    @example(SystemSextuple.from_lists(A=[[0, 1, 0], [0, 0, 1], [0, 0, 0]], B=[[0], [0], [1]],
                                       C=[[1, 0, 0]], D=[[0]], E=[[0, 1, 0]], F=[[0]]))
    # x' = u, y = x: T* = Q is reached in one step, while R = 0 + Q never grows
    @example(SystemSextuple.from_lists(A=[[0]], B=[[1]], C=[[1]], D=[[0]]))
    def test_reachable_matches_extended_system(self, sys):
        # rows bit for bit, and T*'s step count
        cert = inclusion(sys)
        assert (cert.reachable, cert.reachable_steps) == support.ref_reachable(sys)

    # n in 0..4, m, p, q in 0..3
    @given(support.plants(4, 3))
    @example(SystemSextuple.from_lists(A=[], D=[[1, 0]], F=[[0, 1]]))  # n = 0
    @example(SystemSextuple.from_lists(A=[[0, 1], [0, 0]], C=[[1, 0]], m=0))  # m = 0
    @example(SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[0], [1]], E=[[1, 0]]))  # p = 0
    # B = 0: T* = 0
    @example(SystemSextuple.from_lists(A=[[1, 1], [0, 2]], B=[[0], [0]], C=[[1, 0]], D=[[1]]))
    # x' = u, y = x: T* = Q^n
    @example(SystemSextuple.from_lists(A=[[0]], B=[[1]], C=[[1]], D=[[0]]))
    def test_reachable_pairs_are_an_intersection(self, sys):
        """The image of Ker [C T^T, D] is (T* + Q^m) ^ Ker [C D], by the
        Gauss-Jordan oracle's Zassenhaus from T*'s oracle rows."""
        n, m = sys.n, sys.m
        dual = tuple(map(support.transpose, (sys.A, sys.C, sys.B, sys.D)))
        T = support.ref_vstar_restacked(*dual).rows
        zero = [Fraction(0)] * m
        pairs = support.ref_subspace(n + m, [list(t) + zero for t in T.rows]
                                     + [[Fraction(int(j == n + i)) for j in range(n + m)]
                                        for i in range(m)])
        rows = [list(c) + list(d) for c, d in zip(sys.C.data, sys.D.data)]
        reduced, pivots = support.ref_rref(support.ref_kernel(n + m, rows))
        ker = support.ref_subspace(n + m, reduced[:len(pivots)])
        assert inclusion(sys).reachable == support.ref_intersect(pairs, ker)

    def test_agrees_with_toeplitz_oracle(self, rng):
        for _ in range(80):
            sys = support.random_system(rng)
            geo = inclusion(sys).holds
            toep = kernel_inclusion_upto(sys, sys.n + sys.m).holds
            assert geo == toep


def _dot(row, vec):
    return sum((a * b for a, b in zip(row, vec)), Fraction(0))


def _canonical(vectors):
    """Nonzero rows of the Gauss-Jordan oracle's RREF: the canonical rows."""
    reduced, pivots = support.ref_rref(vectors)
    return tuple(tuple(r) for r in reduced[:len(pivots)])


def _within_kernel(vectors, M):
    """A spanning set of span(vectors) ^ Ker M: the combinations sum c_i x_i
    whose coefficients c lie in the kernel of the columns M x_i."""
    k = len(vectors)
    coeffs = support.ref_kernel(k, [[_dot(row, x) for x in vectors] for row in M])
    d = len(vectors[0]) if vectors else 0
    return [[sum((c[i] * vectors[i][j] for i in range(k)), Fraction(0)) for j in range(d)]
            for c in coeffs]


def _oracle_reachable(sys):
    """(A_e R + Im B_e) ^ Ker C_e iterated from R = Im B_e ^ Ker C_e, on
    plain lists, with the step count of its state part: A_e R_k holds the
    pairs (t, 0) of T_{k+1}, and the count is the first k with
    T_{k+1} = T_k, T_0 = 0."""
    n, m = sys.n, sys.m
    A_e = [list(sys.A.data[i]) + list(sys.B.data[i]) for i in range(n)] + \
        [[Fraction(0)] * (n + m) for _ in range(m)]
    C_e = [list(sys.C.data[i]) + list(sys.D.data[i]) for i in range(sys.p)]
    im_b = [[Fraction(int(i == n + j)) for i in range(n + m)] for j in range(m)]
    current, reached = _canonical(_within_kernel(im_b, C_e)), ()
    for step in range(n + 1):
        pushed = _canonical([[_dot(row, r) for row in A_e] for r in current])
        if pushed == reached:
            return current, step
        current, reached = _canonical(_within_kernel(list(pushed) + im_b, C_e)), pushed
    raise AssertionError("oracle iteration did not stop")


class TestCertificateRecheck:
    """The certificate re-checks on its own: the oracles recompute the
    reachable subspace and test it against [E F], with no Subspace call."""

    def _recheck(self, sys):
        cert = inclusion(sys)
        rows, steps = _oracle_reachable(sys)
        assert cert.reachable.rows == rows
        assert cert.reachable_steps == steps
        C_e = [sys.C.data[i] + sys.D.data[i] for i in range(sys.p)]
        EF_e = [sys.E.data[i] + sys.F.data[i] for i in range(sys.q)]
        assert all(_dot(row, r) == 0 for r in rows for row in C_e)
        silent = all(_dot(row, r) == 0 for r in rows for row in EF_e)
        assert cert.holds == silent
        if cert.holds:
            assert cert.violation is None
        else:
            assert cert.violation in rows
            assert any(_dot(row, cert.violation) != 0 for row in EF_e)
        return cert.holds

    def test_bundled_systems(self):
        verdicts = {name: self._recheck(load_system_text(bundled_text(name))[0])
                    for name in bundled_names()}
        assert verdicts["stable_pair"] and not verdicts["integrator_chain"]

    def test_seeded_plants(self, rng):
        verdicts = [self._recheck(support.random_system(rng)) for _ in range(80)]
        assert True in verdicts and False in verdicts
