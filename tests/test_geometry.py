from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from funcobs.corpus import bundled_names, bundled_text
from funcobs.exactlin import QMatrix, Subspace, kernel_basis
from funcobs.fileio import load_system_text
from funcobs.geometry import rank_and_zeros, strong_star_inclusion, unobservable, vstar
from funcobs.markov import kernel_inclusion_upto
from funcobs.polymat import Poly
from funcobs.system import SystemSextuple

import support
from support import vstar_fields as fields


def frac(x):
    return Fraction(x)


class TestReachableWithin:
    """The chain-reachable pairs that ``strong_star_inclusion`` reports."""

    def test_integrator_chain(self):
        cert = strong_star_inclusion(support.integrator_chain())
        assert cert.reachable == Subspace.span(3, [[0, 0, 1]])

    def test_no_input_gives_zero(self):
        cert = strong_star_inclusion(support.stable_pair())
        assert cert.reachable.dim == 0


def observed(A, C):
    """``vstar`` with m = 0: the rows of the unobservable subspace's
    annihilator, with their step count."""
    v = unobservable(A, C)
    assert v == vstar(A, QMatrix.zeros(A.rows, 0), C, QMatrix.zeros(C.rows, 0))
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
            CE = QMatrix.vstack([sys.C, sys.E])
            seeded = unobservable(sys.A, CE, unobservable(sys.A, sys.C).state_rows)
            assert seeded.rows == unobservable(sys.A, CE).rows
        # a shift chain read in the middle: E adds the head, one step on
        # from the seed and two from nothing
        A = QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        C, CE = QMatrix.from_rows([[0, 1, 0]]), QMatrix.from_rows([[0, 1, 0], [1, 0, 0]])
        seeded = unobservable(A, CE, unobservable(A, C).state_rows)
        assert (seeded.rows, seeded.steps) == (support.full_subspace(3), 1)
        assert unobservable(A, CE).steps == 2

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
        v = vstar(sys.A, sys.B, sys.C, sys.D)
        V = kernel_basis(QMatrix(v.rows.dim, sys.n, v.rows.rows))
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
        assert support.vstar_input_rows(v) == Subspace(sys.m, tuple(map(tuple, rows[:len(pivots)])))

    @given(st.one_of(support.plants(4, 3), support.plants(4, 3, rational=True)))
    @example(SystemSextuple.from_lists(A=[], D=[[1, 0]], F=[[0, 1]]))
    @example(SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[1], [0]], C=[[1, 0]], D=[[0]]))
    def test_matches_whole_stack_loop(self, sys):
        """The kept echelon gives what re-eliminating the whole stack at
        every step gives: rows, steps, friend and input rows, for plain
        calls, for P_e's call seeded with P's rows, for the dual plant's
        and for an m = 0 call seeded with (A, C)'s rows."""
        calls = [(sys.A, sys.B, sys.C, sys.D),
                 tuple(map(support.transpose, (sys.A, sys.C, sys.B, sys.D)))]
        for args in calls:
            assert fields(vstar(*args)) == support.ref_vstar_restacked(*args)
        CE, DF = QMatrix.vstack([sys.C, sys.E]), QMatrix.vstack([sys.D, sys.F])
        seed = vstar(sys.A, sys.B, sys.C, sys.D)
        assert (fields(vstar(sys.A, sys.B, CE, DF, seed.state_rows))
                == support.ref_vstar_restacked(sys.A, sys.B, CE, DF, seed.rows))
        none = QMatrix.zeros(sys.n, 0)
        seed = unobservable(sys.A, sys.C)
        assert (fields(unobservable(sys.A, CE, seed.state_rows))
                == support.ref_vstar_restacked(sys.A, none, CE, QMatrix.zeros(CE.rows, 0),
                                               seed.rows))

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_matches_whole_stack_loop_on_ladder_plants(self, n):
        sys = support.reanchor_plant(n)
        CE, DF = QMatrix.vstack([sys.C, sys.E]), QMatrix.vstack([sys.D, sys.F])
        plain = vstar(sys.A, sys.B, sys.C, sys.D)
        assert fields(plain) == support.ref_vstar_restacked(sys.A, sys.B, sys.C, sys.D)
        assert (fields(vstar(sys.A, sys.B, CE, DF, plain.state_rows))
                == support.ref_vstar_restacked(sys.A, sys.B, CE, DF, plain.rows))

    def test_seed_is_grown_from(self):
        # P_e's V* grown from P's rows equals the one grown from nothing
        sys = support.integrator_chain()
        C, D = QMatrix.vstack([sys.C, sys.E]), QMatrix.vstack([sys.D, sys.F])
        v = vstar(sys.A, sys.B, sys.C, sys.D)
        seeded, fresh = vstar(sys.A, sys.B, C, D, v.state_rows), vstar(sys.A, sys.B, C, D)
        assert seeded.rows == fresh.rows
        assert support.vstar_input_rows(seeded) == support.vstar_input_rows(fresh)
        assert seeded.steps < fresh.steps

    def test_steps_at_index_one(self):
        # a benchmark tracer adds result[1] of every vstar call to its count
        A = QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        v = vstar(A, QMatrix.zeros(3, 0), QMatrix.from_rows([[1, 0, 0]]), QMatrix.zeros(1, 0))
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
    V*, P_e's grown from P's rows, the m = 0 unobservable subspace and
    the dual plant's V*."""

    @staticmethod
    def _check(sys):
        A, B, C, D = sys.A, sys.B, sys.C, sys.D
        v = vstar(A, B, C, D)
        CE, DF = QMatrix.vstack([C, sys.E]), QMatrix.vstack([D, sys.F])
        At, Ct, Bt, Dt = map(support.transpose, (A, C, B, D))
        calls = [(A, B, v), (A, B, vstar(A, B, CE, DF, v.state_rows)),
                 (A, QMatrix.zeros(sys.n, 0), unobservable(A, C)),
                 (At, Ct, vstar(At, Ct, Bt, Dt))]
        for args in calls:
            assert rank_and_zeros(*args) == support.ref_rank_and_zeros(*args)

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
            v = vstar(sys.A, sys.B, sys.C, sys.D)
            through_r_star = v.rows.dim < sys.n and support.vstar_input_rows(v).dim < sys.m
            assert through_r_star == name.startswith("r_star"), name
        sys = _BRANCHES["r_star_is_v_star"]
        assert rank_and_zeros(sys.A, sys.B, vstar(sys.A, sys.B, sys.C, sys.D))[1] == Poly([1])


class TestStrongStarInclusion:
    def test_target_equals_measurement(self, rng):
        for _ in range(10):
            sys = support.random_system(rng)
            same = sys.with_target(sys.C, sys.D)
            assert strong_star_inclusion(same).holds

    def test_no_input_vacuous(self):
        cert = strong_star_inclusion(support.stable_pair())
        assert cert.holds
        assert cert.reachable.dim == 0

    def test_integrator_chain_fails_with_witness(self):
        cert = strong_star_inclusion(support.integrator_chain())
        assert not cert.holds
        assert cert.violation is not None
        sys = support.integrator_chain()
        EF = QMatrix.hstack([sys.E, sys.F])
        assert not support.is_zero(EF @ support.column_vector(cert.violation))
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
        cert = strong_star_inclusion(sys)
        assert (cert.reachable, cert.reachable_steps) == support.ref_reachable(sys)

    def test_agrees_with_toeplitz_oracle(self, rng):
        for _ in range(80):
            sys = support.random_system(rng)
            geo = strong_star_inclusion(sys).holds
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
        cert = strong_star_inclusion(sys)
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
