import pytest
from hypothesis import example, given

from funcobs.exactlin import IntegerMatrix, QMatrix, kernel_basis
from funcobs.markov import kernel_inclusion_upto, toeplitz
from funcobs.system import SystemSextuple

import support


def chain(sys, k, target=False):
    """The order-k Toeplitz matrix of (C, D), or of (E, F) with ``target``,
    built on the plant's integer blocks and read back as Fractions."""
    out = (sys.E, sys.F) if target else (sys.C, sys.D)
    A, B, C, D = map(IntegerMatrix.of, (sys.A, sys.B, *out))
    return toeplitz(A, B, C, D, k).fractions()


class TestToeplitz:
    def test_order_zero_is_feedthrough(self, rng):
        sys = support.random_system(rng)
        assert chain(sys, 0) == sys.D

    def test_order_one_structure(self):
        sys = support.integrator_chain()
        M = chain(sys, 1)
        CB = support.ref_qmatmul(sys.C, sys.B)
        expected = support.stack([
            [sys.D, QMatrix.zeros(1, 1)],
            [CB, sys.D],
        ])
        assert M == expected

    def test_blocks_are_markov_parameters(self, rng):
        # block (i, j) below the diagonal is C A^(i-1-j) B, with the power
        # formed on its own
        for _ in range(10):
            sys = support.random_system(rng)
            p, m, k = sys.p, sys.m, rng.randint(1, 3)
            M = chain(sys, k)
            power = QMatrix.identity(sys.n)
            for lag in range(1, k + 1):
                want = support.ref_qmatmul(support.ref_qmatmul(sys.C, power), sys.B)
                for j in range(k + 1 - lag):
                    i = j + lag
                    block = [[M[i * p + r, j * m + c] for c in range(m)] for r in range(p)]
                    assert QMatrix.from_rows(block, cols=m) == want
                power = support.ref_qmatmul(sys.A, power)

    def test_measured_input_gives_identity(self):
        sys = support.measured_input()
        for k in range(4):
            assert chain(sys, k) == QMatrix.identity(k + 1)

    def test_shift_structure(self, rng):
        for _ in range(15):
            sys = support.random_system(rng)
            p, m = sys.p, sys.m
            k = rng.randint(1, 3)
            M = chain(sys, k)
            prev = chain(sys, k - 1)
            shrunk = QMatrix.from_rows(
                [[M[i, j] for j in range(m, M.cols)] for i in range(p, M.rows)],
                cols=k * m)
            assert shrunk == prev

    # n in 0..4, m, p, q in 0..2 and rational entries: the integer blocks
    # carry the unreduced denominators den_C den_A^k den_B
    @given(support.plants(4, 2, rational=True))
    @example(SystemSextuple.from_lists(A=[], D=[[1, 0]], F=[[0, 1]]))
    @example(SystemSextuple.from_lists(A=[["1/2", 0], [0, "1/3"]], C=[["2/3", 1]], m=0))
    @example(SystemSextuple.from_lists(A=[["1/3"]], B=[["1/2"]], C=[["2/3"]], D=[[0]]))
    def test_matches_fraction_oracle(self, sys):
        for k in range(4):
            for target, (C, D) in ((False, (sys.C, sys.D)), (True, (sys.E, sys.F))):
                assert chain(sys, k, target) == support.ref_toeplitz(sys.A, sys.B, C, D, k)

    def test_feedthrough_of_another_shape_is_rejected(self):
        """D must have C B's shape: a 2 x 1 D under 1 x 1 A, B and C
        stacks no matrix."""
        one = IntegerMatrix(1, 1, [[1]], 1)
        with pytest.raises(ValueError, match="shape mismatch"):
            toeplitz(one, one, one, IntegerMatrix(2, 1, [[1], [1]], 1), 1)



class TestKernelInclusion:
    def test_same_pair_always_holds(self, rng):
        for _ in range(10):
            sys = support.random_system(rng)
            same = sys.with_target(sys.C, sys.D)
            assert kernel_inclusion_upto(same, sys.n + sys.m).holds

    def test_measured_input_holds(self):
        sys = support.measured_input()
        assert kernel_inclusion_upto(sys, sys.n + sys.m).holds

    def test_failure_reports_smallest_k_and_witness(self):
        sys = support.integrator_chain()
        rep = kernel_inclusion_upto(sys, 4)
        assert not rep.holds
        assert rep.failing_k == 0
        mcd, mef = chain(sys, rep.failing_k), chain(sys, rep.failing_k, target=True)
        v = support.column_vector(rep.witness)
        assert support.is_zero(support.ref_qmatmul(mcd, v))
        assert not support.is_zero(support.ref_qmatmul(mef, v))
        # the coefficient blocks q_0..q_k end to end
        assert len(rep.witness) == (rep.failing_k + 1) * sys.m

    def test_failure_is_monotone_in_k(self, rng):
        found = 0
        for _ in range(120):
            sys = support.random_system(rng)
            rep = kernel_inclusion_upto(sys, sys.n + sys.m)
            if rep.holds or rep.failing_k is None:
                continue
            found += 1
            k = rep.failing_k
            # shifting the witness down by prepended zero blocks violates
            # every larger order too (Toeplitz shift invariance)
            for extra in (1, 2):
                padded = [0] * (extra * sys.m) + list(rep.witness)
                mcd, mef = chain(sys, k + extra), chain(sys, k + extra, target=True)
                v = support.column_vector(padded)
                assert support.is_zero(support.ref_qmatmul(mcd, v))
                assert not support.is_zero(support.ref_qmatmul(mef, v))
            if found > 10:
                break
        assert found > 0

    def test_state_reconstruction_collapses_to_first_two_orders(self, rng):
        # with the full state as target, the infinite family is equivalent
        # to the single kernel inclusion at order one
        for _ in range(60):
            sys = support.random_system(rng)
            n, m, p = sys.n, sys.m, sys.p
            target = sys.with_target(QMatrix.identity(n), QMatrix.zeros(n, m))
            full = kernel_inclusion_upto(target, n + m).holds
            lhs = support.stack([
                [sys.D, QMatrix.zeros(p, m)],
                [support.ref_qmatmul(sys.C, sys.B), sys.D],
            ])
            rhs = support.stack([
                [QMatrix.zeros(n, m), QMatrix.zeros(n, m)],
                [sys.B, QMatrix.zeros(n, m)],
            ])
            ker = kernel_basis(IntegerMatrix.of(lhs))
            collapsed = all(support.is_zero(support.ref_qmatmul(rhs, support.column_vector(c)))
                            for c in ker.rows)
            assert full == collapsed
