from funcobs.exactlin import QMatrix, kernel_basis
from funcobs.markov import kernel_inclusion_upto, toeplitz

import support


class TestToeplitz:
    def test_order_zero_is_feedthrough(self, rng):
        sys = support.random_system(rng)
        chain = toeplitz(sys.A, sys.B, sys.C, sys.D, 0)
        assert chain == sys.D

    def test_order_one_structure(self):
        sys = support.integrator_chain()
        M = toeplitz(sys.A, sys.B, sys.C, sys.D, 1)
        CB = sys.C @ sys.B
        expected = QMatrix.from_blocks([
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
            M = toeplitz(sys.A, sys.B, sys.C, sys.D, k)
            power = QMatrix.identity(sys.n)
            for lag in range(1, k + 1):
                want = sys.C @ power @ sys.B
                for j in range(k + 1 - lag):
                    i = j + lag
                    block = [[M[i * p + r, j * m + c] for c in range(m)] for r in range(p)]
                    assert QMatrix.from_rows(block, cols=m) == want
                power = sys.A @ power

    def test_measured_input_gives_identity(self):
        sys = support.measured_input()
        for k in range(4):
            assert toeplitz(sys.A, sys.B, sys.C, sys.D, k) == QMatrix.identity(k + 1)

    def test_shift_structure(self, rng):
        for _ in range(15):
            sys = support.random_system(rng)
            p, m = sys.p, sys.m
            k = rng.randint(1, 3)
            M = toeplitz(sys.A, sys.B, sys.C, sys.D, k)
            prev = toeplitz(sys.A, sys.B, sys.C, sys.D, k - 1)
            shrunk = QMatrix.from_rows(
                [[M[i, j] for j in range(m, M.cols)] for i in range(p, M.rows)],
                cols=k * m)
            assert shrunk == prev


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
        mcd = toeplitz(sys.A, sys.B, sys.C, sys.D, rep.failing_k)
        mef = toeplitz(sys.A, sys.B, sys.E, sys.F, rep.failing_k)
        v = support.column_vector(rep.witness)
        assert (mcd @ v).is_zero()
        assert not (mef @ v).is_zero()
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
                mcd = toeplitz(sys.A, sys.B, sys.C, sys.D, k + extra)
                mef = toeplitz(sys.A, sys.B, sys.E, sys.F, k + extra)
                v = support.column_vector(padded)
                assert (mcd @ v).is_zero()
                assert not (mef @ v).is_zero()
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
            lhs = QMatrix.from_blocks([
                [sys.D, QMatrix.zeros(p, m)],
                [sys.C @ sys.B, sys.D],
            ])
            rhs = QMatrix.from_blocks([
                [QMatrix.zeros(n, m), QMatrix.zeros(n, m)],
                [sys.B, QMatrix.zeros(n, m)],
            ])
            ker = kernel_basis(lhs)
            collapsed = all((rhs @ support.column_vector(c)).is_zero()
                            for c in support.columns(ker.basis))
            assert full == collapsed
