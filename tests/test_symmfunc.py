import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from prescurv.errors import ConeViolationError
from prescurv.symmfunc import (
    OperatorSpec,
    in_gamma_k,
    operator_value_grad,
    sigma,
    sigma_diag_derivs,
    sigma_grad,
    sigma_hess_dir,
    sigma_subset_oracle,
)


def test_sigma_all_ones_is_binomial():
    assert sigma(np.ones(3), 2) == pytest.approx(3.0)
    for n in range(1, 9):
        for l in range(n + 1):
            assert sigma(np.ones(n), l) == pytest.approx(math.comb(n, l))


def test_sigma_zero_index_is_one():
    assert sigma(np.array([4.0, -7.0, 0.3]), 0) == 1.0


def test_sigma_small_cases():
    # oracle values: 1*2 + 1*3 + 2*3 = 11; single pair 2*(-1) = -2;
    # triples of (1,2,3,4): 6 + 8 + 12 + 24 = 50
    assert sigma(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)
    assert sigma_subset_oracle(np.array([2.0, -1.0]), 2) == pytest.approx(-2.0)
    assert sigma_subset_oracle(np.array([1.0, 2.0, 3.0, 4.0]), 3) == pytest.approx(50.0)


def test_sigma_out_of_range_rejected():
    with pytest.raises(ValueError):
        sigma(np.ones(3), 4)
    with pytest.raises(ValueError):
        sigma(np.ones(3), -1)


def test_oracle_refuses_large_n():
    with pytest.raises(ValueError):
        sigma_subset_oracle(np.ones(13), 2)


def test_sigma_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(1, 9)
        lam = rng.uniform(-2.0, 2.0, size=n)
        for l in range(n + 1):
            a = sigma(lam, l)
            b = sigma_subset_oracle(lam, l)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


def test_sigma_permutation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(2, 8)
        lam = rng.uniform(-3.0, 3.0, size=n)
        perm = rng.permutation(n)
        for l in range(n + 1):
            assert sigma(lam, l) == pytest.approx(sigma(lam[perm], l), abs=1e-13, rel=1e-13)


def test_sigma_batched_matches_scalar():
    rng = np.random.default_rng(3)
    lam = rng.uniform(-1.0, 2.0, size=(5, 4, 6))
    batched = sigma(lam, 3)
    for i in range(5):
        for j in range(4):
            assert batched[i, j] == pytest.approx(sigma(lam[i, j], 3))


def test_sigma_grad_isotropic_and_linear():
    np.testing.assert_allclose(sigma_grad(np.ones(3), 2), [2.0, 2.0, 2.0])
    np.testing.assert_allclose(sigma_grad(np.array([1.0, 2.0, 3.0]), 2), [5.0, 4.0, 3.0])
    np.testing.assert_allclose(sigma_grad(np.array([4.0, -2.0, 0.5]), 1), [1.0, 1.0, 1.0])


def test_sigma_grad_euler_identity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = rng.integers(1, 9)
        lam = rng.uniform(-2.0, 2.0, size=n)
        for l in range(1, n + 1):
            s = sigma(lam, l)
            g = sigma_grad(lam, l)
            assert abs(float(lam @ g) - l * s) <= 1e-10 * (1.0 + abs(l * s))


def test_sigma_grad_matches_central_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(50):
        n = rng.integers(2, 7)
        lam = rng.uniform(0.2, 2.0, size=n)
        for l in range(1, n + 1):
            g = sigma_grad(lam, l)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (sigma(lam + e, l) - sigma(lam - e, l)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_hess_dir_identity_direction():
    # sigma_2((1+t) I_3) = 3 (1+t)^2, second derivative 6
    A = np.eye(3)
    assert sigma_hess_dir(A, np.eye(3), 2) == pytest.approx(6.0)


def test_hess_dir_zero_direction_and_linear_sigma1():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 4))
    A = 0.5 * (M + M.T)
    assert sigma_hess_dir(A, np.zeros((4, 4)), 3) == pytest.approx(0.0, abs=1e-12)
    N = rng.normal(size=(4, 4))
    B = 0.5 * (N + N.T)
    assert sigma_hess_dir(A, B, 1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,l,c", [(3, 2, 1.5), (4, 3, -0.7), (5, 4, 2.0), (5, 5, 1.1)])
def test_hess_dir_at_multiple_of_identity(n, l, c):
    # every basis is an eigenbasis of c I; d^2/dt^2 sigma_l(c I + t B) at 0
    # is 2 C(n-2, l-2) c^(l-2) sigma_2(B), B's sum of 2x2 principal minors
    rng = np.random.default_rng(10 * n + l)
    M = rng.normal(size=(n, n))
    B = 0.5 * (M + M.T)
    sigma2_B = sum(B[i, i] * B[j, j] - B[i, j] ** 2 for i, j in itertools.combinations(range(n), 2))
    exact = 2.0 * math.comb(n - 2, l - 2) * c ** (l - 2) * sigma2_B
    assert sigma_hess_dir(c * np.eye(n), B, l) == pytest.approx(exact, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_hess_dir_batch_equals_single_calls(l):
    rng = np.random.default_rng(l)
    M, N = rng.normal(size=(2, 7, 4, 4))
    A, B = 0.5 * (M + np.swapaxes(M, -1, -2)), 0.5 * (N + np.swapaxes(N, -1, -2))
    batched = sigma_hess_dir(A, B, l)
    assert batched.shape == (7,)
    np.testing.assert_array_equal(batched, [sigma_hess_dir(a, b, l) for a, b in zip(A, B)])
    # one A against many directions broadcasts the same way
    np.testing.assert_array_equal(sigma_hess_dir(A[0], B, l),
                                  [sigma_hess_dir(A[0], b, l) for b in B])


def minor_coefficients(lam, B, l):
    """Coefficients of t^0..t^l in sigma_l(diag(lam) + t B), exactly: the sum
    of its l x l principal minors, each expanded over permutations of
    entries lam_i [i == j] + t B_ij, linear polynomials in Fractions."""
    lam = [Fraction(x) for x in lam]
    B = [[Fraction(x) for x in row] for row in B]
    total = [Fraction(0)] * (l + 1)
    for rows in itertools.combinations(range(len(lam)), l):
        for perm in itertools.permutations(range(l)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            poly = [Fraction(-1 if inversions % 2 else 1)]
            for a, b in enumerate(perm):
                i, j = rows[a], rows[b]
                c0, c1 = (lam[i] if i == j else 0), B[i][j]
                poly = [c0 * x + c1 * y for x, y in zip(poly + [0], [0] + poly)]
            total = [x + y for x, y in zip(total, poly)]
    return total


@pytest.mark.parametrize("n,l", [(n, l) for n in range(2, 6) for l in range(1, n + 1)])
def test_diag_derivs_match_principal_minor_oracle(n, l):
    # dyadic entries are exact in floats and Fractions alike; the first
    # spectrum repeats an entry, where eigenvalue-based formulas degenerate
    rng = np.random.default_rng(100 * n + l)
    lam = rng.integers(-16, 17, size=(6, n)) / 8.0
    lam[0, 1:] = lam[0, 0]
    M = rng.integers(-16, 17, size=(6, n, n)) / 8.0
    B = np.triu(M) + np.swapaxes(np.triu(M, 1), -1, -2)
    first, second = sigma_diag_derivs(lam, B, l)
    assert first.shape == second.shape == (6,)
    for s in range(6):
        c = minor_coefficients(lam[s], B[s], l)
        one = sigma_diag_derivs(lam[s], B[s], l)
        for got in (one, (first[s], second[s])):
            assert got[0] == pytest.approx(float(c[1]), rel=1e-12, abs=1e-12)
            assert got[1] == pytest.approx(float(2 * c[2]) if l > 1 else 0.0,
                                           rel=1e-12, abs=1e-12)
        assert second[s] == pytest.approx(sigma_hess_dir(np.diag(lam[s]), B[s], l),
                                          rel=1e-9, abs=1e-9)


def test_diag_derivs_reject_mismatched_direction():
    with pytest.raises(ValueError):
        sigma_diag_derivs(np.ones(3), np.eye(4), 2)


def test_hess_dir_matches_central_differences():
    rng = np.random.default_rng(9)
    h = 1e-3
    for _ in range(25):
        n = rng.integers(2, 6)
        M = rng.normal(size=(n, n))
        A = 0.5 * (M + M.T) + n * np.eye(n)
        N = rng.normal(size=(n, n))
        B = 0.5 * (N + N.T)
        for l in range(2, n + 1):
            def f(t):
                return sigma(np.linalg.eigvalsh(A + t * B), l)

            def d2(step):
                return (f(step) - 2.0 * f(0.0) + f(-step)) / step**2

            # Richardson-extrapolated central difference, error O(h^4)
            fd = (4.0 * d2(h / 2) - d2(h)) / 3.0
            val = sigma_hess_dir(A, B, l)
            assert val == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_gamma_k_membership():
    ok, margin = in_gamma_k(np.ones(3), 3)
    assert ok and margin == pytest.approx(1.0)
    ok, margin = in_gamma_k(np.array([1.0, 1.0, -0.1]), 2)
    assert ok
    assert margin == pytest.approx(0.8)
    ok, margin = in_gamma_k(np.array([1.0, 1.0, -0.1]), 3)
    assert not ok
    assert margin == pytest.approx(-0.1)


def test_gamma_k_single_spectrum_matches_batched_path():
    # the 1-D path runs on Python floats; the batched numpy path is its oracle
    rng = np.random.default_rng(53)
    for n in range(2, 9):
        spectra = [rng.uniform(-1.0, 2.0, size=n) for _ in range(40)]
        with_zeros = rng.uniform(-1.0, 2.0, size=(10, n))
        with_zeros[np.arange(10), rng.integers(n, size=10)] = 0.0
        spectra += list(with_zeros) + [np.zeros(n)]
        for k in range(2, n + 1):
            # sigma_k(1, ..., 1, t) = 0 at t = -(n - k)/k; (1, -1, 0, ...) has sigma_1 = 0
            edge = np.ones(n)
            edge[-1] = -(n - k) / k
            odd = np.zeros(n)
            odd[:2] = (1.0, -1.0)
            for lam in spectra + [edge, edge[::-1].copy(), odd]:
                ok, margin = in_gamma_k(lam, k)
                ok_b, margin_b = in_gamma_k(lam[None, :], k)
                assert type(ok) is bool and type(margin) is float
                assert ok == bool(ok_b[0]) and margin == float(margin_b[0])
    assert in_gamma_k(np.array([1.0, 1.0, -0.5]), 2) == (False, 0.0)


def test_gamma_cone_nesting():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = rng.integers(2, 8)
        lam = rng.uniform(-1.0, 2.0, size=n)
        for k in range(n, 0, -1):
            if in_gamma_k(lam, k)[0]:
                for l in range(1, k):
                    assert in_gamma_k(lam, l)[0]


def test_positive_orthant_in_every_cone():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = rng.integers(1, 8)
        lam = rng.uniform(0.01, 5.0, size=n)
        for k in range(1, n + 1):
            assert in_gamma_k(lam, k)[0]


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(kind="quotient", k=2, l=2)
    with pytest.raises(ValueError):
        OperatorSpec(kind="weird", k=2)
    assert OperatorSpec(kind="sigma_k", k=3).homogeneity == 3
    assert OperatorSpec(kind="quotient", k=3, l=1).homogeneity == 2


def test_operator_value_grad_round_matrix():
    r = 1.7
    A = np.eye(2) / r
    value, grad = operator_value_grad(A, OperatorSpec("sigma_k", k=2))
    assert value == pytest.approx(r**-2)
    np.testing.assert_allclose(grad, np.eye(2) / r, atol=1e-14)


def test_operator_value_grad_quotient_isotropic():
    value, grad = operator_value_grad(np.eye(3), OperatorSpec("quotient", k=2, l=1))
    assert value == pytest.approx(1.0)
    # d(sigma_2/sigma_1) at I: (sigma_1 * grad2 - sigma_2 * grad1)/sigma_1^2 = (3*2-3*1)/9
    np.testing.assert_allclose(grad, np.eye(3) / 3.0, atol=1e-14)


def test_operator_value_grad_zero_matrix():
    value, grad = operator_value_grad(np.zeros((3, 3)), OperatorSpec("sigma_k", k=1))
    assert value == pytest.approx(0.0)
    np.testing.assert_allclose(grad, np.eye(3), atol=1e-14)


def test_operator_quotient_denominator_guard():
    A = np.diag([1.0, -2.0, 0.2])  # sigma_1 = -0.8 < 0
    with pytest.raises(ConeViolationError):
        operator_value_grad(A, OperatorSpec("quotient", k=2, l=1))


def test_operator_grad_matches_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for op in (OperatorSpec("sigma_k", k=2), OperatorSpec("sigma_k", k=3),
               OperatorSpec("quotient", k=2, l=1), OperatorSpec("quotient", k=3, l=1)):
        for _ in range(20):
            n = 4
            M = rng.normal(size=(n, n))
            A = 0.5 * (M + M.T) + n * np.eye(n)
            value, grad = operator_value_grad(A, op)
            N = rng.normal(size=(n, n))
            B = 0.5 * (N + N.T)

            def f(t):
                lam = np.linalg.eigvalsh(A + t * B)
                return op.value_on_spectrum(lam)

            fd = (f(h) - f(-h)) / (2 * h)
            assert float(np.sum(grad * B)) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_operator_grad_degenerate_eigenvalues():
    # repeated eigenvalues must not break the eigenbasis gradient
    A = np.diag([1.0, 1.0, 2.0])
    value, grad = operator_value_grad(A, OperatorSpec("sigma_k", k=2))
    expected = np.diag(sigma_grad(np.array([1.0, 1.0, 2.0]), 2))
    np.testing.assert_allclose(grad, expected, atol=1e-12)
