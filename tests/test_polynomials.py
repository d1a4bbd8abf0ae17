import numpy as np
import pytest

from prescurv.polynomials import Poly3


def test_eval_matches_hand_expansion():
    p = Poly3(((2.0, (1, 0, 2)), (-0.5, (0, 3, 0)), (1.0, (0, 0, 0))))
    a, b, c = 1.5, -0.4, 2.0
    assert p(a, b, c) == pytest.approx(2.0 * a * c**2 - 0.5 * b**3 + 1.0)


def test_eval_broadcasts_over_arrays():
    p = Poly3(((1.0, (1, 1, 0)),))
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[2.0, 2.0], [0.5, 0.5]])
    np.testing.assert_allclose(p(a, b, np.zeros_like(a)), a * b)


def test_unit_vector_evaluation():
    p = Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1))))
    x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    np.testing.assert_allclose(p.eval_unit_vectors(x), [1.2, 0.8])


def test_from_list_reads_json_monomials():
    p = Poly3.from_list([[1.0, 0, 0, 0], [0.2, 0, 0, 1]])
    assert p == Poly3(((1.0, (0, 0, 0)), (0.2, (0, 0, 1))))


def test_negative_powers_rejected():
    with pytest.raises(ValueError):
        Poly3(((1.0, (-1, 0, 0)),))
