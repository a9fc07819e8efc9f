import re

import numpy as np
import pytest

from ncspassive.errors import DimensionMismatch, InvalidMatrix
from ncspassive.numerics import (
    DefinitenessMargin,
    as_matrix,
    fro_norm,
    is_neg_definite,
    schur_complement,
    schur_neg_def,
    spectral_radius,
    sym_eigvals,
    symmetrize,
)


@pytest.mark.parametrize("value,shape", [(2.5, (1, 1)), ([1.0, 2.0, 3.0], (1, 3))],
                         ids=["scalar", "1-d"])
def test_as_matrix_lifts_a_scalar_and_a_vector_to_one_row(value, shape):
    m = as_matrix(value)
    assert (m.shape, m.dtype) == (shape, np.float64)
    np.testing.assert_array_equal(m.ravel(), np.ravel(value))


def test_as_matrix_refuses_a_3d_array():
    message = "stack: expected a 2-d array, got shape (2, 1, 1)"
    with pytest.raises(InvalidMatrix, match=re.escape(message)):
        as_matrix(np.zeros((2, 1, 1)), "stack")


class TestSymEigvals:
    def test_diagonal(self):
        np.testing.assert_allclose(sym_eigvals(np.diag([2.0, -1.0])), [-1.0, 2.0])

    def test_identity(self):
        np.testing.assert_allclose(sym_eigvals(np.eye(3)), [1.0, 1.0, 1.0])

    def test_involution(self):
        np.testing.assert_allclose(sym_eigvals([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrix):
            sym_eigvals([[np.nan, 0.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidMatrix):
            sym_eigvals(np.ones((2, 3)))

    def test_gram_matrices_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            assert sym_eigvals(m.T @ m)[0] >= -1e-10


class TestDefiniteness:
    def test_negative_identity(self):
        assert is_neg_definite(-np.eye(2))

    def test_zero_is_not_strict(self):
        assert not is_neg_definite(np.zeros((2, 2)))

    def test_margin_blocks_tiny_positive_eigenvalue(self):
        m = np.diag([-1.0, 1e-12])
        assert not is_neg_definite(m, DefinitenessMargin(1e-8))

    def test_positive_definite_mirror(self):
        assert is_neg_definite(-np.eye(3))
        assert not is_neg_definite(-np.diag([1.0, 0.0]))

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            DefinitenessMargin(0.0)

    def test_margin_must_be_below_one(self):
        # from 1 up no matrix clears the cutoff: |lambda_max(M)| <= ||M||_F
        with pytest.raises(ValueError):
            DefinitenessMargin(1.0)


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_rotation_has_unit_radius(self):
        assert spectral_radius([[0.0, -1.0], [1.0, 0.0]]) == pytest.approx(1.0)

    def test_scalar_second_moment_value(self):
        assert spectral_radius([[0.2 * 1.44 + 0.8 * 0.25]]) == pytest.approx(0.488)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            spectral_radius(np.ones((2, 3)))

    def test_empty_matrix_has_radius_zero(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_kron_square_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            assert spectral_radius(np.kron(a, a)) == pytest.approx(
                spectral_radius(a) ** 2, abs=1e-8, rel=1e-8
            )


class TestSchur:
    def test_negative_diagonal_blocks(self):
        assert schur_neg_def(-np.eye(2), np.zeros((2, 2)), -np.eye(2))

    def test_positive_p_block(self):
        assert not schur_neg_def([[1.0]], [[0.0]], [[-1.0]])

    def test_positive_complement(self):
        # complement = -1 - 2 * (-1)^{-1} * 2 = 3 > 0
        assert not schur_neg_def([[-1.0]], [[2.0]], [[-1.0]])

    def test_complement_value(self):
        # -1 - 2 * (-1)^{-1} * 2 = 3
        np.testing.assert_array_equal(schur_complement([[-1.0]], [[2.0]], [[-1.0]]), [[3.0]])

    def test_complement_of_singular_q_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            schur_complement(-np.eye(2), np.ones((2, 2)), np.zeros((2, 2)))

    def test_singular_q_is_false_not_error(self):
        assert not schur_neg_def(-np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_block_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            schur_neg_def(-np.eye(2), np.zeros((3, 2)), -np.eye(2))

    def test_equivalence_with_direct_eigen_test(self):
        # both verdicts must agree on a random population
        # outside a thin eigenvalue band around the margin threshold.
        rng = np.random.default_rng(7)
        margin = DefinitenessMargin()
        checked = 0
        for _ in range(400):
            np_dim = int(rng.integers(1, 7))
            nq_dim = int(rng.integers(1, 7))
            p = rng.standard_normal((np_dim, np_dim))
            p = 0.5 * (p + p.T) - rng.random() * np.eye(np_dim)
            q = rng.standard_normal((nq_dim, nq_dim))
            q = 0.5 * (q + q.T) - rng.random() * np.eye(nq_dim)
            m = rng.standard_normal((np_dim, nq_dim))
            block = np.block([[p, m], [m.T, q]])
            lam = sym_eigvals(block)[-1]
            if abs(lam - margin.threshold(block)) < 1e-9:
                continue
            assert schur_neg_def(p, m, q, margin) == is_neg_definite(block, margin)
            checked += 1
        assert checked > 300


def test_symmetrize_requires_square():
    with pytest.raises(InvalidMatrix):
        symmetrize(np.ones((2, 3)))


def test_symmetrize_averages():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_allclose(symmetrize(m), [[1.0, 1.0], [1.0, 1.0]])


class TestFroNorm:
    """fro_norm is np.linalg.norm's one dot product, and rescales only where it overflows."""

    def test_bit_for_bit_with_numpy_norm(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            m = rng.standard_normal((int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            m *= 10.0 ** rng.uniform(-100, 100)
            for view in (m, np.asfortranarray(m), m[::2], m[:, ::-1], m.T, m[1:, ::3]):
                assert fro_norm(view) == float(np.linalg.norm(view))

    def test_overflowing_squares_rescale(self):
        m = np.array([[1e200, -3e200], [2e199, 0.0]])
        assert np.linalg.norm(m / 3e200) < 2.0
        assert fro_norm(m) == 3e200 * float(np.linalg.norm(m / 3e200))

    def test_non_finite_entries(self):
        assert fro_norm([[np.inf, 1.0]]) == np.inf
        assert np.isnan(fro_norm([[np.nan, 1.0]]))


def is_neg_definite_reference(m, margin=DefinitenessMargin()) -> bool:
    """Symmetrize, then sym_eigvals (which symmetrizes again) against margin.threshold."""
    s = symmetrize(m)
    return bool(sym_eigvals(s)[-1] <= margin.threshold(s))


class TestIsNegDefiniteOverflow:
    @pytest.mark.parametrize("m", [
        [[-1e200, 1e199], [1e199, -1e200]],
        [[-1e200, 3e200], [-1e200, -1e200]],
        [[1e200, 0.0], [0.0, -1e200]],
        [[-1e160, 0.0], [5e159, -2e160]],
    ])
    def test_large_entries_match_the_double_symmetrization(self, m):
        assert is_neg_definite(m) == is_neg_definite_reference(m)

    @pytest.mark.parametrize("m", [
        [[-1e308, -1e308], [-1e308, -1e308]],
        [[-1.0, 1.5e308], [1.5e308, -1.0]],
    ])
    def test_overflowing_symmetrization_raises(self, m):
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidMatrix, match="non-finite"):
                is_neg_definite_reference(m)
            with pytest.raises(InvalidMatrix, match="non-finite"):
                is_neg_definite(m)
