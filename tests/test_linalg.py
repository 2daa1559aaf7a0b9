import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precond import linalg
from precond.errors import (
    DefinitenessError,
    DimensionMismatchError,
    NonFiniteInputError,
    SingularMatrixError,
)

from test_fixtures import SIGMA_PI_FIXTURE, random_spd


def test_sym_eigen_identity():
    eig = linalg.sym_eigen(np.eye(3))
    assert np.allclose(eig.values, np.ones(3))


def test_sym_eigen_diagonal():
    eig = linalg.sym_eigen(np.diag([4.0, 1.0]))
    assert np.allclose(eig.values, [4.0, 1.0])
    assert np.allclose(np.abs(eig.vectors), np.eye(2))


def test_sym_eigen_fixture_condition_number():
    eig = linalg.sym_eigen(SIGMA_PI_FIXTURE)
    assert round(eig.values[0] / eig.values[-1], -2) == 4400.0


def test_sym_eigen_rejects_nonfinite():
    with pytest.raises(NonFiniteInputError):
        linalg.sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_sym_eigen_sign_convention():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 6)
    eig = linalg.sym_eigen(a)
    for j in range(6):
        col = eig.vectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-14)[0]
        assert col[nz[0]] > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_eigendecomposition_reconstructs(dim, seed):
    a = random_spd(np.random.default_rng(seed), dim)
    eig = linalg.sym_eigen(a)
    err = np.linalg.norm(eig.reconstruct() - a) / np.linalg.norm(a)
    assert err <= 1e-10
    gram = eig.vectors.T @ eig.vectors
    assert np.abs(gram - np.eye(dim)).max() <= 1e-10


def test_spectral_condition_number_identity_and_diag():
    assert linalg.spectral_condition_number(np.eye(4)) == pytest.approx(1.0)
    assert linalg.spectral_condition_number(np.diag([10.0, 0.1])) == pytest.approx(100.0)


def test_spectral_condition_number_fixture_correlation():
    d = np.sqrt(np.diag(SIGMA_PI_FIXTURE))
    corr = SIGMA_PI_FIXTURE / np.outer(d, d)
    assert round(linalg.spectral_condition_number(corr), -2) == 8100.0


def test_spectral_condition_number_singular():
    with pytest.raises(SingularMatrixError):
        linalg.spectral_condition_number(np.diag([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-100.0, max_value=100.0).filter(lambda c: abs(c) > 1e-3),
    st.integers(min_value=0, max_value=10**6),
)
def test_condition_number_scale_invariant(c, seed):
    a = random_spd(np.random.default_rng(seed), 4)
    base = linalg.spectral_condition_number(a)
    scaled = linalg.spectral_condition_number(c * a)
    assert scaled == pytest.approx(base, rel=1e-10)


def test_sym_sqrt_trivial():
    assert np.allclose(linalg.sym_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(linalg.sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sym_sqrt_multiply_back():
    a = random_spd(np.random.default_rng(11), 4)
    r = linalg.sym_sqrt(a)
    assert np.linalg.norm(r @ r - a) / np.linalg.norm(a) <= 1e-9
    ri = linalg.sym_inv_sqrt(a)
    assert np.linalg.norm(ri @ ri - np.linalg.inv(a)) <= 1e-9 * np.linalg.norm(np.linalg.inv(a))


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(DefinitenessError) as err:
        linalg.sym_sqrt(np.diag([1.0, -2.0]))
    assert err.value.offending_eigenvalue == pytest.approx(-2.0)


def test_symmetrize_orthogonal_gives_identity():
    theta = 0.7
    q = linalg.givens_rotation(theta)
    assert np.allclose(linalg.symmetrize_preconditioner(q), np.eye(2), atol=1e-12)


def test_symmetrize_negative_diagonal():
    assert np.allclose(
        linalg.symmetrize_preconditioner(np.diag([-2.0, 3.0])), np.diag([2.0, 3.0])
    )


def test_symmetrize_idempotent():
    rng = np.random.default_rng(3)
    l = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    once = linalg.symmetrize_preconditioner(l)
    twice = linalg.symmetrize_preconditioner(once)
    assert np.abs(twice - once).max() <= 1e-12


def test_symmetrize_rejects_rank_deficient():
    with pytest.raises(SingularMatrixError):
        linalg.symmetrize_preconditioner(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_givens_rotation_values():
    assert np.allclose(linalg.givens_rotation(0.0), np.eye(2))
    assert np.allclose(linalg.givens_rotation(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)
    g = linalg.givens_rotation(np.pi / 4)
    assert np.allclose(np.abs(g), 1 / np.sqrt(2))


def test_loewner_leq():
    assert linalg.loewner_leq(np.eye(2), 2 * np.eye(2), 0.0)
    assert not linalg.loewner_leq(2 * np.eye(2), np.eye(2), 0.0)
    with pytest.raises(DimensionMismatchError):
        linalg.loewner_leq(np.eye(2), np.eye(3), 0.0)


def test_spectral_norm():
    assert linalg.spectral_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)


def test_check_symmetric_and_spectral_norm_on_a_stack():
    rng = np.random.default_rng(12)
    stack = np.stack([random_spd(rng, 4) - 3.0 * np.eye(4) for _ in range(7)])
    stack[2, 0, 1] += 1e-14  # roundoff-level asymmetry, tolerated per matrix
    assert np.array_equal(linalg.check_symmetric(stack), stack)
    norms = linalg.spectral_norm(stack)
    assert norms.tolist() == [linalg.spectral_norm(a) for a in stack]
    assert linalg.spectral_norm(stack.reshape(7, 1, 4, 4)).shape == (7, 1)
    assert isinstance(linalg.spectral_norm(stack[0]), float)


@pytest.mark.parametrize("bad, error", [
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), NonFiniteInputError),
    (np.array([[1.0, 2.0], [0.0, 1.0]]), DimensionMismatchError),
    # asymmetry 1e-10 is beyond the tolerance of this matrix's own scale, even
    # though the largest entry of the stack would tolerate it
    (np.array([[1.0, 1e-10], [0.0, 1.0]]), DimensionMismatchError),
])
def test_stack_with_one_bad_matrix_raises_like_that_matrix(bad, error):
    stack = np.stack([np.eye(2), 1e6 * np.eye(2), bad, np.eye(2)])
    for fn in (linalg.check_symmetric, linalg.spectral_norm):
        with pytest.raises(error) as alone:
            fn(bad)
        with pytest.raises(error) as stacked:
            fn(stack)
        assert str(stacked.value) == str(alone.value)


def test_single_matrix_functions_reject_stacks():
    stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        linalg.sym_eigen(stack)
    with pytest.raises(DimensionMismatchError):
        linalg.loewner_leq(stack, stack)
    with pytest.raises(DimensionMismatchError):
        linalg.check_symmetric(np.ones(3))
