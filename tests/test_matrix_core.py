import numpy as np
import pytest

from finfactor import (
    DEFAULT_TOL,
    ToleranceConfig,
    direct_sum,
    frobenius_norm,
    hermitian_function,
    identity,
    load_matrix,
    matrix_from_doc,
    matrix_to_doc,
    normalized_trace,
    operator_norm,
    save_matrix,
    unit_matrix,
)
from finfactor.errors import (
    DimensionMismatch,
    DimensionOverflow,
    FileFormatError,
    NotSelfAdjoint,
)
from finfactor.matrix_core import (
    as_matrix,
    check_array_budget,
    projection_residual,
    random_hermitian,
    random_matrix,
    random_unitary,
    self_adjoint_residual,
)


class TestNormalizedTrace:
    def test_identity_is_one(self):
        assert normalized_trace(identity(4)) == 1.0

    def test_rank_one_diagonal(self):
        assert normalized_trace(unit_matrix(4, 0, 0)) == pytest.approx(0.25)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        u = random_unitary(5, rng)
        x = random_matrix(5, rng)
        lhs = normalized_trace(u @ x @ u.conj().T)
        assert abs(lhs - normalized_trace(x)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_tracial(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            a, b = random_matrix(n, rng), random_matrix(n, rng)
            assert abs(normalized_trace(a @ b) - normalized_trace(b @ a)) < 1e-12


class TestHermitianFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(2)
        x = random_hermitian(6, rng)
        assert frobenius_norm(hermitian_function(x, lambda t: t) - x) < 1e-12

    def test_sqrt_diagonal(self):
        x = 4.0 * unit_matrix(2, 0, 0)
        assert frobenius_norm(hermitian_function(x, np.sqrt) - 2.0 * unit_matrix(2, 0, 0)) < 1e-14

    def test_semicircle_map_on_known_spectrum(self):
        # f(t) = sqrt(1 - t^2) sends eigenvalues {0, 1/2, 1} to {1, sqrt(3)/2, 0};
        # f has infinite slope at t=1, so sqrt(eps) sets the attainable accuracy
        rng = np.random.default_rng(3)
        u = random_unitary(3, rng)
        x = u @ np.diag([0.0, 0.5, 1.0]).astype(complex) @ u.conj().T
        expected = u @ np.diag([1.0, np.sqrt(3.0) / 2.0, 0.0]).astype(complex) @ u.conj().T
        got = hermitian_function(x, lambda t: np.sqrt(max(0.0, 1.0 - t * t)))
        assert frobenius_norm(got - expected) < 1e-7

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_matrix(5, rng)
            x = a @ a.conj().T  # PSD
            r = hermitian_function(x, lambda t: np.sqrt(max(t, 0.0)))
            assert frobenius_norm(r @ r - x) < 1e-10

    def test_commutes_with_input(self):
        rng = np.random.default_rng(5)
        x = random_hermitian(5, rng)
        f = hermitian_function(x, np.tanh)
        assert frobenius_norm(f @ x - x @ f) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotSelfAdjoint):
            hermitian_function(unit_matrix(2, 0, 1), lambda t: t)


class TestTensorAndDirectSum:
    def test_direct_sum_identities(self):
        assert np.array_equal(direct_sum(identity(2), identity(3)), identity(5))

    def test_direct_sum_trace(self):
        x = direct_sum(unit_matrix(1, 0, 0), np.zeros((2, 2), dtype=complex))
        assert normalized_trace(x) == pytest.approx(1.0 / 3.0)

    def test_direct_sum_spectrum_union(self):
        rng = np.random.default_rng(8)
        a, b = random_hermitian(3, rng), random_hermitian(4, rng)
        combined = np.sort(np.linalg.eigvalsh(direct_sum(a, b)))
        separate = np.sort(np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)]))
        assert np.max(np.abs(combined - separate)) < 1e-10


class TestStructuralChecks:
    # the residuals compression and matrix_units check projections and
    # self-adjoint elements by; unitarity is read off frobenius_norm
    @staticmethod
    def _flags(x):
        tol = DEFAULT_TOL.structural_tol
        return (
            self_adjoint_residual(x) < tol,
            projection_residual(x) < tol,
            frobenius_norm(x.conj().T @ x - identity(x.shape[0])) < tol,
        )

    def test_rank_one_projection(self):
        assert self._flags(unit_matrix(3, 0, 0)) == (True, True, False)

    def test_identity_all_three(self):
        assert self._flags(identity(3)) == (True, True, True)

    def test_cyclic_shift_unitary_only(self):
        perm = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            perm[i, (i + 1) % 4] = 1.0
        assert self._flags(perm) == (False, False, True)


class TestOperatorNorm:
    def test_submultiplicative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_matrix(4, rng), random_matrix(4, rng)
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-12


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            as_matrix(bad)

    def test_tolerance_config_bounds(self):
        with pytest.raises(ValueError):
            ToleranceConfig(zero_block_eta=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(span_tol=1.5)


def test_array_budget_admits_1_gib_of_complex_entries_and_no_more():
    check_array_budget(1 << 26, "at the budget")
    with pytest.raises(DimensionOverflow, match="past the budget needs 1.0 GiB"):
        check_array_budget((1 << 26) + 1, "past the budget")


class TestMatrixFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        x = random_matrix(5, rng)
        path = tmp_path / "m.json"
        save_matrix(path, x)
        assert np.array_equal(load_matrix(path), x)

    def test_doc_shape(self):
        doc = matrix_to_doc(identity(2))
        assert doc["dim"] == 2 and len(doc["entries"]) == 4
        assert doc["entries"][0] == [1.0, 0.0]

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(FileFormatError):
            matrix_from_doc({"dim": 2, "entries": [[1.0, 0.0]]})

    def test_rejects_non_numeric(self):
        with pytest.raises(FileFormatError):
            matrix_from_doc({"dim": 1, "entries": [["a", 0.0]]})

    def test_rejects_bad_dim(self):
        with pytest.raises(FileFormatError):
            matrix_from_doc({"dim": 0, "entries": []})

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(FileFormatError):
            load_matrix(path)

    def test_default_tolerances(self):
        assert DEFAULT_TOL.zero_block_eta == 1e-10
        assert DEFAULT_TOL.structural_tol == 1e-8
        assert DEFAULT_TOL.span_tol == 1e-8
