import numpy as np
import pytest

from finfactor import (
    ToleranceConfig,
    amplified_units,
    corner_chain,
    equal,
    generate,
    identity,
    nested_product,
    normalized_trace,
    shift_pair,
    standard_units,
    system_from_units,
    tensor_units,
    unit_matrix,
    verify,
)
from finfactor.errors import DimensionOverflow, SupportMismatch, SystemTooSmall


class TestStandardUnits:
    def test_size_one_is_identity(self):
        sys = standard_units(1)
        assert np.array_equal(sys.units[0, 0], identity(1))

    def test_axioms_hold_exactly(self):
        rep = verify(standard_units(3))
        assert rep.passed and rep.worst_residual < 1e-14

    def test_diagonal_traces(self):
        sys = standard_units(4)
        for j in range(4):
            assert normalized_trace(sys.units[j, j]) == pytest.approx(0.25)

    def test_amplified_units_full(self):
        sys = amplified_units(3, 2)
        rep = verify(sys)
        assert rep.passed and rep.full and sys.ambient_dim == 6
        assert normalized_trace(sys.units[0, 0]) == pytest.approx(1.0 / 3.0)

    def test_diagonal_trace_is_support_trace_over_k(self):
        # holds for non-full systems too: each tau(e_jj) is tau(support)/k
        units = np.zeros((2, 2, 3, 3), dtype=complex)
        for i in range(2):
            for j in range(2):
                units[i, j] = unit_matrix(3, i, j)
        sys = system_from_units(units)
        support_trace = normalized_trace(sys.support)
        for j in range(2):
            assert normalized_trace(sys.units[j, j]) == pytest.approx(support_trace.real / 2)

    def test_full_system_generates_k_squared(self):
        from finfactor import generate

        for k in (2, 3, 4):
            assert generate(standard_units(k).unit_list()).dim == k * k


class TestVerify:
    def test_doubled_unit_fails_product_axiom(self):
        units = standard_units(3).units.copy()
        units[0, 1] *= 2.0
        units[1, 0] *= 2.0  # now e_12 e_21 = 4 e_11
        rep = verify(system_from_units(units))
        assert not rep.passed
        assert rep.adjoint_residual < 1e-14  # still *-symmetric
        assert rep.product_residual == pytest.approx(3.0)

    def test_corner_embedding_passes_non_full(self):
        units = np.zeros((2, 2, 3, 3), dtype=complex)
        for i in range(2):
            for j in range(2):
                units[i, j] = unit_matrix(3, i, j)
        rep = verify(system_from_units(units))
        assert rep.passed and not rep.full

    def test_broken_adjoint_reported(self):
        units = standard_units(2).units.copy()
        units[1, 0] = 1j * units[1, 0]
        rep = verify(system_from_units(units))
        assert rep.adjoint_residual > 0.5


class TestShiftPair:
    def test_smallest_case(self):
        x1, x2 = shift_pair(standard_units(2))
        assert np.array_equal(x1, unit_matrix(2, 0, 0))
        assert np.array_equal(x2, unit_matrix(2, 0, 1) + unit_matrix(2, 1, 0))
        assert generate([x1, x2]).dim == 4

    def test_generates_k_squared(self):
        x1, x2 = shift_pair(standard_units(5))
        assert generate([x1, x2]).dim == 25

    def test_exactly_self_adjoint(self):
        _, x2 = shift_pair(standard_units(6))
        assert np.array_equal(x2, x2.conj().T)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_same_algebra_as_all_units(self, k):
        sys = standard_units(k)
        pair_algebra = generate(list(shift_pair(sys)))
        unit_algebra = generate(sys.unit_list())
        assert equal(pair_algebra, unit_algebra)

    def test_amplified_pair_matches_units(self):
        sys = amplified_units(3, 2)
        assert equal(generate(list(shift_pair(sys))), generate(sys.unit_list()))

    def test_too_small(self):
        with pytest.raises(SystemTooSmall):
            shift_pair(standard_units(1))


class TestTensorUnits:
    def test_two_by_three(self):
        t = tensor_units(standard_units(2), standard_units(3))
        rep = verify(t)
        assert rep.passed and t.k == 6 and rep.full

    def test_support_of_full_tensor_is_identity(self):
        t = tensor_units(standard_units(2), standard_units(2))
        assert np.allclose(t.support, identity(4))

    def test_trace_multiplicative(self):
        t = tensor_units(standard_units(2), standard_units(3))
        assert normalized_trace(t.units[0, 0]) == pytest.approx(1.0 / 6.0)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("FINFACTOR_DIM_CAP", "4")
        with pytest.raises(DimensionOverflow):
            tensor_units(standard_units(2), standard_units(3))

    @pytest.mark.parametrize(
        "build", [lambda: amplified_units(4, 3), lambda: corner_chain([3, 4])],
        ids=["amplified_units", "corner_chain"],
    )
    def test_builder_cap(self, monkeypatch, build):
        monkeypatch.setenv("FINFACTOR_DIM_CAP", "8")
        with pytest.raises(DimensionOverflow, match="ambient dimension 12 exceeds cap 8"):
            build()


class TestNestedProduct:
    def test_single_chain_unchanged(self):
        sys = standard_units(3)
        assert nested_product([sys]) is sys

    def test_two_level_chain_in_m6(self):
        nested = nested_product(corner_chain([2, 3]))
        rep = verify(nested)
        assert rep.passed and nested.k == 6 and rep.full

    def test_diagonal_family_traces_and_sum(self):
        nested = nested_product(corner_chain([2, 3]))
        diag = nested.diagonal_projections()
        for p in diag:
            assert normalized_trace(p) == pytest.approx(1.0 / 6.0)
        assert np.allclose(diag.sum(axis=0), identity(6))

    def test_three_level_chain(self):
        nested = nested_product(corner_chain([2, 2, 3]))
        rep = verify(nested)
        assert rep.passed and nested.k == 12

    def test_size_is_product(self):
        nested = nested_product(corner_chain([3, 4]))
        assert nested.k == 12 and nested.ambient_dim == 12

    def test_support_mismatch_detected(self):
        # a second level supported on e_11 instead of e_22 must be rejected
        chain = corner_chain([2, 3])
        units = np.zeros_like(chain[1].units)
        for s in range(3):
            for t in range(3):
                units[s, t] = np.kron(unit_matrix(2, 0, 0), unit_matrix(3, s, t))
        bad = system_from_units(units)
        with pytest.raises(SupportMismatch):
            nested_product([chain[0], bad])

    def test_first_level_must_be_full(self):
        corner = np.zeros((2, 2, 6, 6), dtype=complex)
        for i in range(2):
            for j in range(2):
                corner[i, j][i, j] = 1.0
        with pytest.raises(SupportMismatch):
            nested_product([system_from_units(corner), corner_chain([2, 3])[1]])

    def test_nonterminal_size_one_rejected(self):
        with pytest.raises(SystemTooSmall):
            corner_chain([1, 3])

    def test_matches_paper_style_tensor_form(self):
        # for the canonical chain the composite units are plain tensor products
        nested = nested_product(corner_chain([2, 3]))
        expected = tensor_units(standard_units(2), standard_units(3))
        assert np.allclose(nested.units, expected.units)


class TestVerifyWithTightTolerance:
    def test_nested_chains_pass_at_1e10(self):
        cfg = ToleranceConfig(structural_tol=1e-10)
        for sizes in ([2, 3], [3, 4]):
            rep = verify(nested_product(corner_chain(sizes), cfg), cfg)
            assert rep.passed
