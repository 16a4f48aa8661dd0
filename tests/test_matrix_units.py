import numpy as np
import pytest

from finfactor import (
    DEFAULT_TOL,
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
from finfactor.matrix_core import random_unitary
from finfactor.matrix_units import _outer_residual, placed_units

from helpers import reference_unit_products, traced_peak


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


def _loop_units(k, block):
    """Units stacked one pair (i, j) at a time: block(i, j) is unit e_ij."""
    return np.stack([np.stack([block(i, j) for j in range(k)]) for i in range(k)])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_kronecker_builders_are_byte_identical_to_loops(k):
    assert standard_units(k).units.tobytes() == _loop_units(k, lambda i, j: unit_matrix(k, i, j)).tobytes()
    for copies in (1, 2, 3):
        eye = np.eye(copies, dtype=complex)
        loop = _loop_units(k, lambda i, j: np.kron(unit_matrix(k, i, j), eye))
        assert amplified_units(k, copies).units.tobytes() == loop.tobytes()
    # complex phases on the outer units exercise signs, not only 0/1 entries
    rng = np.random.default_rng(k)
    outer = amplified_units(2, k)
    phases = np.exp(2j * np.pi * rng.random((2, 2, 1, 1)))
    a = system_from_units(outer.units * phases)
    b = standard_units(k)
    loop = _loop_units(
        2 * k, lambda r, c: np.kron(a.units[r // k, c // k], b.units[r % k, c % k])
    )
    assert tensor_units(a, b).units.tobytes() == loop.tobytes()


class TestVerify:
    def test_doubled_unit_fails_product_axiom(self):
        units = standard_units(3).units.copy()
        units[0, 1] *= 2.0
        units[1, 0] *= 2.0  # now e_12 e_21 = 4 e_11
        column = units[:, 0]  # c_2 = 2 e_21
        gram = max(
            np.linalg.norm(column[l].conj().T @ column[m] - (l == m) * units[0, 0])
            for l in range(3)
            for m in range(3)
        )
        assert gram == pytest.approx(3.0)  # c_2* c_2 = 4 e_11
        assert _outer_residual(column, units) == pytest.approx(3.0)  # e_22 - c_2 c_2* = -3 e_22
        assert reference_unit_products(units) == pytest.approx(3.0)
        rep = verify(system_from_units(units))
        assert not rep.passed
        assert rep.adjoint_residual < 1e-14  # still *-symmetric
        # the bound at gamma = phi = 3, s^2 = 7: 3 (1 + s + 28) + 21 + 9
        assert rep.product_residual == pytest.approx(3.0 * (29.0 + 7.0**0.5) + 30.0)
        assert rep.product_residual >= 3.0

    @pytest.mark.parametrize("shape", [(0, 0, 3, 3), (1, 1, 0, 0)])
    def test_empty_system_rejected(self, shape):
        with pytest.raises(SystemTooSmall):
            system_from_units(np.zeros(shape))

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
        "build",
        [lambda: amplified_units(4, 3), lambda: corner_chain([3, 4]), lambda: standard_units(12)],
        ids=["amplified_units", "corner_chain", "standard_units"],
    )
    def test_builder_cap(self, monkeypatch, build):
        monkeypatch.setenv("FINFACTOR_DIM_CAP", "8")
        with pytest.raises(DimensionOverflow, match="ambient dimension 12 exceeds cap 8"):
            build()


@pytest.mark.parametrize(
    "name", ["standard_units", "amplified_units", "placed_units", "tensor_units", "nested_product"]
)
def test_builders_refuse_past_the_array_budget_before_allocating(name):
    # 91^4, 50^2 200^2 and 100^4 complex entries pass 1 GiB; the inputs are small
    small = standard_units(10)
    chain = corner_chain([10, 10])
    build = {
        "standard_units": lambda: standard_units(91),
        "amplified_units": lambda: amplified_units(91, 1),
        "placed_units": lambda: placed_units([50, 4], 0, identity),
        "tensor_units": lambda: tensor_units(small, small),
        "nested_product": lambda: nested_product(chain),
    }[name]

    def refused():
        with pytest.raises(DimensionOverflow, match="unit system in M_"):
            build()

    assert traced_peak(refused) < 4 << 20


class TestNestedProduct:
    def test_single_chain_unchanged(self):
        sys = standard_units(3)
        assert nested_product([sys]) is sys

    def test_single_chain_must_be_full(self):
        # a corner embedding of M_2 in M_3 is refused alone as in a longer chain
        corner = np.zeros((2, 2, 3, 3), dtype=complex)
        for i in range(2):
            for j in range(2):
                corner[i, j] = unit_matrix(3, i, j)
        with pytest.raises(SupportMismatch, match="must be full"):
            nested_product([system_from_units(corner)])

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

    @pytest.mark.parametrize("sizes", [[6, 6], [2, 3, 4]])
    def test_peak_stays_near_the_returned_system(self, sizes):
        # each level writes its products straight into the composite's
        # layout: only the level's middle block and the previous level's
        # system are held beside it
        chain = corner_chain(sizes)
        built = []
        peak = traced_peak(lambda: built.append(nested_product(chain)))
        assert peak < 1.3 * built[0].units.nbytes

    def test_matches_paper_style_tensor_form(self):
        # for the canonical chain the composite units are plain tensor products
        nested = nested_product(corner_chain([2, 3]))
        expected = tensor_units(standard_units(2), standard_units(3))
        assert np.allclose(nested.units, expected.units)


def _perturbed(units, kind, eps, rng):
    """The units moved by about eps: independent noise on every unit
    ("noise"), noise that keeps e_ji = e_ij* ("hermitian"), or one off-diagonal
    pair scaled by 1 + eps ("pair")."""
    k, n = units.shape[0], units.shape[2]
    out = units.copy()
    if kind == "pair":
        i, j = rng.choice(k, size=2, replace=False)
        out[i, j] *= 1.0 + eps
        out[j, i] *= 1.0 + eps
        return out
    noise = rng.standard_normal(units.shape)
    if np.iscomplexobj(units):
        noise = noise + 1j * rng.standard_normal(units.shape)
    if kind == "hermitian":
        noise = noise + noise.conj().transpose(1, 0, 3, 2)
    return out + eps * noise / np.sqrt(n)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("sizes", [[2, 3], [3, 2], [2, 2], [4], [3, 3]])
def test_product_bound_holds_on_perturbed_systems(sizes, field):
    # 5 chains x 2 fields x 2 supports x 3 kinds x 10 eps: 600 systems
    cfg = DEFAULT_TOL
    base = nested_product(corner_chain(sizes)).units
    for support in ("full", "corner"):
        # the corner copy sits in M_{n+2}, where its support is not the identity
        units = base if support == "full" else np.pad(base, ((0, 0), (0, 0), (0, 2), (0, 2)))
        n = units.shape[2]
        for d, kind in enumerate(("noise", "hermitian", "pair")):
            for e, eps in enumerate(np.logspace(-12, -1, 10)):
                rng = np.random.default_rng([*sizes, n, d, e, int(field == "real")])
                if field == "real":
                    turn, _ = np.linalg.qr(rng.standard_normal((n, n)))
                    rotated = (turn @ units @ turn.T).real
                else:
                    turn = random_unitary(n, rng)
                    rotated = turn @ units @ turn.conj().T
                moved = _perturbed(rotated, kind, eps, rng)
                rep = verify(system_from_units(moved), cfg)
                exact = reference_unit_products(moved)
                assert rep.product_residual >= exact, (support, kind, eps)
                assert not rep.passed or exact < cfg.structural_tol


class TestVerifyWithTightTolerance:
    def test_nested_chains_pass_at_1e10(self):
        cfg = ToleranceConfig(structural_tol=1e-10)
        for sizes in ([2, 3], [3, 4]):
            rep = verify(nested_product(corner_chain(sizes), cfg), cfg)
            assert rep.passed


def _rotated_units(k, copies, seed):
    """amplified_units(k, copies) conjugated by a seeded orthogonal matrix:
    real units whose axiom residuals are rounding, not zero."""
    units = amplified_units(k, copies).units
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(units.shape[2:]))
    return q @ units @ q.T


def _phased(units, seed):
    """The units conjugated by a non-real diagonal unitary."""
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0.1, 3.0, units.shape[2]))
    return phases[:, None] * units * phases.conj()


class TestVerifyRealUnits:
    @pytest.mark.parametrize("broken", [False, True])
    @pytest.mark.parametrize("k, copies", [(3, 4), (4, 3), (6, 2)])
    def test_same_report_as_phased_copy(self, k, copies, broken):
        units = _rotated_units(k, copies, seed=k)
        if broken:
            units[0, 1] *= 1 + 1e-6
        real = verify(system_from_units(units))
        phased = verify(system_from_units(_phased(units, seed=k)))
        assert real.passed == phased.passed == (not broken)
        assert real.full == phased.full
        for name in ("adjoint_residual", "product_residual", "support_residual", "trace_spread"):
            assert abs(getattr(real, name) - getattr(phased, name)) <= 1e-15

    def test_real_units_run_in_real_arithmetic(self):
        real = nested_product(corner_chain([3, 4]))
        phased = system_from_units(_phased(real.units, seed=1))
        assert traced_peak(lambda: verify(real)) <= 0.8 * traced_peak(lambda: verify(phased))


def test_nested_product_commutes_with_unitary_conjugation():
    # dense complex units: every entry of the two batched products matters
    chain = corner_chain([3, 2, 2])
    u = random_unitary(12, np.random.default_rng(8))
    turned = [system_from_units(u @ s.units @ u.conj().T) for s in chain]
    expected = u @ nested_product(chain).units @ u.conj().T
    assert np.abs(nested_product(turned).units - expected).max() <= 1e-13
