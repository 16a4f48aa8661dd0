from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from finfactor import (
    GeneratorTuple,
    ToleranceConfig,
    align_families,
    block_pattern,
    conjugate_family,
    diagonal_family,
    direct_sum,
    direct_sum_family,
    family_from_grouping,
    family_from_units,
    generate,
    hyperfinite_pair,
    identity,
    interaction_index,
    minimize_index,
    refine,
    shift_pair,
    standard_units,
    support,
    unit_matrix,
)
from finfactor import sparsity
from finfactor.errors import (
    FactorTooSmall,
    NotDivisible,
    SizeMismatch,
    SupportMismatch,
    UnknownStrategy,
)
from finfactor.matrix_core import random_hermitian, random_matrix, random_unitary
from finfactor.matrix_units import MatrixUnitSystem, amplified_units, placed_units
from finfactor.sparsity import ProjectionFamily

from helpers import (
    grouping_block_count,
    reference_block_pattern,
    reference_grouping_search,
    reference_support_mask,
)


def m4_shift_tuple():
    return GeneratorTuple.of(list(shift_pair(standard_units(4))))


class TestBlockPattern:
    def test_identity_is_diagonal(self):
        pat = block_pattern(identity(4), diagonal_family(4, 4))
        assert pat.positions() == [(j, j) for j in range(4)]

    def test_single_unit_single_bit(self):
        pat = block_pattern(unit_matrix(4, 0, 1), diagonal_family(4, 4))
        assert pat.positions() == [(0, 1)]

    def test_shift_pattern(self):
        _, x2 = shift_pair(standard_units(4))
        pat = block_pattern(x2, diagonal_family(4, 4))
        assert sorted(pat.positions()) == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]

    def test_zero_matrix_empty(self):
        pat = block_pattern(np.zeros((4, 4), dtype=complex), diagonal_family(4, 2))
        assert pat.count == 0

    def test_symmetric_for_self_adjoint(self):
        rng = np.random.default_rng(40)
        fam = conjugate_family(diagonal_family(6, 3), random_unitary(6, rng))
        pat = block_pattern(random_hermitian(6, rng), fam)
        assert np.array_equal(pat.bits, pat.bits.T)

    def test_adjoint_transposes_pattern(self):
        rng = np.random.default_rng(41)
        fam = conjugate_family(diagonal_family(6, 2), random_unitary(6, rng))
        x = random_matrix(6, rng)
        a = block_pattern(x, fam).bits
        b = block_pattern(x.conj().T, fam).bits
        assert np.array_equal(a.T, b)


class TestInteractionIndex:
    def test_single_unit(self):
        rep = interaction_index([unit_matrix(4, 0, 0)], diagonal_family(4, 4))
        assert rep.index == Fraction(1, 16)

    def test_shift_pair_m4(self):
        rep = interaction_index(m4_shift_tuple(), diagonal_family(4, 4))
        assert rep.index == Fraction(7, 16)

    def test_zero_element(self):
        rep = interaction_index([np.zeros((4, 4), dtype=complex)], diagonal_family(4, 2))
        assert rep.index == 0

    def test_bounds_for_single_element(self):
        rng = np.random.default_rng(42)
        fam = diagonal_family(6, 3)
        for _ in range(10):
            rep = interaction_index([random_matrix(6, rng)], fam)
            assert 0 < rep.index <= 1

    def test_zero_iff_zero_matrix(self):
        fam = diagonal_family(4, 2)
        rng = np.random.default_rng(43)
        assert interaction_index([np.zeros((4, 4), dtype=complex)], fam).index == 0
        assert interaction_index([random_matrix(4, rng)], fam).index > 0

    def test_tuple_additivity_exact(self):
        rng = np.random.default_rng(44)
        fam = conjugate_family(diagonal_family(4, 2), random_unitary(4, rng))
        xs = [random_matrix(4, rng), random_hermitian(4, rng), unit_matrix(4, 1, 2)]
        total = interaction_index(xs, fam).index
        parts = sum(interaction_index([x], fam).index for x in xs)
        assert total == parts

    def test_unitary_covariance_exact_bits(self):
        rng = np.random.default_rng(45)
        fam = diagonal_family(6, 3)
        x = random_matrix(6, rng)
        u = random_unitary(6, rng)
        before = [p.bits for p in interaction_index([x], fam).patterns]
        after_fam = conjugate_family(fam, u)
        after = [
            p.bits
            for p in interaction_index([u @ x @ u.conj().T], after_fam).patterns
        ]
        assert np.array_equal(before[0], after[0])

    def test_index_bounded_by_support_rectangle(self):
        rng = np.random.default_rng(46)
        fam = diagonal_family(8, 4)
        for _ in range(10):
            x = random_matrix(8, rng) * (rng.random() > 0.5)
            pat = block_pattern(x, fam)
            rows = int(pat.bits.any(axis=1).sum())
            cols = int(pat.bits.any(axis=0).sum())
            _, trace = support(x, fam)
            assert Fraction(pat.count, 16) <= Fraction(rows * cols, 16)
            assert rows * cols <= (4 * trace) ** 2


class TestSupport:
    def test_single_unit(self):
        fam = diagonal_family(4, 4)
        proj, trace = support(unit_matrix(4, 0, 1), fam)
        assert trace == Fraction(1, 2)
        assert np.allclose(proj, fam.projections[0] + fam.projections[1])

    def test_identity_full_support(self):
        _, trace = support(identity(4), diagonal_family(4, 2))
        assert trace == 1

    def test_shift_full_support(self):
        _, x2 = shift_pair(standard_units(4))
        proj, trace = support(x2, diagonal_family(4, 4))
        assert trace == 1 and np.allclose(proj, identity(4))

    def test_support_is_projection(self):
        rng = np.random.default_rng(47)
        fam = conjugate_family(diagonal_family(6, 2), random_unitary(6, rng))
        proj, _ = support(random_matrix(6, rng), fam)
        assert np.linalg.norm(proj @ proj - proj) < 1e-10


class TestRefine:
    def test_diagonal_split(self):
        fine = refine(diagonal_family(4, 2), 2)
        expected = diagonal_family(4, 4)
        fine.validate()
        assert fine.k == 4
        # same span of diagonal projections, possibly reordered within groups
        got = sorted(tuple(np.round(np.diag(p).real).astype(int)) for p in fine.projections)
        want = sorted(tuple(np.round(np.diag(p).real).astype(int)) for p in expected.projections)
        assert got == want

    def test_r_one_is_identity_operation(self):
        fam = diagonal_family(4, 2)
        assert refine(fam, 1) is fam

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            refine(diagonal_family(4, 2), 3)

    def test_monotone_on_random_instances(self):
        rng = np.random.default_rng(48)
        for _ in range(25):
            fam = conjugate_family(diagonal_family(12, 2), random_unitary(12, rng))
            x = random_matrix(12, rng)
            coarse = interaction_index([x], fam).index
            for r in (2, 3):
                fine = interaction_index([x], refine(fam, r)).index
                assert fine <= coarse

    def test_zero_parent_forces_zero_children(self):
        fam = diagonal_family(8, 2)
        x = fam.projections[0] @ np.ones((8, 8)) @ fam.projections[0]
        fine = refine(fam, 2)
        pat = block_pattern(x, fine)
        assert all(i < 2 and j < 2 for i, j in pat.positions())


class TestMinimizeIndex:
    def test_two_diagonal_elements(self):
        xs = [np.diag([1.0, 2, 3, 4]).astype(complex), np.diag([5.0, 1, 2, 8]).astype(complex)]
        _, rep = minimize_index(xs, 2, seed=0)
        assert rep.index == 1  # two elements, two diagonal blocks out of four each

    def test_identity_any_family_optimal(self):
        _, rep = minimize_index([identity(4)], 4, seed=0)
        assert rep.index == Fraction(1, 4)

    def test_matches_exhaustive_grouping_oracle(self):
        tup = m4_shift_tuple()
        _, rep = minimize_index(tup, 2, seed=0)
        best = None
        for other in ((1,), (2,), (3,)):
            g1 = [0, other[0]]
            g2 = [i for i in range(4) if i not in g1]
            count = sum(grouping_block_count(x, [g1, g2]) for x in tup.elements)
            value = Fraction(count, 4)
            best = value if best is None else min(best, value)
        assert rep.index == best == Fraction(3, 4)

    def test_never_worse_than_standard_diagonal(self):
        rng = np.random.default_rng(49)
        for seed in range(3):
            xs = [random_matrix(8, rng) * (np.abs(random_matrix(8, rng)) > 1.2) for _ in range(2)]
            standard = interaction_index(xs, diagonal_family(8, 4)).index
            for strategy in ("diagonal_grouping", "unitary_local_search", "combined"):
                _, rep = minimize_index(xs, 4, strategy=strategy, seed=seed, restarts=2, iters=40)
                assert rep.index <= standard

    def test_deterministic_given_seed(self):
        tup = m4_shift_tuple()
        _, a = minimize_index(tup, 2, seed=7)
        _, b = minimize_index(tup, 2, seed=7)
        assert a.to_doc() == b.to_doc()

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            minimize_index([identity(4)], 3)

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_k_is_rejected(self, k):
        with pytest.raises(NotDivisible, match="positive divisor"):
            minimize_index([identity(4)], k)

    def test_unknown_strategy(self):
        with pytest.raises(UnknownStrategy):
            minimize_index([identity(4)], 2, strategy="anneal")

    @pytest.mark.parametrize("strategy", ["diagonal_grouping", "unitary_local_search", "combined"])
    def test_negative_restarts_is_rejected(self, strategy):
        with pytest.raises(ValueError, match="restarts must be a non-negative integer"):
            minimize_index([identity(4)], 2, strategy=strategy, restarts=-1)

    @pytest.mark.parametrize("strategy", ["unitary_local_search", "combined"])
    def test_unitary_strategies_count_blocks_only_for_the_report(self, monkeypatch, strategy):
        calls = []

        def counted(x, fam, cfg=sparsity.DEFAULT_TOL):
            calls.append(fam.k)
            return block_pattern(x, fam, cfg)

        monkeypatch.setattr(sparsity, "block_pattern", counted)
        xs = _planted_tuple(16, np.random.default_rng(3))
        minimize_index(xs, 4, strategy=strategy, seed=5, restarts=2, iters=200)
        assert calls == [4] * len(xs)

    def test_unitary_local_search_returns_the_standard_diagonal_family(self):
        xs = _planted_tuple(16, np.random.default_rng(4))
        for k in (2, 4, 8):
            fam, rep = minimize_index(xs, k, strategy="unitary_local_search", seed=9)
            assert fam.basis.tobytes() == diagonal_family(16, k).basis.tobytes()
            assert rep.family_id == "unitary_search:seed=9,from=standard_diagonal,accepted=0"

    def test_combined_returns_the_grouping_family(self):
        xs = _planted_tuple(32, np.random.default_rng(5))
        for seed, restarts in ((0, 0), (7, 2), (11, 3)):
            runs = [
                minimize_index(xs, 8, strategy=strategy, seed=seed, restarts=restarts)
                for strategy in ("diagonal_grouping", "combined")
            ]
            (fam, rep), (comb_fam, comb_rep) = runs
            assert comb_fam.basis.tobytes() == fam.basis.tobytes()
            assert comb_rep.index == rep.index
            assert comb_rep.family_id == (
                f"unitary_search:seed={seed},from={rep.family_id},accepted=0"
            )


def _planted_tuple(n, rng):
    """Two elements, block diagonal plus one off-diagonal block against a
    hidden balanced grouping into 8 parts, rows and columns permuted."""
    m = n // 8
    perm = rng.permutation(n)
    xs = []
    for _ in range(2):
        x = np.zeros((n, n), dtype=complex)
        for j in range(8):
            x[j * m : (j + 1) * m, j * m : (j + 1) * m] = random_matrix(m, rng)
        i, j = rng.choice(8, size=2, replace=False)
        x[i * m : (i + 1) * m, j * m : (j + 1) * m] = random_matrix(m, rng)
        xs.append(x[np.ix_(perm, perm)])
    return xs


def _grouping_search_cases():
    """(tuple, k, restarts): planted n=16/32/48 at k=4/8, then random sparse,
    dense and 1e-8-scaled tuples of one to three elements at k=1, k=n and a
    proper divisor, with restarts cycling through 0..3."""
    rng = np.random.default_rng(2024)
    cases = [(_planted_tuple(n, rng), k) for n in (16, 32, 48) for k in (4, 8)]
    for n, k in ((6, 1), (6, 6), (6, 3), (8, 8), (8, 2), (12, 4), (12, 12), (12, 6)):
        for kind in ("sparse", "dense", "scaled"):
            xs = [random_matrix(n, rng) for _ in range(int(rng.integers(1, 4)))]
            if kind != "dense":
                xs = [x * (rng.random((n, n)) < 0.2) for x in xs]
            if kind == "scaled":
                xs = [1e-8 * x for x in xs]
            cases.append((xs, k))
    return [(xs, k, i % 4) for i, (xs, k) in enumerate(cases)]


@pytest.mark.parametrize(
    "strategy, sweep_bytes",
    [(strategy, None) for strategy in sparsity.STRATEGIES] + [("diagonal_grouping", 2000)],
)
def test_grouping_search_matches_one_swap_reference(monkeypatch, strategy, sweep_bytes):
    # 2000 bytes cuts every partner sweep into batches of one to a few swaps
    if sweep_bytes is not None:
        monkeypatch.setattr(sparsity, "_SWEEP_BYTES", sweep_bytes)
    batched = sparsity._grouping_search
    for seed, (xs, k, restarts) in enumerate(_grouping_search_cases()):
        results = []
        for search in (batched, reference_grouping_search):
            monkeypatch.setattr(sparsity, "_grouping_search", search)
            results.append(
                minimize_index(xs, k, strategy=strategy, seed=seed, restarts=restarts, iters=4)
            )
        (fam, rep), (ref_fam, ref_rep) = results
        assert rep.family_id == ref_rep.family_id, (seed, k)
        assert rep.index == ref_rep.index, (seed, k)
        assert fam.projections.tobytes() == ref_fam.projections.tobytes(), (seed, k)


class TestDirectSumFamily:
    def test_member_traces(self):
        fam = direct_sum_family(diagonal_family(2, 2), diagonal_family(2, 2))
        fam.validate()
        assert fam.ambient_dim == 4 and fam.k == 2

    def test_identity_summands(self):
        z = np.zeros((2, 2), dtype=complex)
        xs = [direct_sum(identity(2), z), direct_sum(z, identity(2))]
        fam = direct_sum_family(diagonal_family(2, 2), diagonal_family(2, 2))
        rep = interaction_index(xs, fam)
        assert rep.index == Fraction(1, 2) + Fraction(1, 2)

    def test_additivity_on_summand_supported_tuples(self):
        rng = np.random.default_rng(50)
        fam_a = conjugate_family(diagonal_family(4, 2), random_unitary(4, rng))
        fam_b = conjugate_family(diagonal_family(4, 2), random_unitary(4, rng))
        a = fam_a.projections[0] @ random_matrix(4, rng) @ fam_a.projections[1]
        b = random_matrix(4, rng)
        z = np.zeros((4, 4), dtype=complex)
        combined = interaction_index(
            [direct_sum(a, z), direct_sum(z, b)], direct_sum_family(fam_a, fam_b)
        ).index
        expected = interaction_index([a], fam_a).index + interaction_index([b], fam_b).index
        assert combined == expected

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            direct_sum_family(diagonal_family(4, 2), diagonal_family(4, 4))


class TestAlignFamilies:
    def test_standard_family_aligns_trivially(self):
        d = diagonal_family(6, 3)
        w1, w2 = align_families(d, d)
        for j in range(3):
            res = w1.conj().T @ d.projections[j] @ w1 - d.projections[j]
            assert np.linalg.norm(res) < 1e-10

    def test_permuted_family_gives_permutation(self):
        d = diagonal_family(4, 2)
        perm = family_from_grouping(4, [[2, 3], [0, 1]])
        w1, w2 = align_families(d, perm)
        # w2 carries standard blocks onto the permuted ones: entries are 0/1 up to phase
        mags = np.abs(w2)
        assert np.allclose(np.sort(mags, axis=0)[-1], 1.0)
        assert np.allclose(mags.sum(axis=0), 1.0)
        for j in range(2):
            res = w2 @ d.projections[j] @ w2.conj().T - perm.projections[j]
            assert np.linalg.norm(res) < 1e-10

    def test_intertwiner_becomes_block_diagonal(self):
        rng = np.random.default_rng(51)
        n, k, rank = 8, 4, 2
        d = diagonal_family(n, k)
        g, h = random_unitary(n, rng), random_unitary(n, rng)
        E, F = conjugate_family(d, g), conjugate_family(d, h)
        c = np.zeros((n, n), dtype=complex)
        for j in range(k):
            c[j * rank : (j + 1) * rank, j * rank : (j + 1) * rank] = random_unitary(rank, rng)
        u = g @ c @ h.conj().T
        w1, w2 = align_families(E, F)
        v = w1.conj().T @ u @ w2
        pat = block_pattern(v, d)
        assert pat.positions() == [(j, j) for j in range(k)]
        assert Fraction(pat.count, k * k) == Fraction(1, k)

    def test_returns_the_family_bases(self):
        rng = np.random.default_rng(52)
        E = conjugate_family(diagonal_family(6, 3), random_unitary(6, rng))
        F = family_from_grouping(6, [[4, 1], [0, 5], [2, 3]])
        w1, w2 = align_families(E, F)
        assert w1 is E.basis and w2 is F.basis


class TestHyperfinitePair:
    def test_two_factor_values(self):
        x1, x2, tower = hyperfinite_pair([3, 3])
        rep = interaction_index([x1, x2], family_from_units(tower[0]))
        assert rep.index == Fraction(7, 9)
        assert generate([x1, x2]).dim == 81

    def test_mixed_factor_values(self):
        x1, x2, tower = hyperfinite_pair([4, 3])
        rep = interaction_index([x1, x2], family_from_units(tower[0]))
        assert rep.index == Fraction(9, 16)
        assert rep.index <= Fraction(3, 4)

    def test_single_factor_degenerates(self):
        x1, x2, tower = hyperfinite_pair([3])
        expected = unit_matrix(3, 0, 0) + 0.5 * unit_matrix(3, 1, 1)
        assert np.allclose(x1, expected)
        assert generate([x1, x2]).dim == 9

    def test_index_independent_of_weights(self):
        for weights in ((0.5, 0.5), (0.5, 1.0 / 3.0), (0.25, 0.7)):
            x1, x2, tower = hyperfinite_pair([3, 3], weights=weights)
            rep = interaction_index([x1, x2], family_from_units(tower[0]))
            assert rep.index == Fraction(7, 9)
            assert generate([x1, x2]).dim == 81

    def test_tower_systems_are_valid(self):
        from finfactor import verify

        _, _, tower = hyperfinite_pair([3, 3])
        for sys in tower:
            rep = verify(sys)
            assert rep.passed and rep.full

    def test_outputs_self_adjoint(self):
        x1, x2, _ = hyperfinite_pair([3, 4])
        assert np.allclose(x1, x1.conj().T)
        assert np.array_equal(x2, x2.conj().T)

    def test_factor_too_small(self):
        with pytest.raises(FactorTooSmall):
            hyperfinite_pair([2, 3])

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("FINFACTOR_DIM_CAP", "8")
        with pytest.raises(Exception):
            hyperfinite_pair([3, 3])

    @pytest.mark.parametrize("dims", [[3], [4, 3], [3, 3, 3]])
    def test_matches_kronecker_formula_exactly(self, dims):
        w1, w2 = 0.5, 1.0 / 3.0
        m = len(dims)

        def shift(d):
            return sum(unit_matrix(d, i, i + 1) + unit_matrix(d, i + 1, i) for i in range(d - 1))

        def at(level, mat, pre):
            factors = [pre(d) for d in dims[:level]] + [mat]
            return reduce(np.kron, factors + [identity(d) for d in dims[level + 1 :]])

        def corner(d):
            return unit_matrix(d, 1, 1)

        x1 = sum(w1 ** L * at(L, unit_matrix(dims[L], 0, 0), corner) for L in range(m))
        x1 = x1 + w1 ** m * reduce(np.kron, [corner(d) for d in dims])
        x2 = sum(w2 ** L * at(L, shift(dims[L]), corner) for L in range(m))

        got1, got2, tower = hyperfinite_pair(dims, weights=(w1, w2))
        assert np.array_equal(got1, x1)
        assert np.array_equal(got2, x2)
        assert [sys.k for sys in tower] == dims
        for L, sys in enumerate(tower):
            d = dims[L]
            for i in range(d):
                for j in range(d):
                    assert np.array_equal(sys.units[i, j], at(L, unit_matrix(d, i, j), identity))


class TestFamilyValidation:
    def test_diagonal_family_valid(self):
        diagonal_family(6, 3).validate()

    def test_grouping_must_partition(self):
        with pytest.raises(ValueError):
            family_from_grouping(4, [[0, 1], [1, 2]])

    def test_non_orthogonal_rejected(self):
        # columns e_1 and e_1 + e_2: the two members overlap
        fam = ProjectionFamily(ambient_dim=2, k=2, basis=np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(ValueError, match="not unitary"):
            fam.validate()

    def test_k_must_divide_n(self):
        with pytest.raises(NotDivisible):
            ProjectionFamily(ambient_dim=4, k=3, basis=identity(4)).validate()

    def test_eta_is_reported(self):
        cfg = ToleranceConfig(zero_block_eta=1e-6)
        rep = interaction_index([identity(4)], diagonal_family(4, 2), cfg)
        assert rep.eta == 1e-6


def _conjugated_units(k, copies, rng):
    u = random_unitary(k * copies, rng)
    units = u @ amplified_units(k, copies).units @ u.conj().T
    return MatrixUnitSystem(ambient_dim=k * copies, k=k, units=units)


def _families(rng):
    """(name, family) over every constructor, at n = 4..16."""
    out = []
    for n, k in ((4, 2), (6, 3), (8, 4), (12, 4), (16, 8)):
        groups = rng.permutation(n).reshape(k, -1).tolist()
        conj = conjugate_family(diagonal_family(n, k), random_unitary(n, rng))
        out.append(("grouped", family_from_grouping(n, groups)))
        out.append(("conjugated", conj))
        out.append(("units", family_from_units(_conjugated_units(k, n // k, rng))))
        if (n // k) % 2 == 0:
            out.append(("refined", refine(conj, 2)))
        if n <= 8:
            other = conjugate_family(diagonal_family(n, k), random_unitary(n, rng))
            out.append(("direct_sum", direct_sum_family(conj, other)))
    return out


def test_patterns_and_supports_match_the_projection_formula():
    rng = np.random.default_rng(2026)
    for trial in range(4):
        for name, fam in _families(rng):
            n, k, p = fam.ambient_dim, fam.k, fam.projections
            for scale in (1.0, 1e-8):
                x = np.zeros((n, n), dtype=complex)
                for _ in range(int(rng.integers(1, k * k))):
                    i, j = rng.integers(k, size=2)
                    x += p[i] @ random_matrix(n, rng) @ p[j]
                x *= scale
                for y in (x, random_matrix(n, rng) * scale):
                    bits = block_pattern(y, fam).bits
                    assert np.array_equal(bits, reference_block_pattern(y, p)), (name, trial)
                    mask = sparsity.support_mask(y, fam)
                    assert np.array_equal(mask, reference_support_mask(y, p)), (name, trial)


def test_projections_match_the_old_constructions():
    rng = np.random.default_rng(2027)
    groups = [[4, 1], [0, 5], [2, 3]]
    old = np.zeros((3, 6, 6), dtype=complex)
    for j, g in enumerate(groups):
        old[j, g, g] = 1.0
    assert family_from_grouping(6, groups).projections.tobytes() == old.tobytes()
    exact = [standard_units(5), amplified_units(4, 3)]
    exact += [placed_units([3, 4], 0, identity), hyperfinite_pair([3, 3, 3])[2][0]]
    for sys in exact:
        fam = family_from_units(sys)
        assert fam.projections.tobytes() == sys.diagonal_projections().tobytes()
    sys = _conjugated_units(3, 4, rng)
    assert np.abs(family_from_units(sys).projections - sys.diagonal_projections()).max() < 1e-12
    d = diagonal_family(8, 4)
    u = random_unitary(8, rng)
    conj = conjugate_family(d, u)
    assert np.abs(conj.projections - u @ d.projections @ u.conj().T).max() < 1e-12
    fine = refine(conj, 2)
    pairs = fine.projections.reshape(4, 2, 8, 8).sum(axis=1)
    assert np.abs(pairs - conj.projections).max() < 1e-12
    assert refine(d, 2).projections.tobytes() == diagonal_family(8, 8).projections.tobytes()
    other = conjugate_family(diagonal_family(4, 4), random_unitary(4, rng))
    summed = direct_sum_family(conj, other)
    old = np.stack([direct_sum(a, b) for a, b in zip(conj.projections, other.projections)])
    assert np.abs(summed.projections - old).max() < 1e-12
    for fam in (conj, fine, summed, family_from_units(sys)):
        fam.validate()


def test_units_that_are_not_a_unit_system_are_rejected():
    units = amplified_units(3, 2).units.copy()
    units[1, 0] *= 2.0       # e_21 doubled; the diagonal still sums to I
    sys = MatrixUnitSystem(ambient_dim=6, k=3, units=units)
    assert sys.is_full()
    with pytest.raises(SupportMismatch, match="off unitary"):
        family_from_units(sys)
