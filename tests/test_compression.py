import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from finfactor import (
    GeneratorTuple,
    ToleranceConfig,
    amplified_units,
    cut_and_paste,
    equal,
    fuse,
    generate,
    identity,
    pipeline,
    recover_elements,
    shift_pair,
    single_generator_pair,
    standard_units,
    unit_matrix,
)
from finfactor.errors import (
    InconsistentAssignment,
    IndexTooLarge,
    NotSelfAdjoint,
    SupportTooLarge,
)
from finfactor import star_algebra
from finfactor.matrix_core import projection_residual, random_matrix
from finfactor.sparsity import family_from_units, support_mask


def sparse_element(n, cells, rng=None, value=1.0):
    x = np.zeros((n, n), dtype=complex)
    for i, j in cells:
        x[i, j] = value if rng is None else (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
    return x


class TestCutAndPaste:
    def test_zero_tuple(self):
        sys = standard_units(8)
        res = cut_and_paste([np.zeros((8, 8), dtype=complex)], sys)
        assert res.block_count == 0 and res.c == 0.0
        assert np.allclose(res.q, unit_matrix(8, 0, 0))
        assert res.support_trace <= Fraction(2, 8)

    def test_single_block_m8(self):
        sys = standard_units(8)
        x = sparse_element(8, [(2, 3)], value=1.5 + 0.5j)
        res = cut_and_paste([x], sys)
        assert res.block_count == 1
        assert res.c == pytest.approx(1.0 / 8.0)
        # rectangle for T=1: rows {0, 1}, cols {2, 3}; first target row-major
        assert res.assignment == {(2, 3, 0): (0, 2)}
        assert res.support_trace <= Fraction(1, 2)
        assert projection_residual(res.q) < 1e-8
        assert res.algebra_dim_inputs == res.algebra_dim_output == 64

    def test_sparse_pair_m12(self):
        # two elements, four blocks total: c^2 = 4/144, bound 1/3 + 1/6 = 1/2
        sys = standard_units(12)
        rng = np.random.default_rng(60)
        xs = [
            sparse_element(12, [(0, 5), (7, 2)], rng),
            sparse_element(12, [(4, 4), (9, 11)], rng),
        ]
        res = cut_and_paste(xs, sys)
        assert res.block_count == 4
        assert res.c == pytest.approx(1.0 / 6.0)
        assert res.support_trace <= Fraction(1, 2)
        assert res.algebra_dim_inputs == res.algebra_dim_output

    def test_assignment_targets_stay_in_rectangle(self):
        sys = standard_units(12)
        rng = np.random.default_rng(61)
        xs = [sparse_element(12, [(i, (i + 3) % 12) for i in range(6)], rng)]
        res = cut_and_paste(xs, sys)
        width = res.rect_width
        for (_, _, _), (s, t) in res.assignment.items():
            assert 0 <= s < width and width <= t < 2 * width

    def test_rejects_dense_input(self):
        rng = np.random.default_rng(62)
        with pytest.raises(IndexTooLarge):
            cut_and_paste([random_matrix(8, rng)], standard_units(8))

    def test_rejects_shift_pair_at_k8(self):
        sys = standard_units(8)  # T = 15 > (k/2 - 1)^2 = 9
        with pytest.raises(IndexTooLarge):
            cut_and_paste(list(shift_pair(sys)), sys)

    def test_accepts_shift_pair_at_k12(self):
        sys = standard_units(12)  # T = 23 <= 25
        res = cut_and_paste(list(shift_pair(sys)), sys)
        assert res.block_count == 23
        assert res.algebra_dim_inputs == res.algebra_dim_output == 144

    def test_rejects_k1(self):
        with pytest.raises(IndexTooLarge):
            cut_and_paste([np.zeros((1, 1), dtype=complex)], standard_units(1))

    def test_amplified_units_nontrivial_equality(self):
        # rank-2 units in M_16: the unit algebra alone is a proper subalgebra,
        # so the generation equality actually constrains q
        sys = amplified_units(8, 2)
        rng = np.random.default_rng(63)
        x = np.zeros((16, 16), dtype=complex)
        for i, j in [(1, 4), (6, 2)]:
            x += sys.units[i, i] @ random_matrix(16, rng) @ sys.units[j, j]
        res = cut_and_paste([x], sys)
        assert res.block_count == 2
        assert res.algebra_dim_inputs == res.algebra_dim_output
        assert res.algebra_dim_inputs > generate(sys.unit_list()).dim


class TestRecoverElements:
    def test_zero_roundtrip(self):
        sys = standard_units(8)
        res = cut_and_paste([np.zeros((8, 8), dtype=complex)], sys)
        rec = recover_elements(res, sys)
        assert np.allclose(rec.elements[0], 0.0)

    def test_single_block_roundtrip(self):
        sys = standard_units(8)
        x = sparse_element(8, [(2, 3)], value=1.5 + 0.5j)
        res = cut_and_paste([x], sys)
        rec = recover_elements(res, sys)
        assert np.linalg.norm(rec.elements[0] - x) < 1e-8

    def test_two_element_roundtrip_preserves_labels(self):
        sys = standard_units(12)
        rng = np.random.default_rng(64)
        xs = GeneratorTuple.of(
            [sparse_element(12, [(0, 5), (7, 2)], rng), sparse_element(12, [(4, 4)], rng)],
            labels=("alpha", "beta"),
        )
        res = cut_and_paste(xs, sys)
        rec = recover_elements(res, sys)
        assert rec.labels == ("alpha", "beta")
        for got, want in zip(rec.elements, xs.elements):
            assert np.linalg.norm(got - want) < 1e-8

    def test_rescale_undone_for_large_inputs(self):
        sys = standard_units(8)
        x = sparse_element(8, [(2, 3)], value=40.0)  # forces operator norm > 1
        res = cut_and_paste([x], sys)
        assert res.norm_rescale > 1.0
        rec = recover_elements(res, sys)
        assert np.linalg.norm(rec.elements[0] - x) < 1e-8 * np.linalg.norm(x)

    def test_inconsistent_assignment_rejected(self):
        sys = standard_units(8)
        x = sparse_element(8, [(2, 3)])
        res = cut_and_paste([x], sys)
        bad = dataclasses.replace(res, assignment={(2, 3, 0): (5, 6)})
        with pytest.raises(InconsistentAssignment):
            recover_elements(bad, sys)
        bad = dataclasses.replace(res, assignment={(2, 3, 9): (0, 2)})
        with pytest.raises(InconsistentAssignment):
            recover_elements(bad, sys)


class TestSingleGeneratorPair:
    def test_zero_projection_reduces_to_plain_pair(self):
        sys = standard_units(6)
        x1, x2 = single_generator_pair(np.zeros((6, 6), dtype=complex), sys)
        assert np.allclose(x1, unit_matrix(6, 0, 0))
        assert generate([x1, x2]).dim == 36

    def test_disjoint_diagonal_projection(self):
        sys = standard_units(8)
        q = unit_matrix(8, 1, 1) + unit_matrix(8, 2, 2)
        x1, x2 = single_generator_pair(q, sys)
        assert np.allclose(x1, unit_matrix(8, 0, 0) + 2.0 * q)
        assert generate([x1, x2]).dim == 64
        assert equal(generate([x1, x2]), generate([q] + sys.unit_list()))

    def test_relabeling_moves_free_block_first(self):
        sys = standard_units(4)
        q = unit_matrix(4, 0, 0)  # support on block 0; first free block is 1
        x1, _ = single_generator_pair(q, sys)
        assert np.allclose(x1, unit_matrix(4, 1, 1) + 2.0 * q)

    def test_support_too_large(self):
        sys = standard_units(4)
        q = sum(unit_matrix(4, j, j) for j in range(3))  # m = k - 1 violates the gate
        with pytest.raises(SupportTooLarge):
            single_generator_pair(q, sys)

    def test_equals_relabeled_corner_and_shift_exactly(self):
        sys = standard_units(8)
        q = cut_and_paste([sparse_element(8, [(2, 3), (5, 0)], value=0.75 - 0.25j)], sys).q
        free = np.nonzero(~support_mask(q, family_from_units(sys)))[0]
        perm = [(int(free[0]) + i) % 8 for i in range(8)]
        e = sys.units
        shift = np.zeros((8, 8), dtype=complex)
        for a, b in zip(perm, perm[1:]):
            shift = shift + e[a, b] + e[b, a]
        x1, x2 = single_generator_pair(q, sys)
        assert np.array_equal(x1, e[perm[0], perm[0]] + 2.0 * q)
        assert np.array_equal(x2, shift)

    def test_pipeline_projection_from_compression(self):
        sys = standard_units(8)
        x = sparse_element(8, [(2, 3)])
        res = cut_and_paste([x], sys)
        x1, x2 = single_generator_pair(res.q, sys)
        assert generate([x1, x2]).dim == 64


class TestFuse:
    def test_zero_second_component(self):
        rng = np.random.default_rng(65)
        x1 = (lambda a: (a + a.conj().T) / 2)(random_matrix(4, rng))
        a = fuse(x1, np.zeros((4, 4), dtype=complex))
        assert np.array_equal(a, x1)
        assert equal(generate([a]), generate([x1]))

    def test_components_recovered_exactly(self):
        sys = standard_units(4)
        x1, x2 = shift_pair(sys)
        a = fuse(x1, x2)
        assert np.array_equal((a + a.conj().T) / 2.0, x1)
        assert np.array_equal((a - a.conj().T) / 2j, x2)

    def test_plain_pair_fuses_to_full_algebra(self):
        x1, x2 = shift_pair(standard_units(4))
        assert generate([fuse(x1, x2)]).dim == 16

    def test_synthesized_pair_fuses_to_full_algebra(self):
        sys = standard_units(8)
        res = cut_and_paste([sparse_element(8, [(2, 3)])], sys)
        x1, x2 = single_generator_pair(res.q, sys)
        assert generate([fuse(x1, x2)]).dim == 64

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(NotSelfAdjoint):
            fuse(unit_matrix(2, 0, 1), identity(2))


class TestPipeline:
    def test_single_block_all_green(self):
        rep = pipeline([sparse_element(8, [(2, 3)])], standard_units(8))
        assert [s.name for s in rep.stages] == ["cut_and_paste", "single_generator_pair", "fuse"]
        assert all(s.ok for s in rep.stages)
        assert rep.final_algebra_dim == 64
        assert np.allclose(rep.final, rep.final)  # final element is finite

    def test_gate_failure_is_stage_labeled(self):
        rng = np.random.default_rng(66)
        with pytest.raises(IndexTooLarge, match=r"\[cut_and_paste\]"):
            pipeline([random_matrix(8, rng)], standard_units(8))

    def test_shift_pair_input_succeeds_at_k12(self):
        sys = standard_units(12)
        rep = pipeline(list(shift_pair(sys)), sys)
        assert rep.final_algebra_dim == 144
        stage1 = rep.stages[0]
        assert stage1.bounds["block_count"] == 23
        assert stage1.algebra_dims == {"before": 144, "after": 144}

    def test_reuses_the_verified_q_algebra(self, monkeypatch):
        # inputs+units, q+units, the pair and the fused element: one closure each
        calls = []
        real = star_algebra.generate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(star_algebra, "generate", counting)
        pipeline([sparse_element(8, [(2, 3)])], standard_units(8))
        assert len(calls) == 4

    def test_report_serializes(self):
        rep = pipeline([sparse_element(8, [(2, 3)])], standard_units(8))
        doc = rep.to_doc()
        assert doc["final_algebra_dim"] == 64
        assert len(doc["stages"]) == 3
        for stage in doc["stages"]:
            assert set(stage) == {"name", "ok", "bounds", "algebra_dims"}


class TestRandomInstances:
    @pytest.mark.parametrize("k", [4, 5, 6, 7, 9, 10, 11])
    def test_compression_invariants_across_sizes(self, k):
        cfg = ToleranceConfig(span_tol=1e-6)
        sys = standard_units(k)
        max_blocks = (k - 2) ** 2 // 4
        rng = np.random.default_rng(600 + k)
        for trial in range(3):
            total = int(rng.integers(0, max_blocks + 1))
            cells = set()
            while len(cells) < total:
                cells.add((int(rng.integers(k)), int(rng.integers(k))))
            x = sparse_element(k, sorted(cells), rng)
            res = cut_and_paste([x], sys, cfg)
            assert projection_residual(res.q) < 1e-8
            m = res.support_count
            assert m <= 2 or (m - 2) ** 2 <= 4 * res.block_count
            rec = recover_elements(res, sys)
            assert np.linalg.norm(rec.elements[0] - x) < 1e-8
