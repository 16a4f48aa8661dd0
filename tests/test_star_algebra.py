import functools
import tracemalloc

import numpy as np
import pytest

from finfactor import (
    DEFAULT_TOL,
    amplified_units,
    commutant,
    contains,
    cut_and_paste,
    equal,
    full_matrix_basis,
    fuse,
    generate,
    hyperfinite_pair,
    identity,
    shift_pair,
    single_generator_pair,
    standard_units,
    unit_matrix,
)
from finfactor import acceptance, star_algebra
from finfactor.errors import DimensionMismatch, DimensionOverflow
from finfactor.matrix_core import as_matrix, random_hermitian, random_matrix, random_unitary
from finfactor.star_algebra import _SpanBuilder

from helpers import (
    ReferenceSpan,
    basis_invariant_residuals,
    closure_dim_oracle,
    reference_closure_dim,
    reference_commutant,
    traced_peak,
    two_block_element,
)


def _engine(gens):
    """generate's closure engine, run on the whole set even where the
    Wedderburn split would answer first."""
    gens = [as_matrix(g) for g in gens]
    return star_algebra._span_closure(gens, gens[0].shape[0], DEFAULT_TOL.span_tol)


def sym_shift(n):
    out = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        out[i, i + 1] = out[i + 1, i] = 1.0
    return out


class TestGenerate:
    def test_empty_gives_scalars(self):
        basis = generate([], ambient_dim=3)
        assert basis.dim == 1
        ok, _ = contains(basis, identity(3))
        assert ok

    def test_shift_and_corner_generate_everything(self):
        gens = [unit_matrix(4, 0, 0), sym_shift(4)]
        basis = generate(gens)
        assert basis.dim == 16
        assert closure_dim_oracle(gens, 4) == 16

    def test_distinct_eigenvalue_diagonal(self):
        gens = [np.diag([1.0, 2.0]).astype(complex)]
        basis = generate(gens)
        assert basis.dim == 2
        assert closure_dim_oracle(gens, 2) == 2

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            gens = [random_matrix(n, rng), random_hermitian(n, rng)]
            assert generate(gens).dim == closure_dim_oracle(gens, n)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            generate([identity(2), identity(3)])

    def test_fused_generator_basis_is_orthonormal(self):
        # a closure block whose rows cancel against each other leaves the
        # entry span only to eps times the cancellation factor
        sys = amplified_units(8, 2)
        res = cut_and_paste([two_block_element()], sys)
        basis = _engine([fuse(*single_generator_pair(res.q, sys))])
        flat = basis.elements.reshape(basis.dim, -1)
        gram = np.conj(flat) @ flat.T / 16
        assert basis.dim == 256
        assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-12

    def test_produced_basis_satisfies_invariants(self):
        gens = [unit_matrix(3, 0, 0), sym_shift(3)]
        res = basis_invariant_residuals(generate(gens))
        assert all(v < 1e-8 for v in res.values()), res


_BAD_LISTS = {
    "non_square": ([np.ones((2, 3))], DimensionMismatch, "expected a square matrix"),
    "vector": ([identity(2), np.ones(4)], DimensionMismatch, "expected a square matrix"),
    "mixed_sizes": ([identity(2), identity(3)], DimensionMismatch, "ambient dimensions differ"),
    "empty_dim": ([np.zeros((0, 0))], DimensionMismatch, "dimension >= 1"),
    "nan": ([identity(2), [[1.0, np.nan], [0.0, 1.0]]], ValueError, "finite"),
    "inf": ([[[np.inf, 0.0], [0.0, 1.0]], identity(2)], ValueError, "finite"),
}


@pytest.mark.parametrize("case", sorted(_BAD_LISTS))
def test_generator_lists_are_checked_as_one_stack(case):
    gens, error, message = _BAD_LISTS[case]
    with pytest.raises(error, match=message):
        generate(gens)
    with pytest.raises(error, match=message):
        commutant(gens)


def test_generate_leaves_a_stacked_input_untouched():
    rng = np.random.default_rng(27)
    stack = np.stack([random_matrix(4, rng) for _ in range(2)])
    kept = stack.copy()
    assert generate(stack).dim == 16
    assert commutant(stack).dim == 1
    assert stack.tobytes() == kept.tobytes()


class TestCommutant:
    def test_full_algebra_has_scalar_commutant(self):
        assert commutant(full_matrix_basis(3)).dim == 1

    def test_identity_commutant_is_everything(self):
        assert commutant([identity(3)]).dim == 9

    def test_diagonal_algebra_in_m2(self):
        diag = generate([np.diag([1.0, 2.0]).astype(complex)])
        assert commutant(diag).dim == 2

    @pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9])
    def test_dim_is_invariant_under_scaling(self, s):
        # the null-space bar is relative to the unit-norm generators
        xs = [np.diag([1.0, 2.0, 3.0]).astype(complex)]
        xs += [x for trial, (n, x) in enumerate(_real_adversarial_generators(1700))
               if trial in (515, 541, 543, 568, 719, 819, 1691)]
        for x in xs:
            assert commutant([s * x]).dim == commutant([x]).dim
        assert commutant([s * xs[0]]).dim == 3

    def test_antitone_and_idempotent_pairing(self):
        rng = np.random.default_rng(22)
        g = [random_matrix(3, rng)]
        h = g + [random_hermitian(3, rng)]
        cg, ch = commutant(g), commutant(h)
        # larger set, smaller commutant
        for i in range(ch.dim):
            ok, _ = contains(cg, ch.elements[i])
            assert ok
        # triple commutant equals the first
        assert equal(commutant(commutant(cg)), cg)


class TestEqualAndContains:
    def test_reflexive(self):
        a = generate([sym_shift(3)])
        assert equal(a, a)

    def test_square_adds_nothing(self):
        rng = np.random.default_rng(23)
        x = random_hermitian(4, rng)
        assert equal(generate([x]), generate([x, x @ x]))

    def test_scalars_differ_from_diagonal(self):
        scalars = generate([], ambient_dim=2)
        diag = generate([np.diag([1.0, 2.0]).astype(complex)])
        assert not equal(scalars, diag)

    def test_contains_unit_from_closure(self):
        basis = generate([unit_matrix(3, 0, 0), sym_shift(3)])
        ok, residual = contains(basis, unit_matrix(3, 1, 2))
        assert ok and residual < 1e-8

    def test_scalars_do_not_contain_corner(self):
        scalars = generate([], ambient_dim=2)
        ok, _ = contains(scalars, unit_matrix(2, 0, 0))
        assert not ok

    def test_zero_always_contained(self):
        basis = generate([], ambient_dim=2)
        ok, residual = contains(basis, np.zeros((2, 2), dtype=complex))
        assert ok and residual == 0.0


class TestBicommutant:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_random_two_tuples(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            gens = [random_matrix(n, rng), random_hermitian(n, rng)]
            assert equal(generate(gens), commutant(commutant(gens)))

    def test_structured_examples(self):
        cases = [
            ([unit_matrix(4, 0, 0), sym_shift(4)], 4),
            ([np.diag([1.0, 2.0, 3.0]).astype(complex)], 3),
            (list(shift_pair(standard_units(3))), 3),
        ]
        for gens, _ in cases:
            assert equal(generate(gens), commutant(commutant(gens)))


class TestGenerateStructure:
    def test_monotone_in_generators(self):
        rng = np.random.default_rng(24)
        g = [random_hermitian(3, rng)]
        h = g + [random_matrix(3, rng)]
        small, big = generate(g), generate(h)
        for i in range(small.dim):
            ok, _ = contains(big, small.elements[i])
            assert ok

    def test_dimension_invariant_under_conjugation(self):
        rng = np.random.default_rng(25)
        gens = [unit_matrix(4, 0, 0), np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)]
        u = random_unitary(4, rng)
        conjugated = [u @ g @ u.conj().T for g in gens]
        assert generate(gens).dim == generate(conjugated).dim

    def test_full_units_close_to_full_algebra(self):
        units = standard_units(3).unit_list()
        assert equal(generate(units), full_matrix_basis(3))


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _candidate_blocks(rng, N):
    """Seeded candidate blocks that stress the admission rule."""
    base = _cgauss(rng, (5, N))
    dominant = []
    for _ in range(8):
        u = _cgauss(rng, N)
        dominant.append(3e7 * (_cgauss(rng, 5) @ base) + u)
        dominant.extend(_cgauss(rng, 5) @ base + c * u for c in _cgauss(rng, 6))
    return {
        "dense": _cgauss(rng, (3 * N // 2, N)),
        "rank_deficient": _cgauss(rng, (12, 3)) @ _cgauss(rng, (3, N)),
        "duplicates": np.repeat(_cgauss(rng, (4, N)), 3, axis=0),
        "in_span_plus_noise": _cgauss(rng, (8, 5)) @ base + 1e-9 * _cgauss(rng, (8, N)),
        "rescaled": _cgauss(rng, (10, N)) * 10.0 ** rng.choice([-6, 6], size=(10, 1)),
        # admitted, but only 1e-6 away from the span or from each other: one
        # Gram-Schmidt pass leaves them visibly non-orthogonal, and their new
        # directions are known only to about eps / 1e-6
        "near_span": _cgauss(rng, (6, 5)) @ base + 1e-6 * _cgauss(rng, (6, N)),
        "near_duplicates": np.repeat(_cgauss(rng, (3, N)), 3, axis=0)
        + 1e-6 * _cgauss(rng, (9, N)),
        # a new direction u under a 3e7 times larger in-span part, then rows in
        # span(base, u): a single pass off the span leaves eps * 3e7 of it in
        # u, which would carry the later rows over the threshold
        "dominant_span": np.vstack(dominant),
    }, base


CANDIDATE_CASES = [
    "dense",
    "rank_deficient",
    "duplicates",
    "in_span_plus_noise",
    "rescaled",
    "near_span",
    "near_duplicates",
    "dominant_span",
]


def _check_against_reference(n, run, span_tol):
    """Absorb the blocks of run into the blocked builder and the per-row
    reference: same admissions, same dim, orthonormal rows, same span."""
    fast, ref = _SpanBuilder(n, 1e-8), ReferenceSpan(n * n, 1e-8)
    for block in run:
        assert fast.absorb(block) == ref.absorb(block)
        assert fast.dim == ref.dim
    Q = fast.q()
    assert np.linalg.norm(Q @ Q.conj().T - np.eye(fast.dim)) <= 1e-12
    proj_fast = Q.conj().T @ Q
    proj_ref = ref.rows.conj().T @ ref.rows
    assert np.linalg.norm(proj_fast - proj_ref) <= span_tol


class TestBlockedAbsorb:
    """The blocked CGS2 absorb against the per-row reference builder."""

    @pytest.mark.parametrize("case", CANDIDATE_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_same_admissions_and_span(self, case, seed):
        span_tol = 1e-9 if case.startswith("near") else 1e-12
        n = 5
        N = n * n
        blocks, base = _candidate_blocks(np.random.default_rng([seed, 7]), N)
        for start in ([], [base]):
            _check_against_reference(n, start + [blocks[case]], span_tol)

    def test_readmission_pass_past_half_of_m16(self, monkeypatch):
        # near duplicates 1e-10 apart under span_tol 1e-12 cancel by 1e10
        # within the block, so the end pass sends the block through admission
        # again; later blocks fill the span up to all of M_16
        n, tol = 16, 1e-12
        N = n * n
        rng = np.random.default_rng(16)
        a = _cgauss(rng, (4, N))
        entry = _cgauss(rng, (N // 2 + 12, N))
        blocks = [
            np.vstack([a, a + 1e-10 * _cgauss(rng, (4, N))]),
            _cgauss(rng, (60, N)),
            np.vstack([_cgauss(rng, (20, N // 2 + 12)) @ entry, _cgauss(rng, (5, N))]),
            _cgauss(rng, (N, N)),
        ]
        calls = []

        def spy(start):
            calls.append(start)
            return readmit(start)

        fast, ref = _SpanBuilder(n, tol), ReferenceSpan(N, tol)
        assert fast.absorb(entry) == ref.absorb(entry)
        readmit = fast._readmit
        monkeypatch.setattr(fast, "_readmit", spy)
        for i, block in enumerate(blocks):
            assert fast.absorb(block) == ref.absorb(block)
            assert fast.dim == ref.dim
            if i == 0:
                assert calls == [N // 2 + 12]  # the readmission ran on this block
            # combinations of the span admit nothing
            assert fast.absorb(_cgauss(rng, (8, fast.dim)) @ fast.q()) == 0
        assert fast.dim == N
        Q = fast.q()
        assert np.linalg.norm(Q @ Q.conj().T - np.eye(N)) <= 1e-12


class TestComplementPrefilter:
    """Past half of M_n at n = 16, where absorb once prefiltered in the
    complement of the span; it must admit what the per-row reference
    builder admits."""

    @pytest.mark.parametrize("case", CANDIDATE_CASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_same_admissions_and_span(self, case, seed):
        span_tol = 1e-9 if case.startswith("near") else 1e-12
        n = 16
        N = n * n
        rng = np.random.default_rng([seed, 16])
        blocks, base = _candidate_blocks(rng, N)
        # an entry block of base and N / 2 + 8 random rows
        entry = np.vstack([base, _cgauss(rng, (N // 2 + 8, N))])
        _check_against_reference(n, [entry, blocks[case]], span_tol)


def _direct_sum(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


@pytest.mark.parametrize(
    "variant", ["plain", "conjugated", "conjugated_scaled_1e-6", "conjugated_scaled_1e6"]
)
@pytest.mark.parametrize("sizes, dim", [((12, 4), 160), ((15, 1), 226)])
def test_proper_subalgebra_past_half_of_m16(sizes, dim, variant):
    # M_12 + M_4 and M_15 + C: the engine's span passes half of M_16 but
    # never reaches all of it
    rng = np.random.default_rng(sum(sizes) + len(sizes))
    gens = [_direct_sum([_cgauss(rng, (s, s)) for s in sizes]) for _ in range(2)]
    if variant != "plain":
        u = random_unitary(16, rng)
        scale = {"conjugated": 1.0, "conjugated_scaled_1e-6": 1e-6,
                 "conjugated_scaled_1e6": 1e6}[variant]
        gens = [scale * (u @ g @ u.conj().T) for g in gens]
    # generate splits the sum into its blocks; the engine runs on it whole
    double = commutant(commutant(gens))
    for basis in (generate(gens), _engine(gens)):
        assert basis.dim == dim
        assert equal(basis, double)


def _full_m16_generators():
    rng = np.random.default_rng(16)
    u = random_unitary(16, rng)
    x1, x2 = shift_pair(standard_units(16))
    x1, x2 = u @ x1 @ u.conj().T, u @ x2 @ u.conj().T
    t1, t2, _ = hyperfinite_pair([4, 4])
    return {"shift_pair": [x1, x2], "fused": [fuse(x1, x2)], "tower_4_4": [t1, t2]}


@pytest.mark.parametrize("name", ["shift_pair", "fused", "tower_4_4"])
def test_full_m16_generators_reach_m16(name):
    gens = _full_m16_generators()[name]
    double = commutant(commutant(gens))
    for basis in (generate(gens), _engine(gens)):
        assert basis.dim == 256
        assert equal(basis, double)


def _adversarial_generators(count):
    """Seeded single generators at n = 2..6: sparse (density 0.3),
    nilpotent, and sparse scaled by 1e-6 and by 1e6."""
    rng = np.random.default_rng(1)
    for trial in range(count):
        n, kind = 2 + trial % 5, (trial // 5) % 4
        if kind == 1:
            x = np.triu(_cgauss(rng, (n, n)), 1)
        else:
            x = _cgauss(rng, (n, n)) * (rng.random((n, n)) < 0.3)
            x = x * {0: 1.0, 2: 1e-6, 3: 1e6}[kind]
        yield n, x


def test_generate_matches_reference_engine_on_adversarial_generators():
    # the engine itself, also on the sets the certificate answers in generate
    differ = [
        (trial, n)
        for trial, (n, x) in enumerate(_adversarial_generators(2000))
        if _engine([x]).dim != reference_closure_dim([x], n)
    ]
    assert differ == []


def _rank_one_generators(count):
    """Seeded rank-1 generators u v* at n = 2..6."""
    rng = np.random.default_rng(2)
    for trial in range(count):
        n = 2 + trial % 5
        yield n, np.outer(_cgauss(rng, n), _cgauss(rng, n).conj())


def _mixed_pairs(count):
    """Seeded pairs at n = 2..6: a sparse generator with a rank-1 one, or
    two dense ones."""
    rng = np.random.default_rng(3)
    for trial in range(count):
        n = 2 + trial % 5
        x = _cgauss(rng, (n, n))
        if trial % 2:
            y = _cgauss(rng, (n, n))
        else:
            x = x * (rng.random((n, n)) < 0.3)
            y = np.outer(_cgauss(rng, n), _cgauss(rng, n).conj())
        yield n, [x, y]


def _tau_gram_defect(basis):
    U = basis.unit_rows()
    return float(np.abs(U.conj() @ U.T - np.eye(basis.dim)).max(initial=0.0))


def test_commutant_matches_one_stack_reference():
    cases = [(n, [x]) for n, x in _adversarial_generators(2000)]
    cases += [(n, [x]) for n, x in _rank_one_generators(300)]
    cases += list(_mixed_pairs(100))
    differ, defects = [], []
    for trial, (n, gens) in enumerate(cases):
        c, ref = commutant(gens), reference_commutant(gens)
        cc, ref2 = commutant(c), reference_commutant(ref)
        if (c.dim, cc.dim) != (ref.dim, ref2.dim):
            differ.append((trial, n, c.dim, ref.dim, cc.dim, ref2.dim))
        defects.append(max(_tau_gram_defect(c), _tau_gram_defect(cc)))
    assert differ == []
    assert max(defects) <= 1e-12


@pytest.mark.parametrize("k", [12, 16])
def test_commutant_of_shift_pair_equals_reference(k):
    gens = list(shift_pair(standard_units(k)))
    assert equal(commutant(gens), reference_commutant(gens))


def test_commutant_memory_does_not_grow_with_generators():
    rng = np.random.default_rng(4)
    gens = [_cgauss(rng, (12, 12)) for _ in range(12)]
    one = traced_peak(lambda: commutant(gens[:1]))
    twelve = traced_peak(lambda: commutant(gens))
    assert twelve <= 2 * one


# --- real field: real inputs give the complex algebra's dimension --------------


def _real_adversarial_generators(count):
    """Seeded real single generators at n = 2..6: sparse (density 0.3),
    nilpotent, rank-1, and sparse scaled by 1e-6 and by 1e6."""
    rng = np.random.default_rng(5)
    for trial in range(count):
        n, kind = 2 + trial % 5, (trial // 5) % 5
        if kind == 1:
            x = np.triu(rng.standard_normal((n, n)), 1)
        elif kind == 2:
            x = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        else:
            x = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
            x = x * {0: 1.0, 3: 1e-6, 4: 1e6}[kind]
        yield n, x


def test_real_generators_match_complex_references():
    differ, defects = [], []
    for trial, (n, x) in enumerate(_real_adversarial_generators(2000)):
        # complex128 with zero imaginary parts, as the towers arrive
        gens = [x.astype(np.complex128)]
        basis, c = _engine(gens), commutant(gens)
        cc = commutant(c)
        ref = reference_commutant(gens)
        ref2 = reference_commutant(ref)
        got = (basis.dim, c.dim, cc.dim)
        want = (reference_closure_dim(gens, n), ref.dim, ref2.dim)
        if got != want:
            differ.append((trial, n, got, want))
        assert {b.elements.dtype for b in (basis, c, cc)} == {np.dtype(np.complex128)}
        defects.append(max(_tau_gram_defect(b) for b in (basis, c, cc)))
    assert differ == []
    assert max(defects) <= 1e-12


@pytest.mark.parametrize("variant", ["plain", "orthogonal"])
@pytest.mark.parametrize(
    "sizes, dim", [((12, 4), 160), ((15, 1), 226), ((15, 2), 229), ((16, 2), 260)]
)
def test_real_proper_subalgebra_past_half_of_m_n(sizes, dim, variant):
    # real direct sums at n = 16..18: the engine's span passes half of M_n,
    # on real candidates in complex arithmetic
    rng = np.random.default_rng(sum(sizes) + 100)
    gens = [_direct_sum([rng.standard_normal((s, s)) for s in sizes]) for _ in range(2)]
    if variant == "orthogonal":
        o, _ = np.linalg.qr(rng.standard_normal((sum(sizes), sum(sizes))))
        gens = [o @ g @ o.T for g in gens]
    # generate splits the sum into its blocks; the engine runs on it whole
    double = commutant(commutant(gens))
    for basis in (generate(gens), _engine(gens)):
        assert basis.dim == dim
        assert equal(basis, double)


# --- scalar sets: their commutant is M_n, answered without a factorization -----


def _scalar_sets():
    scalars = commutant(list(shift_pair(standard_units(12))))
    assert scalars.dim == 1
    return {
        "identity": [identity(4)],
        "phase": [np.exp(0.7j) * identity(5)],
        "zero": [np.zeros((3, 3), dtype=complex)],
        "shift_pair_k12_scalars": scalars,
    }


@pytest.mark.parametrize(
    "name", ["identity", "phase", "zero", "shift_pair_k12_scalars"]
)
def test_commutant_of_a_scalar_set_is_m_n(name):
    a = _scalar_sets()[name]
    c = commutant(a)
    n = c.ambient_dim
    assert c.dim == n * n == reference_commutant(a).dim
    assert c.elements.tobytes() == full_matrix_basis(n).elements.tobytes()


def test_scalar_set_commutant_needs_no_factorization(monkeypatch):
    sets = _scalar_sets()

    def refuse(*args, **kwargs):
        raise AssertionError("a scalar set reached the SVD")

    monkeypatch.setattr(star_algebra.np.linalg, "svd", refuse)
    for a in sets.values():
        c = commutant(a)
        assert c.dim == c.ambient_dim ** 2
    with pytest.raises(AssertionError):
        commutant([sym_shift(3)])


@pytest.mark.parametrize("fraction", [0.4, 0.6])
@pytest.mark.parametrize("n", range(3, 7))
def test_near_scalar_sets_on_both_sides_of_the_cut(n, fraction, monkeypatch):
    # I + s h for two traceless h. commutant scales each generator to unit
    # Frobenius norm, here a division by sqrt(n) to rounding, and s is
    # chosen so that the Frobenius norm of the constraint stack of the scaled
    # generators, sqrt(sum over generators and adjoints of 2n ||s h||^2 / n),
    # is fraction * span_tol; the cut is at span_tol / 2
    rng = np.random.default_rng([n, 40])
    hs = [_cgauss(rng, (n, n)) for _ in range(2)]
    hs = [h - np.trace(h) / n * np.eye(n) for h in hs]
    frob = np.sqrt(4 * sum(np.vdot(h, h).real for h in hs))
    gens = [identity(n) + (fraction * DEFAULT_TOL.span_tol / frob) * h for h in hs]
    ref = reference_commutant(gens)
    ref2 = reference_commutant(ref)
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(star_algebra.np.linalg, "svd", counted)
    c = commutant(gens)
    assert len(calls) == (0 if fraction < 0.5 else 1)
    assert (c.dim, commutant(c).dim) == (ref.dim, ref2.dim) == (n * n, 1)


# --- the builder's memory at the end of a closure -----------------------------


@pytest.mark.parametrize("case", ["tower_3_3_3", "sum_12_4"])
def test_real_closure_output_is_built_beside_the_rows_alone(case, monkeypatch):
    # once the closure ends, only the rows (and the copies of the inputs,
    # under 100 KiB here) are left beside the output, written in place: no
    # copy of the rows or of the output and no product block is made
    if case == "tower_3_3_3":
        x1, x2, _ = hyperfinite_pair([3, 3, 3])
        gens = [x1, x2]
    else:
        rng = np.random.default_rng(116)
        gens = [_direct_sum([rng.standard_normal((s, s)) for s in (12, 4)]) for _ in range(2)]
    close, held = star_algebra._close, []

    def end_of_closure(builder):
        close(builder)
        held.append(builder._rows.nbytes)
        tracemalloc.reset_peak()

    monkeypatch.setattr(star_algebra, "_close", end_of_closure)
    basis = _engine(gens)
    peak = traced_peak(lambda: _engine(gens))
    assert peak <= held[-1] + basis.elements.nbytes + 160 * 1024


# --- the Wedderburn split: blocks by vector spin-up, the engine on the rest -----


def _split(gens):
    stack = np.array([as_matrix(g) for g in gens])
    return star_algebra._wedderburn_split(stack, DEFAULT_TOL.span_tol)


def _margins(gens):
    """(gap, worst) of the split's one block when it proves that the algebra
    is M_n, else None."""
    if not gens:
        return None
    split = _split(gens)
    if len(split.blocks) == 1 and split.blocks[0].V.shape[1] == split.ambient_dim:
        return split.blocks[0].gap, split.blocks[0].worst
    return None


def _unit_norm(gens):
    return [g / np.linalg.norm(g) for g in gens if np.linalg.norm(g) > 0]


def _double_commutant(gens):
    """G'' of the inputs scaled to unit Frobenius norm (zero inputs dropped)."""
    return commutant(commutant(_unit_norm(gens) or gens))


@functools.cache
def _corpus():
    """(key, n, gens, G'' of the unit-norm gens) for the 2000 complex and
    2000 real adversarial generators, 1000 rank-one generators and 1000
    mixed pairs."""
    sets = [(("complex", t), n, [x]) for t, (n, x) in enumerate(_adversarial_generators(2000))]
    sets += [(("real", t), n, [x]) for t, (n, x) in enumerate(_real_adversarial_generators(2000))]
    sets += [(("rank_one", t), n, [x]) for t, (n, x) in enumerate(_rank_one_generators(1000))]
    sets += [(("mixed", t), n, gens) for t, (n, gens) in enumerate(_mixed_pairs(1000))]
    return [(key, n, gens, _double_commutant(gens)) for key, n, gens in sets]


def test_certificate_makes_no_false_positive():
    # a set the split proves to be M_n is M_n by G'' of its unit-norm
    # inputs, by the engine and by generate
    certified, wrong = 0, []
    for key, n, gens, double in _corpus():
        if _margins(gens) is None:
            continue
        certified += 1
        dims = (double.dim, _engine(gens).dim, generate(gens).dim)
        if dims != (n * n,) * 3:
            wrong.append((key, n, dims))
    assert wrong == []
    assert certified >= 3800  # 3829 of the 6000 sets when this test was written


def test_certificate_decision_is_invariant_under_scaling():
    changed = [
        key
        for key, n, gens, _ in _corpus()
        if len({_margins([s * g for g in gens]) is None for s in (1.0, 1e-9, 1e9)}) > 1
    ]
    assert changed == []


def test_generate_equals_double_commutant_on_the_corpora(monkeypatch):
    # the engine alone over-counts 38 of these sets; the split answers every
    # one of them without it (all-zero generators are the scalars)
    def refuse(*args, **kwargs):
        raise AssertionError("a corpus set reached the closure engine")

    monkeypatch.setattr(star_algebra, "_span_closure", refuse)
    differ = []
    for key, n, gens, double in _corpus():
        basis = generate(gens)
        if basis.dim != double.dim or not equal(basis, double):
            differ.append((key, n, basis.dim, double.dim))
    assert differ == []


def _haar_sum(sizes, rng):
    u = random_unitary(sum(sizes), rng)
    return [u @ _direct_sum([_cgauss(rng, (s, s)) for s in sizes]) @ u.conj().T for _ in range(2)]


def _hermitian_pair_with_gap(gap, rng):
    """Two exactly Hermitian u diag(0, d, 1, 1 + d, 3, 3 + d) u* with Haar u
    at n = 6. Every eigenvalue has a neighbour d away, and d is chosen so
    that the largest eigen-gap of the unit-norm matrix, d / sqrt(20 + 8d +
    3d^2), is gap. The rank-2 spectral clusters of the two, in general
    position, generate M_6."""
    d = 0.0
    for _ in range(3):
        d = gap * np.sqrt(20 + 8 * d + 3 * d * d)
    out = []
    for _ in range(2):
        u = random_unitary(6, rng)
        h = u @ np.diag([0, d, 1, 1 + d, 3, 3 + d]) @ u.conj().T
        out.append((h + h.conj().T) / 2)
    return out


def _declined_sets():
    rng = np.random.default_rng(18)
    t1, t2, _ = hyperfinite_pair([3, 3])
    u = random_unitary(4, rng)
    sets = {
        "haar_sum_3_2": _haar_sum((3, 2), rng),
        "haar_sum_4_4": _haar_sum((4, 4), rng),
        "haar_sum_5_1": _haar_sum((5, 1), rng),
        "m3_tensor_i2": [np.kron(_cgauss(rng, (3, 3)), np.eye(2)) for _ in range(2)],
        "tower_3_3_plus_c": [_direct_sum([t1, np.eye(1)]), _direct_sum([t2, 2 * np.eye(1)])],
        "zero": [np.zeros((3, 3))],
        "empty": [],
        # Hermitian only up to rounding: its anti-Hermitian part is noise whose
        # eigenvalues are far apart relative to their own size
        "rotated_diagonal": [u @ np.diag([1.0, 2.0, 3.0, 4.0]) @ u.conj().T],
    }
    for trial, (n, x) in enumerate(_rank_one_generators(15)):
        if n >= 3:  # at n = 2 a rank-1 u v* with u, v independent generates M_2
            sets[f"rank_one_{trial}"] = [x]
    return sets


@pytest.mark.parametrize("name", sorted(_declined_sets()))
def test_certificate_declines_proper_subalgebras(name):
    # the split proves no proper subalgebra to be M_n, and its dim and span
    # are those of G'' of the unit-norm inputs
    gens = _declined_sets()[name]
    assert _margins(gens) is None
    if gens:
        n = gens[0].shape[0]
        basis, double = generate(gens), _double_commutant(gens)
        assert basis.dim == double.dim < n * n
        assert equal(basis, double)


def _best_letter_gap(gens):
    """The largest eigen-gap over the Hermitian and anti-Hermitian parts of
    the unit-norm inputs, computed here from eigvalsh."""
    best = 0.0
    for g in _unit_norm(gens):
        for part in ((g + g.conj().T) / 2, (g - g.conj().T) / 2j):
            w = np.linalg.eigvalsh(part)
            steps = np.diff(w)
            gaps = np.minimum(np.r_[np.inf, steps], np.r_[steps, np.inf])
            best = max(best, float(gaps.max()))
    return best


def test_certificate_cut_sits_at_its_bar():
    # the pair generates M_6 on both sides of the cut. Above it, a letter's
    # part supplies v with its gap just past the bar; below it, no letter
    # part clears the bar and v comes from the fixed mix of all parts
    bar = star_algebra._CERTIFICATE_FLOOR * DEFAULT_TOL.span_tol
    below = _hermitian_pair_with_gap(0.99 * bar, np.random.default_rng(19))
    above = _hermitian_pair_with_gap(1.01 * bar, np.random.default_rng(19))
    assert 0.98 * bar < _best_letter_gap(below) < bar < _best_letter_gap(above) < 1.02 * bar
    gap, worst = _margins(above)
    assert bar < gap < 1.02 * bar and worst > bar
    gap, worst = _margins(below)
    assert gap > 1.02 * bar and worst > bar
    for gens in (below, above):
        basis = generate(gens)
        assert basis.dim == _double_commutant(gens).dim == 36


def _paper_generators():
    out = {}
    for k in (5, 12, 20):
        x1, x2 = shift_pair(standard_units(k))
        out[f"shift_pair_k{k}"] = [x1, x2]
        out[f"fused_k{k}"] = [fuse(x1, x2)]
    for dims in ([3, 3], [4, 3], [4, 4], [3, 3, 3], [4, 4, 4]):
        t1, t2, _ = hyperfinite_pair(dims)
        out["tower_" + "_".join(map(str, dims))] = [t1, t2]
    return out


@pytest.mark.parametrize("name", sorted(_paper_generators()))
def test_certificate_margins_on_the_paper_generators(name):
    gap, worst = _margins(_paper_generators()[name])
    bar = star_algebra._CERTIFICATE_FLOOR * DEFAULT_TOL.span_tol
    assert min(gap, worst) >= 100 * bar


def test_generate_answers_certified_sets_without_the_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certified set reached the closure engine")

    monkeypatch.setattr(star_algebra, "_span_closure", refuse)
    x1, x2 = shift_pair(standard_units(12))
    basis = generate([x1, x2])
    assert basis.elements.tobytes() == full_matrix_basis(12).elements.tobytes()


def _round_trip_units_set():
    """The inputs and units of a k = 12 round trip: 2 + 144 letters."""
    tup = acceptance.sparse_tuples(12, 1, 0)[0]
    return list(tup.elements) + standard_units(12).unit_list()


def test_certified_sets_take_the_top_level_path_alone(monkeypatch):
    # when the letters' own parts supply v and its spin-up reaches C^n, the
    # split neither compresses nor builds a second stack of letters
    def refuse(*args, **kwargs):
        raise AssertionError("a certified set was compressed")

    monkeypatch.setattr(star_algebra, "_complement", refuse)
    monkeypatch.setattr(star_algebra, "_mix_weights", refuse)
    t1, t2, _ = hyperfinite_pair([3, 3, 3])
    for gens in ([t1, t2], list(shift_pair(standard_units(12))), _round_trip_units_set()):
        n = gens[0].shape[0]
        assert generate(gens).dim == n * n


def test_only_multiplicity_reaches_the_engine(monkeypatch):
    sets = _declined_sets()
    engine, calls = star_algebra._span_closure, []

    def counted(gens, n, tol, floor=0.0):
        calls.append(n)
        return engine(gens, n, tol, floor)

    monkeypatch.setattr(star_algebra, "_span_closure", counted)
    for name in sets:
        if name != "m3_tensor_i2":
            generate(sets[name], ambient_dim=3 if name == "empty" else None)
    assert calls == []
    generate(sets["m3_tensor_i2"])
    assert calls == [6]


def _hidden(gens, rng):
    u = random_unitary(gens[0].shape[0], rng)
    return [u @ g @ u.conj().T for g in gens]


def _hidden_sums():
    """name -> (Haar-hidden generators, sizes of the blocks the split finds,
    size of the engine's remainder or None)."""
    rng = np.random.default_rng(23)
    a = [_cgauss(rng, (3, 3)) for _ in range(2)]
    w = random_unitary(3, rng)
    units = amplified_units(4, 3).unit_list()
    z2, z12 = np.zeros((2, 2)), np.zeros((12, 12))
    return {
        "sum_12_4_6": (_haar_sum((12, 4, 6), rng), [4, 6, 12], None),
        "sum_15_2_1": (_haar_sum((15, 2, 1), rng), [2, 15], 1),  # C: a scalar remainder
        "sum_6_6_6": (_haar_sum((6, 6, 6), rng), [6, 6, 6], None),
        "a_a_b": (_hidden([_direct_sum([x, x, _cgauss(rng, (2, 2))]) for x in a], rng), [2], 6),
        "a_waw": (_hidden([_direct_sum([x, w @ x @ w.conj().T]) for x in a], rng), [], 6),
        "a_waw_c": (
            _hidden([_direct_sum([x, w @ x @ w.conj().T, _cgauss(rng, (4, 4))]) for x in a], rng),
            [4],
            6,
        ),
        "m3_tensor_i2_m4": (
            _hidden([_direct_sum([np.kron(x, np.eye(2)), _cgauss(rng, (4, 4))]) for x in a], rng),
            [4],
            6,
        ),
        "amplified_units_m2": (
            _hidden([_direct_sum([e, z2]) for e in units]
                    + [_direct_sum([z12, _cgauss(rng, (2, 2))])], rng),
            [2],
            12,
        ),
    }


@pytest.mark.parametrize("name", sorted(_hidden_sums()))
def test_hidden_direct_sums_split_into_their_blocks(name):
    gens, sizes, rest = _hidden_sums()[name]
    split = _split(gens)
    assert sorted(b.V.shape[1] for b in split.blocks) == sizes
    assert (None if split.remainder is None else split.remainder.ambient_dim) == rest
    for b in split.blocks:  # each block's subspace reduces every generator
        P = b.V @ b.V.conj().T
        assert max(np.linalg.norm(P @ g - g @ P) for g in gens) < 1e-10 * max(
            np.linalg.norm(g) for g in gens
        )
    basis, double = generate(gens), _double_commutant(gens)
    assert basis.dim == double.dim
    assert equal(basis, double)


@pytest.mark.xfail(strict=True, reason="the closure engine over-counts Haar-hidden "
                   "amplified units, which have no multiplicity-free block to split off")
def test_hidden_amplified_units_alone():
    units = _hidden(amplified_units(4, 3).unit_list(), np.random.default_rng(25))
    assert generate(units).dim == _double_commutant(units).dim == 16


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_near_equivalent_ladder_matches_double_commutant(eps, monkeypatch):
    # a (+) (a + eps b) for a pair: two inequivalent blocks, M_3 (+) M_3.
    # Their eigenvalues pair up about eps apart, so the split takes them
    # apart at 1e-3 and hands them to the engine at 1e-7
    rng = np.random.default_rng(24)
    gens = [_direct_sum([a, a + eps * b]) for a, b in
            ((_cgauss(rng, (3, 3)), _cgauss(rng, (3, 3))) for _ in range(2))]
    engine, calls = star_algebra._span_closure, []

    def counted(gens, n, tol, floor=0.0):
        calls.append(n)
        return engine(gens, n, tol, floor)

    monkeypatch.setattr(star_algebra, "_span_closure", counted)
    basis, double = generate(gens), _double_commutant(gens)
    assert basis.dim == double.dim == 18
    assert equal(basis, double)
    if eps != 1e-5:  # at 1e-5 the route depends on the draw
        assert calls == ([] if eps == 1e-3 else [6])


@pytest.mark.xfail(strict=True, reason="the closure engine over-counts near-equivalent "
                   "blocks once they are Haar-hidden")
def test_hidden_near_equivalent_blocks_at_1e_7():
    rng = np.random.default_rng(24)
    gens = [_direct_sum([a, a + 1e-7 * b]) for a, b in
            ((_cgauss(rng, (3, 3)), _cgauss(rng, (3, 3))) for _ in range(2))]
    gens = _hidden(gens, rng)
    assert generate(gens).dim == _double_commutant(gens).dim == 18


def _weakly_coupled(delta, rng, exact=None):
    """diag(0, 1, 2, 3) / sqrt(14) and a (+) d + delta e: two blocks that e
    couples at delta, followed by an exact block when exact is given."""
    g1 = np.diag([0.0, 1.0, 2.0, 3.0]) / np.sqrt(14)
    g2 = _direct_sum([_cgauss(rng, (2, 2)), _cgauss(rng, (2, 2))]) + delta * _cgauss(rng, (4, 4))
    if exact is None:
        return [g1.astype(complex), g2]
    return [_direct_sum([g1, exact[0]]), _direct_sum([g2, exact[1]])]


@pytest.mark.parametrize("delta", [1e-6, 1e-7])
@pytest.mark.parametrize("where", ["top", "remainder"])
def test_weakly_coupled_blocks_are_not_split(delta, where):
    # the spin-up from a vector of one block stalls, since the coupling is
    # under its bar, but the coupling is past span_tol: the 4 x 4 part
    # generates M_4, not M_2 (+) M_2, and every generator stays in the algebra
    rng = np.random.default_rng(28)
    if where == "top":
        gens, dim = _weakly_coupled(delta, rng), 16
    else:
        # an uncoupled M_4 block, whose widely spaced eigenvalues supply the
        # first vector, splits off first; the engine closes the coupled rest
        exact = [np.diag([10.0, 30.0, 50.0, 70.0]), _cgauss(rng, (4, 4))]
        gens, dim = _weakly_coupled(delta, rng, exact), 32
        gens = _hidden(gens, rng)
        assert _split(gens).blocks
    basis, double = generate(gens), _double_commutant(gens)
    assert basis.dim == double.dim == dim
    assert equal(basis, double)
    assert all(contains(basis, g)[0] for g in gens)


# --- commutant in real Hermitian coordinates ------------------------------------


def _exactly_hermitian(basis):
    """True for a basis of exactly Hermitian elements, and for M_n, which a
    scalar set's commutant returns in its standard basis."""
    if type(basis) is star_algebra._SplitBasis:
        return basis.dim == basis.ambient_dim**2
    x = basis.elements
    return np.array_equal(x, x.conj().transpose(0, 2, 1))


def test_commutant_elements_are_exactly_hermitian_on_the_corpora():
    # the null rows X map back to ((X + X^T) + i(X - X^T)) / 2
    not_hermitian, defects = [], []
    for key, _, gens, double in _corpus():
        c = commutant(gens)
        if not (_exactly_hermitian(c) and _exactly_hermitian(double)):
            not_hermitian.append(key)
        defects.append(max(_tau_gram_defect(c), _tau_gram_defect(double)))
    assert not_hermitian == []
    assert max(defects) <= 1e-12


@pytest.mark.parametrize("delta", [1e-7, 1e-9])
def test_commutant_matches_reference_on_both_sides_of_the_bar(delta):
    # a (+) d coupled at delta: the coupling's singular values sit above the
    # null threshold at 1e-7 (C) and below it at 1e-9 (C (+) C)
    rng = np.random.default_rng(29)
    for trial in range(6):
        gens = _weakly_coupled(delta, rng)
        if trial % 2:
            gens = _hidden(gens, rng)
        c, ref = commutant(gens), reference_commutant(gens)
        cc, ref2 = commutant(c), reference_commutant(ref)
        assert (c.dim, cc.dim) == (ref.dim, ref2.dim) == ((1, 16) if delta > 1e-8 else (2, 8))
        assert equal(c, ref) and equal(cc, ref2)


def test_commutant_peak_on_the_shift_pair_at_k_20():
    # the complex stack over g and g* peaked at 17.3 MiB
    gens = list(shift_pair(standard_units(20)))
    assert traced_peak(lambda: commutant(gens)) < 11 * 2**20


def test_exactly_zero_parts_are_not_folded(monkeypatch):
    # exactly Hermitian letters have no anti-Hermitian part: g n^2 rows, not
    # 2g n^2; so has every element commutant returns, the letters of G''
    rng = np.random.default_rng(30)
    N = 36
    hidden = _hidden([_direct_sum([_cgauss(rng, (3, 3)) for _ in range(2)]) for _ in range(2)], rng)
    hermitian = [(y + y.conj().T) / 2 for y in hidden]
    folds = []
    qr = np.linalg.qr

    def counting_qr(a, mode="reduced"):
        folds[-1].append(a.shape[0])
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)

    def folded_rows(gens):
        # every fold after the first carries the running factor's N rows
        folds.append([])
        c = commutant(gens)
        return c, sum(folds[-1]) - N * (len(folds[-1]) - 1)

    c, rows = folded_rows(hermitian)
    assert (c.dim, rows) == (2, 2 * N)
    assert folded_rows(c)[1] == 2 * N
    assert folded_rows(hidden)[1] == 4 * N


def _routes():
    x1, x2 = shift_pair(standard_units(12))
    return {
        "engine": _hidden(amplified_units(4, 3).unit_list(), np.random.default_rng(25)),
        "m_n": [x1, x2],
        "split": _hidden_sums()["a_a_b"][0],
    }


@pytest.mark.parametrize("route", ["engine", "m_n", "split"])
def test_generate_returns_its_split_on_every_route(route):
    basis = generate(_routes()[route])
    assert type(basis) is star_algebra._SplitBasis
    n = basis.ambient_dim
    if route == "engine":
        assert not basis.blocks and basis.U is None
        assert basis.remainder.dim == basis.dim
    elif route == "m_n":
        assert basis.remainder is None and len(basis.blocks) == 1
        assert basis.blocks[0].V.tobytes() == identity(n).tobytes()
    else:
        assert basis.blocks and basis.remainder is not None


def test_certified_m_n_keeps_its_margins():
    basis = generate(_routes()["m_n"])
    block, = basis.blocks
    bar = star_algebra._CERTIFICATE_FLOOR * DEFAULT_TOL.span_tol
    assert bar < block.gap < np.inf and bar < block.worst < np.inf
    full = full_matrix_basis(12)
    assert full.blocks[0].gap == full.blocks[0].worst == np.inf
    assert basis.elements.tobytes() == full.elements.tobytes()


def test_engine_only_split_shares_its_remainder_elements():
    basis = generate(_routes()["engine"])
    assert np.shares_memory(basis.elements, basis.remainder.elements)


def test_split_basis_is_lazy_and_tau_orthonormal(monkeypatch):
    # sqrt(n) V e_ab V* per block and the lifted remainder: an algebra basis
    # of the right span, built only when its elements are read
    gens = _hidden_sums()["a_a_b"][0]
    basis = generate(gens)
    assert isinstance(basis, star_algebra._SplitBasis)
    assert "elements" not in vars(basis)
    assert basis.dim == 13
    res = basis_invariant_residuals(basis)
    assert all(v < 1e-8 for v in res.values()), res
    assert basis.elements is basis.elements
    x1, x2 = _haar_sum((16, 16, 16), np.random.default_rng(26))
    # the elements would be 3 * 16^2 * 48^2 complex entries, 28 MiB
    assert traced_peak(lambda: generate([x1, x2])) < 4 << 20


# --- the span byte budget: refused by the estimate, before any allocation ------


def test_span_budget_admits_n_90_and_refuses_n_91():
    # the scalars of M_90 are one matrix; the budget is checked on n^4 first
    assert generate([], ambient_dim=90).dim == 1
    with pytest.raises(DimensionOverflow, match="ambient dimension 91"):
        generate([], ambient_dim=91)


def _refused_peak(fn):
    def run():
        with pytest.raises(DimensionOverflow):
            fn()

    return traced_peak(run)


@pytest.mark.parametrize("kernel", ["generate", "commutant", "generate_empty"])
def test_span_budget_refuses_before_allocating(kernel):
    gens = [np.eye(216, dtype=complex), np.ones((216, 216), dtype=complex)]
    fn = {
        "generate": lambda: generate(gens),
        "commutant": lambda: commutant(gens),
        "generate_empty": lambda: generate([], ambient_dim=216),
    }[kernel]
    # the inputs are 729 KiB each; a basis of M_216 would be about 32 GiB
    assert _refused_peak(fn) <= 2 * gens[0].nbytes


# --- M_n held lazily: dim at once, the n^4 elements on first read -----------------


@pytest.mark.parametrize("n", range(1, 6))
def test_full_matrix_basis_builds_the_scaled_identity_once(n):
    basis = full_matrix_basis(n)
    assert basis.dim == n * n
    expected = (np.sqrt(n) * np.eye(n * n, dtype=complex)).reshape(n * n, n, n)
    assert basis.elements.tobytes() == expected.tobytes()
    assert basis.elements.shape == expected.shape
    assert basis.elements is basis.elements


def test_full_matrix_basis_elements_stay_an_attribute():
    assert hasattr(full_matrix_basis(3), "elements")


def test_certified_generate_holds_no_n4_array():
    x1, x2, _ = hyperfinite_pair([4, 4, 4])
    # an eager basis of M_64 is 64^4 complex entries, 256 MiB
    peak = traced_peak(lambda: generate([x1, x2]))
    assert peak < 16 << 20


def _refuse_to_build(monkeypatch):
    def refuse(self):
        raise AssertionError("a basis of M_n was built")

    monkeypatch.setattr(star_algebra._SplitBasis, "elements", property(refuse))


def test_equal_and_contains_on_m_n_build_no_basis(monkeypatch):
    x1, x2 = shift_pair(standard_units(12))
    a, b = generate([x1, x2]), generate([fuse(x1, x2)])
    _refuse_to_build(monkeypatch)
    assert a.dim == b.dim == 144
    assert equal(a, b) and equal(b, a)
    assert contains(a, x1 @ x2) == (True, 0.0)


def test_m_n_equals_an_engine_basis_of_dim_n2_only():
    full = full_matrix_basis(4)
    engine_full = _engine(list(shift_pair(standard_units(4))))
    proper = _engine([unit_matrix(4, 0, 0), unit_matrix(4, 1, 1)])
    assert engine_full.dim == 16 and proper.dim < 16
    assert equal(full, engine_full) and equal(engine_full, full)
    assert not equal(full, proper) and not equal(proper, full)


def test_contains_on_m_n_is_exact_and_checks_its_input():
    full = full_matrix_basis(3)
    x = random_matrix(3, np.random.default_rng(41))
    assert contains(full, x) == (True, 0.0)
    with pytest.raises(DimensionMismatch):
        contains(full, identity(4))
    with pytest.raises(DimensionMismatch):
        contains(full, np.ones((3, 2)))
    bad = x.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        contains(full, bad)
