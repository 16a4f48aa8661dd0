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
from finfactor import star_algebra
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
    """generate's closure engine, run even where the full-algebra
    certificate would answer first."""
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


class TestCommutant:
    def test_full_algebra_has_scalar_commutant(self):
        assert commutant(full_matrix_basis(3)).dim == 1

    def test_identity_commutant_is_everything(self):
        assert commutant([identity(3)]).dim == 9

    def test_diagonal_algebra_in_m2(self):
        diag = generate([np.diag([1.0, 2.0]).astype(complex)])
        assert commutant(diag).dim == 2

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
            fast, ref = _SpanBuilder(n, 1e-8), ReferenceSpan(N, 1e-8)
            for block in start + [blocks[case]]:
                assert fast.absorb(block) == ref.absorb(block)
                assert fast.dim == ref.dim
            Q = fast.q()
            assert np.linalg.norm(Q @ Q.conj().T - np.eye(fast.dim)) <= 1e-12
            proj_fast = Q.conj().T @ Q
            proj_ref = ref.rows.conj().T @ ref.rows
            assert np.linalg.norm(proj_fast - proj_ref) <= span_tol


def _complement_gap(builder):
    """Distance between the complement the prefilter measures in (W less
    the rows admitted since W was built) and that of the span."""
    Q, W = builder.q(), builder._W
    V = builder._Y @ W
    span_side = np.eye(builder.N) - Q.conj().T @ Q
    return np.linalg.norm(span_side - (W.conj().T @ W - V.conj().T @ V))


class TestComplementPrefilter:
    """Past half of M_n at n = 16, absorb prefilters in the complement of the
    span; it must admit what the per-row reference builder admits."""

    @pytest.mark.parametrize("case", CANDIDATE_CASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_same_admissions_and_span(self, case, seed):
        span_tol = 1e-9 if case.startswith("near") else 1e-12
        n = 16
        N = n * n
        rng = np.random.default_rng([seed, 16])
        blocks, base = _candidate_blocks(rng, N)
        entry = np.vstack([base, _cgauss(rng, (N // 2 + 8, N))])
        fast, ref = _SpanBuilder(n, 1e-8), ReferenceSpan(N, 1e-8)
        for block in (entry, blocks[case]):
            assert fast.absorb(block) == ref.absorb(block)
            assert fast.dim == ref.dim
        assert fast._W is not None
        assert _complement_gap(fast) <= 1e-12
        Q = fast.q()
        assert np.linalg.norm(Q @ Q.conj().T - np.eye(fast.dim)) <= 1e-12
        proj_fast = Q.conj().T @ Q
        proj_ref = ref.rows.conj().T @ ref.rows
        assert np.linalg.norm(proj_fast - proj_ref) <= span_tol

    def test_coordinates_follow_the_readmission_pass(self, monkeypatch):
        # near duplicates 1e-10 apart under span_tol 1e-12 cancel by 1e10
        # within the block, so the end pass sends the block through admission
        # again; the next block admits past half of the complement, which
        # shrinks W
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
            calls.append(fast._W is not None)
            return readmit(start)

        def span_side(C, dim):
            raise AssertionError("an in-span candidate passed the prefilter")

        fast, ref = _SpanBuilder(n, tol), ReferenceSpan(N, tol)
        assert fast.absorb(entry) == ref.absorb(entry)
        readmit = fast._readmit
        monkeypatch.setattr(fast, "_readmit", spy)
        for i, block in enumerate(blocks):
            assert fast.absorb(block) == ref.absorb(block)
            assert fast.dim == ref.dim
            assert _complement_gap(fast) <= 1e-12
            assert len(fast._W) - len(fast._Y) == N - fast.dim
            if i == 0:
                assert calls == [True]  # the readmission ran with W in place
            if i == 1:
                assert len(fast._Y) == 0  # W shrank
            # combinations of the span, the rows since W included, stop in
            # the complement and never reach the span-side passes
            fast._project_off = span_side
            assert fast.absorb(_cgauss(rng, (8, fast.dim)) @ fast.q()) == 0
            del fast._project_off
        assert fast.dim == N
        Q = fast.q()
        assert np.linalg.norm(Q @ Q.conj().T - np.eye(N)) <= 1e-12


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
    # M_12 + M_4 and M_15 + C: the complement prefilter runs, but the span
    # never reaches M_16
    rng = np.random.default_rng(sum(sizes) + len(sizes))
    gens = [_direct_sum([_cgauss(rng, (s, s)) for s in sizes]) for _ in range(2)]
    if variant != "plain":
        u = random_unitary(16, rng)
        scale = {"conjugated": 1.0, "conjugated_scaled_1e-6": 1e-6,
                 "conjugated_scaled_1e6": 1e6}[variant]
        gens = [scale * (u @ g @ u.conj().T) for g in gens]
    basis = generate(gens)
    assert basis.dim == dim
    assert equal(basis, commutant(commutant(gens)))


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


# --- real field: every input real, the kernels run in float64 ------------------


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
    # real direct sums at n = 16..18: the complement prefilter runs in float64
    rng = np.random.default_rng(sum(sizes) + 100)
    gens = [_direct_sum([rng.standard_normal((s, s)) for s in sizes]) for _ in range(2)]
    if variant == "orthogonal":
        o, _ = np.linalg.qr(rng.standard_normal((sum(sizes), sum(sizes))))
        gens = [o @ g @ o.T for g in gens]
    basis = generate(gens)
    assert basis.dim == dim
    assert equal(basis, commutant(commutant(gens)))


def _tower_and_phased_copy():
    """A real tower pair and the same pair conjugated by a non-real diagonal
    unitary: the same algebra up to unitary equivalence, in complex arithmetic."""
    x1, x2, _ = hyperfinite_pair([3, 3])
    phases = np.exp(1j * np.random.default_rng(6).uniform(0.1, 3.0, x1.shape[0]))
    d = np.diag(phases)
    return [x1, x2], [d @ x1 @ d.conj().T, d @ x2 @ d.conj().T]


@pytest.mark.parametrize(
    "kernel, bound", [pytest.param(_engine, 0.9, id="generate-0.9"), (commutant, 0.7)]
)
def test_real_inputs_run_in_real_arithmetic(kernel, bound):
    real, phased = _tower_and_phased_copy()
    assert not any(x.imag.any() for x in real) and any(x.imag.any() for x in phased)
    assert kernel(real).dim == kernel(phased).dim
    ratio = traced_peak(lambda: kernel(real)) / traced_peak(lambda: kernel(phased))
    assert ratio <= bound


def test_real_span_refuses_complex_candidates():
    builder = _SpanBuilder(2, 1e-8, np.float64)
    with pytest.raises(TypeError):
        builder.absorb(np.ones((1, 4), dtype=np.complex128))
    assert builder.absorb(np.eye(4)) == 4


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
    # I + s h for two traceless h, scaled so that the Frobenius norm of the
    # constraint stack, sqrt(sum over generators and adjoints of
    # 2n ||s h||^2), is fraction * span_tol; the cut is at span_tol / 2
    rng = np.random.default_rng([n, 40])
    hs = [_cgauss(rng, (n, n)) for _ in range(2)]
    hs = [h - np.trace(h) / n * np.eye(n) for h in hs]
    frob = np.sqrt(4 * n * sum(np.vdot(h, h).real for h in hs))
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


# --- the builder's conjugate mirror and compact complement -------------------------


def _mirror_is_exact(builder):
    d = builder.dim
    return builder._rows_conj[:d].tobytes() == builder._rows[:d].conj().tobytes()


def _mirror_case(case, rng):
    """(n, span_tol, blocks) whose last block makes the end pass change
    bits, runs the readmission pass with W in place, or grows the rows."""
    if case == "end_pass":
        n = 5
        return n, 1e-8, [_cgauss(rng, (8, n * n)), _cgauss(rng, (6, n * n))]
    if case == "readmission":
        # the near-duplicate blocks of test_coordinates_follow_the_readmission_pass
        n = 16
        N = n * n
        a = _cgauss(rng, (4, N))
        entry = _cgauss(rng, (N // 2 + 12, N))
        return n, 1e-12, [entry, np.vstack([a, a + 1e-10 * _cgauss(rng, (4, N))])]
    n = 9
    return n, 1e-8, [_cgauss(rng, (60, n * n)), _cgauss(rng, (10, n * n))]


@pytest.mark.parametrize("case", ["end_pass", "readmission", "grow"])
def test_conjugate_mirror_follows_every_write(case, monkeypatch):
    n, tol, blocks = _mirror_case(case, np.random.default_rng(16))
    fast = _SpanBuilder(n, tol)
    events = []
    project_off, readmit, grow = fast._project_off, fast._readmit, fast._grow

    def spy_project_off(C, dim):
        out = project_off(C, dim)
        if np.shares_memory(C, fast._rows):  # the end pass
            events.append(("end_pass", out.tobytes() != C.tobytes()))
        return out

    def spy_readmit(start):
        events.append(("readmission", fast._W is not None))
        return readmit(start)

    def spy_grow():
        if fast.dim == fast._rows.shape[0]:
            events.append(("grow", True))
        return grow()

    monkeypatch.setattr(fast, "_project_off", spy_project_off)
    monkeypatch.setattr(fast, "_readmit", spy_readmit)
    monkeypatch.setattr(fast, "_grow", spy_grow)
    for block in blocks:
        events.clear()
        assert fast.absorb(block) > 0
        assert _mirror_is_exact(fast)
    assert (case, True) in events
    if case == "end_pass":
        assert not any(name == "readmission" for name, _ in events)


@pytest.mark.parametrize("name", ["shift_pair", "fused"])
def test_conjugate_mirror_gives_the_bases_of_fresh_conjugation(name, monkeypatch):
    gens = _full_m16_generators()[name]
    kept = _engine(gens).elements
    # every read of a conjugate forms it afresh; writes to the mirror are dropped
    fresh_rows = property(lambda self: self._rows.conj(), lambda self, v: None)
    fresh_W = property(
        lambda self: None if self._W is None else self._W.conj(), lambda self, v: None
    )
    monkeypatch.setattr(_SpanBuilder, "_rows_conj", fresh_rows, raising=False)
    monkeypatch.setattr(_SpanBuilder, "_W_conj", fresh_W, raising=False)
    fresh = _engine(gens).elements
    assert kept.shape == (256, 16, 16)
    assert kept.tobytes() == fresh.tobytes()


def test_real_complement_owns_only_its_rows():
    n = 16
    N = n * n
    rng = np.random.default_rng(17)
    builder = _SpanBuilder(n, 1e-8, np.float64)
    builder.absorb(rng.standard_normal((N // 2 + 8, N)))
    builder.absorb(rng.standard_normal((4, N)))
    W = builder._W
    assert W.shape == (N - (N // 2 + 8), N)
    assert builder._rows_conj is builder._rows and builder._W_conj is W
    root = W
    while root.base is not None:
        root = root.base
    assert root.nbytes == W.nbytes


@pytest.mark.parametrize("case", ["tower_3_3_3", "sum_12_4"])
def test_real_closure_output_is_built_beside_the_rows_alone(case, monkeypatch):
    # once the closure ends, only the rows (and the copies of the inputs, under
    # 100 KiB here) are left beside the complex128 output, written in place:
    # no float64 copy of it, no complement basis and no product block
    if case == "tower_3_3_3":
        x1, x2, _ = hyperfinite_pair([3, 3, 3])
        gens = [x1, x2]
    else:
        rng = np.random.default_rng(116)
        gens = [_direct_sum([rng.standard_normal((s, s)) for s in (12, 4)]) for _ in range(2)]
    close, rows = star_algebra._close, []

    def end_of_closure(builder):
        close(builder)
        rows.append(builder._rows.nbytes)
        tracemalloc.reset_peak()

    monkeypatch.setattr(star_algebra, "_close", end_of_closure)
    basis = _engine(gens)
    peak = traced_peak(lambda: _engine(gens))
    assert peak <= rows[-1] + basis.elements.nbytes + 160 * 1024


# --- the full-algebra certificate: a closure of vectors that proves A = M_n ----


def _margins(gens):
    return star_algebra._full_algebra_margins([as_matrix(g) for g in gens], DEFAULT_TOL.span_tol)


def _unit_norm(gens):
    return [g / np.linalg.norm(g) for g in gens if np.linalg.norm(g) > 0]


def _certificate_corpus():
    for trial, (n, x) in enumerate(_adversarial_generators(2000)):
        yield ("complex", trial), n, [x]
    for trial, (n, x) in enumerate(_real_adversarial_generators(2000)):
        yield ("real", trial), n, [x]
    for trial, (n, gens) in enumerate(_mixed_pairs(300)):
        yield ("mixed", trial), n, gens


def test_certificate_makes_no_false_positive():
    # a certified set is M_n by G'' of its unit-norm inputs, by the engine
    # and by generate; the sets the engine over-counts are all declined
    certified, wrong = 0, []
    for key, n, gens in _certificate_corpus():
        if _margins(gens) is None:
            continue
        certified += 1
        g2 = commutant(commutant(_unit_norm(gens))).dim
        dims = (g2, _engine(gens).dim, generate(gens).dim)
        if dims != (n * n,) * 3:
            wrong.append((key, n, dims))
    assert wrong == []
    assert certified >= 2900  # 2932 of the 4300 sets when this test was written


def test_certificate_decision_is_invariant_under_scaling():
    changed = [
        key
        for key, n, gens in _certificate_corpus()
        if len({_margins([s * g for g in gens]) is None for s in (1.0, 1e-9, 1e9)}) > 1
    ]
    assert changed == []


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
    gens = _declined_sets()[name]
    assert _margins(gens) is None
    if gens:
        n = gens[0].shape[0]
        assert generate(gens).dim == _engine(gens).dim < n * n


def test_certificate_cut_sits_at_its_bar():
    # the pair generates M_6 on both sides of the cut; the side whose best
    # eigen-gap sits just below the bar is declined, the other certified
    bar = star_algebra._CERTIFICATE_FLOOR * DEFAULT_TOL.span_tol
    below = _hermitian_pair_with_gap(0.99 * bar, np.random.default_rng(19))
    above = _hermitian_pair_with_gap(1.01 * bar, np.random.default_rng(19))
    assert _margins(below) is None
    gap, worst = _margins(above)
    assert bar < gap < 1.02 * bar and worst > bar
    assert generate(below).dim == _engine(below).dim == _engine(above).dim == 36


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


# --- the span byte budget: refused by the estimate, before any allocation ------


def test_span_budget_admits_n_90_and_refuses_n_91():
    star_algebra._check_span_budget(90)
    with pytest.raises(DimensionOverflow):
        star_algebra._check_span_budget(91)


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
