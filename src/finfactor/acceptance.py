"""Acceptance suite: one callable per criterion, shared by the CLI and pytest.

Every criterion is deterministic for a fixed seed and decides its bounds over
exact rationals/integers wherever a bound is stated as one.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import compression as cp
from . import matrix_units as mu
from . import sparsity as sp
from . import star_algebra as sa
from .errors import FinfactorError
from .matrix_core import (
    ToleranceConfig,
    direct_sum,
    random_hermitian,
    random_matrix,
    random_unitary,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number} ({self.name}): {self.details}"


def _tol(eta=None, structural=1e-8, span=1e-8) -> ToleranceConfig:
    return ToleranceConfig(
        zero_block_eta=1e-10 if eta is None else eta,
        structural_tol=structural,
        span_tol=span,
    )


# --- deterministic instance builders -------------------------------------------

_SPARSE_BLOCK_CAP = {8: 8, 12: 24}


def sparse_tuples(k: int, count: int, seed: int):
    """Random block-sparse tuples in M_k whose measured index satisfies the
    compression precondition, with entries bounded away from the threshold."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, 0xC3]).entropy)
    cap = _SPARSE_BLOCK_CAP[k]
    out = []
    for _ in range(count):
        n_elements = int(rng.integers(1, 4))
        total = int(rng.integers(1, cap + 1))
        cells = [(i, j, p) for p in range(n_elements) for i in range(k) for j in range(k)]
        picks = rng.choice(len(cells), size=total, replace=False)
        mats = [np.zeros((k, k), dtype=np.complex128) for _ in range(n_elements)]
        for pick in picks:
            i, j, p = cells[int(pick)]
            mats[p][i, j] = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        out.append(sp.GeneratorTuple.of(mats))
    return out


@functools.lru_cache(maxsize=1)
def _compressions(seed: int, eta):
    """The compressions that criteria 3, 4 and 10 all check: one verified
    cut_and_paste run per sparse tuple, 20 tuples each at k = 8 and k = 12.
    Returns (cfg, [(k, units, [(tuple, result), ...]), ...])."""
    cfg = _tol(eta, structural=1e-8, span=1e-6)
    runs = []
    for k in (8, 12):
        sys = mu.standard_units(k)
        pairs = [(tup, cp.cut_and_paste(tup, sys, cfg)) for tup in sparse_tuples(k, 20, seed)]
        runs.append((k, sys, pairs))
    return cfg, runs


def _blocky_element(fam, pairs, rng):
    n, p = fam.ambient_dim, fam.projections
    x = np.zeros((n, n), dtype=np.complex128)
    for i, j in pairs:
        x += p[i] @ random_matrix(n, rng) @ p[j]
    return x


# --- criteria -------------------------------------------------------------------


def crit_shift_generation(seed: int, eta=None) -> tuple[bool, str]:
    cfg = _tol(eta)
    dims = []
    for k in range(2, 9):
        x1, x2 = mu.shift_pair(mu.standard_units(k))
        dims.append(sa.generate([x1, x2], cfg).dim)
    expected = [k * k for k in range(2, 9)]
    ok = dims == expected
    return ok, f"closure dims {dims} vs k^2 {expected}"


def crit_tensor_tower(seed: int, eta=None) -> tuple[bool, str]:
    cfg = _tol(eta)
    parts = []
    ok = True
    for dims in ([3, 3], [4, 3], [5, 3], [3, 3, 3]):
        x1, x2, tower = sp.hyperfinite_pair(dims)
        n = int(np.prod(dims))
        alg_dim = sa.generate([x1, x2], cfg).dim
        fam = sp.family_from_units(tower[0], cfg)
        rep = sp.interaction_index(sp.GeneratorTuple.of([x1, x2]), fam, cfg)
        n1 = dims[0]
        expected = Fraction(2 * n1 + 1, n1 * n1)
        good = alg_dim == n * n and rep.index == expected and rep.index <= Fraction(3, n1)
        ok = ok and good
        parts.append(f"{dims}: dim {alg_dim}/{n * n}, index {rep.index} (= {expected}, <= 3/{n1})")
    return ok, "; ".join(parts)


def crit_compression(seed: int, eta=None) -> tuple[bool, str]:
    _, runs = _compressions(seed, eta)
    parts = []
    ok = True
    for k, _, pairs in runs:
        good = 0
        worst_q = 0.0
        for _, res in pairs:
            worst_q = max(worst_q, float(np.linalg.norm(res.q @ res.q - res.q)))
            m, t_count = res.support_count, res.block_count
            bound_ok = m <= 2 or (m - 2) ** 2 <= 4 * t_count
            if bound_ok and res.algebra_dim_inputs == res.algebra_dim_output:
                good += 1
        ok = ok and good == len(pairs)
        parts.append(f"k={k}: {good}/{len(pairs)} ok, worst q residual {worst_q:.2e}")
    return ok, "; ".join(parts)


def crit_single_generation(seed: int, eta=None) -> tuple[bool, str]:
    cfg, runs = _compressions(seed, eta)
    parts = []
    ok = True
    for k, sys, pairs in runs:
        good = 0
        qualifying = 0
        for _, res in pairs:
            if res.support_trace >= Fraction(k - 1, k):
                continue
            qualifying += 1
            x1, x2 = cp.single_generator_pair(res.q, sys, cfg)
            pair_dim = sa.generate([x1, x2], cfg).dim
            fused_dim = sa.generate([cp.fuse(x1, x2, cfg)], cfg).dim
            if pair_dim == k * k and fused_dim == k * k:
                good += 1
        ok = ok and qualifying == len(pairs) and good == qualifying
        parts.append(f"k={k}: {good}/{qualifying} qualifying (of {len(pairs)}) reach dim {k * k}")
    return ok, "; ".join(parts)


def crit_additivity(seed: int, eta=None) -> tuple[bool, str]:
    cfg = _tol(eta)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]).entropy)
    exact = 0
    for _ in range(10):
        fam_a = sp.conjugate_family(sp.diagonal_family(4, 2), random_unitary(4, rng))
        fam_b = sp.conjugate_family(sp.diagonal_family(4, 2), random_unitary(4, rng))
        tuples = []
        for fam in (fam_a, fam_b):
            n_el = int(rng.integers(1, 3))
            mats = []
            for _ in range(n_el):
                n_pairs = int(rng.integers(1, 4))
                pairs = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(n_pairs)]
                mats.append(_blocky_element(fam, pairs, rng))
            tuples.append(sp.GeneratorTuple.of(mats))
        tup_a, tup_b = tuples
        zero4 = np.zeros((4, 4), dtype=np.complex128)
        combined_elements = [direct_sum(x, zero4) for x in tup_a.elements]
        combined_elements += [direct_sum(zero4, x) for x in tup_b.elements]
        fam_ab = sp.direct_sum_family(fam_a, fam_b)
        idx_a = sp.interaction_index(tup_a, fam_a, cfg).index
        idx_b = sp.interaction_index(tup_b, fam_b, cfg).index
        idx_ab = sp.interaction_index(sp.GeneratorTuple.of(combined_elements), fam_ab, cfg).index
        if idx_ab == idx_a + idx_b:
            exact += 1
    return exact == 10, f"{exact}/10 pairs with exact rational additivity"


_REFINE_SHAPES = [
    (4, 2, 2), (8, 2, 2), (8, 2, 4), (8, 4, 2), (9, 3, 3), (12, 2, 2),
    (12, 2, 3), (12, 3, 2), (12, 6, 2), (16, 2, 2), (16, 2, 4), (16, 4, 2),
    (16, 8, 2), (6, 2, 3), (6, 3, 2),
]


def crit_refinement(seed: int, eta=None) -> tuple[bool, str]:
    cfg = _tol(eta)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6F]).entropy)
    monotone = 0
    for trial in range(100):
        n, k, r = _REFINE_SHAPES[trial % len(_REFINE_SHAPES)]
        fam = sp.conjugate_family(sp.diagonal_family(n, k), random_unitary(n, rng))
        if trial % 2:
            x = random_hermitian(n, rng)
        else:
            n_pairs = int(rng.integers(1, k * k + 1))
            pairs = [(int(rng.integers(k)), int(rng.integers(k))) for _ in range(n_pairs)]
            x = _blocky_element(fam, pairs, rng)
        coarse = sp.interaction_index(sp.GeneratorTuple.of([x]), fam, cfg).index
        fine = sp.interaction_index(sp.GeneratorTuple.of([x]), sp.refine(fam, r), cfg).index
        if fine <= coarse:
            monotone += 1
    return monotone == 100, f"{monotone}/100 instances monotone under refinement"


def crit_bicommutant(seed: int, eta=None) -> tuple[bool, str]:
    cfg = _tol(eta, span=1e-8)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB1]).entropy)
    good = 0
    for trial in range(50):
        n = 2 + trial % 4
        count = 1 + trial % 2
        gens = []
        for _ in range(count):
            gens.append(random_hermitian(n, rng) if rng.random() < 0.5 else random_matrix(n, rng))
        direct = sa.generate(gens, cfg)
        double = sa.commutant(sa.commutant(gens, cfg), cfg)
        if sa.equal(direct, double, cfg):
            good += 1
    return good == 50, f"{good}/50 generator sets satisfy generate(G) = G''"


_ALIGN_SHAPES = [(6, 3), (8, 4), (8, 2), (12, 4), (4, 2)]


def crit_alignment(seed: int, eta=None) -> tuple[bool, str]:
    cfg = _tol(eta)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA1]).entropy)
    good = 0
    for trial in range(20):
        n, k = _ALIGN_SHAPES[trial % len(_ALIGN_SHAPES)]
        rank = n // k
        d = sp.diagonal_family(n, k)
        g = random_unitary(n, rng)
        h = random_unitary(n, rng)
        E = sp.conjugate_family(d, g)
        F = sp.conjugate_family(d, h)
        c = np.zeros((n, n), dtype=np.complex128)
        for j in range(k):
            c[j * rank : (j + 1) * rank, j * rank : (j + 1) * rank] = random_unitary(rank, rng)
        u = g @ c @ h.conj().T  # intertwiner: u* e_j u = f_j
        w1, w2 = sp.align_families(E, F)
        v = w1.conj().T @ u @ w2
        pat = sp.block_pattern(v, d, cfg)
        diagonal = pat.positions() == [(j, j) for j in range(k)]
        if diagonal and Fraction(pat.count, k * k) == Fraction(1, k):
            good += 1
    return good == 20, f"{good}/20 intertwiners exactly block-diagonal after alignment"


def crit_nested_units(seed: int, eta=None) -> tuple[bool, str]:
    cfg = _tol(eta, structural=1e-10)
    parts = []
    ok = True
    for sizes in ([2, 3], [3, 4]):
        nested = mu.nested_product(mu.corner_chain(sizes), cfg)
        rep = mu.verify(nested, cfg)
        n = nested.ambient_dim
        diag = nested.diagonal_projections()
        traces = np.array([float(np.trace(p).real) / n for p in diag])
        trace_ok = bool(np.max(np.abs(traces - 1.0 / nested.k)) < 1e-10)
        sum_ok = bool(np.linalg.norm(diag.sum(axis=0) - np.eye(n)) < 1e-10)
        good = rep.passed and nested.k == sizes[0] * sizes[1] and trace_ok and sum_ok
        ok = ok and good
        parts.append(
            f"sizes {sizes}: size {nested.k}, worst residual {rep.worst_residual:.2e}, "
            f"diagonal family sums to I: {sum_ok}"
        )
    return ok, "; ".join(parts)


def crit_roundtrip(seed: int, eta=None) -> tuple[bool, str]:
    _, runs = _compressions(seed, eta)
    worst = 0.0
    total = 0
    good = 0
    for _, sys, pairs in runs:
        for tup, res in pairs:
            rec = cp.recover_elements(res, sys)
            err = max(
                float(np.linalg.norm(a - b))
                for a, b in zip(rec.elements, tup.elements)
            )
            worst = max(worst, err)
            total += 1
            if err <= 1e-8:
                good += 1
    return good == total, f"{good}/{total} round-trips within 1e-8 (worst {worst:.2e})"


CRITERIA = (
    (1, "shift-pair generation, k=2..8", crit_shift_generation, 5.0),
    (2, "tensor-tower pair: full generation and 3/n1 index bound", crit_tensor_tower, 60.0),
    (3, "compression: projection, support bound, algebra equality", crit_compression, 120.0),
    (4, "single-generator synthesis and fusion reach the full algebra", crit_single_generation, 120.0),
    (5, "direct-sum families: exact index additivity", crit_additivity, 60.0),
    (6, "refinement never increases the index", crit_refinement, 60.0),
    (7, "closure equals the double commutant", crit_bicommutant, 60.0),
    (8, "aligned intertwiners are block-diagonal (adds 1/k)", crit_alignment, 60.0),
    (9, "nested corner products are full unit systems", crit_nested_units, 60.0),
    (10, "compression round-trip recovers the inputs", crit_roundtrip, 120.0),
)


def run_criterion(number: int, seed: int = 0, eta=None) -> CriterionResult:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    for num, name, fn, budget in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                passed, details = fn(seed, eta)
            except FinfactorError as exc:
                passed, details = False, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                passed = False
                details += f" [exceeded {budget:.0f}s budget: {elapsed:.1f}s]"
            return CriterionResult(num, name, passed, details, elapsed)
    raise ValueError(f"unknown criterion number {number}")


def run_all(seed: int = 0, eta=None) -> list[CriterionResult]:
    _compressions.cache_clear()  # every run computes its compressions afresh
    return [run_criterion(num, seed, eta) for num, _, _, _ in CRITERIA]
