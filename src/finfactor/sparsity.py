"""Block-interaction sparsity of generator tuples under equal-trace projection
families: patterns, the interaction index, supports, refinement, heuristic
index minimization, direct-sum combination, family alignment, and the explicit
low-index tensor-tower generator pair.

The interaction index of an element x against a family {p_j} of k mutually
orthogonal equal-trace projections is the fraction of nonzero blocks p_i x p_j
among the k^2 possible ones; a block counts as nonzero when its Frobenius norm
exceeds zero_block_eta times the norm of x. Because the index is a discrete
invariant computed from continuous data, reports always carry the threshold
together with exact rational values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    FactorTooSmall,
    NotDivisible,
    RankMismatch,
    SizeMismatch,
    SupportMismatch,
    UnknownStrategy,
)
from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    check_dimension_cap,
    direct_sum,
    frobenius_norm,
    identity,
    normalized_trace,
    projection_residual,
    random_hermitian,
    same_dim,
)
from .matrix_units import MatrixUnitSystem, corner_chain, placed_units, shift_pair

__all__ = [
    "ProjectionFamily",
    "BlockPattern",
    "SparsityReport",
    "GeneratorTuple",
    "diagonal_family",
    "family_from_grouping",
    "family_from_units",
    "conjugate_family",
    "block_pattern",
    "interaction_index",
    "support",
    "support_mask",
    "refine",
    "minimize_index",
    "direct_sum_family",
    "align_families",
    "hyperfinite_pair",
]


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """k mutually orthogonal projections of trace 1/k summing to the identity."""

    ambient_dim: int
    k: int
    projections: np.ndarray  # (k, n, n)

    def validate(self, cfg: ToleranceConfig = DEFAULT_TOL) -> None:
        n, k, p = self.ambient_dim, self.k, self.projections
        if p.shape != (k, n, n):
            raise DimensionMismatch(f"expected shape {(k, n, n)}, got {p.shape}")
        tol = cfg.structural_tol
        for j in range(k):
            if projection_residual(p[j]) > tol:
                raise ValueError(f"member {j} is not a projection within {tol:.1e}")
            if abs(normalized_trace(p[j]) - 1.0 / k) > tol:
                raise ValueError(f"member {j} has trace != 1/{k}")
        for i in range(k):
            for j in range(i + 1, k):
                if frobenius_norm(p[i] @ p[j]) > tol:
                    raise ValueError(f"members {i} and {j} are not orthogonal")
        if frobenius_norm(p.sum(axis=0) - identity(n)) > tol:
            raise ValueError("family does not sum to the identity")


@dataclass(frozen=True, eq=False)
class BlockPattern:
    """Boolean k x k array; bit (i, j) marks a nonzero block p_i x p_j."""

    k: int
    bits: np.ndarray  # (k, k) bool

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    def bit_strings(self) -> list[str]:
        return ["".join("1" if b else "0" for b in row) for row in self.bits]

    def positions(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.bits))]


@dataclass(frozen=True)
class GeneratorTuple:
    """Ordered tuple of same-dimension matrices with display labels."""

    elements: tuple
    labels: tuple

    @classmethod
    def of(cls, matrices, labels=None) -> "GeneratorTuple":
        mats = tuple(as_matrix(m) for m in matrices)
        if mats:
            same_dim(*mats)
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(len(mats)))
        else:
            labels = tuple(labels)
            if len(labels) != len(mats):
                raise ValueError("labels and elements must have equal length")
        return cls(elements=mats, labels=labels)

    @property
    def ambient_dim(self) -> int:
        if not self.elements:
            raise DimensionMismatch("empty tuple has no ambient dimension")
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class SparsityReport:
    """Per-element block patterns plus the exact rational index and support."""

    k: int
    ambient_dim: int
    labels: tuple
    patterns: tuple  # of BlockPattern
    index: Fraction
    support_trace: Fraction
    family_id: str
    eta: float

    @property
    def index_value(self) -> float:
        return float(self.index)

    def to_doc(self) -> dict:
        return {
            "k": self.k,
            "ambient_dim": self.ambient_dim,
            "labels": list(self.labels),
            "patterns": [p.bit_strings() for p in self.patterns],
            "index_num": self.index.numerator,
            "index_den": self.index.denominator,
            "index_value": self.index_value,
            "support_trace_num": self.support_trace.numerator,
            "support_trace_den": self.support_trace.denominator,
            "family_id": self.family_id,
            "eta": self.eta,
        }


def _as_tuple(xs) -> GeneratorTuple:
    if isinstance(xs, GeneratorTuple):
        return xs
    if isinstance(xs, np.ndarray) and xs.ndim == 2:
        return GeneratorTuple.of([xs])
    return GeneratorTuple.of(xs)


# --- family constructors ------------------------------------------------------


def diagonal_family(n: int, k: int) -> ProjectionFamily:
    """Standard diagonal family: contiguous groups of n/k basis projections."""
    if n % k:
        raise NotDivisible(f"k={k} does not divide n={n}")
    m = n // k
    groups = [list(range(j * m, (j + 1) * m)) for j in range(k)]
    return family_from_grouping(n, groups)


def family_from_grouping(n: int, groups) -> ProjectionFamily:
    """Family of diagonal 0/1 projections from a balanced partition of 0..n-1."""
    k = len(groups)
    if n % k:
        raise NotDivisible(f"k={k} does not divide n={n}")
    m = n // k
    seen = sorted(i for g in groups for i in g)
    if seen != list(range(n)) or any(len(g) != m for g in groups):
        raise ValueError(f"groups must partition 0..{n - 1} into {k} parts of {m}")
    proj = np.zeros((k, n, n), dtype=np.complex128)
    for j, g in enumerate(groups):
        for i in g:
            proj[j, i, i] = 1.0
    return ProjectionFamily(ambient_dim=n, k=k, projections=proj)


def conjugate_family(fam: ProjectionFamily, u: np.ndarray) -> ProjectionFamily:
    """Family {u p_j u*}."""
    u = as_matrix(u)
    if u.shape[0] != fam.ambient_dim:
        raise DimensionMismatch("unitary dimension does not match family")
    proj = np.einsum("ab,kbc,cd->kad", u, fam.projections, u.conj().T)
    return ProjectionFamily(ambient_dim=fam.ambient_dim, k=fam.k, projections=proj)


def family_from_units(sys: MatrixUnitSystem, cfg: ToleranceConfig = DEFAULT_TOL) -> ProjectionFamily:
    """Diagonal units of a full system as a projection family."""
    if not sys.is_full(cfg):
        raise SupportMismatch("projection families require a full unit system")
    return ProjectionFamily(
        ambient_dim=sys.ambient_dim, k=sys.k, projections=sys.diagonal_projections()
    )


# --- patterns, index, support -------------------------------------------------


def block_pattern(
    x: np.ndarray,
    fam: ProjectionFamily,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> BlockPattern:
    """Bit (i, j) set iff ||p_i x p_j||_F > zero_block_eta * ||x||_F."""
    x = as_matrix(x)
    if x.shape[0] != fam.ambient_dim:
        raise DimensionMismatch("element dimension does not match family")
    p = fam.projections
    left = p @ x                                  # (k, n, n)
    blocks = np.einsum("iab,jbc->ijac", left, p)  # (k, k, n, n)
    norms = np.linalg.norm(blocks.reshape(fam.k, fam.k, -1), axis=2)
    threshold = cfg.zero_block_eta * frobenius_norm(x)
    return BlockPattern(k=fam.k, bits=norms > threshold)


def interaction_index(
    xs,
    fam: ProjectionFamily,
    cfg: ToleranceConfig = DEFAULT_TOL,
    family_id: str = "explicit",
) -> SparsityReport:
    """Sum over tuple elements of (nonzero block count)/k^2, as an exact
    rational, together with the tuple's support trace."""
    tup = _as_tuple(xs)
    patterns = []
    touched = np.zeros(fam.k, dtype=bool)
    total = 0
    for x in tup.elements:
        pat = block_pattern(x, fam, cfg)
        patterns.append(pat)
        total += pat.count
        touched |= support_mask(x, fam, cfg)
    return SparsityReport(
        k=fam.k,
        ambient_dim=fam.ambient_dim,
        labels=tup.labels,
        patterns=tuple(patterns),
        index=Fraction(total, fam.k * fam.k),
        support_trace=Fraction(int(touched.sum()), fam.k),
        family_id=family_id,
        eta=cfg.zero_block_eta,
    )


def support_mask(
    x: np.ndarray,
    fam: ProjectionFamily,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Boolean mask over family members meeting x on either side."""
    p = fam.projections
    row = np.linalg.norm((p @ x).reshape(fam.k, -1), axis=1)
    col = np.linalg.norm(np.einsum("ab,kbc->kac", x, p).reshape(fam.k, -1), axis=1)
    threshold = cfg.zero_block_eta * frobenius_norm(x)
    return (row > threshold) | (col > threshold)


def support(
    x: np.ndarray,
    fam: ProjectionFamily,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> tuple[np.ndarray, Fraction]:
    """Union of the family projections meeting x on either side, with its
    exact normalized trace."""
    x = as_matrix(x)
    if x.shape[0] != fam.ambient_dim:
        raise DimensionMismatch("element dimension does not match family")
    p, mask = fam.projections, support_mask(x, fam, cfg)
    proj = p[mask].sum(axis=0) if mask.any() else np.zeros_like(p[0])
    return proj, Fraction(int(mask.sum()), fam.k)


def refine(fam: ProjectionFamily, r: int) -> ProjectionFamily:
    """Split each member into r equal-trace subprojections via its range's
    spectral basis; the index never increases under refinement."""
    if r == 1:
        return fam
    if r < 1:
        raise NotDivisible(f"refinement factor must be >= 1, got {r}")
    n, k = fam.ambient_dim, fam.k
    out = np.zeros((k * r, n, n), dtype=np.complex128)
    for j in range(k):
        p = fam.projections[j]
        rank = int(round(normalized_trace(p).real * n))
        if rank % r:
            raise NotDivisible(f"member {j} has rank {rank}, not divisible by r={r}")
        sub = rank // r
        _, vecs = np.linalg.eigh(p)
        basis = vecs[:, n - rank :]          # range of p (eigenvalues ~1)
        for s in range(r):
            cols = basis[:, s * sub : (s + 1) * sub]
            out[j * r + s] = cols @ cols.conj().T
    return ProjectionFamily(ambient_dim=n, k=k * r, projections=out)


# --- heuristic index minimization ----------------------------------------------

STRATEGIES = ("diagonal_grouping", "unitary_local_search", "combined")


def _grouping_id(groups) -> str:
    parts = sorted(tuple(sorted(g)) for g in groups)
    return "grouping:" + "|".join(",".join(str(i + 1) for i in g) for g in parts)


def _grouping_counts(sq_mags, thresholds_sq, assign, k) -> int:
    """Total nonzero-block count for a diagonal grouping, over all elements."""
    n = assign.shape[0]
    A = np.zeros((k, n))
    A[assign, np.arange(n)] = 1.0
    total = 0
    for S, t in zip(sq_mags, thresholds_sq):
        M = A @ S @ A.T
        total += int((M > t).sum())
    return total


def _grouping_search(tup, k, seed, restarts, cfg):
    n = tup.ambient_dim
    m = n // k
    sq_mags = [np.abs(x) ** 2 for x in tup.elements]
    thresholds_sq = [(cfg.zero_block_eta * frobenius_norm(x)) ** 2 for x in tup.elements]

    def canonical(assign):
        groups = [tuple(sorted(np.nonzero(assign == j)[0].tolist())) for j in range(k)]
        return tuple(sorted(groups))

    rng = np.random.default_rng(seed)
    base = np.repeat(np.arange(k), m)
    best = None
    for restart in range(restarts + 1):
        assign = base.copy()
        if restart > 0:
            rng.shuffle(assign)
        count = _grouping_counts(sq_mags, thresholds_sq, assign, k)
        improved = True
        while improved:
            improved = False
            for a in range(n):
                for b in range(a + 1, n):
                    if assign[a] == assign[b]:
                        continue
                    assign[a], assign[b] = assign[b], assign[a]
                    cand = _grouping_counts(sq_mags, thresholds_sq, assign, k)
                    if cand < count:
                        count = cand
                        improved = True
                    else:
                        assign[a], assign[b] = assign[b], assign[a]
        key = (count, canonical(assign))
        if best is None or key < best[0]:
            best = (key, assign.copy())
    (count, canon), assign = best
    groups = [list(g) for g in canon]
    return family_from_grouping(n, groups), _grouping_id(groups)


def _pattern_count(tup, fam, cfg) -> int:
    return sum(block_pattern(x, fam, cfg).count for x in tup.elements)


def _unitary_search(tup, start_fam, start_id, seed, iters, cfg):
    n = start_fam.ambient_dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EA7]).entropy)
    fam = start_fam
    count = _pattern_count(tup, fam, cfg)
    step = 0.1
    accepted = 0
    stall = 0
    for _ in range(iters):
        h = random_hermitian(n, rng)
        h /= max(1.0, frobenius_norm(h))
        vals, vecs = np.linalg.eigh(step * h)
        u = (vecs * np.exp(1j * vals)) @ vecs.conj().T
        cand = conjugate_family(fam, u)
        cand_count = _pattern_count(tup, cand, cfg)
        if cand_count < count:
            fam, count = cand, cand_count
            accepted += 1
            stall = 0
        else:
            stall += 1
            if stall >= 25:
                step /= 2.0
                stall = 0
    fam_id = f"unitary_search:seed={seed},from={start_id},accepted={accepted}"
    return fam, fam_id


def minimize_index(
    xs,
    k: int,
    strategy: str = "diagonal_grouping",
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
    restarts: int = 8,
    iters: int = 200,
) -> tuple[ProjectionFamily, SparsityReport]:
    """Heuristic upper bound for the infimal tuple index over equal-trace
    families of size k.

    The search is seeded with the standard diagonal family, so the result is
    never worse than it; only certified upper bounds are produced, never the
    infimum itself. Deterministic for a fixed seed.
    """
    tup = _as_tuple(xs)
    n = tup.ambient_dim
    if n % k:
        raise NotDivisible(f"k={k} does not divide the ambient dimension n={n}")
    if strategy not in STRATEGIES:
        raise UnknownStrategy(f"strategy must be one of {STRATEGIES}, got {strategy!r}")

    if strategy == "diagonal_grouping":
        fam, fam_id = _grouping_search(tup, k, seed, restarts, cfg)
    elif strategy == "unitary_local_search":
        start = diagonal_family(n, k)
        fam, fam_id = _unitary_search(tup, start, "standard_diagonal", seed, iters, cfg)
    else:
        fam, fam_id = _grouping_search(tup, k, seed, restarts, cfg)
        fam, fam_id = _unitary_search(tup, fam, fam_id, seed, iters, cfg)

    report = interaction_index(tup, fam, cfg, family_id=fam_id)
    return fam, report


# --- combination and alignment --------------------------------------------------


def direct_sum_family(fam_a: ProjectionFamily, fam_b: ProjectionFamily) -> ProjectionFamily:
    """Family {p_j (+) q_j} in the direct-sum ambient space; for tuples
    supported on the respective summands the indices add exactly."""
    if fam_a.k != fam_b.k:
        raise SizeMismatch(f"family sizes differ: {fam_a.k} vs {fam_b.k}")
    n = fam_a.ambient_dim + fam_b.ambient_dim
    proj = np.zeros((fam_a.k, n, n), dtype=np.complex128)
    for j in range(fam_a.k):
        proj[j] = direct_sum(fam_a.projections[j], fam_b.projections[j])
    return ProjectionFamily(ambient_dim=n, k=fam_a.k, projections=proj)


def _range_basis(p: np.ndarray, rank: int) -> np.ndarray:
    _, vecs = np.linalg.eigh(p)
    return vecs[:, p.shape[0] - rank :]


def align_families(
    E: ProjectionFamily,
    F: ProjectionFamily,
) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries (w1, w2) conjugating both families onto the standard diagonal
    one: w1* e_j w1 = w2* f_j w2 = d_j for every j.

    Consequently any u with u* e_j u = f_j yields w1* u w2 commuting with every
    d_j, so its block pattern against the standard family is exactly diagonal
    (contributing k/k^2 = 1/k to a tuple index).
    """
    if E.k != F.k:
        raise SizeMismatch(f"family sizes differ: {E.k} vs {F.k}")
    if E.ambient_dim != F.ambient_dim:
        raise DimensionMismatch("families live in different ambient dimensions")
    n, k = E.ambient_dim, E.k
    ranks = []
    for fam in (E, F):
        for j in range(k):
            ranks.append(int(round(normalized_trace(fam.projections[j]).real * n)))
    if len(set(ranks)) != 1:
        raise RankMismatch(f"projections have unequal ranks: {sorted(set(ranks))}")
    rank = ranks[0]
    w1 = np.hstack([_range_basis(E.projections[j], rank) for j in range(k)])
    w2 = np.hstack([_range_basis(F.projections[j], rank) for j in range(k)])
    return w1, w2


# --- explicit low-index generator pair -------------------------------------------


def hyperfinite_pair(
    dims,
    weights: tuple[float, float] = (0.5, 1.0 / 3.0),
):
    """Self-adjoint pair generating the full algebra of the tensor tower
    M_{n_1} (x) ... (x) M_{n_m}, with interaction index at most 3/n_1 against
    the first-factor diagonal family.

    x1 is e_11 of the first factor plus geometrically weighted corner copies
    of e_11 down the tower (weights[0]**level) and a final all-corners tail;
    x2 is the first-factor shift plus weighted corner copies of the deeper
    shifts (weights[1]**level). Returns (x1, x2, tower) where tower holds the
    canonical per-factor unit systems in the full ambient dimension.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise FactorTooSmall("at least one factor dimension is required")
    if any(d < 3 for d in dims):
        raise FactorTooSmall(f"all factor dimensions must be >= 3, got {dims}")
    check_dimension_cap(int(np.prod(dims)))
    w1, w2 = weights
    if not (0.0 < abs(w1) and 0.0 < abs(w2)):
        raise ValueError("weights must be nonzero")
    m = len(dims)

    corners = corner_chain(dims)
    x1 = corners[0].units[0, 0]
    x2 = shift_pair(corners[0])[1]
    for level in range(1, m):
        x1 = x1 + (w1 ** level) * corners[level].units[0, 0]
        x2 = x2 + (w2 ** level) * shift_pair(corners[level])[1]
    x1 = x1 + (w1 ** m) * corners[-1].units[1, 1]

    tower = [placed_units(dims, level, identity) for level in range(m)]
    return x1, x2, tower
