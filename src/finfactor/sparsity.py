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

A family is held as one unitary V whose j-th run of m = n/k columns, V_j,
spans p_j = V_j V_j*. The block p_i x p_j then has the Frobenius norm of the
(i, j) block of V* x V, so one product gives every block, and refinement and
alignment read their bases off V instead of recovering them from the
projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    FactorTooSmall,
    NotDivisible,
    SizeMismatch,
    SupportMismatch,
    UnknownStrategy,
)
from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    check_dimension_cap,
    frobenius_norm,
    identity,
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
    "check_tower_dims",
    "hyperfinite_pair",
]


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """k mutually orthogonal projections of trace 1/k summing to the identity,
    held as a unitary whose columns j*m .. (j+1)*m - 1 (m = n/k) span member j."""

    ambient_dim: int
    k: int
    basis: np.ndarray  # (n, n) unitary

    @property
    def runs(self) -> np.ndarray:
        """View (n, k, m) of the basis: runs[:, j] holds the columns of member j."""
        n = self.ambient_dim
        return self.basis.reshape(n, self.k, n // self.k)

    @property
    def projections(self) -> np.ndarray:
        """Stack (k, n, n) of the members p_j = V_j V_j*."""
        v = self.runs.transpose(1, 0, 2)
        return v @ v.conj().transpose(0, 2, 1)

    def validate(self, cfg: ToleranceConfig = DEFAULT_TOL) -> None:
        n, k, v = self.ambient_dim, self.k, self.basis
        if v.shape != (n, n):
            raise DimensionMismatch(f"expected shape {(n, n)}, got {v.shape}")
        if k < 1 or n % k:
            raise NotDivisible(f"k={k} does not divide n={n}")
        residual = frobenius_norm(v.conj().T @ v - identity(n))
        if residual > cfg.structural_tol:
            raise ValueError(
                f"basis is not unitary within {cfg.structural_tol:.1e}: residual {residual:.3e}"
            )


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
    order = [i for g in groups for i in g]
    if sorted(order) != list(range(n)) or any(len(g) != m for g in groups):
        raise ValueError(f"groups must partition 0..{n - 1} into {k} parts of {m}")
    basis = np.zeros((n, n), dtype=np.complex128)
    basis[order, np.arange(n)] = 1.0
    return ProjectionFamily(ambient_dim=n, k=k, basis=basis)


def conjugate_family(fam: ProjectionFamily, u: np.ndarray) -> ProjectionFamily:
    """Family {u p_j u*}."""
    u = as_matrix(u)
    if u.shape[0] != fam.ambient_dim:
        raise DimensionMismatch("unitary dimension does not match family")
    return ProjectionFamily(ambient_dim=fam.ambient_dim, k=fam.k, basis=u @ fam.basis)


def family_from_units(sys: MatrixUnitSystem, cfg: ToleranceConfig = DEFAULT_TOL) -> ProjectionFamily:
    """Diagonal units of a full system as a projection family: run j of the
    basis is e_j1 V_1, for V_1 an orthonormal basis of the range of e_11.
    The runs of a unit system form a unitary; SupportMismatch is raised when
    they are off one by more than structural_tol."""
    if not sys.is_full(cfg):
        raise SupportMismatch("projection families require a full unit system (sum e_jj = I)")
    n, k = sys.ambient_dim, sys.k
    if n % k:
        raise SupportMismatch(f"a full system of size {k} cannot live in M_{n}")
    _, vecs = np.linalg.eigh(sys.units[0, 0])
    cols = sys.units[:, 0] @ vecs[:, n - n // k :]          # (k, n, m): e_j1 V_1
    basis = cols.transpose(1, 0, 2).reshape(n, n)
    residual = frobenius_norm(basis.conj().T @ basis - identity(n))
    if residual > cfg.structural_tol:
        raise SupportMismatch(
            f"the units do not form a unit system: their column runs are off "
            f"unitary by {residual:.3e}"
        )
    return ProjectionFamily(ambient_dim=n, k=k, basis=basis)


# --- patterns, index, support -------------------------------------------------


def block_pattern(
    x: np.ndarray,
    fam: ProjectionFamily,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> BlockPattern:
    """Bit (i, j) set iff ||p_i x p_j||_F > zero_block_eta * ||x||_F, where
    ||p_i x p_j||_F is the norm of the (i, j) block of V* x V."""
    x = as_matrix(x)
    if x.shape[0] != fam.ambient_dim:
        raise DimensionMismatch("element dimension does not match family")
    v, k = fam.basis, fam.k
    blocks = (v.conj().T @ x @ v).reshape(k, fam.ambient_dim // k, k, -1)
    norms = np.linalg.norm(blocks, axis=(1, 3))
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
    """Boolean mask over family members meeting x on either side:
    ||p_j x||_F = ||V_j* x||_F and ||x p_j||_F = ||x V_j||_F."""
    v, k, n = fam.basis, fam.k, fam.ambient_dim
    row = np.linalg.norm((v.conj().T @ x).reshape(k, -1), axis=1)
    col = np.linalg.norm((x @ v).reshape(n, k, -1), axis=(0, 2))
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
    mask = support_mask(x, fam, cfg)
    cols = fam.runs[:, mask].reshape(fam.ambient_dim, -1)
    return cols @ cols.conj().T, Fraction(int(mask.sum()), fam.k)


def refine(fam: ProjectionFamily, r: int) -> ProjectionFamily:
    """Split each member into r equal-trace subprojections: the same basis
    read in k*r runs, so member j's run splits into r consecutive ones. The
    index never increases under refinement."""
    if r == 1:
        return fam
    if r < 1:
        raise NotDivisible(f"refinement factor must be >= 1, got {r}")
    rank = fam.ambient_dim // fam.k
    if rank % r:
        raise NotDivisible(f"members have rank {rank}, not divisible by r={r}")
    return ProjectionFamily(ambient_dim=fam.ambient_dim, k=fam.k * r, basis=fam.basis)


# --- heuristic index minimization ----------------------------------------------

STRATEGIES = ("diagonal_grouping", "unitary_local_search", "combined")


def _grouping_id(groups) -> str:
    parts = sorted(tuple(sorted(g)) for g in groups)
    return "grouping:" + "|".join(",".join(str(i + 1) for i in g) for g in parts)


# bytes of the (B, E, k, n) intermediate one partner sweep batch may use
_SWEEP_BYTES = 1 << 24


def _grouping_counts(sq_mags, thresholds_sq, assigns, k) -> np.ndarray:
    """Total nonzero-block count, over the E elements whose squared moduli
    sq_mags (E, n, n) holds, of each diagonal grouping in a (B, n) stack of
    assignments."""
    count, n = assigns.shape
    A = np.zeros((count, 1, k, n))
    A[np.arange(count)[:, None], 0, assigns, np.arange(n)] = 1.0
    M = A @ sq_mags @ A.transpose(0, 1, 3, 2)  # (B, E, k, k) block masses
    return (M > thresholds_sq[:, None, None]).sum(axis=(1, 2, 3))


def _grouping_search(tup, k, seed, restarts, cfg):
    """First-improvement pairwise-swap descent over balanced groupings.

    For each a, the swaps of a with the later partners b in other groups are
    counted in one batch under the current assignment and the first
    improving one is taken; only the partners after it are counted again.
    Rejected swaps never change the assignment, so this accepts exactly the
    swaps a one-at-a-time sweep would. Block masses are fresh sums of
    nonnegative |x|^2 entries: the squared threshold can be 1e-20 ||x||^2,
    below the cancellation error of an incremental update.
    """
    n = tup.ambient_dim
    m = n // k
    sq_mags = np.abs(np.stack(tup.elements)) ** 2
    thresholds_sq = np.array(
        [(cfg.zero_block_eta * frobenius_norm(x)) ** 2 for x in tup.elements]
    )
    batch = max(1, _SWEEP_BYTES // (8 * len(tup) * k * n))

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
        count = _grouping_counts(sq_mags, thresholds_sq, assign[None], k)[0]
        improved = True
        while improved:
            improved = False
            for a in range(n):
                lo = a + 1
                while True:
                    partners = lo + np.nonzero(assign[lo:] != assign[a])[0][:batch]
                    if not partners.size:
                        break
                    trials = np.repeat(assign[None], partners.size, axis=0)
                    rows = np.arange(partners.size)
                    trials[rows, a] = assign[partners]
                    trials[rows, partners] = assign[a]
                    cands = _grouping_counts(sq_mags, thresholds_sq, trials, k)
                    better = np.nonzero(cands < count)[0]
                    if better.size:
                        first = better[0]
                        assign, count = trials[first], cands[first]
                        improved = True
                        lo = partners[first] + 1
                    else:
                        lo = partners[-1] + 1
        key = (count, canonical(assign))
        if best is None or key < best[0]:
            best = (key, assign.copy())
    (count, canon), assign = best
    groups = [list(g) for g in canon]
    return family_from_grouping(n, groups), _grouping_id(groups)


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

    The unitary strategies return their start family (unitary_local_search
    the standard diagonal one, combined the grouping-search one) under a
    "unitary_search:...,accepted=0" id: a block counts as zero only below
    zero_block_eta * ||x||_F, which no small random unitary step reaches,
    while such a step fills the blocks a grouping leaves zero. iters has no
    effect; it is kept for callers that pass it, such as perfbench/.
    """
    tup = _as_tuple(xs)
    n = tup.ambient_dim
    if k < 1:
        raise NotDivisible(f"family size k must be a positive divisor of n={n}, got k={k}")
    if n % k:
        raise NotDivisible(f"k={k} does not divide the ambient dimension n={n}")
    if strategy not in STRATEGIES:
        raise UnknownStrategy(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if restarts < 0:
        raise ValueError(f"restarts must be a non-negative integer, got {restarts}")

    if strategy == "unitary_local_search":
        fam, fam_id = diagonal_family(n, k), "standard_diagonal"
    else:
        fam, fam_id = _grouping_search(tup, k, seed, restarts, cfg)
    if strategy != "diagonal_grouping":
        fam_id = f"unitary_search:seed={seed},from={fam_id},accepted=0"

    report = interaction_index(tup, fam, cfg, family_id=fam_id)
    return fam, report


# --- combination and alignment --------------------------------------------------


def direct_sum_family(fam_a: ProjectionFamily, fam_b: ProjectionFamily) -> ProjectionFamily:
    """Family {p_j (+) q_j} in the direct-sum ambient space; for tuples
    supported on the respective summands the indices add exactly."""
    if fam_a.k != fam_b.k:
        raise SizeMismatch(f"family sizes differ: {fam_a.k} vs {fam_b.k}")
    k, na, nb = fam_a.k, fam_a.ambient_dim, fam_b.ambient_dim
    ma = na // k
    runs = np.zeros((na + nb, k, ma + nb // k), dtype=np.complex128)
    runs[:na, :, :ma] = fam_a.runs
    runs[na:, :, ma:] = fam_b.runs
    return ProjectionFamily(ambient_dim=na + nb, k=k, basis=runs.reshape(na + nb, -1))


def align_families(
    E: ProjectionFamily,
    F: ProjectionFamily,
) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries (w1, w2) conjugating both families onto the standard diagonal
    one: w1* e_j w1 = w2* f_j w2 = d_j for every j. These are the families'
    own bases.

    Consequently any u with u* e_j u = f_j yields w1* u w2 commuting with every
    d_j, so its block pattern against the standard family is exactly diagonal
    (contributing k/k^2 = 1/k to a tuple index).
    """
    if E.k != F.k:
        raise SizeMismatch(f"family sizes differ: {E.k} vs {F.k}")
    if E.ambient_dim != F.ambient_dim:
        raise DimensionMismatch("families live in different ambient dimensions")
    return E.basis, F.basis


# --- explicit low-index generator pair -------------------------------------------


def check_tower_dims(dims) -> list[int]:
    """The factor dimensions of a tensor tower as ints, checked as
    hyperfinite_pair needs them: at least one factor, every factor >= 3, and
    their product within the dimension cap."""
    dims = [int(d) for d in dims]
    if not dims:
        raise FactorTooSmall("at least one factor dimension is required")
    if any(d < 3 for d in dims):
        raise FactorTooSmall(f"all factor dimensions must be >= 3, got {dims}")
    check_dimension_cap(int(np.prod(dims)))
    return dims


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
    dims = check_tower_dims(dims)
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
