"""(Sub)systems of matrix units: construction, axiom verification, shift
generator pairs, tensor composites, and nested corner products.

A system of size k is a k x k array of matrices with e_ij* = e_ji and
e_il e_lj = e_ij; the diagonal sums to a projection (the support), and the
system is "full" when the support is the identity. Each builder refuses a
system whose k^2 n^2 complex entries would pass the array budget
(matrix_core.check_array_budget) with DimensionOverflow, before building it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial, reduce
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, SupportMismatch, SystemTooSmall
from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    check_array_budget,
    check_dimension_cap,
    frobenius_norm,
    identity,
    normalized_trace,
    projection_residual,
    unit_matrix,
)


@dataclass(frozen=True, eq=False)
class MatrixUnitSystem:
    """k x k array of matrix units in a common ambient dimension."""

    ambient_dim: int
    k: int
    units: np.ndarray  # (k, k, n, n)

    @property
    def support(self) -> np.ndarray:
        """Sum of the diagonal units; a projection for a valid system."""
        return self.diagonal_sum(0, self.k)

    def diagonal_sum(self, lo: int, hi: int) -> np.ndarray:
        """Sum of the diagonal units e_jj for lo <= j < hi (0-based)."""
        idx = np.arange(lo, hi)
        return self.units[idx, idx].sum(axis=0)

    def diagonal_projections(self) -> np.ndarray:
        """Stack (k, n, n) of the diagonal units e_jj."""
        return self.units[np.arange(self.k), np.arange(self.k)].copy()

    def is_full(self, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        return frobenius_norm(self.support - identity(self.ambient_dim)) < cfg.structural_tol

    def unit_list(self) -> list[np.ndarray]:
        return [self.units[i, j] for i in range(self.k) for j in range(self.k)]


def _check_units_budget(k: int, n: int):
    """Refuse a size-k system in M_n, k^2 n^2 complex entries, past the
    array budget before it is built."""
    check_array_budget(k * k * n * n, f"a size-{k} unit system in M_{n}")


def system_from_units(units) -> MatrixUnitSystem:
    arr = np.asarray(units, dtype=np.complex128)
    if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
        raise DimensionMismatch(f"expected a (k, k, n, n) array, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise SystemTooSmall(f"need system size and ambient dimension >= 1, got shape {arr.shape}")
    return MatrixUnitSystem(ambient_dim=arr.shape[2], k=arr.shape[0], units=arr)


def standard_units(k: int) -> MatrixUnitSystem:
    """Canonical full system in M_k: elementary matrices."""
    if k < 1:
        raise SystemTooSmall(f"system size must be >= 1, got {k}")
    check_dimension_cap(k)
    _check_units_budget(k, k)
    # entry (i, j, a, b) of the reshaped identity is 1 iff (i, j) = (a, b)
    units = np.eye(k * k, dtype=np.complex128).reshape(k, k, k, k)
    return MatrixUnitSystem(ambient_dim=k, k=k, units=units)


def amplified_units(k: int, copies: int) -> MatrixUnitSystem:
    """Full size-k system in M_{k*copies}: units e_ij (x) I_copies."""
    if k < 1 or copies < 1:
        raise SystemTooSmall(f"need k >= 1 and copies >= 1, got {k}, {copies}")
    check_dimension_cap(k * copies)
    return placed_units([k, copies], 0, identity)


@dataclass(frozen=True)
class UnitSystemReport:
    """Worst residual per matrix-unit axiom; verification never raises."""

    k: int
    ambient_dim: int
    adjoint_residual: float      # e_ij* = e_ji
    product_residual: float      # certified bound on e_il e_mj = delta_lm e_ij
    support_residual: float      # sum_j e_jj is a projection
    trace_spread: float          # all tau(e_jj) equal
    full: bool                   # support equals the identity
    passed: bool

    @property
    def worst_residual(self) -> float:
        return max(
            self.adjoint_residual,
            self.product_residual,
            self.support_residual,
            self.trace_spread,
        )

    def to_doc(self) -> dict:
        return asdict(self)


def _max_norm(slabs) -> float:
    """Largest Frobenius norm of the (n, n) matrices in an iterable of
    (k, n, n) slabs, which are read one at a time."""
    return max(float(np.linalg.norm(slab, axis=(1, 2)).max()) for slab in slabs)


def _outer_residual(column: np.ndarray, units: np.ndarray, field=np.asarray) -> float:
    """max over i, j of ||e_ij - c_i c_j*||_F for a (k, n, n) first column c
    and (k, k, n, n) units e, one batched product of the k pairs (i, j) per
    row i, so one (k, n, n) slab is held at a time. field maps a row of e
    to the field of c."""
    column_h = column.conj().transpose(0, 2, 1)

    def rows():
        for c_i, row in zip(column, units):
            outer = c_i @ column_h
            outer -= field(row)
            yield outer

    return _max_norm(rows())


def verify(sys: MatrixUnitSystem, cfg: ToleranceConfig = DEFAULT_TOL) -> UnitSystemReport:
    """Check the matrix-unit axioms within structural_tol, reporting residuals.

    A system is fixed by its first column c_i = e_i1, so the product axiom is
    checked by two relations of that column, one batched product per row
    each, in O(k^2 n^3): gamma = max ||G_lm||_F for G_lm = c_l* c_m -
    delta_lm e_11, and phi = max ||F_ij||_F for F_ij = e_ij - c_i c_j*.
    product_residual is P = phi (1 + s + 4 s^2) + s^2 gamma + phi^2 with
    s^2 = 1 + 2 gamma, which bounds every ||e_il e_mj - delta_lm e_ij||_F. Proof, with ||.|| <= ||.||_F
    the operator norm and ||AB||_F <= ||A|| ||B||_F, ||A||_F ||B||: ||e_11||^2
    = ||c_1* c_1|| <= ||e_11|| + gamma gives ||e_11|| <= 1 + gamma, so
    ||c_i||^2 <= s^2; e_il e_mj - delta_lm e_ij = c_i G_lm c_j* + c_i c_l* F_mj
    + F_il c_m c_j* + F_il F_mj + delta_lm (c_i e_11 c_j* - e_ij), the first
    four at most s^2 gamma, s^2 phi, s^2 phi, phi^2. As c_1 = e_11 and c_1 c_1*
    is Hermitian, c_i e_11 = c_i - F_i1 + c_i (F_11 - F_11*), so the last is
    -F_ij - F_i1 c_j* + c_i (F_11 - F_11*) c_j*, at most phi (1 + s + 2 s^2).
    The adjoint axiom, e_ij* - e_ji = F_ij* - F_ji, is still measured directly.

    All three checks run over the rows of the system, one (k, n, n) slab at
    a time, so beside the units no more than a few slabs are held. Units
    whose imaginary parts are all exactly zero are checked in float64, where
    a product costs a quarter of a complex one: the first column is copied
    to float64 once, and every other slab is read through its real view."""
    k, units = sys.k, sys.units
    real = np.iscomplexobj(units) and not units.imag.any()
    field = (lambda slab: slab.real) if real else np.asarray

    adjoint_res = _max_norm(
        field(units[i]) - field(units[:, i]).conj().transpose(0, 2, 1) for i in range(k)
    )
    column = np.ascontiguousarray(field(units[:, 0]))
    phi = _outer_residual(column, units, field)
    column_h = column.conj().transpose(0, 2, 1)

    def gram_rows():
        for l in range(k):
            gram = column_h[l] @ column  # [m] = c_l* c_m
            gram[l] -= column[0]
            yield gram

    gamma = _max_norm(gram_rows())
    s_sq = 1.0 + 2.0 * gamma
    product_res = phi * (1.0 + math.sqrt(s_sq) + 4.0 * s_sq) + s_sq * gamma + phi * phi
    support_res = projection_residual(sys.support)
    trace_spread = float(np.ptp([normalized_trace(field(units[j, j])).real for j in range(k)]))
    return UnitSystemReport(
        k=k,
        ambient_dim=sys.ambient_dim,
        adjoint_residual=adjoint_res,
        product_residual=product_res,
        support_residual=support_res,
        trace_spread=trace_spread,
        full=sys.is_full(cfg),
        passed=all(r < cfg.structural_tol for r in (adjoint_res, product_res, support_res, trace_spread)),
    )


def shift_pair(sys: MatrixUnitSystem) -> tuple[np.ndarray, np.ndarray]:
    """Self-adjoint pair (e_11, sum of e_i,i+1 + adjoints) generating the
    same algebra as the full unit set."""
    if sys.k < 2:
        raise SystemTooSmall(f"shift pair needs k >= 2, got k={sys.k}")
    x1 = sys.units[0, 0].copy()
    x2 = np.zeros_like(x1)
    for i in range(sys.k - 1):
        step = sys.units[i, i + 1]
        x2 = x2 + step + step.conj().T
    return x1, x2


def tensor_units(a: MatrixUnitSystem, b: MatrixUnitSystem) -> MatrixUnitSystem:
    """Composite system of size k_a*k_b with units e_ij (x) f_st, indexed
    lexicographically by (outer, inner)."""
    n = a.ambient_dim * b.ambient_dim
    check_dimension_cap(n)
    k = a.k * b.k
    _check_units_budget(k, n)
    # axes (i, s, j, t, rows, cols): entry [i, s, j, t] is e_ij (x) f_st
    outer = a.units.reshape(a.k, 1, a.k, 1, a.ambient_dim, a.ambient_dim)
    inner = b.units.reshape(1, b.k, 1, b.k, b.ambient_dim, b.ambient_dim)
    units = np.kron(outer, inner).reshape(k, k, n, n)
    return MatrixUnitSystem(ambient_dim=n, k=k, units=units)


def nested_product(
    chain: list[MatrixUnitSystem],
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> MatrixUnitSystem:
    """Combine a nested chain of unit systems into one full system.

    Each system after the first must be supported exactly on the (2,2)
    diagonal unit of its predecessor; the composite unit for row index
    (i_1, ..., i_L, s) and column index (j_1, ..., j_L, t) is the product
    e(i_1,2)^(1) ... e(i_L,2)^(L) e(s,t)^(L+1) e(2,j_L)^(L) ... e(2,j_1)^(1).
    The resulting size is the product of the chain sizes, and the diagonal
    units form a family of equal-trace orthogonal projections summing to I.
    """
    if not chain:
        raise SystemTooSmall("nested_product needs a nonempty chain")
    dims = {s.ambient_dim for s in chain}
    if len(dims) != 1:
        raise DimensionMismatch(f"chain systems live in different ambient dims: {sorted(dims)}")
    if not chain[0].is_full(cfg):
        raise SupportMismatch("the first system in a chain must be full")
    if len(chain) == 1:
        return chain[0]
    # the composite is the largest array built: each level's product and its
    # middle block (k_acc k_next^2 n^2 entries) are no larger
    _check_units_budget(math.prod(s.k for s in chain), chain[0].ambient_dim)

    acc = chain[0]
    pivot = 1  # flat index of the all-(2,...,2) diagonal unit, 0-based
    for level, nxt in enumerate(chain[1:], start=2):
        if acc.k < 2 or pivot >= acc.k:
            raise SystemTooSmall(
                f"chain level {level - 1} has size {acc.k}; nesting needs index 2"
            )
        mismatch = frobenius_norm(nxt.support - acc.units[pivot, pivot])
        if mismatch > cfg.structural_tol:
            raise SupportMismatch(
                f"support of chain level {level} differs from the (2,2) unit of "
                f"its predecessor by {mismatch:.3e}"
            )
        left = acc.units[:, pivot]    # (k_acc, n, n): rows ending in column 2
        right = acc.units[pivot, :]   # (k_acc, n, n): rows starting at row 2
        # two batched products: [i, s, t] = e_i2 f_st, then [i, s, t, j] = that
        # e_2j, written through a transposed view straight into the [i, s, j, t]
        # layout of the composite, so no reordering copy is made
        middle = np.matmul(left[:, None, None], nxt.units[None])
        k_acc, k_nxt, n = acc.k, nxt.k, acc.ambient_dim
        units = np.empty((k_acc, k_nxt, k_acc, k_nxt, n, n), dtype=np.result_type(middle, right))
        np.matmul(middle[:, :, :, None], right[None, None, None],
                  out=units.transpose(0, 1, 3, 2, 4, 5))
        k_new = k_acc * k_nxt
        acc = MatrixUnitSystem(ambient_dim=n, k=k_new, units=units.reshape(k_new, k_new, n, n))
        pivot = pivot * nxt.k + 1
    return acc


def placed_units(
    sizes: list[int],
    level: int,
    pre: Callable[[int], np.ndarray],
) -> MatrixUnitSystem:
    """System of size sizes[level] in M_{prod(sizes)} with units
    pre(sizes[0]) (x) ... (x) pre(sizes[level-1]) (x) e_st (x) I (x) ... (x) I:
    every factor before the level holds the fixed matrix pre(size).

    With h x h head = pre(sizes[0]) (x) ... (x) pre(sizes[level-1]) and tail
    size t, entry (a, s', r), (b, u', r') of e_su is head[a, b] when s' = s,
    u' = u and r' = r, else 0. The zero array is written once, through the
    view of those entries, so the only arrays built are the units and the
    head (at most n x n); no Kronecker product of the units is formed."""
    m = sizes[level]
    n = math.prod(sizes)
    _check_units_budget(m, n)
    head = reduce(np.kron, [pre(d) for d in sizes[:level]], np.ones((1, 1), dtype=np.complex128))
    h, t = head.shape[0], math.prod(sizes[level + 1 :])
    units = np.zeros((m, m, h, m, t, h, m, t), dtype=np.complex128)
    np.einsum("suasrbur->suarb", units)[...] = head[:, None, :]
    return MatrixUnitSystem(ambient_dim=n, k=m, units=units.reshape(m, m, n, n))


def corner_chain(sizes: list[int]) -> list[MatrixUnitSystem]:
    """Canonical nested chain in M_{prod(sizes)}: level L is the size-m_L
    system supported on the (2,...,2) corner of the preceding levels."""
    if not sizes:
        raise SystemTooSmall("corner_chain needs at least one size")
    if any(m < 1 for m in sizes):
        raise SystemTooSmall(f"sizes must be positive, got {sizes}")
    if any(m < 2 for m in sizes[:-1]):
        raise SystemTooSmall(f"all sizes before the last must be >= 2, got {sizes}")
    check_dimension_cap(int(np.prod(sizes)))
    corner = partial(unit_matrix, i=1, j=1)
    return [placed_units(sizes, level, corner) for level in range(len(sizes))]
