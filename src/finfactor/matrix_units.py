"""(Sub)systems of matrix units: construction, axiom verification, shift
generator pairs, tensor composites, and nested corner products.

A system of size k is a k x k array of matrices with e_ij* = e_ji and
e_il e_lj = e_ij; the diagonal sums to a projection (the support), and the
system is "full" when the support is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, SupportMismatch, SystemTooSmall
from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
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


def system_from_units(units) -> MatrixUnitSystem:
    arr = np.asarray(units, dtype=np.complex128)
    if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
        raise DimensionMismatch(f"expected a (k, k, n, n) array, got shape {arr.shape}")
    return MatrixUnitSystem(ambient_dim=arr.shape[2], k=arr.shape[0], units=arr)


def standard_units(k: int) -> MatrixUnitSystem:
    """Canonical full system in M_k: elementary matrices."""
    if k < 1:
        raise SystemTooSmall(f"system size must be >= 1, got {k}")
    units = np.zeros((k, k, k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            units[i, j] = unit_matrix(k, i, j)
    return MatrixUnitSystem(ambient_dim=k, k=k, units=units)


def amplified_units(k: int, copies: int) -> MatrixUnitSystem:
    """Full size-k system in M_{k*copies}: units e_ij (x) I_copies."""
    if k < 1 or copies < 1:
        raise SystemTooSmall(f"need k >= 1 and copies >= 1, got {k}, {copies}")
    n = k * copies
    check_dimension_cap(n)
    eye = np.eye(copies, dtype=np.complex128)
    units = np.zeros((k, k, n, n), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            units[i, j] = np.kron(unit_matrix(k, i, j), eye)
    return MatrixUnitSystem(ambient_dim=n, k=k, units=units)


@dataclass(frozen=True)
class UnitSystemReport:
    """Worst residual per matrix-unit axiom; verification never raises."""

    k: int
    ambient_dim: int
    adjoint_residual: float      # e_ij* = e_ji
    product_residual: float      # e_il e_mj = delta_lm e_ij
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
        return {
            "k": self.k,
            "ambient_dim": self.ambient_dim,
            "adjoint_residual": self.adjoint_residual,
            "product_residual": self.product_residual,
            "support_residual": self.support_residual,
            "trace_spread": self.trace_spread,
            "full": self.full,
            "passed": self.passed,
        }


def verify(sys: MatrixUnitSystem, cfg: ToleranceConfig = DEFAULT_TOL) -> UnitSystemReport:
    """Check the matrix-unit axioms within structural_tol, reporting residuals."""
    k, u = sys.k, sys.units
    adjoint_res = 0.0
    for i in range(k):
        for j in range(k):
            adjoint_res = max(adjoint_res, frobenius_norm(u[i, j].conj().T - u[j, i]))

    product_res = 0.0
    for l in range(k):
        left = u[:, l]                       # e_il, i = 0..k-1
        for m in range(k):
            prods = np.einsum("iab,jbc->ijac", left, u[m])
            diff = prods - u if l == m else prods
            worst = float(np.linalg.norm(diff.reshape(k * k, -1), axis=1).max())
            product_res = max(product_res, worst)

    support = sys.support
    support_res = projection_residual(support)

    traces = np.array([normalized_trace(u[j, j]).real for j in range(k)])
    trace_spread = float(traces.max() - traces.min()) if k > 1 else 0.0

    full = frobenius_norm(support - identity(sys.ambient_dim)) < cfg.structural_tol
    passed = (
        adjoint_res < cfg.structural_tol
        and product_res < cfg.structural_tol
        and support_res < cfg.structural_tol
        and trace_spread < cfg.structural_tol
    )
    return UnitSystemReport(
        k=k,
        ambient_dim=sys.ambient_dim,
        adjoint_residual=adjoint_res,
        product_residual=product_res,
        support_residual=support_res,
        trace_spread=trace_spread,
        full=full,
        passed=passed,
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
    units = np.zeros((k, k, n, n), dtype=np.complex128)
    for i in range(a.k):
        for s in range(b.k):
            for j in range(a.k):
                for t in range(b.k):
                    units[i * b.k + s, j * b.k + t] = np.kron(a.units[i, j], b.units[s, t])
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
    if len(chain) == 1:
        return chain[0]
    if not chain[0].is_full(cfg):
        raise SupportMismatch("the first system in a chain must be full")

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
        combined = np.einsum("iab,stbc,jcd->isjtad", left, nxt.units, right)
        k_new = acc.k * nxt.k
        n = acc.ambient_dim
        acc = MatrixUnitSystem(
            ambient_dim=n,
            k=k_new,
            units=combined.reshape(k_new, k_new, n, n),
        )
        pivot = pivot * nxt.k + 1
    return acc


def placed_units(
    sizes: list[int],
    level: int,
    pre: Callable[[int], np.ndarray],
) -> MatrixUnitSystem:
    """System of size sizes[level] in M_{prod(sizes)} with units
    pre(sizes[0]) (x) ... (x) pre(sizes[level-1]) (x) e_st (x) I (x) ... (x) I:
    every factor before the level holds the fixed matrix pre(size)."""
    m = sizes[level]
    head = reduce(np.kron, [pre(d) for d in sizes[:level]], np.ones((1, 1), dtype=np.complex128))
    tail = identity(int(np.prod(sizes[level + 1 :])))
    units = np.kron(np.kron(head[None, None], standard_units(m).units), tail[None, None])
    return MatrixUnitSystem(ambient_dim=units.shape[2], k=m, units=units)


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
