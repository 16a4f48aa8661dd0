"""Dense complex matrix substrate: normalized trace, functional calculus,
direct sums, structural residuals, and the JSON matrix file format.

All matrices are square ``numpy.ndarray`` values of dtype complex128. The only
trace exposed is the normalized one (Tr/n), so statements like tau(p) = 1/k are
dimension-free.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    FileFormatError,
    NotSelfAdjoint,
)

DEFAULT_DIM_CAP = 256
DIM_CAP_ENV = "FINFACTOR_DIM_CAP"
_ARRAY_BYTE_BUDGET = 1 << 30


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds used by every numerical decision in the package.

    zero_block_eta: relative Frobenius threshold for declaring a block zero.
    structural_tol: residual bound for projection/unitary/self-adjoint checks.
    span_tol:       membership residual bound for algebra spans.
    """

    zero_block_eta: float = 1e-10
    structural_tol: float = 1e-8
    span_tol: float = 1e-8

    def __post_init__(self):
        for name in ("zero_block_eta", "structural_tol", "span_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


DEFAULT_TOL = ToleranceConfig()


def dimension_cap() -> int:
    """Ambient-dimension cap, overridable via the FINFACTOR_DIM_CAP env var."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{DIM_CAP_ENV} must be positive, got {cap}")
    return cap


def check_dimension_cap(n: int) -> None:
    """Raise DimensionOverflow when ambient dimension n exceeds the cap."""
    cap = dimension_cap()
    if n > cap:
        raise DimensionOverflow(f"ambient dimension {n} exceeds cap {cap}")


def check_array_budget(entries: int, what: str) -> None:
    """Raise DimensionOverflow when an array of this many complex128 entries
    (16 bytes each), named by what, would pass the 1 GiB array budget. The
    unit-system builders, generate and commutant check their largest array
    from this estimate before allocating anything: n^4 entries, a basis of
    M_n, fit up to n = 90."""
    need = 16 * entries
    if need > _ARRAY_BYTE_BUDGET:
        raise DimensionOverflow(
            f"{what} needs {need / 2**30:.1f} GiB for {entries} complex entries, "
            f"over the {_ARRAY_BYTE_BUDGET / 2**30:.0f} GiB array budget"
        )


def _square_dim(shape) -> int:
    """n for a matrix shape (n, n) with n >= 1; raises DimensionMismatch
    for any other shape."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {shape}")
    if shape[0] < 1:
        raise DimensionMismatch("matrices must have dimension >= 1")
    return shape[0]


def _common_dim(dims) -> int:
    dims = set(dims)
    if len(dims) != 1:
        raise DimensionMismatch(f"ambient dimensions differ: {sorted(dims)}")
    return dims.pop()


def _check_finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")


def as_matrix(x) -> np.ndarray:
    """Coerce to a square complex128 array; reject non-square or non-finite input."""
    a = np.asarray(x, dtype=np.complex128)
    _square_dim(a.shape)
    _check_finite(a)
    return a


def stack_dim(mats: list) -> int | None:
    """The common dim of a list of matrices, read from their shapes alone
    (None for an empty list). Raises DimensionMismatch as as_matrix and
    same_dim do: for a matrix that is not square or has dim 0, and for
    mixed sizes."""
    return _common_dim(_square_dim(np.shape(m)) for m in mats) if mats else None


def as_matrix_stack(mats: list, n: int) -> np.ndarray:
    """A list of matrices of dim n, as stack_dim checked it, as one new
    (g, n, n) complex128 stack: one conversion and one finiteness check
    however many matrices. Raises ValueError for a non-finite entry."""
    stack = np.array(mats, dtype=np.complex128).reshape(len(mats), n, n)
    _check_finite(stack)
    return stack


def same_dim(*mats: np.ndarray) -> int:
    return _common_dim(m.shape[0] for m in mats)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def zero(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.complex128)


def unit_matrix(n: int, i: int, j: int) -> np.ndarray:
    """Elementary matrix with a single 1 at (i, j), 0-based."""
    e = zero(n)
    e[i, j] = 1.0
    return e


def normalized_trace(x: np.ndarray) -> complex:
    """Tr(x)/n; satisfies tau(I) = 1 and tau(ab) = tau(ba)."""
    return complex(np.trace(x) / x.shape[0])


def frobenius_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))

def operator_norm(x: np.ndarray) -> float:
    """Largest singular value (deterministic at these sizes)."""
    return float(np.linalg.norm(x, 2))


def self_adjoint_residual(x: np.ndarray) -> float:
    return frobenius_norm(x - x.conj().T)


def hermitian_function(
    x: np.ndarray,
    f: Callable[[float], float],
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Apply a real scalar function to a self-adjoint matrix spectrally.

    The input is symmetrized ((x + x*)/2) before eigendecomposition when its
    self-adjointness residual is below structural_tol; larger residuals raise
    NotSelfAdjoint.
    """
    x = as_matrix(x)
    residual = self_adjoint_residual(x)
    if residual > cfg.structural_tol:
        raise NotSelfAdjoint(
            f"self-adjointness residual {residual:.3e} exceeds {cfg.structural_tol:.3e}"
        )
    sym = (x + x.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    fvals = np.array([f(float(t)) for t in eigvals], dtype=np.complex128)
    return (eigvecs * fvals) @ eigvecs.conj().T


def sqrt_clipped(t: float) -> float:
    """Square root clipped at zero, for PSD inputs with roundoff noise."""
    return math.sqrt(t) if t > 0.0 else 0.0


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal assembly; tau is the dimension-weighted average."""
    a = as_matrix(a)
    b = as_matrix(b)
    na, nb = a.shape[0], b.shape[0]
    out = zero(na + nb)
    out[:na, :na] = a
    out[na:, na:] = b
    return out


def projection_residual(x: np.ndarray) -> float:
    """max of the idempotency and self-adjointness Frobenius residuals."""
    return max(frobenius_norm(x @ x - x), self_adjoint_residual(x))


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def random_matrix(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# --- JSON matrix file format -------------------------------------------------
#
# {"dim": n, "entries": [[re, im], ...]}  with exactly n*n pairs, row-major.


def matrix_to_doc(x: np.ndarray) -> dict:
    x = as_matrix(x)
    flat = x.reshape(-1)
    return {
        "dim": int(x.shape[0]),
        "entries": [[float(v.real), float(v.imag)] for v in flat],
    }


def matrix_from_doc(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise FileFormatError("matrix document must be an object with 'dim' and 'entries'")
    n = doc["dim"]
    # JSON true/false load as bool, a subclass of int; the schema excludes them
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FileFormatError(f"'dim' must be a positive integer, got {n!r}")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise FileFormatError(f"expected {n * n} entry pairs, got {len(entries) if isinstance(entries, list) else type(entries)}")
    out = np.empty(n * n, dtype=np.complex128)
    for idx, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FileFormatError(f"entry {idx} is not a [re, im] pair")
        re, im = pair
        if any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in pair):
            raise FileFormatError(f"entry {idx} has non-numeric components")
        try:
            out[idx] = complex(re, im)
        except OverflowError:
            raise FileFormatError(f"entry {idx} is outside the float range") from None
    mat = out.reshape(n, n)
    if not np.all(np.isfinite(mat)):
        raise FileFormatError("matrix entries must be finite")
    return mat


def save_matrix(path, x: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_doc(x), fh, sort_keys=True)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    return matrix_from_doc(doc)
