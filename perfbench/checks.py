"""Independent checks of the library's outputs.

Nothing here calls finfactor: each expected value comes either from
mathematics (n^2, an exact rational index, the shape of a nested unit system)
or from a second route written with plain numpy (double commutant by null
space, block counts by slicing).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

NULL_TOL = 1e-8  # relative singular-value threshold for the null-space route


def read_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["dim"]
    pairs = np.asarray(doc["entries"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(n, n)


def _commutant_rows(mats, n: int) -> np.ndarray:
    """Row-major vectors spanning {x : xg = gx and xg* = g*x for all g}."""
    eye = np.eye(n)
    blocks = []
    for g in mats:
        for h in (g, g.conj().T):
            blocks.append(np.kron(eye, h.T) - np.kron(h, eye))
    _, s, vh = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    return vh[s <= NULL_TOL * max(1.0, float(s[0]))].conj()


def double_commutant_dim(mats) -> int:
    """dim G'' of the set; at finite dimension this is the generated algebra."""
    n = mats[0].shape[0]
    first = _commutant_rows(mats, n)
    return len(_commutant_rows([r.reshape(n, n) for r in first], n))


def nested_units_ok(units: np.ndarray) -> bool:
    """A nested corner product of canonical chains is a permuted standard
    system: e_ij = E_{r(i), r(j)} for a permutation r of the basis."""
    k, _, n, _ = units.shape
    if k != n:
        return False
    diag = units[np.arange(k), np.arange(k)]
    r = np.argmax(np.abs(diag.reshape(k, -1)), axis=1) // n
    if sorted(r.tolist()) != list(range(n)):
        return False
    expected = np.zeros_like(units)
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    expected[i, j, r[i], r[j]] = 1.0
    return float(np.abs(units - expected).max()) < 1e-12


def _range_bases(projections: np.ndarray):
    """Column bases of each projection's range: index arrays when the family
    is diagonal (slicing), orthonormal eigenvectors otherwise."""
    k, n, _ = projections.shape
    m = n // k
    off = projections - np.einsum("kii->ki", projections)[:, :, None] * np.eye(n)
    if float(np.abs(off).max()) < 1e-14:
        return [np.nonzero(np.diag(p).real > 0.5)[0] for p in projections]
    return [np.linalg.eigh(p)[1][:, n - m:] for p in projections]


def block_count(x: np.ndarray, bases, eta: float) -> int:
    """Nonzero blocks of x between range bases, threshold eta * ||x||_F."""
    threshold = eta * np.linalg.norm(x)
    count = 0
    for bi in bases:
        for bj in bases:
            if bi.ndim == 1:
                block = x[np.ix_(bi, bj)]
            else:
                block = bi.conj().T @ x @ bj
            count += int(np.linalg.norm(block) > threshold)
    return count


def recount_index(xs, projections: np.ndarray, eta: float) -> Fraction:
    k = projections.shape[0]
    bases = _range_bases(projections)
    return Fraction(sum(block_count(x, bases, eta) for x in xs), k * k)


def standard_index(xs, k: int, eta: float) -> Fraction:
    n = xs[0].shape[0]
    m = n // k
    bases = [np.arange(j * m, (j + 1) * m) for j in range(k)]
    return Fraction(sum(block_count(x, bases, eta) for x in xs), k * k)


def tower_index(n1: int) -> Fraction:
    """Exact index of the tensor-tower pair against the first-factor family:
    x1 meets blocks (1,1) and (2,2), x2 the 2(n1-1) shift blocks and (2,2)."""
    return Fraction(2 * n1 + 1, n1 * n1)


def roundtrip_error(original, recovered) -> float:
    return max(float(np.linalg.norm(r - x) / max(1.0, np.linalg.norm(x)))
               for x, r in zip(original, recovered))
