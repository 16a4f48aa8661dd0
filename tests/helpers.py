"""Independent oracles used to freeze expected values, kept deliberately
separate from the library's algorithms: closure dimension via greedy rank
selection with matrix_rank, block counts via direct submatrix slicing, the
unblocked closure engine as the differential reference for generate, and the
one-swap-at-a-time grouping search as the reference for the batched one,
the one-stack commutant as the differential reference for the streamed one,
block patterns and supports from k^2 products with the family's projections
as the reference for the basis-based ones, all k^4 unit products as the
reference for the first-column bound of matrix_units.verify, and a
tracemalloc probe of a call's peak allocation; also seeded inputs shared by
several test files."""

import math
import tracemalloc

import numpy as np

from finfactor import DEFAULT_TOL, AlgebraBasis, family_from_grouping, frobenius_norm
from finfactor.matrix_core import random_matrix
from finfactor.sparsity import _grouping_id
from finfactor.star_algebra import _generator_list


def _independent_subset(mats, n):
    """Greedy maximal linearly independent subset, decided by matrix_rank."""
    vecs = []
    chosen = []
    for m in mats:
        stack = np.stack(vecs + [m.reshape(-1)])
        if np.linalg.matrix_rank(stack, tol=1e-9 * max(1.0, np.abs(stack).max())) > len(vecs):
            vecs.append(m.reshape(-1))
            chosen.append(m)
    return chosen


def closure_dim_oracle(generators, n):
    """Dimension of the unital *-algebra closure by brute-force multiplication
    until the span stabilizes (rank decisions by SVD-based matrix_rank)."""
    seed = [np.eye(n, dtype=complex)]
    for g in generators:
        seed.append(np.asarray(g, dtype=complex))
        seed.append(np.asarray(g, dtype=complex).conj().T)
    basis = _independent_subset(seed, n)
    while True:
        products = [a @ b for a in basis for b in basis]
        new_basis = _independent_subset(basis + products, n)
        if len(new_basis) == len(basis):
            return len(basis)
        basis = new_basis


class ReferenceSpan:
    """Per-row span builder with the relative-residual admission rule: one
    projection of the block off the span as a prefilter, then each survivor
    re-orthogonalized twice against the whole current span and admitted iff
    its residual exceeds tol times its original norm."""

    def __init__(self, N, tol=DEFAULT_TOL.span_tol):
        self.rows = np.zeros((0, N), dtype=complex)
        self.tol = tol

    @property
    def dim(self):
        return self.rows.shape[0]

    def absorb(self, cands):
        C = np.asarray(cands, dtype=complex)
        norms0 = np.linalg.norm(C, axis=1)
        Q = self.rows
        R = C - (C @ Q.conj().T) @ Q
        added = 0
        for row in np.nonzero(np.linalg.norm(R, axis=1) > self.tol * norms0)[0]:
            v = R[row]
            for _ in range(2):
                v = v - (np.conj(self.rows) @ v) @ self.rows
            r = float(np.linalg.norm(v))
            if r > self.tol * norms0[row]:
                self.rows = np.vstack([self.rows, v / r])
                added += 1
                if self.dim == C.shape[1]:
                    break
        return added


def reference_closure_dim(generators, n):
    """Closure dimension by the all-pairs engine: every round multiplies every
    pair of current basis rows, in (i, j) order and blocks of at most 1024
    per i, and absorbs them with ReferenceSpan until a round adds nothing."""
    N = n * n
    chunk = 1024
    span = ReferenceSpan(N)
    seed = [np.eye(n, dtype=complex)] + [np.asarray(g, dtype=complex) for g in generators]
    seed += [np.asarray(g, dtype=complex).conj().T for g in generators]
    span.absorb(np.stack([m.reshape(N) for m in seed]))
    while span.dim < N:
        start = span.dim
        basis = span.rows.reshape(start, n, n)
        for i in range(start):
            products = np.matmul(basis[i], basis).reshape(start, N)
            for lo in range(0, start, chunk):
                span.absorb(products[lo : lo + chunk])
                if span.dim == N:
                    return N
        if span.dim == start:
            break
    return span.dim


def reference_commutant(a, cfg=DEFAULT_TOL):
    """Commutant by one SVD of all 2g constraint blocks stacked into a
    (2g*n^2) x n^2 matrix, with the same null-space threshold as commutant,
    and like commutant on the nonzero generators scaled to unit Frobenius
    norm (no generator left: everything commutes)."""
    n, gens = _generator_list(a)
    N = n * n
    eye = np.eye(n, dtype=np.complex128)
    gens = [g / np.linalg.norm(g) for g in gens if np.linalg.norm(g) > 0]
    if not gens:
        elements = math.sqrt(n) * np.eye(N, dtype=np.complex128).reshape(N, n, n)
        return AlgebraBasis(ambient_dim=n, elements=elements)
    seen = np.stack(gens + [g.conj().T for g in gens])
    stacked = eye[None, :, None, :, None] * seen.transpose(0, 2, 1)[:, None, :, None, :]
    stacked -= seen[:, :, None, :, None] * eye[None, None, :, None, :]
    stacked = stacked.reshape(len(seen) * N, N)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    smax = float(svals[0]) if len(svals) else 0.0
    null_mask = svals <= cfg.span_tol * max(1.0, smax)
    elements = math.sqrt(n) * vh[null_mask].conj().reshape(-1, n, n)
    return AlgebraBasis(ambient_dim=n, elements=np.ascontiguousarray(elements))


def reference_unit_products(units):
    """Worst ||e_il e_mj - delta_lm e_ij||_F over all k^4 products of a
    (k, k, n, n) unit array, one batch of k^2 products per (l, m)."""
    k = units.shape[0]
    worst = 0.0
    for l in range(k):
        for m in range(k):
            prods = np.matmul(units[:, l, None], units[m][None])
            if l == m:
                prods -= units
            worst = max(worst, float(np.linalg.norm(prods, axis=(2, 3)).max()))
    return worst


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reference_grouping_count(sq_mags, thresholds_sq, assign, k):
    n = assign.shape[0]
    A = np.zeros((k, n))
    A[assign, np.arange(n)] = 1.0
    total = 0
    for S, t in zip(sq_mags, thresholds_sq):
        M = A @ S @ A.T
        total += int((M > t).sum())
    return total


def reference_grouping_search(tup, k, seed, restarts, cfg):
    """First-improvement swap descent that counts one candidate swap at a
    time; same signature and result as sparsity._grouping_search."""
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
        count = _reference_grouping_count(sq_mags, thresholds_sq, assign, k)
        improved = True
        while improved:
            improved = False
            for a in range(n):
                for b in range(a + 1, n):
                    if assign[a] == assign[b]:
                        continue
                    assign[a], assign[b] = assign[b], assign[a]
                    cand = _reference_grouping_count(sq_mags, thresholds_sq, assign, k)
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


def grouping_block_count(x, groups, eta=DEFAULT_TOL.zero_block_eta):
    """Nonzero-block count for a diagonal grouping by direct slicing."""
    x = np.asarray(x)
    threshold = eta * np.linalg.norm(x)
    count = 0
    for rows in groups:
        for cols in groups:
            if np.linalg.norm(x[np.ix_(rows, cols)]) > threshold:
                count += 1
    return count


def reference_block_pattern(x, projections, eta=DEFAULT_TOL.zero_block_eta):
    """Bits (i, j) with ||p_i x p_j||_F > eta ||x||_F, from all k^2 products."""
    k = projections.shape[0]
    threshold = eta * np.linalg.norm(x)
    return np.array(
        [[np.linalg.norm(projections[i] @ x @ projections[j]) > threshold for j in range(k)]
         for i in range(k)]
    )


def reference_support_mask(x, projections, eta=DEFAULT_TOL.zero_block_eta):
    """Members p_j with ||p_j x||_F or ||x p_j||_F above eta ||x||_F."""
    threshold = eta * np.linalg.norm(x)
    return np.array(
        [np.linalg.norm(p @ x) > threshold or np.linalg.norm(x @ p) > threshold
         for p in projections]
    )


def basis_invariant_residuals(basis, cfg=DEFAULT_TOL):
    """AlgebraBasis invariants: tau-orthonormality, identity membership,
    adjoint closure, multiplicative closure. Returns worst residuals."""
    from finfactor import contains, identity

    n, d = basis.ambient_dim, basis.dim
    elems = basis.elements
    flat = elems.reshape(d, n * n)
    gram = np.conj(flat) @ flat.T / n  # tau inner product
    orth = float(np.linalg.norm(gram - np.eye(d)))
    _, ident_res = contains(basis, identity(n), cfg)
    adj = 0.0
    mult = 0.0
    for i in range(d):
        _, r = contains(basis, elems[i].conj().T, cfg)
        adj = max(adj, r)
        for j in range(d):
            _, r = contains(basis, elems[i] @ elems[j], cfg)
            mult = max(mult, r)
    return {"orthonormality": orth, "identity": ident_res, "adjoint": adj, "product": mult}


def two_block_element(seed=1):
    """16x16 element with dense complex 2x2 blocks at block positions (0, 1)
    and (2, 3) of the k=8 unit system: its fused single generator is a case
    where a closure block loses orthonormality to cancellation."""
    rng = np.random.default_rng(seed)
    x = np.zeros((16, 16), dtype=complex)
    for bi, bj in ((0, 1), (2, 3)):
        block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2] = block
    return x


def planted_tuple(n, rng):
    """Two elements, block diagonal plus one off-diagonal block against a
    hidden balanced grouping into 8 parts, rows and columns permuted."""
    m = n // 8
    perm = rng.permutation(n)
    xs = []
    for _ in range(2):
        x = np.zeros((n, n), dtype=complex)
        for j in range(8):
            x[j * m : (j + 1) * m, j * m : (j + 1) * m] = random_matrix(m, rng)
        i, j = rng.choice(8, size=2, replace=False)
        x[i * m : (i + 1) * m, j * m : (j + 1) * m] = random_matrix(m, rng)
        xs.append(x[np.ix_(perm, perm)])
    return xs
