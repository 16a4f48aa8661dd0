"""Independent oracles used to freeze expected values, kept deliberately
separate from the library's algorithms: closure dimension via greedy rank
selection with matrix_rank, block counts via direct submatrix slicing, and
the unblocked closure engine as the differential reference for generate."""

import numpy as np

from finfactor import DEFAULT_TOL


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
