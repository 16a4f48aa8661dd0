"""Unital *-algebras generated by matrices, commutants, and span queries.

An algebra is represented by an AlgebraBasis: a stack of matrices orthonormal
under the trace inner product <a, b> = tau(b* a). At finite dimension the
*-algebra generated by a set equals its double commutant, which the test suite
exercises as a cross-check of the two independent routes computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DimensionOverflow
from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    _working_field,
    as_matrix,
    identity,
    same_dim,
)


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """Orthonormal basis (trace inner product) of a unital *-subalgebra."""

    ambient_dim: int
    elements: np.ndarray  # (dim, n, n), tau-orthonormal

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    def unit_rows(self) -> np.ndarray:
        """Basis as Frobenius-unit row vectors, shape (dim, n*n)."""
        n = self.ambient_dim
        return self.elements.reshape(self.dim, n * n) / math.sqrt(n)


_RENORM_GATE = 1e-13
# below N = n^2 = 256 a complete QR costs more than the complement prefilter
# saves over the rest of the closure
_COMPLEMENT_MIN_N = 256
# rows of commutator blocks per QR fold in commutant (at least one block):
# whole blocks of n^2 rows, enough of them at small n that the QR calls stay few
_COMMUTANT_SLAB_ROWS = 400
# generate and commutant hold O(n^4) entries (the span's rows, the commutant's
# factor, a basis of M_n); they refuse an n whose n^4 complex128 entries would
# pass this many bytes before allocating anything (n <= 90 fits)
_SPAN_BYTE_BUDGET = 1 << 30
# the full-algebra certificate's bars, in units of span_tol: the eigen-gap of
# the chosen vector, and the residual of every vector the closure admits
_CERTIFICATE_FLOOR = 1e3


def _check_span_budget(n: int):
    need = 16 * n**4
    if need > _SPAN_BYTE_BUDGET:
        raise DimensionOverflow(
            f"ambient dimension {n} needs {need / 2**30:.1f} GiB for n^4 complex "
            f"entries, over the {_SPAN_BYTE_BUDGET / 2**30:.0f} GiB span budget"
        )


def _complement(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the orthogonal complement of the span of
    orthonormal rows: the trailing columns of a complete QR, copied out so
    that the result does not keep the whole factor alive."""
    q, _ = np.linalg.qr(rows.conj().T, mode="complete")
    return np.conjugate(q[:, rows.shape[0] :]).T


class _SpanBuilder:
    """Growing orthonormal span with the relative-residual admission rule.

    A candidate joins the basis iff its residual after projection exceeds
    span_tol times the candidate's original Frobenius norm. A block is
    projected off the span held at entry with two classical Gram-Schmidt
    passes (CGS2); each survivor is then orthogonalized, twice, against the
    rows admitted earlier in the same block and tested on its own. The rows
    a block admits get one more pass off the entry span, and go through the
    same admission once more when that pass moved a row norm off 1.

    Most candidates lie in the span, so the first pass serves as a prefilter:
    only rows whose residual passes the test get the second. Once the span
    holds more than half of M_n (n >= 16), the prefilter measures the
    residual in the orthogonal complement instead, which is the smaller
    side: an orthonormal basis W of the complement, built by a complete QR,
    less the W-coordinates Y of the rows admitted since. Survivors then get
    both passes off the span as before, so the admission decisions and the
    rows admitted are those of the span-side prefilter.

    Rows, W and Y hold the builder's dtype: float64 for a span of real
    candidates, complex128 otherwise. A real builder refuses complex
    candidates, whose imaginary parts a cast would drop.

    The projections multiply by the conjugates of the rows and of W, which
    are kept rather than formed on every call: _rows_conj[:dim] equals
    _rows[:dim].conj() whenever it is read, so every write to the rows (an
    admission, the end pass) writes the mirror too, and _W_conj is formed
    each time W is built or shrunk. In a real builder both are the arrays
    themselves, since conjugation is then the identity.
    """

    def __init__(self, n: int, tol: float, dtype=np.complex128):
        self.n = n
        self.N = n * n
        self.tol = tol
        self.dim = 0
        self._set_rows(np.zeros((64, self.N), dtype=dtype))
        self._W = None  # complement basis, (r, N)
        self._W_conj = None
        self._Y = None  # W-coordinates of the rows admitted since W was built

    def _set_rows(self, rows: np.ndarray):
        self._rows = rows
        self._rows_conj = rows.conj()  # rows itself when real

    def _sync_conj(self, lo: int, hi: int):
        """Rewrite the mirror of rows lo..hi after they changed."""
        if self._rows_conj is not self._rows:
            np.conjugate(self._rows[lo:hi], out=self._rows_conj[lo:hi])

    def _set_complement(self, W: np.ndarray):
        self._W = W
        self._W_conj = W.conj()
        self._Y = np.zeros((0, W.shape[0]), dtype=self._rows.dtype)

    def _grow(self):
        if self.dim == self._rows.shape[0]:
            cap = min(max(2 * self.dim, 64), self.N)
            rows = np.zeros((cap, self.N), dtype=self._rows.dtype)
            rows[: self.dim] = self._rows[: self.dim]
            self._set_rows(rows)

    def q(self) -> np.ndarray:
        return self._rows[: self.dim]

    def _project_off(self, C: np.ndarray, dim: int) -> np.ndarray:
        """C minus its projection onto the first dim rows of the span."""
        if not dim:
            return C
        return C - (C @ self._rows_conj[:dim].T) @ self._rows[:dim]

    def _admit(self, R: np.ndarray, bars: np.ndarray, start: int):
        """Admit the rows of R, already orthogonal to the first start rows,
        one by one: each is orthogonalized twice against the rows admitted
        since start and kept, normalized, iff its residual exceeds its bar."""
        for v, bar in zip(R, bars):
            for _ in range(2):
                if self.dim > start:
                    Q = self._rows[start : self.dim]
                    v = v - np.conj(Q @ v.conj()) @ Q
            r = float(np.linalg.norm(v))
            if r > bar:
                self._grow()
                self._rows[self.dim] = v / r
                self._sync_conj(self.dim, self.dim + 1)
                self.dim += 1
                if self.dim == self.N:
                    break

    def _readmit(self, start: int):
        """Run the rows admitted since start through admission again, each
        against span_tol times its own norm: a row that depends on the
        earlier ones is dropped, the rest come out orthonormal."""
        new = self._rows[start : self.dim].copy()
        self.dim = start
        self._admit(new, self.tol * np.linalg.norm(new, axis=1), start)

    def absorb(self, cands: np.ndarray) -> int:
        """Absorb a stack of candidate vectors (m, N); returns count admitted."""
        start = self.dim
        C = np.asarray(cands)
        if C.dtype.kind == "c" and self._rows.dtype.kind == "f":
            raise TypeError(f"{C.dtype} candidates for a {self._rows.dtype} span")
        C = np.ascontiguousarray(C, dtype=self._rows.dtype)
        bars = self.tol * np.linalg.norm(C, axis=1)
        if self._W is None and self.N >= _COMPLEMENT_MIN_N and 2 * start > self.N:
            self._set_complement(_complement(self.q()))
        if self._W is None:
            R = self._project_off(C, start)
            survivors = np.nonzero(np.linalg.norm(R, axis=1) > bars)[0]
            if not survivors.size:
                return 0
            R = R[survivors]
        else:
            Z = C @ self._W_conj.T
            if len(self._Y):
                Z -= (Z @ self._Y.conj().T) @ self._Y
            survivors = np.nonzero(np.linalg.norm(Z, axis=1) > bars)[0]
            if not survivors.size:
                return 0
            R = self._project_off(C[survivors], start)
        self._admit(self._project_off(R, start), bars[survivors], start)
        if start and self.dim > start:
            # R is orthogonal to the entry span only to eps times its norm; a
            # row that then cancelled against this call's rows was scaled up by
            # the cancellation factor, so the new rows get one more pass
            new = self._rows[start : self.dim]
            new[:] = self._project_off(new, start)
            self._sync_conj(start, self.dim)
            # removing an entry-span component eps moves a row norm off 1 by
            # eps^2/2 and the block's inner products by as much; past
            # _RENORM_GATE, the block may have lost orthonormality or even
            # independence, so it goes through admission once more
            if np.abs(np.linalg.norm(new, axis=1) - 1.0).max() > _RENORM_GATE:
                self._readmit(start)
        if self._W is not None and self.dim > start:
            new_y = self._rows[start : self.dim] @ self._W_conj.T
            self._Y = np.vstack([self._Y, new_y])
            if 2 * len(self._Y) > len(self._W):
                # shrink W to the complement of the new rows within W
                self._set_complement(_complement(self._Y) @ self._W)
        return self.dim - start

    def tau_orthonormal(self) -> np.ndarray:
        """The rows as tau-orthonormal complex128 matrices (dim, n, n),
        scaled straight into the output. The complement basis is released
        first, so it is not held alongside the output (a later absorb
        builds it again)."""
        n = self.n
        self._W = self._W_conj = self._Y = None
        out = np.empty((self.dim, n, n), dtype=np.complex128)
        np.multiply(self.q().reshape(self.dim, n, n), math.sqrt(n), out=out)
        return out


_PRODUCT_CHUNK = 1024


def _new_products(basis: np.ndarray, done: int):
    """Products basis[i] @ basis[j] with i >= done or j >= done, flattened to
    rows in (i, j) order and yielded in blocks of at most _PRODUCT_CHUNK."""
    dim, n = basis.shape[0], basis.shape[1]
    for i in range(dim):
        lo = done if i < done else 0
        products = np.matmul(basis[i], basis[lo:]).reshape(dim - lo, n * n)
        for c in range(0, dim - lo, _PRODUCT_CHUNK):
            yield products[c : c + _PRODUCT_CHUNK]


def generate(
    generators,
    cfg: ToleranceConfig = DEFAULT_TOL,
    ambient_dim: int | None = None,
) -> AlgebraBasis:
    """Smallest unital *-algebra containing the generators.

    First asks the full-algebra certificate (_full_algebra_margins), a
    closure of vectors; when it proves that the algebra is M_n, the result is
    full_matrix_basis(n). Otherwise the closure engine (_span_closure) seeds
    the span with I, the generators, and their adjoints, then repeatedly
    multiplies basis pairs and absorbs new directions until the span is
    stable. A round forms only the products with at least one factor added in
    the previous round (semi-naive closure): older pairs were absorbed then.
    An empty generator list yields the scalars (ambient_dim must then be
    given). Stops early once the span is all of M_n.

    When every generator is real (all imaginary parts exactly zero), the
    whole closure runs in float64: products of real rows are real, and a real
    orthonormal basis of the real algebra is a complex basis of the complex
    one. The returned elements are complex128 either way.

    Raises DimensionOverflow, before allocating anything, when n^4 complex
    entries would pass the span byte budget.
    """
    gens = [as_matrix(g) for g in generators]
    if gens:
        n = same_dim(*gens)
        if ambient_dim is not None and ambient_dim != n:
            raise DimensionMismatch(
                f"ambient_dim {ambient_dim} does not match generators of dim {n}"
            )
    else:
        if ambient_dim is None:
            raise DimensionMismatch("ambient_dim is required for an empty generator list")
        n = ambient_dim
    _check_span_budget(n)
    if _full_algebra_margins(gens, cfg.span_tol) is not None:
        return full_matrix_basis(n)
    return _span_closure(gens, n, cfg.span_tol)


def _full_algebra_margins(gens, tol: float):
    """(gap, worst_admitted) when the unital *-algebra A of gens is provably
    M_n, else None (the set may still generate M_n).

    Burnside's theorem run as Norton's irreducibility test (Parker, "The
    computer calculation of modular characters (the Meat-Axe)", 1984; Holt
    and Rees, J. Austral. Math. Soc. A 57, 1994). If A holds vv* for a unit
    vector v and A.v = C^n, then uw* = a vv* b* lies in A for all u = av and
    w = bv, so A = M_n.

    The letters are the nonzero generators scaled to unit Frobenius norm,
    and their adjoints. v is an eigenvector, from one batched eigh, of the
    most isolated eigenvalue of the Hermitian parts (g + g*)/2 and the
    anti-Hermitian parts (g - g*)/2i of the letters: the spectral projection
    of a simple eigenvalue is a polynomial in that part, so vv* lies in A.
    Its gap is measured against the letter's unit norm, not against the
    part's own spectral radius, so a part that is rounding noise (the
    anti-Hermitian part of a matrix Hermitian up to rounding) cannot supply
    v. A.v is then spanned by words in the letters applied to v: each round
    applies every letter to the vectors the last round admitted, projects
    them off the span twice (CGS2), and admits a candidate c, orthogonalized
    against the round's earlier admissions, iff its residual exceeds
    _CERTIFICATE_FLOOR * tol * max(||c||, 1). That floor keeps products that
    vanish up to rounding out, which a bar relative to ||c|| alone would let
    in. gap and worst_admitted (the smallest admitted residual) both exceed
    _CERTIFICATE_FLOOR * tol.
    """
    if not gens or gens[0].shape[0] < 2:
        return None
    n = gens[0].shape[0]
    stack = np.stack(gens)
    norms = np.linalg.norm(stack, axis=(1, 2))
    if not norms.all():
        stack, norms = stack[norms > 0], norms[norms > 0]
        if not len(stack):
            return None
    stack /= norms[:, None, None]
    adjoints = stack.conj().transpose(0, 2, 1)
    # R @ letters_t[l] applies letter l to every row of R
    letters_t = np.concatenate([stack, adjoints]).transpose(0, 2, 1)
    w, vecs = np.linalg.eigh(np.concatenate([stack + adjoints, -1j * (stack - adjoints)]) / 2)
    steps = np.diff(w, axis=1)
    gaps = np.empty_like(w)
    gaps[:, 0], gaps[:, -1] = steps[:, 0], steps[:, -1]
    np.minimum(steps[:, :-1], steps[:, 1:], out=gaps[:, 1:-1])
    part, i = divmod(int(np.argmax(gaps)), n)
    gap, bar = float(gaps[part, i]), _CERTIFICATE_FLOOR * tol
    if not gap > bar:
        return None
    # a letter has operator norm at most its Frobenius norm 1, so every
    # candidate has ||c|| <= 1 and its floor max(||c||, 1) * bar is bar
    Q = np.zeros((n, n), dtype=np.complex128)  # rows: orthonormal basis of A.v so far
    Q[0] = vecs[part, :, i]
    dim, done, worst = 1, 0, math.inf
    while done < dim < n:
        C = (Q[done:dim] @ letters_t).reshape(-1, n)
        span, span_h = Q[:dim], Q[:dim].conj().T
        for _ in range(2):
            C -= (C @ span_h) @ span
        res = np.linalg.norm(C, axis=1)
        survivors = res > bar
        done = dim
        for c, r in zip(C[survivors], res[survivors]):
            if dim > done:  # orthogonalize against this round's admissions
                new = Q[done:dim]
                for _ in range(2):
                    c = c - (new.conj() @ c) @ new
                r = math.sqrt(np.vdot(c, c).real)
            if r > bar:
                Q[dim] = c / r
                dim += 1
                worst = min(worst, float(r))
                if dim == n:
                    break
    return (gap, worst) if dim == n else None


def _span_closure(gens, n: int, tol: float) -> AlgebraBasis:
    """The closure engine of generate, on checked generators of dim n."""
    N = n * n
    seed = [identity(n)] + gens + [g.conj().T for g in gens]
    seed = _working_field(np.stack([m.reshape(N) for m in seed]))
    builder = _SpanBuilder(n, tol, seed.dtype)
    builder.absorb(seed)
    _close(builder)
    return AlgebraBasis(ambient_dim=n, elements=builder.tau_orthonormal())


def _close(builder: _SpanBuilder):
    """Absorb products of basis pairs until a round adds nothing or the span
    is all of M_n. The last product block dies with this frame, before the
    caller builds its output."""
    n, N = builder.n, builder.N
    done = 0  # every product of two of the first `done` rows is already absorbed
    while builder.dim < N:
        start_dim = builder.dim
        basis = builder.q().reshape(start_dim, n, n)
        for chunk in _new_products(basis, done):
            builder.absorb(chunk)
            if builder.dim == N:
                break
        if builder.dim == start_dim:
            break
        done = start_dim


def full_matrix_basis(n: int) -> AlgebraBasis:
    """Tau-orthonormal basis of all of M_n (scaled elementary matrices)."""
    elements = np.eye(n * n, dtype=np.complex128)
    elements *= math.sqrt(n)  # in place: a second n^4 array would double the peak
    return AlgebraBasis(ambient_dim=n, elements=elements.reshape(n * n, n, n))


def _generator_list(a):
    if isinstance(a, AlgebraBasis):
        return a.ambient_dim, [a.elements[i] for i in range(a.dim)]
    gens = [as_matrix(g) for g in a]
    if not gens:
        raise DimensionMismatch("commutant of an empty list needs an AlgebraBasis or matrices")
    return same_dim(*gens), gens


def _scalar_set(seen: np.ndarray, bound: float) -> bool:
    """True when sum over g in seen of 2n ||g - (tr g / n) I||_F^2 <= bound^2.

    The block x -> xg - gx has exactly that squared Frobenius norm (the
    cross term is |tr h|^2 = 0 for the traceless part h of g), and the
    Frobenius norm of the stack bounds each of its singular values. The sum
    is formed one matrix at a time and stops once it passes the bound."""
    n = seen.shape[1]
    diag = np.arange(n)
    total, limit = 0.0, bound * bound
    for g in seen:
        h = g.copy()
        h[diag, diag] -= np.trace(g) / n
        total += 2 * n * float(np.vdot(h, h).real)
        if not total <= limit:  # a NaN entry takes the SVD route too
            return False
    return True


def commutant(a, cfg: ToleranceConfig = DEFAULT_TOL) -> AlgebraBasis:
    """Algebra of all x commuting with every generator (and every adjoint).

    Computed as the joint null space of the linear maps x -> xg - gx on the
    n^2-dimensional matrix space. Adjoints are included so the result is
    *-closed for arbitrary input sets.

    The constraint blocks are never stacked: slabs of consecutive blocks are
    folded into a running n^2 x n^2 triangular factor R (the R of a
    tall-skinny QR of the stack), and the null space is read off the SVD of
    R. R*R is the Gram matrix of the stack, so the singular values, the
    null-space threshold and the null space are those of the stack, while
    memory stays O(n^4) whatever the number of generators.

    When every generator is real, the slabs, R and the SVD are float64: the
    constraint map is then real, and a real basis of its null space spans
    the complex one. The returned elements are complex128 either way.

    A scalar set returns full_matrix_basis(n) before any slab is built. The
    block of g has Frobenius norm sqrt(2n) ||g - (tr g / n) I||_F, and the
    Frobenius norm of the stack bounds every singular value of the stack and
    so of R. When the squares summed over the generators and adjoints stay
    within (span_tol / 2)^2, every singular value is at most span_tol / 2,
    below the threshold span_tol * max(1, smax), so the SVD would mark every
    direction null; the factor 2 absorbs rounding. The commutant of an
    irreducible set is the scalars, so this is the second step of every
    double commutant G'' that reaches M_n.

    Raises DimensionOverflow, before building any slab, when n^4 complex
    entries would pass the span byte budget.
    """
    n, gens = _generator_list(a)
    _check_span_budget(n)
    N = n * n
    seen = _working_field(np.stack(gens + [g.conj().T for g in gens]))
    if _scalar_set(seen, cfg.span_tol / 2):
        return full_matrix_basis(n)
    eye = np.eye(n, dtype=seen.dtype)
    per_slab = max(1, _COMMUTANT_SLAB_ROWS // N)
    R = np.zeros((0, N), dtype=seen.dtype)
    for lo in range(0, len(seen), per_slab):
        part = seen[lo : lo + per_slab]
        # row-major vec: vec(xg) = (I (x) g^T) v, vec(gx) = (g (x) I) v; entry
        # [m, i, j, k, l] is row (i, j), column (k, l) of the block for part[m]
        slab = eye[None, :, None, :, None] * part.transpose(0, 2, 1)[:, None, :, None, :]
        slab -= part[:, :, None, :, None] * eye[None, None, :, None, :]
        R = np.linalg.qr(np.vstack([R, slab.reshape(len(part) * N, N)]), mode="r")
    _, svals, vh = np.linalg.svd(R)
    smax = float(svals[0]) if len(svals) else 0.0
    null_mask = svals <= cfg.span_tol * max(1.0, smax)
    null_rows = vh[null_mask].conj()
    elements = math.sqrt(n) * null_rows.reshape(-1, n, n)
    return AlgebraBasis(ambient_dim=n, elements=elements.astype(np.complex128, copy=False))


def contains(
    a: AlgebraBasis,
    x: np.ndarray,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> tuple[bool, float]:
    """Projects x onto span(a); returns (membership, Frobenius residual)."""
    x = as_matrix(x)
    if x.shape[0] != a.ambient_dim:
        raise DimensionMismatch(
            f"element dim {x.shape[0]} vs algebra ambient dim {a.ambient_dim}"
        )
    U = a.unit_rows()
    v = x.reshape(-1)
    r = v - (np.conj(U) @ v) @ U
    r = r - (np.conj(U) @ r) @ U
    residual = float(np.linalg.norm(r))
    norm = float(np.linalg.norm(v))
    return residual < cfg.span_tol * max(1.0, norm), residual


def equal(a: AlgebraBasis, b: AlgebraBasis, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff dims match and each basis lies in the other's span."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.dim != b.dim:
        return False
    n = a.ambient_dim
    bound = cfg.span_tol * max(1.0, math.sqrt(n))
    for x, y in ((a, b), (b, a)):
        U = x.unit_rows()
        V = y.elements.reshape(y.dim, n * n)
        R = V - (V @ U.conj().T) @ U
        R = R - (R @ U.conj().T) @ U
        if float(np.linalg.norm(R, axis=1).max()) >= bound:
            return False
    return True
