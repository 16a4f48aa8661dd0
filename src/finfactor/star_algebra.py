"""Unital *-algebras generated by matrices, commutants, and span queries.

An algebra is represented by an AlgebraBasis: a stack of matrices orthonormal
under the trace inner product <a, b> = tau(b* a). At finite dimension the
*-algebra generated by a set equals its double commutant, which the test suite
exercises as a cross-check of the two independent routes computed here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    as_matrix_stack,
    check_array_budget,
    identity,
    stack_dim,
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
# real constraint rows per QR fold in commutant: whole blocks of n^2 rows, at
# least two (one letter's two Hermitian parts, the bytes of one complex block),
# enough of them at small n that the QR calls stay few
_COMMUTANT_SLAB_ROWS = 400
# commutant solves in the eigenspaces of one Hermitian element from this
# ambient size on; below it the full fold is as fast or faster (measured in
# the commutant docstring)
_EIGENSPACE_MIN_N = 7
# the Wedderburn split's bars, in units of span_tol: the eigen-gap of the
# chosen vector, and the residual of every vector its spin-up admits
_CERTIFICATE_FLOOR = 1e3
# seed of the split's fixed real mix of all self-adjoint parts
_MIX_SEED = 0


def _complement(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the orthogonal complement of the span of
    orthonormal rows: the trailing columns of a complete QR, copied out so
    that the result does not keep the whole factor alive."""
    q, _ = np.linalg.qr(rows.conj().T, mode="complete")
    return np.conjugate(q[:, rows.shape[0] :]).T


class _SpanBuilder:
    """Growing orthonormal span with the relative-residual admission rule.

    The span is held as orthonormal rows alone. A candidate joins them iff
    its residual after projection exceeds span_tol times the candidate's
    original Frobenius norm, or times floor when that is larger (floor 0 by
    default: a purely relative rule; floor 1 for unit-norm letters, where
    products that vanish only up to rounding must stay out).

    absorb takes a whole block of candidates (blocked CGS2): the block is
    projected off the span held at entry with one classical Gram-Schmidt
    pass, which serves as a prefilter, since most candidates lie in the span;
    only rows whose residual passes the test get the second pass. Each
    survivor is then orthogonalized, twice, against the rows admitted earlier
    in the same block and tested on its own. The rows a block admits get one
    more pass off the entry span, and go through the same admission once more
    (the readmission pass) when that pass moved a row norm off 1.
    """

    def __init__(self, n: int, tol: float, floor: float = 0.0):
        self.n = n
        self.N = n * n
        self.tol = tol
        self.floor = floor
        self.dim = 0
        self._rows = np.zeros((64, self.N), dtype=np.complex128)

    def _grow(self):
        if self.dim == self._rows.shape[0]:
            cap = min(max(2 * self.dim, 64), self.N)
            rows = np.zeros((cap, self.N), dtype=np.complex128)
            rows[: self.dim] = self._rows[: self.dim]
            self._rows = rows

    def q(self) -> np.ndarray:
        return self._rows[: self.dim]

    def _project_off(self, C: np.ndarray, dim: int) -> np.ndarray:
        """C minus its projection onto the first dim rows of the span. The
        coefficients C Q* are formed as conj(conj(C) Q^T): the candidates
        are conjugated, not the span, which usually has more rows."""
        if not dim:
            return C
        Q = self._rows[:dim]
        return C - np.conj(C.conj() @ Q.T) @ Q

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
        C = np.ascontiguousarray(cands, dtype=np.complex128)
        bars = self.tol * np.maximum(np.linalg.norm(C, axis=1), self.floor)
        R = self._project_off(C, start)
        survivors = np.nonzero(np.linalg.norm(R, axis=1) > bars)[0]
        if not survivors.size:
            return 0
        self._admit(self._project_off(R[survivors], start), bars[survivors], start)
        if start and self.dim > start:
            # R is orthogonal to the entry span only to eps times its norm; a
            # row that then cancelled against this call's rows was scaled up by
            # the cancellation factor, so the new rows get one more pass
            new = self._rows[start : self.dim]
            new[:] = self._project_off(new, start)
            # removing an entry-span component eps moves a row norm off 1 by
            # eps^2/2 and the block's inner products by as much; past
            # _RENORM_GATE, the block may have lost orthonormality or even
            # independence, so it goes through admission once more
            if np.abs(np.linalg.norm(new, axis=1) - 1.0).max() > _RENORM_GATE:
                self._readmit(start)
        return self.dim - start

    def tau_orthonormal(self) -> np.ndarray:
        """The rows as tau-orthonormal complex128 matrices (dim, n, n),
        scaled straight into the output."""
        n = self.n
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

    Returns the algebra split into its multiplicity-free blocks by vector
    spin-up (_wedderburn_split), with each block's margins: each block M_d
    is found from one vector in O(n^3) work, and one block that is all of
    C^n is M_n in its standard basis, the elements of full_matrix_basis(n).
    The result holds no n^4 array until its elements are read (its dim
    needs none; equal and contains on M_n need none either). The closure
    engine (_span_closure) runs only on what the split leaves: a remainder
    in which no self-adjoint part has an isolated eigenvalue, such as
    M_k (x) I. The engine seeds the span with I, the generators, and their
    adjoints, then repeatedly multiplies basis pairs and absorbs new
    directions until the span is stable. A round forms only
    the products with at least one factor added in the previous round
    (semi-naive closure): older pairs were absorbed then. An empty generator
    list yields the scalars (ambient_dim must then be given). Stops early
    once the span is all of M_n.

    The generators are checked as one stack: DimensionMismatch for a matrix
    that is not square, a list of mixed sizes or an ambient_dim that does
    not match, ValueError for a non-finite entry. Raises DimensionOverflow,
    before allocating anything, when n^4 complex entries would pass the
    array budget (matrix_core.check_array_budget).
    """
    gens = list(generators)
    n = stack_dim(gens)
    if n is None:
        if ambient_dim is None:
            raise DimensionMismatch("ambient_dim is required for an empty generator list")
        n = ambient_dim
    elif ambient_dim is not None and ambient_dim != n:
        raise DimensionMismatch(
            f"ambient_dim {ambient_dim} does not match generators of dim {n}"
        )
    check_array_budget(n**4, f"ambient dimension {n}")
    return _wedderburn_split(as_matrix_stack(gens, n), cfg.span_tol)


@dataclass(frozen=True, eq=False)
class _Block:
    """A multiplicity-free block of a split algebra: the algebra holds all
    of L(range V) and the projection onto range V is central in it."""

    V: np.ndarray  # (n, d), orthonormal columns
    gap: float  # eigen-gap of the vector whose spin-up spans range V
    worst: float  # smallest admitted spin-up residual (inf when d = 1)


def _mix_weights(m: int) -> np.ndarray:
    """m fixed real weights with sum |w| = 1, from a fixed seed."""
    w = np.random.default_rng(_MIX_SEED).standard_normal(m)
    return w / np.abs(w).sum()


def _most_isolated(w: np.ndarray):
    """(gap, row, index) of the eigenvalue farthest from its neighbours in a
    stack of ascending spectra w, shape (m, r) with r >= 2."""
    steps = np.diff(w, axis=1)
    gaps = np.empty_like(w)
    gaps[:, 0], gaps[:, -1] = steps[:, 0], steps[:, -1]
    np.minimum(steps[:, :-1], steps[:, 1:], out=gaps[:, 1:-1])
    row, i = divmod(int(np.argmax(gaps)), w.shape[1])
    return float(gaps[row, i]), row, i


def _isolated_vector(letters, adjoints, bar: float):
    """(gap, v): a unit eigenvector v of an eigenvalue whose gap to its
    neighbours exceeds bar, in a self-adjoint element of the algebra of the
    letters; None when there is none.

    The candidates are the Hermitian parts (l + l*)/2 and the
    anti-Hermitian parts (l - l*)/2i of the letters, from one batched eigh,
    and failing those one fixed real mix of all parts with sum |w| = 1."""
    parts = np.concatenate([letters + adjoints, -1j * (letters - adjoints)]) / 2
    w, vecs = np.linalg.eigh(parts)
    gap, part, i = _most_isolated(w)
    if gap > bar:
        return gap, vecs[part, :, i]
    w, vecs = np.linalg.eigh(np.tensordot(_mix_weights(len(parts)), parts, axes=1))
    gap, _, i = _most_isolated(w[None])
    if gap > bar:
        return gap, vecs[:, i]
    return None


def _spin_up(letters_t, v, bar: float):
    """(Q, worst): orthonormal rows Q spanning A.v, the span of the words
    in the letters applied to v, and the smallest residual admitted.

    Each round applies every letter to the vectors the last round admitted,
    projects them off the span twice (CGS2), and admits a candidate c,
    orthogonalized against the round's earlier admissions, iff its residual
    exceeds bar * max(||c||, 1). A letter has operator norm at most its
    Frobenius norm, at most 1, so ||c|| <= 1 and that floor is bar itself;
    it keeps products that vanish up to rounding out, which a bar relative
    to ||c|| alone would let in."""
    r = len(v)
    Q = np.zeros((r, r), dtype=np.complex128)  # rows: orthonormal basis of A.v so far
    Q[0] = v
    dim, done, worst = 1, 0, math.inf
    while done < dim < r:
        C = (Q[done:dim] @ letters_t).reshape(-1, r)
        span, span_h = Q[:dim], Q[:dim].conj().T
        for _ in range(2):
            C -= (C @ span_h) @ span
        res = np.linalg.norm(C, axis=1)
        survivors = res > bar
        done = dim
        for c, res_c in zip(C[survivors], res[survivors]):
            if dim > done:  # orthogonalize against this round's admissions
                new = Q[done:dim]
                for _ in range(2):
                    c = c - (new.conj() @ c) @ new
                res_c = math.sqrt(np.vdot(c, c).real)
            if res_c > bar:
                Q[dim] = c / res_c
                dim += 1
                worst = min(worst, float(res_c))
                if dim == r:
                    break
    return Q[:dim], worst


def _wedderburn_split(stack: np.ndarray, tol: float) -> "_SplitBasis":
    """The unital *-algebra A of a checked (g, n, n) stack, split into its
    multiplicity-free blocks and one remainder.

    The letters are the nonzero generators scaled to unit Frobenius norm,
    and their adjoints; a letter equal to its adjoint entry for entry is
    applied once in the spin-up and in the block check. Each step takes v
    from _isolated_vector. The spectral projection of a simple eigenvalue is
    a polynomial in its part, so vv* lies in A. Then W = A.v reduces A, and
    uw* = a vv* b* lies in A for all u = av and w = bv in W, so A holds all
    of L(W) and the projection onto W is central in A: A = M_d (+) A|W-perp
    with d = dim W.
    (Burnside's theorem run as Norton's irreducibility test: R. A. Parker,
    "The computer calculation of modular characters (the Meat-Axe)", 1984;
    D. F. Holt and S. Rees, J. Austral. Math. Soc. A 57, 1994. The block
    decomposition follows K. Murota, Y. Kanno, M. Kojima and S. Kojima,
    Japan J. Indust. Appl. Math. 27, 2010.) W is spun up from v by
    _spin_up, and the step repeats on the letters compressed to the
    orthogonal complement, U*lU.

    The eigen-gap of v is measured against the letters' unit norm, not
    against the part's own spectral radius, so a part that is rounding noise
    (the anti-Hermitian part of a matrix Hermitian up to rounding, a letter
    that vanishes on the complement) cannot supply v. Both it and every
    admitted spin-up residual exceed bar = _CERTIFICATE_FLOOR * tol. A
    spin-up that stops short of C^r has only shown that no residual clears
    bar; a letter may still map range Q out of itself by an amount between
    tol and bar, a genuine direction. So range Q is taken as a block only
    when every letter and adjoint maps it out of itself by at most tol in
    Frobenius norm; otherwise the split stops there and the letters at hand
    are the remainder. The eigenvalues of a block with multiplicity repeat,
    so no gap is found in it. A remainder is the scalars when every compressed
    letter is within tol of a scalar (in Frobenius norm), else the closure
    engine's algebra of its non-scalar letters, at its size r, with the
    floor 1: a candidate c is admitted iff its residual exceeds
    tol * max(||c||, 1). The compressed letters keep the letters' unit scale,
    and in the basis U the products that vanish exactly, such as e_ij e_kl
    of amplified units, vanish only up to rounding, which a bar relative to
    ||c|| alone would admit. When no block splits off at all, the engine
    runs on the generators themselves, with its relative rule.
    """
    n = stack.shape[1]
    bar = _CERTIFICATE_FLOOR * tol
    norms = np.linalg.norm(stack, axis=(1, 2))
    keep = norms > 0
    letters = (stack[keep] if not keep.all() else stack) / norms[keep, None, None]
    blocks, U, r = [], None, n
    while r > 1 and len(letters):
        adjoints = letters.conj().transpose(0, 2, 1)
        found = _isolated_vector(letters, adjoints, bar)
        if found is None:
            break
        gap, v = found
        # a self-adjoint letter is applied once: its adjoint's candidates
        # would repeat its own, and a repeat is never admitted
        own = (letters != adjoints).any(axis=(1, 2))
        both = np.concatenate([letters, adjoints[own]])
        # R @ letters_t[l] applies letter l to every row of R
        Q, worst = _spin_up(both.transpose(0, 2, 1), v, bar)
        if len(Q) < r:
            W = _complement(Q)  # rows spanning the complement of A.v
            # the spin-up stops once no residual clears bar; range Q is a
            # block only if no letter maps it out of itself by more than tol
            if np.linalg.norm(W.conj() @ (both @ Q.T), axis=(1, 2)).max() > tol:
                break
        if len(Q) == n:  # all of C^n: M_n, held in the standard basis
            return _SplitBasis(n, (_Block(identity(n), gap, worst),), None, None)
        blocks.append(_Block(Q.T if U is None else U @ Q.T, gap, worst))
        r -= len(Q)
        if not r:
            return _SplitBasis(n, tuple(blocks), None, None)
        U = W.T if U is None else U @ W.T
        letters = W.conj() @ letters @ W.T
    diag = np.arange(r)
    traceless = letters.copy()
    traceless[:, diag, diag] -= (np.trace(letters, axis1=1, axis2=2) / r)[:, None]
    moving = np.linalg.norm(traceless, axis=(1, 2)) > tol
    if not moving.any():
        remainder = AlgebraBasis(ambient_dim=r, elements=identity(r)[None])
    elif U is None:
        remainder = _span_closure(list(stack), n, tol)
    else:
        remainder = _span_closure(list(letters[moving]), r, tol, floor=1.0)
    return _SplitBasis(n, tuple(blocks), U, remainder)


def _span_closure(gens, n: int, tol: float, floor: float = 0.0) -> AlgebraBasis:
    """The closure engine of generate, on checked generators of dim n, with
    _SpanBuilder's admission floor."""
    N = n * n
    seed = [identity(n)] + gens + [g.conj().T for g in gens]
    builder = _SpanBuilder(n, tol, floor)
    builder.absorb(np.stack([m.reshape(N) for m in seed]))
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


class _SplitBasis(AlgebraBasis):
    """An algebra as the direct sum of its multiplicity-free blocks
    (_Block) and at most one remainder: the orthonormal columns U of the
    remainder's subspace and the algebra there, at size r, as an
    AlgebraBasis. With no block, the remainder is all of C^n, U is None and
    the elements are the remainder's own; with no remainder, both are None.

    dim comes from the block sizes at once; the elements are built on first
    read and then kept. Block V gives sqrt(n) V e_ab V* for a, b < d; the
    remainder's basis B is lifted as sqrt(n / r) U B U*. Both are
    tau-orthonormal in M_n, and blocks on orthogonal subspaces are
    orthogonal. M_n is one block with V = I, whose elements sqrt(n) e_ab are
    sqrt(n) I_{n^2} reshaped."""

    def __init__(self, n: int, blocks: tuple, U, remainder):
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "remainder", remainder)

    @property
    def dim(self) -> int:
        rest = self.remainder.dim if self.remainder is not None else 0
        return sum(b.V.shape[1] ** 2 for b in self.blocks) + rest

    @functools.cached_property
    def elements(self) -> np.ndarray:
        if not self.blocks:
            return self.remainder.elements
        n = self.ambient_dim
        out = np.empty((self.dim, n, n), dtype=np.complex128)
        lo = 0
        for block in self.blocks:
            d = block.V.shape[1]
            view = out[lo : lo + d * d].reshape(d, d, n, n)
            np.einsum("ia,jb->abij", block.V, block.V.conj(), out=view)
            view *= math.sqrt(n)
            lo += d * d
        if self.remainder is not None:
            r = self.U.shape[1]
            np.matmul(self.U @ self.remainder.elements, self.U.conj().T, out=out[lo:])
            out[lo:] *= math.sqrt(n / r)
        return out


def full_matrix_basis(n: int) -> AlgebraBasis:
    """Tau-orthonormal basis of all of M_n (scaled elementary matrices:
    sqrt(n) I_{n^2} reshaped to (n^2, n, n)), as a split with one block
    V = I and no margins (inf).

    The result's dim is n^2 without building anything; its elements, n^4
    complex entries, are built on first read and kept from then on. equal
    and contains answer on any basis of dim n^2 without reading them.
    """
    return _SplitBasis(n, (_Block(identity(n), math.inf, math.inf),), None, None)


def _generator_list(a):
    """(n, stack): the elements of an AlgebraBasis, or a non-empty list of
    matrices checked as one stack as generate checks it. Raises
    DimensionOverflow before the stack is read or built when n^4 complex
    entries would pass the array budget."""
    if isinstance(a, AlgebraBasis):
        check_array_budget(a.ambient_dim**4, f"ambient dimension {a.ambient_dim}")
        return a.ambient_dim, a.elements
    gens = list(a)
    n = stack_dim(gens)
    if n is None:
        raise DimensionMismatch("commutant of an empty list needs an AlgebraBasis or matrices")
    check_array_budget(n**4, f"ambient dimension {n}")
    return n, as_matrix_stack(gens, n)


def _stack_norm(letters: np.ndarray) -> float:
    """The Frobenius norm of the constraint stack of the letters: the square
    root of the sum over the letters g and their adjoints of
    2n ||g - (tr g / n) I||_F^2.

    The block x -> xg - gx has exactly that squared Frobenius norm (the
    cross term is |tr h|^2 = 0 for the traceless part h of g), and g* gives
    the same term as g. A non-finite entry gives NaN."""
    n = letters.shape[1]
    traceless = letters.copy()
    diag = traceless.reshape(len(letters), n * n)[:, :: n + 1]  # a view
    diag -= diag.sum(axis=1, keepdims=True) / n
    return math.sqrt(4 * n * float(np.vdot(traceless, traceless).real))


def _hermitian_parts(letters: np.ndarray):
    """(A, B), the real and imaginary parts of the Hermitian parts
    p1 = (g + g*)/sqrt(2) and p2 = -i(g - g*)/sqrt(2) of each letter g, in
    letter order, with every part that is exactly zero dropped (p2 of an
    exactly Hermitian letter). A is symmetric and B antisymmetric."""
    n = letters.shape[1]
    G, H = letters.real, letters.imag
    Gt, Ht = G.transpose(0, 2, 1), H.transpose(0, 2, 1)
    A = np.stack([G + Gt, H + Ht], axis=1).reshape(-1, n, n) / math.sqrt(2)
    B = np.stack([H - Ht, Gt - G], axis=1).reshape(-1, n, n) / math.sqrt(2)
    nonzero = A.any(axis=(1, 2)) | B.any(axis=(1, 2))
    return A[nonzero], B[nonzero]


def _constraint_slab(out: np.ndarray, A: np.ndarray, B: np.ndarray, ks, ls):
    """Write the columns (k, l) = (ks[s], ls[s]) of the blocks of the real
    maps X -> X^T A - A X^T - X B + B X, one per part p = A + iB, into out,
    shape (m, n, n, S): entry [m, i, j, s] is row (i, j) of column s of the
    block of part m (row-major vec). X = e_k e_l^T puts +A[k, :] in row l,
    -A[:, l] in column k, -B[l, :] in row k and +B[:, k] in column l; within
    one statement the written entries are distinct, since each column s is
    written once."""
    out.fill(0.0)
    s = np.arange(len(ks))
    out[:, ls, :, s] += A[:, ks, :].swapaxes(0, 1)
    out[:, :, ks, s] -= A[:, :, ls]
    out[:, ks, :, s] -= B[:, ls, :].swapaxes(0, 1)
    out[:, :, ls, s] += B[:, :, ks]


def _fold(count: int, per_slab: int, slab_rows: int, width: int, write) -> np.ndarray:
    """The width x width triangular factor R (of a tall-skinny QR) of a
    stack of constraint rows, folded slab by slab: write(out, lo, hi) writes
    the rows of items lo to hi - 1, at most slab_rows of them and at least
    width, at the top of out and returns how many it wrote. R^T R is the
    Gram matrix of the stack."""
    # the running factor R in the first width rows, each slab written below it
    buf = np.empty((width + slab_rows, width))
    rows = 0
    for lo in range(0, count, per_slab):
        end = rows + write(buf[rows:], lo, min(lo + per_slab, count))
        buf[:width] = np.linalg.qr(buf[:end], mode="r")
        rows = width
    return buf[:width]


def _hermitian_from_real(X: np.ndarray, scale: float) -> np.ndarray:
    """scale ((X + X^T) + i(X - X^T)) / 2 for a stack of real matrices X:
    exactly Hermitian, and an isometry up to scale."""
    Xt = X.transpose(0, 2, 1)
    out = np.empty(X.shape, dtype=np.complex128)
    np.multiply(X + Xt, scale / 2, out=out.real)
    np.multiply(X - Xt, scale / 2, out=out.imag)
    return out


@dataclass(frozen=True, eq=False)
class _CommutantBasis(AlgebraBasis):
    """A commutant with the route that solved it (see commutant) and its
    margins about the null threshold bar of the stack it solved."""

    route: str  # "eigenspaces" or "full"
    unknowns: int  # real unknowns solved for: sum s_c^2, or n^2
    null_max: float  # largest singular value taken as null (0.0 for none)
    kept_min: float  # smallest singular value kept (inf for none)
    bar: float
    window: float  # K bar_hi: no kept singular value lies in (bar, window]; bar on "full"


def _null_rows(R: np.ndarray, tol: float):
    """(rows, bar, null_max, kept_min): the right singular vectors of R
    whose singular values are at most bar = tol * max(1, smax), the largest
    of those values (0.0 for none) and the smallest above bar (inf for
    none). The singular values come in descending order, so the null ones
    are the last."""
    _, svals, vh = np.linalg.svd(R)
    bar = tol * max(1.0, float(svals[0]))
    kept = int(np.count_nonzero(svals > bar))
    null_max = float(svals[kept]) if kept < len(svals) else 0.0
    return vh[kept:], bar, null_max, float(svals[kept - 1]) if kept else math.inf


def _full_commutant(A: np.ndarray, B: np.ndarray, n: int, tol: float) -> _CommutantBasis:
    """The commutant from all n^2 real unknowns, for the parts A + iB."""
    N = n * n
    per_slab = min(max(2, _COMMUTANT_SLAB_ROWS // N), len(A))
    ks, ls = np.divmod(np.arange(N), n)

    def write(out, lo, hi):
        _constraint_slab(out[: (hi - lo) * N].reshape(-1, n, n, N), A[lo:hi], B[lo:hi], ks, ls)
        return (hi - lo) * N

    X, bar, null_max, kept_min = _null_rows(_fold(len(A), per_slab, per_slab * N, N, write), tol)
    elements = _hermitian_from_real(X.reshape(-1, n, n), math.sqrt(n))
    return _CommutantBasis(n, elements, "full", N, null_max, kept_min, bar, bar)


def _eigenspace_commutant(letters: np.ndarray, sbar: float, tol: float):
    """The commutant of unit-norm letters solved in the eigenspaces of
    h = sum_m w_m p_m, or None when the route declines (see commutant)."""
    g, n = letters.shape[:2]
    N = n * n
    bar_hi = tol * max(1.0, sbar)
    if not sbar > bar_hi:  # the spread of h, at most sbar, is inside the window
        return None
    # w_1 p1 + w_2 p2 = (c g + (c g)*) / sqrt(2) with c = w_1 - i w_2
    w = _mix_weights(2 * g)
    cg = np.tensordot(w[0::2] - 1j * w[1::2], letters, axes=1)
    lam, E = np.linalg.eigh((cg + cg.conj().T) / math.sqrt(2))
    steps = np.diff(lam)
    cut = steps > math.sqrt(bar_hi * sbar)
    labels = np.concatenate([[0], np.cumsum(cut)])
    ks, ls = np.nonzero(labels[:, None] == labels[None, :])
    S = len(ks)
    if 2 * S > N:
        return None
    delta = float(steps[cut].min())
    K = (1 + sbar / delta) / math.sqrt(1 - (bar_hi / delta) ** 2)
    Eh = E.conj().T
    per_slab = min(max(1, _COMMUTANT_SLAB_ROWS // (2 * N)), g)

    def write(out, lo, hi):
        A, B = _hermitian_parts(letters[lo:hi])
        p = Eh @ (A + 1j * B) @ E
        _constraint_slab(out[: len(p) * N].reshape(-1, n, n, S), p.real, p.imag, ks, ls)
        return len(p) * N

    v, bar, null_max, kept_min = _null_rows(_fold(g, per_slab, per_slab * 2 * N, S, write), tol)
    if kept_min <= K * bar_hi or null_max * (1 / delta + K / kept_min) > tol:
        return None
    X = np.zeros((len(v), n, n))
    X[:, ks, ls] = v
    y = E @ _hermitian_from_real(X, 1.0) @ Eh
    elements = (y + y.conj().transpose(0, 2, 1)) * (math.sqrt(n) / 2)  # exactly Hermitian
    return _CommutantBasis(n, elements, "eigenspaces", S, null_max, kept_min, bar, K * bar_hi)


def commutant(a, cfg: ToleranceConfig = DEFAULT_TOL) -> AlgebraBasis:
    """Algebra of all x commuting with every generator (and every adjoint).

    Each generator is first scaled to unit Frobenius norm and zero ones are
    dropped: the commutant is the same, and the null-space threshold below,
    absolute once the stack's singular values are under 1, becomes relative
    to the inputs, so the result does not depend on their scale.

    The commutant of a *-closed set is spanned by its Hermitian elements
    (Davidson, C*-Algebras by Example), and it is solved for them alone, in
    float64. A unit-norm letter g has the Hermitian parts
    p1 = (g + g*)/sqrt(2) and p2 = -i(g - g*)/sqrt(2), with
    ad_p1* ad_p1 + ad_p2* ad_p2 = ad_g* ad_g + ad_g** ad_g*: the stack M of
    the maps x -> i[x, p] has the Gram matrix, and so the singular values,
    of the complex stack over g and g*. A Hermitian x is held as the real
    matrix X = Re x + Im x, an isometry from the Hermitian matrices onto
    R^{n x n}, in which x -> i[x, p] for p = A + iB reads
    X -> X^T A - A X^T - X B + B X (_constraint_slab). Parts that are
    exactly zero, such as the anti-Hermitian part of a Hermitian letter,
    are dropped.

    The constraint blocks are never stacked: slabs of consecutive blocks are
    folded into a running triangular factor R (the R of a tall-skinny QR of
    the stack), and the null space is read off the SVD of R. R^T R is the
    Gram matrix of the stack, so the singular values, the null-space
    threshold bar = span_tol * max(1, smax) and the null space are those of
    the stack, while memory does not grow with the number of generators.
    Each null row X is mapped back to x = ((X + X^T) + i(X - X^T))/2, so
    the elements come out exactly Hermitian and tau-orthonormal.

    A scalar set returns full_matrix_basis(n) before any slab is built. The
    block of g has Frobenius norm sqrt(2n) ||g - (tr g / n) I||_F, and the
    Frobenius norm of the stack bounds every singular value of the stack and
    so of R. When the squares summed over the generators and adjoints stay
    within (span_tol / 2)^2, every singular value is at most span_tol / 2,
    below the threshold span_tol * max(1, smax), so the SVD would mark every
    direction null; the factor 2 absorbs rounding. The commutant of an
    irreducible set is the scalars, so this is the second step of every
    double commutant G'' that reaches M_n.

    Every other set is solved in the eigenspaces of one Hermitian element
    (E. de Klerk, C. Dobre and D. V. Pasechnik, Math. Program. 129, 2011),
    from n = _EIGENSPACE_MIN_N on. Take h = sum_m w_m p_m over all parts,
    with the fixed real weights of _mix_weights (sum |w| = 1), and an
    eigenbasis E of h. Conjugation by E is unitary, so M in the coordinates
    X' of E* x E has the same singular values. Adjacent eigenvalues closer
    than sqrt(bar_hi * sbar) (below) are merged into clusters, of sizes s_c;
    the smallest gap left between clusters is delta. The route solves only
    for the S = sum s_c^2 coordinates of X' inside the diagonal cluster
    blocks, n of them when every cluster is simple, instead of all n^2: the
    columns (k, l) of the blocks of E* p E, folded in slabs as above, and
    each null row is mapped back through E.

    Why the count is the full fold's. Let sbar bound the largest singular
    value of M: each block has operator norm at most the spread of its part,
    at most 2 ||p - (tr p / n) I||_F, so sbar = sqrt(sum_m 4 ||p_m0||_F^2)
    = sqrt(2/n) times the Frobenius norm above. The full threshold bar lies
    between bar_lo = span_tol * max(1, the restricted smax) and
    bar_hi = span_tol * max(1, sbar). Restricting the unknowns to the
    subspace only raises singular values (interlacing): the restricted count
    at bar_lo is at most the full count at bar. Conversely, take a unit x
    with ||Mx|| <= bar. Then ||[x, h]|| <= sum |w_m| ||[x, p_m]|| <= bar,
    and [x, h] has the entries x'_kl (lam_l - lam_k) in the eigenbasis, so
    the part of x off the subspace has norm at most eps = bar_hi / delta,
    and its projection y has ||My|| <= bar (1 + sbar / delta) and
    ||y|| >= sqrt(1 - eps^2). A full null space of dim d so projects onto a
    d-dim subspace on which M is at most K bar_hi, where
    K = (1 + sbar / delta) / sqrt(1 - eps^2). So when no restricted singular
    value lies in the window (bar_lo, K bar_hi], the two counts agree;
    otherwise the route declines. The spans agree too, to first order: a
    full null vector is within null_max / delta of the subspace, and in it
    within null_max K / kept_min of the restricted null space, where
    null_max is the largest singular value taken as null and kept_min the
    smallest kept; the route declines when null_max (1 / delta +
    K / kept_min) passes span_tol. Merging at sqrt(bar_hi * sbar) keeps
    delta above it, so the window stays below about
    bar_hi + sqrt(bar_hi * sbar).

    The route also declines, before any factorization, when sbar is within
    bar_hi (the spread of h, at most sbar, is then inside the window), and
    after the eigendecomposition when S > n^2 / 2. A declined set runs the
    full fold. The result (_CommutantBasis) records the route, the unknowns,
    null_max, kept_min, the bar and the window top (the bar itself on the
    full route). The crossover _EIGENSPACE_MIN_N = 7 is measured: both G''
    steps of 100 seeded single generators of the five adversarial kinds
    (sparse, nilpotent, rank one, sparse scaled by 1e-6 and 1e6), best of
    9, one BLAS thread, took per set (full fold / eigenspaces) 213/424 us
    at n = 3, 269/463 at 4, 373/480 at 5, 553/535 at 6, 1090/707 at 7,
    2010/907 at 8 and 3712/1299 at 9: the eigendecomposition and the index
    building cost more than the smaller fold saves up to n = 5, the two tie
    at n = 6, and from n = 7 on the eigenspaces are faster.

    Raises DimensionOverflow, before building any slab, when n^4 complex
    entries would pass the array budget (matrix_core.check_array_budget).
    """
    n, gens = _generator_list(a)
    norms = np.linalg.norm(gens, axis=(1, 2))
    keep = norms > 0
    letters = (gens if keep.all() else gens[keep]) / norms[keep, None, None]
    frob = _stack_norm(letters)
    if frob <= cfg.span_tol / 2:
        return full_matrix_basis(n)
    if n >= _EIGENSPACE_MIN_N:
        found = _eigenspace_commutant(letters, frob * math.sqrt(2 / n), cfg.span_tol)
        if found is not None:
            return found
    return _full_commutant(*_hermitian_parts(letters), n, cfg.span_tol)


def contains(
    a: AlgebraBasis,
    x: np.ndarray,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> tuple[bool, float]:
    """Projects x onto span(a); returns (membership, Frobenius residual).

    An algebra of dim n^2 is all of M_n (its basis is tau-orthonormal), so
    there it returns (True, 0.0), the exact residual, without projecting.
    """
    x = as_matrix(x)
    n = a.ambient_dim
    if x.shape[0] != n:
        raise DimensionMismatch(f"element dim {x.shape[0]} vs algebra ambient dim {n}")
    if a.dim == n * n:
        return True, 0.0
    U = a.unit_rows()
    v = x.reshape(-1)
    r = v - (np.conj(U) @ v) @ U
    r = r - (np.conj(U) @ r) @ U
    residual = float(np.linalg.norm(r))
    norm = float(np.linalg.norm(v))
    return residual < cfg.span_tol * max(1.0, norm), residual


def equal(a: AlgebraBasis, b: AlgebraBasis, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff dims match and each basis lies in the other's span.

    Two bases of dim n^2 are equal without a projection: both are
    tau-orthonormal, so both span M_n.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.dim != b.dim:
        return False
    n = a.ambient_dim
    if a.dim == n * n:
        return True
    bound = cfg.span_tol * max(1.0, math.sqrt(n))
    for x, y in ((a, b), (b, a)):
        U = x.unit_rows()
        V = y.elements.reshape(y.dim, n * n)
        R = V - (V @ U.conj().T) @ U
        R = R - (R @ U.conj().T) @ U
        if float(np.linalg.norm(R, axis=1).max()) >= bound:
            return False
    return True
