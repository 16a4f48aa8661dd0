"""Compression of a sparse generator tuple into a single projection, synthesis
of a two-self-adjoint generating pair from it, and fusion into one element.

The compression relocates every nonzero block of the tuple into a small
rectangle of target blocks, packages the relocated self-adjoint element y into
the projection

    q = 1/2 q1 (1 + (1 - y^2)^(1/2)) q1 + 1/2 y + 1/2 q2 (1 - (1 - y^2)^(1/2)) q2,

and certifies that q together with the matrix units generates the same algebra
as the original tuple with the units. Every bound is decided over integers:
with T relocated blocks and system size k, the entry condition is
4T <= (k - 2)^2 and the support guarantee is (m - 2)^2 <= 4T for the measured
support count m. Verification of the algebra equality is mandatory, not
optional: at finite precision the construction is only as good as its verified
conclusion.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    FinfactorError,
    InconsistentAssignment,
    IndexTooLarge,
    NotSelfAdjoint,
    NumericalFailure,
    SupportTooLarge,
)
from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    hermitian_function,
    identity,
    operator_norm,
    projection_residual,
    self_adjoint_residual,
    sqrt_clipped,
)
from .matrix_units import MatrixUnitSystem, _outer_residual, shift_pair
from .sparsity import (
    GeneratorTuple,
    block_pattern,
    family_from_units,
    support_mask,
)
from . import star_algebra

# relative margin applied to the operator-norm rescale so that 1 - y^2 stays
# numerically positive semidefinite
_RESCALE_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class CutPasteResult:
    """Output of the block-relocation compression.

    The assignment maps each source triple (i, j, p), meaning block (i, j) of
    tuple element p, to a target block (s, t) inside the rectangle
    s in 0..floor(ck), t in floor(ck)+1..2*floor(ck)+1 (0-based).
    """

    q: np.ndarray
    y: np.ndarray
    assignment: dict
    c: float
    index: Fraction
    block_count: int
    k: int
    ambient_dim: int
    support_trace: Fraction
    support_count: int
    norm_rescale: float
    labels: tuple
    algebra_dim_inputs: int
    # verified algebra of {q} + units: closed by generate at k < n, M_n from
    # the units' first-column certificate at k = n
    q_algebra: star_algebra.AlgebraBasis

    @property
    def algebra_dim_output(self) -> int:
        return self.q_algebra.dim

    @property
    def rect_width(self) -> int:
        return math.isqrt(self.block_count) + 1


def _rectangle_projections(sys: MatrixUnitSystem, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Row projection q1 = sum of e_jj for j < width and column projection
    q2 = sum of e_jj for width <= j < 2*width of the target rectangle."""
    return sys.diagonal_sum(0, width), sys.diagonal_sum(width, 2 * width)


def cut_and_paste(
    xs,
    sys: MatrixUnitSystem,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> CutPasteResult:
    """Compress a generator tuple into one projection with small support.

    Requires the measured interaction index c^2 = T/k^2 to satisfy
    c <= 1/2 - 1/k (as the integer comparison 4T <= (k-2)^2). The relocated
    element y is rescaled to operator norm at most one (factor recorded in
    norm_rescale), q is assembled by functional calculus, and the result is
    checked: q is a projection within structural_tol, its support trace obeys
    tau(S(q)) <= 2c + 2/k exactly, and {q} + units generates the same algebra
    as the inputs + units. At k < n both algebras are closed by
    star_algebra.generate and compared. At k = n the units are a basis of
    M_n, so both algebras are M_n: that is certified from the units' first
    column in O(k n^2) (_full_algebra_of_units), with no closure; a unit off
    the first column is not read here.
    """
    return _cut_and_paste(xs, sys, family_from_units(sys, cfg), cfg)


def _full_algebra_of_units(sys, fam, cfg) -> star_algebra.AlgebraBasis:
    """M_n, certified as the algebra generated by any set that holds the
    units of a size-n system in M_n, from the system's first column alone.

    At k = n each run of fam is one vector b_i = e_i1 v, and
    family_from_units has checked that B = [b_1 ... b_n] is unitary:
    eps = ||B*B - I||_F <= structural_tol. This certificate requires
    delta = max_i ||e_i1 - b_i b_1*||_F <= structural_tol as well, in
    O(k n^2), or raises NumericalFailure. Then for every i, j

        e_i1 e_j1* - b_i b_j* = (e_i1 - b_i b_1*) e_j1*
            + b_i b_1* (e_j1 - b_j b_1*)* + b_i (b_1* b_1 - 1) b_j*,

    at most 2 delta + eps + O(structural_tol^2) in Frobenius norm. The
    b_i b_j* have Gram matrix (B*B) (x) conj(B*B), within eps of the
    identity: they are a basis of M_n, orthonormal when B is unitary. The
    n^2 products e_i1 e_j1*, each within about 3 structural_tol of one of
    them, are a basis too while n times that distance stays below one
    (n <= 256 at structural_tol 1e-8). An algebra that holds the units holds
    these products, so it is all of M_n. The units off the first column are
    not read: a fault there is left to the checks that use them."""
    b = fam.basis.T  # row i is b_i
    residual = float(np.linalg.norm(
        sys.units[:, 0] - b[:, :, None] * b[0].conj(), axis=(1, 2)
    ).max())
    if residual > cfg.structural_tol:
        raise NumericalFailure(
            f"units fail the first-column certificate of M_{sys.ambient_dim}: "
            f"residual {residual:.3e}"
        )
    return star_algebra.full_matrix_basis(sys.ambient_dim)


def _cut_and_paste(xs, sys, fam, cfg) -> CutPasteResult:
    """cut_and_paste with the projection family of sys already built."""
    tup = xs if isinstance(xs, GeneratorTuple) else GeneratorTuple.of(xs)
    k, n = sys.k, sys.ambient_dim
    units = sys.units

    # ordered by element, then row-major within its pattern
    triples = [(i, j, p) for p, x in enumerate(tup.elements)
               for i, j in block_pattern(x, fam, cfg).positions()]
    T = len(triples)

    if k < 2 or 4 * T > (k - 2) ** 2:
        c_val = math.sqrt(T) / k if k else float("inf")
        raise IndexTooLarge(
            f"index {T}/{k * k} gives c = {c_val:.4f} > 1/2 - 1/k = {0.5 - 1.0 / k if k else float('-inf'):.4f}"
        )
    c = math.sqrt(T) / k
    u = math.isqrt(T)  # floor(c k)
    width = u + 1

    assignment = {}
    y_raw = np.zeros((n, n), dtype=np.complex128)
    for idx, (i, j, p) in enumerate(triples):
        s = idx // width
        t = width + idx % width
        assignment[(i, j, p)] = (s, t)
        moved = units[s, i] @ tup.elements[p] @ units[j, t]
        y_raw += moved + moved.conj().T

    rescale = max(1.0, operator_norm(y_raw) * (1.0 + _RESCALE_MARGIN))
    y = y_raw / rescale

    q1, q2 = _rectangle_projections(sys, width)
    eye = identity(n)
    f = hermitian_function(eye - y @ y, sqrt_clipped, cfg)
    q = 0.5 * (q1 @ (eye + f) @ q1) + 0.5 * y + 0.5 * (q2 @ (eye - f) @ q2)

    q_residual = projection_residual(q)
    if q_residual > cfg.structural_tol:
        raise NumericalFailure(
            f"q fails the projection check: residual {q_residual:.3e}"
        )

    m = int(support_mask(q, fam, cfg).sum())
    trace = Fraction(m, k)
    if m > 2 and (m - 2) ** 2 > 4 * T:
        raise NumericalFailure(
            f"support trace {trace} violates the 2c + 2/k bound (m={m}, T={T})"
        )

    if k == n:
        before = after = _full_algebra_of_units(sys, fam, cfg)
    else:
        before = star_algebra.generate(list(tup.elements) + sys.unit_list(), cfg)
        after = star_algebra.generate([q] + sys.unit_list(), cfg)
    if not star_algebra.equal(before, after, cfg):
        raise NumericalFailure(
            f"algebra equality failed: inputs+units dim {before.dim}, q+units dim {after.dim}"
        )

    return CutPasteResult(
        q=q,
        y=y,
        assignment=assignment,
        c=c,
        index=Fraction(T, k * k),
        block_count=T,
        k=k,
        ambient_dim=n,
        support_trace=trace,
        support_count=m,
        norm_rescale=rescale,
        labels=tup.labels,
        algebra_dim_inputs=before.dim,
        q_algebra=after,
    )


def recover_elements(res: CutPasteResult, sys: MatrixUnitSystem) -> GeneratorTuple:
    """Invert the compression: extract the relocated blocks from q and conjugate
    them back, reproducing each tuple element up to the recorded rescale."""
    k, n = sys.k, sys.ambient_dim
    if res.k != k or res.ambient_dim != n:
        raise InconsistentAssignment("result and unit system disagree on dimensions")
    width = res.rect_width
    n_elements = len(res.labels)
    seen_targets = set()
    for (i, j, p), (s, t) in res.assignment.items():
        if not (0 <= i < k and 0 <= j < k and 0 <= p < n_elements):
            raise InconsistentAssignment(f"source triple {(i, j, p)} out of range")
        if not (0 <= s < width and width <= t < 2 * width):
            raise InconsistentAssignment(f"target {(s, t)} outside the rectangle")
        if (s, t) in seen_targets:
            raise InconsistentAssignment(f"target {(s, t)} assigned twice")
        seen_targets.add((s, t))

    units = sys.units
    q1, q2 = _rectangle_projections(sys, width)
    b = 2.0 * (q1 @ res.q @ q2)

    recovered = [np.zeros((n, n), dtype=np.complex128) for _ in range(n_elements)]
    for (i, j, p), (s, t) in res.assignment.items():
        recovered[p] += units[i, s] @ b @ units[t, j]
    recovered = [res.norm_rescale * x for x in recovered]
    return GeneratorTuple.of(recovered, labels=res.labels)


def single_generator_pair(
    q: np.ndarray,
    sys: MatrixUnitSystem,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Self-adjoint pair (e_11 + 2q, shift) generating the same algebra as
    {q} + units.

    Requires tau(S(q)) < 1 - 1/k so a diagonal unit disjoint from q's support
    exists; the system indices are relabeled by the cyclic permutation moving
    the smallest free index to position 1. The pair is built from q and the
    units, and it is certified to give them back by words in x1 and x2:
    q = (x1^2 - x1)/2 (the spectral values 1 and 2 of x1 separate e_11 and
    q), e_11 = x1 - 2q, e_21 = x2 e_11, e_(j+2)1 = x2 e_(j+1)1 - e_j1 and
    e_ij = e_i1 e_j1*. The worst Frobenius residual of these words must stay
    within structural_tol.
    """
    return _single_generator_pair(as_matrix(q), sys, family_from_units(sys, cfg), cfg)


def _single_generator_pair(q, sys, fam, cfg) -> tuple[np.ndarray, np.ndarray]:
    """single_generator_pair on a checked q, with the projection family of
    sys already built."""
    k = sys.k
    mask = support_mask(q, fam, cfg)
    m = int(mask.sum())
    if m >= k - 1:
        raise SupportTooLarge(
            f"support trace {m}/{k} violates tau(S(q)) < 1 - 1/k; "
            f"no usable free diagonal block"
        )
    j0 = int(np.nonzero(~mask)[0][0])

    relabeled = MatrixUnitSystem(sys.ambient_dim, k, np.roll(sys.units, -j0, axis=(0, 1)))
    e11, shift = shift_pair(relabeled)
    x1 = e11 + 2.0 * q
    q_word = 0.5 * (x1 @ x1 - x1)
    column = [np.zeros_like(x1), x1 - 2.0 * q_word]  # e_01 = 0, then e_11
    for _ in range(k - 1):
        column.append(shift @ column[-1] - column[-2])
    column = np.stack(column[1:])
    residual = max(frobenius_norm(q_word - q), _outer_residual(column, relabeled.units))
    if residual > cfg.structural_tol:
        raise NumericalFailure(f"pair fails its word certificate: residual {residual:.3e}")
    return x1, shift


def fuse(
    x1: np.ndarray,
    x2: np.ndarray,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Fuse two self-adjoint elements into one: a = x1 + i x2. The pair is
    recovered as (a + a*)/2 and (a - a*)/(2i), so the generated algebras agree."""
    x1 = as_matrix(x1)
    x2 = as_matrix(x2)
    for name, x in (("x1", x1), ("x2", x2)):
        residual = self_adjoint_residual(x)
        if residual > cfg.structural_tol:
            raise NotSelfAdjoint(f"{name} has self-adjointness residual {residual:.3e}")
    return x1 + 1j * x2


@dataclass(frozen=True)
class StageReport:
    name: str
    ok: bool
    bounds: dict
    algebra_dims: dict

    def to_doc(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class PipelineReport:
    k: int
    ambient_dim: int
    labels: tuple
    stages: tuple  # of StageReport
    final: np.ndarray
    final_algebra_dim: int

    def to_doc(self) -> dict:
        return {
            "k": self.k,
            "ambient_dim": self.ambient_dim,
            "labels": list(self.labels),
            "stages": [s.to_doc() for s in self.stages],
            "final_algebra_dim": self.final_algebra_dim,
        }


def _run_stage(name, fn):
    try:
        return fn()
    except FinfactorError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def pipeline(
    xs,
    sys: MatrixUnitSystem,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> PipelineReport:
    """Compress, synthesize the two-element generating pair, and fuse into a
    single generator, recording every bound check and algebra dimension. The
    projection family of the units is built once, for both of the first two
    stages."""
    tup = xs if isinstance(xs, GeneratorTuple) else GeneratorTuple.of(xs)
    k = sys.k

    fam = _run_stage("cut_and_paste", lambda: family_from_units(sys, cfg))
    res = _run_stage("cut_and_paste", lambda: _cut_and_paste(tup, sys, fam, cfg))
    stage1 = StageReport(
        name="cut_and_paste",
        ok=True,
        bounds={
            "c": res.c,
            "limit": 0.5 - 1.0 / k,
            "support_trace_num": res.support_trace.numerator,
            "support_trace_den": res.support_trace.denominator,
            "support_limit": 2.0 * res.c + 2.0 / k,
            "block_count": res.block_count,
        },
        algebra_dims={"before": res.algebra_dim_inputs, "after": res.algebra_dim_output},
    )

    x1, x2 = _run_stage(
        "single_generator_pair", lambda: _single_generator_pair(res.q, sys, fam, cfg)
    )
    # the pair and the fused element are words in q and the units, and give
    # them back by words (certified in single_generator_pair, exact in fuse):
    # all three generate the verified algebra of {q} + units
    dims = {"before": res.q_algebra.dim, "after": res.q_algebra.dim}
    stage2 = StageReport(
        name="single_generator_pair",
        ok=True,
        bounds={
            "support_trace_num": res.support_trace.numerator,
            "support_trace_den": res.support_trace.denominator,
            "support_limit": 1.0 - 1.0 / k,
        },
        algebra_dims=dims,
    )

    a = _run_stage("fuse", lambda: fuse(x1, x2, cfg))
    stage3 = StageReport(name="fuse", ok=True, bounds={}, algebra_dims=dims)

    return PipelineReport(
        k=k,
        ambient_dim=sys.ambient_dim,
        labels=tup.labels,
        stages=(stage1, stage2, stage3),
        final=a,
        final_algebra_dim=res.q_algebra.dim,
    )
