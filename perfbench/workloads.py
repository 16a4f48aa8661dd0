"""Seeded instance sets of the benchmark workloads.

Each workload is a fixed list of instances built from the seed. An instance
runs one verified computation through the library's public functions (the
timed part) and is then checked against an independent value from
``checks``. The seed changes the numbers in the inputs, never their shapes,
so the cost of a pass barely depends on it.

Every workload has a large batch of small instances, which carries
instance_s_p50 and instance_s_p90 (at least 100 timings per pass), and a few
large ones, which carry most of batch_s.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from finfactor import acceptance, cli, compression, matrix_units, sparsity, star_algebra
from finfactor.matrix_core import save_matrix


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    known_defect: bool = False  # generate over-counts: it admits roundoff as new directions


@dataclass
class Instance:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    warm: bool = False  # run once during set-up, before timing starts
    repeats: int = 1  # runs per pass, at seeded places in the pass


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# Runs per pass, at seeded places spread over the pass, of the small
# instances around instance_s_p50 and instance_s_p90. The host's speed swings
# within a fraction of a second, so the best time of a short instance needs
# several draws: TINY_REPEATS for the closure generators of about a
# millisecond, SMALL_REPEATS for the tower and search instances of 10-30 ms.
TINY_REPEATS = 3
SMALL_REPEATS = 2


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


# --- closure: generic star_algebra route, deep closure ----------------------------

ADVERSARIAL = ("sparse", "nilpotent", "rank1", "scaled_1e-6", "scaled_1e6")
CLOSURE_TINY = 400


def _adversarial(kind, n, rng):
    if kind == "nilpotent":
        return np.triu(_cgauss(rng, (n, n)), 1)
    if kind == "rank1":
        return np.outer(_cgauss(rng, n), _cgauss(rng, n).conj())
    sparse = _cgauss(rng, (n, n)) * (rng.random((n, n)) < 0.3)
    return sparse * {"sparse": 1.0, "scaled_1e-6": 1e-6, "scaled_1e6": 1e6}[kind]


def _closure_run(gens_fn):
    def run():
        gens = gens_fn()
        alg = star_algebra.generate(gens)
        g2 = star_algebra.commutant(star_algebra.commutant(gens))
        return alg.dim, g2.dim, star_algebra.equal(alg, g2)
    return run


def _closure_check(expected, tiny):
    def check(out):
        dim, g2, same = out
        if dim == g2 and same and (expected is None or dim == expected):
            return Outcome(True)
        return Outcome(False, f"generate dim {dim}, G'' dim {g2}, equal {same}, "
                              f"expected {expected}", known_defect=tiny and dim > g2)
    return check


def closure(seed, smoke, workdir):
    rng = _rng(seed, 1)
    out = []
    for k in (12,) if smoke else (12, 16, 20):
        u = _haar(rng, k)
        x1, x2 = matrix_units.shift_pair(matrix_units.standard_units(k))
        x1, x2 = u @ x1 @ u.conj().T, u @ x2 @ u.conj().T
        check = _closure_check(k * k, False)
        out.append(Instance(f"shift_pair/k={k}", _closure_run(lambda a=x1, b=x2: [a, b]), check))
        out.append(Instance(f"fused/k={k}", _closure_run(
            lambda a=x1, b=x2: [compression.fuse(a, b)]), check, warm=k == 12))
    for i in range(CLOSURE_TINY):
        kind, n = ADVERSARIAL[i % 5], 2 + (i // 5) % 5
        x = _adversarial(kind, n, rng)
        out.append(Instance(f"{kind}/n={n}/{i}", _closure_run(lambda x=x: [x]),
                            _closure_check(None, True), warm=i < 5, repeats=TINY_REPEATS))
    return out


# --- tower: wide closure plus matrix units -------------------------------------------

TOWER_TINY = 120


def _tower(dims, weights):
    n, n1 = int(np.prod(dims)), dims[0]

    def run():
        x1, x2, tower = sparsity.hyperfinite_pair(dims, weights)
        dim = star_algebra.generate([x1, x2]).dim
        fam = sparsity.family_from_units(tower[0])
        return dim, sparsity.interaction_index([x1, x2], fam).index

    def check(out):
        dim, index = out
        ok = dim == n * n and index == checks.tower_index(n1) and index * n1 <= 3
        return Outcome(ok, f"dim {dim} (want {n * n}), index {index} "
                           f"(want {checks.tower_index(n1)})")

    return run, check


def _nested(sizes):
    def run():
        system = matrix_units.nested_product(matrix_units.corner_chain(sizes))
        return system, matrix_units.verify(system)

    def check(out):
        system, report = out
        ok = report.passed and system.k == int(np.prod(sizes)) and checks.nested_units_ok(system.units)
        return Outcome(ok, f"verify passed {report.passed}, size {system.k}")

    return run, check


def tower(seed, smoke, workdir):
    rng = _rng(seed, 2)

    def weights():
        return float(rng.uniform(0.45, 0.55)), float(rng.uniform(0.30, 0.37))

    out = []
    for dims in ([3, 3],) if smoke else ([3, 3], [4, 3], [5, 3], [4, 4], [3, 3, 3]):
        out.append(Instance(f"tower/{dims}", *_tower(dims, weights())))
    for sizes in ([3, 4],) if smoke else ([3, 4], [2, 2, 2, 2]):
        out.append(Instance(f"nested/{sizes}", *_nested(sizes), warm=sizes == [3, 4]))
    # two thirds [3,3] and one third [4,3]; the 40 [4,3] hold instance_s_p90
    for i in range(TOWER_TINY):
        dims = [4, 3] if i % 3 == 2 else [3, 3]
        out.append(Instance(f"tower/{dims}/{i}", *_tower(dims, weights()), warm=i < 3,
                            repeats=SMALL_REPEATS))
    return out


# --- pipeline: compression end to end through the CLI -----------------------------------

# (k, copies, blocks T): 4T <= (k - 2)^2 holds for each
PIPELINE_SIZES = ((6, 2, 3), (8, 2, 5), (6, 3, 3))
# k -> tuples. The 60 k=12 round trips (about 35 ms each) hold the workload's
# instance_s_p90 inside their group, away from the jump to the large instances.
ROUNDTRIPS = {8: 40, 12: 60}


def _block_tuple(k, copies, blocks, dense, rng):
    """Two elements whose nonzero copies x copies blocks (against the amplified
    units e_ij (x) I) are dense random or scalar. Dense blocks generate all of
    M_n together with the units; scalar ones stay in M_k (x) I, of dim k^2."""
    n = k * copies
    cells = rng.choice(k * k, size=blocks, replace=False)
    xs = [np.zeros((n, n), dtype=np.complex128) for _ in range(2)]
    for idx, cell in enumerate(cells):
        i, j = divmod(int(cell), k)
        block = _cgauss(rng, (copies, copies)) if dense else _cgauss(rng, ()) * np.eye(copies)
        xs[idx % 2][i * copies:(i + 1) * copies, j * copies:(j + 1) * copies] = block
    return xs


# cut_and_paste's own equality check, failing because generate over-counts
# (returns more than the true dim) on inputs + units or on q + units
_OVERCOUNT = re.compile(r"inputs\+units dim (\d+), q\+units dim (\d+)")


def _cli_pipeline(name, k, files, out_dir, expected):
    argv = ["pipeline", *map(str, files), "--units-k", str(k), "--json", "--out", str(out_dir)]

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            over = _OVERCOUNT.search(stderr)
            dims = sorted(map(int, over.groups())) if over else None
            known = code == 3 and dims is not None and dims[0] >= expected and dims[1] > expected
            return Outcome(False, f"exit code {code}: {stderr.strip()}", known_defect=known)
        reported = json.loads(stdout)["final_algebra_dim"]
        g2 = checks.double_commutant_dim([checks.read_matrix(out_dir / "final.json")])
        return Outcome(reported == g2 == expected,
                       f"final_algebra_dim {reported}, G'' of final.json {g2}, expected {expected}")

    return Instance(name, run, check)


def _roundtrip(tup, system):
    def run():
        res = compression.cut_and_paste(tup, system)
        return compression.recover_elements(res, system)

    def check(rec):
        err = checks.roundtrip_error(tup.elements, rec.elements)
        return Outcome(err <= 1e-8, f"round-trip error {err:.3e}")

    return run, check


def pipeline(seed, smoke, workdir):
    rng = _rng(seed, 3)
    out = []
    for k, copies, blocks in PIPELINE_SIZES[:1] if smoke else PIPELINE_SIZES:
        n = k * copies
        for dense in (True, False):
            name = f"pipeline/n={n}/k={k}/{'dense' if dense else 'scalar'}"
            case_dir = Path(workdir) / name.replace("/", "_")
            (case_dir / "in").mkdir(parents=True, exist_ok=True)
            files = []
            for idx, x in enumerate(_block_tuple(k, copies, blocks, dense, rng)):
                path = case_dir / "in" / f"x{idx + 1}.json"
                save_matrix(path, x)
                files.append(path)
            out.append(_cli_pipeline(name, k, files, case_dir / "out", n * n if dense else k * k))
    out[-1].warm = True
    for k, count in ROUNDTRIPS.items():
        system = matrix_units.standard_units(k)
        for i, tup in enumerate(acceptance.sparse_tuples(k, count, seed)):
            out.append(Instance(f"roundtrip/k={k}/{i}", *_roundtrip(tup, system), warm=i == 0))
    return out


# --- search: index minimisation, no closure at all ---------------------------------------

# (n, family sizes k, tuples). The 64 small n=16, k=4 tuples give three cost
# groups, one per strategy; instance_s_p50 falls inside the middle one.
SEARCH_CASES = ((16, (4, 8), 1), (16, (4,), 63), (32, (4, 8), 1), (48, (4, 8), 1))
RESTARTS = 2
ITERS = 4


def _planted(n, rng):
    """Two elements, block diagonal plus one off-diagonal block against a
    hidden balanced grouping into 8 parts, with rows and columns permuted."""
    m = n // 8
    perm = rng.permutation(n)
    xs = []
    for _ in range(2):
        x = np.zeros((n, n), dtype=np.complex128)
        for j in range(8):
            x[j * m:(j + 1) * m, j * m:(j + 1) * m] = _cgauss(rng, (m, m))
        i, j = rng.choice(8, size=2, replace=False)
        x[i * m:(i + 1) * m, j * m:(j + 1) * m] = _cgauss(rng, (m, m))
        xs.append(x[np.ix_(perm, perm)])
    return xs


def _search(xs, k, strategy, seed):
    def run():
        return sparsity.minimize_index(xs, k, strategy=strategy, seed=seed,
                                       restarts=RESTARTS, iters=ITERS)

    def check(out):
        fam, report = out
        try:
            fam.validate()
        except ValueError as exc:
            return Outcome(False, f"family does not validate: {exc}")
        recount = checks.recount_index(xs, fam.projections, report.eta)
        standard = checks.standard_index(xs, k, report.eta)
        ok = report.index == recount and report.index <= standard
        return Outcome(ok, f"index {report.index}, recount {recount}, standard {standard}")

    return run, check


def search(seed, smoke, workdir):
    rng = _rng(seed, 4)
    out = []
    for n, ks, tuples in SEARCH_CASES[:2] if smoke else SEARCH_CASES:
        for _ in range(tuples):
            xs = _planted(n, rng)
            for k in ks:
                for strategy in sparsity.STRATEGIES:
                    search_seed = int(rng.integers(1 << 31))
                    # the n=16, k=4 diagonal groupings hold instance_s_p50
                    median_group = (n, k, strategy) == (16, 4, "diagonal_grouping")
                    out.append(Instance(f"search/n={n}/k={k}/{strategy}/{len(out)}",
                                        *_search(xs, k, strategy, search_seed),
                                        warm=len(out) < 6,
                                        repeats=SMALL_REPEATS if median_group else 1))
    return out


def closure_pipeline(seed, smoke, workdir):
    """Deep closure and the compression pipeline: every verified-closure path
    that frontier closure, corner reduction and the over-count fix act on."""
    return closure(seed, smoke, workdir) + pipeline(seed, smoke, workdir)


def tower_search(seed, smoke, workdir):
    """Wide closure (where frontier closure is at risk) and index search (no
    closure at all, where only the grouping and unitary search changes act)."""
    return tower(seed, smoke, workdir) + search(seed, smoke, workdir)


# Two workloads of about 14 s a pass each, so that one run can span about a
# minute: host speed on the reference machine drifts over minutes.
WORKLOADS = {"closure_pipeline": closure_pipeline, "tower_search": tower_search}
