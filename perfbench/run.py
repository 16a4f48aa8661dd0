"""finfactor benchmark: one closed-loop client, one instance in flight.

    python3 perfbench/run.py --workload closure_pipeline --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. Each pass over the workload's fixed instance set runs in a
fresh worker process, one worker at a time: the worker imports the library,
builds the seeded inputs and input files, runs the warm-up instances, reports
that it is ready (its set-up time), runs the pass in a seeded order that is
new in every pass and reports the timings. The number of workers follows from
the workload and --seconds alone, at least three. Every instance output is
checked against an independent value. Each instance is timed by its best run
over the passes: load from other tenants of a shared host only ever adds time.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs one untraced worker and at least two traced ones, checks that
the traced workers give identical call counts, and prints the per-layer
metrics. The last line of standard output is the JSON result; the line
before it holds the environment and sample counts. Spans and results are
also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_WORKERS = 3
# nominal seconds of one worker (set-up plus pass) on a 2-vCPU Xeon VM
PASS_S = {"closure_pipeline": 17.0, "tower_search": 17.0}
NPROC = len(os.sched_getaffinity(0))
READY = "ready"

END_TO_END = (
    ("batch_s", "s"),
    ("instance_s_p50", "s"),
    ("instance_s_p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("verified_ratio", "ratio"),
)


def _cap_blas_threads():
    """BLAS threads at most nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        current = int(raw) if raw.isdigit() and int(raw) > 0 else NPROC
        os.environ[var] = str(min(current, NPROC))


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "finfactor").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# --- worker: one process, one pass ---------------------------------------------------


def run_pass(instances, order, tracer=None):
    """Runs the instances in the given order (an index may repeat); returns
    every instance's timings (indexed like ``instances``) and the failures."""
    from finfactor.errors import FinfactorError

    times, failures = [[] for _ in instances], []
    for idx in order:
        inst = instances[idx]
        if tracer is not None:
            tracer.instance = idx
        start = time.perf_counter()
        try:
            out = inst.run()
        except Exception as exc:  # counted as a failed instance, never aborts the run
            times[idx].append(time.perf_counter() - start)
            if not isinstance(exc, FinfactorError):
                traceback.print_exception(exc, file=sys.stderr)
            failures.append((inst.name, f"{type(exc).__name__}: {exc}", False))
            continue
        times[idx].append(time.perf_counter() - start)
        outcome = inst.check(out)
        if not outcome.ok:
            failures.append((inst.name, outcome.detail, outcome.known_defect))
    return {"batch_s": sum(map(sum, times)), "times": times, "failures": failures,
            "names": [inst.name for inst in instances]}


def worker(args):
    """Set up, report ready, run one pass (traced or not), report the result."""
    sys.path.insert(0, str(SRC))
    import finfactor
    import numpy as np

    import layers
    import workloads

    if Path(finfactor.__file__).resolve().parent != SRC / "finfactor":
        sys.exit(f"error: imported finfactor from {finfactor.__file__}, not from {SRC}")

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        instances = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        for inst in instances:
            if inst.warm:
                inst.run()
        print(READY, flush=True)
        tracer = None
        if args.worker == "traced":
            tracer = layers.Tracer()
            tracer.install()
        try:
            # a seeded order, new in each pass, spreads every group of small
            # instances over the whole pass instead of one burst of a second
            order = [i for i, inst in enumerate(instances) for _ in range(inst.repeats)]
            random.Random(f"{args.seed}/{args.pass_index}").shuffle(order)
            result = run_pass(instances, order, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    if tracer is not None:
        result["summary"] = tracer.pass_summary()
        result["spans"] = tracer.spans
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["library"] = {"numpy": np.__version__,
                         "blas": {"name": blas.get("name"), "version": blas.get("version")}}
    print(json.dumps(result), flush=True)
    return 0


# --- parent: closed loop over worker processes ------------------------------------------


def _run_worker(args, mode, pass_index):
    """One worker process; returns (set-up seconds, pass result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--worker", mode,
           "--pass-index", str(pass_index)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0 or first.strip() != READY:
        sys.exit(f"error: worker exited with code {code}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def pass_count(args):
    """Passes per run: fixed by the workload and --seconds, never by how fast
    this run goes, so a seed always gives the same attempted and failed counts."""
    return max(MIN_WORKERS, int(args.seconds // PASS_S[args.workload]))


def measure(args):
    """One worker after another, pass_count() in all. With --trace 1 the first
    worker is untraced and the others are traced."""
    runs = []
    for i in range(pass_count(args)):
        mode = "traced" if args.trace and i else "untraced"
        setup_s, result = _run_worker(args, mode, i)
        runs.append((mode, setup_s, result))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["closure_pipeline", "tower_search"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of every instance group (for the smoke test)")
    parser.add_argument("--worker", choices=["untraced", "traced"], help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "finfactor" / "__init__.py").is_file():
        sys.exit(f"error: no finfactor sources under {SRC}; run from a source checkout")
    _cap_blas_threads()
    if args.worker:
        return worker(args)

    import layers

    runs = measure(args)
    passes = [result for _, _, result in runs]
    setups = [setup_s for _, setup_s, _ in runs]
    attempted = sum(len(t) for p in passes for t in p["times"])
    problems = []
    if args.trace:
        untraced = [r for mode, _, r in runs if mode == "untraced"]
        traced = [r for mode, _, r in runs if mode == "traced"]
        summaries = [r["summary"] for r in traced]
        signatures = [layers.counts_signature(s) for s in summaries]
        if any(sig != signatures[0] for sig in signatures[1:]):
            problems.append("traced workers gave different call or out_dim counts")
        overhead = (statistics.median(r["batch_s"] for r in traced)
                    / statistics.median(r["batch_s"] for r in untraced))
        metrics = layers.per_layer_metrics(summaries, overhead)
    else:
        # each instance's best time over the passes: load from other tenants
        # of the host only ever adds time, and the best of several passes
        # spread over the run is what repeats from one run to the next
        best = [min(min(p["times"][i]) for p in passes) for i in range(len(passes[0]["times"]))]
        failed = sum(len(p["failures"]) for p in passes)
        values = {
            "batch_s": sum(best),
            "instance_s_p50": statistics.median(best),
            "instance_s_p90": statistics.quantiles(best, n=10)[-1],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "verified_ratio": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    failures = [f for p in passes for f in p["failures"]]
    unexpected = [f for f in failures if not f[2]]
    for name, detail, known in passes[0]["failures"]:
        tag = "known defect (generate over-count)" if known else "FAILED"
        print(f"{tag}: {name}: {detail}", file=sys.stderr)
    problems += [f"unexpected failure: {name}: {detail}" for name, detail, _ in unexpected]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    info = {
        "environment": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            **passes[0]["library"],
            "nproc": NPROC,
            "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "client": "closed loop, 1 client, 1 instance in flight, 1 worker process per pass",
        },
        "workers": [mode for mode, _, _ in runs],
        "instances_per_pass": len(passes[0]["times"]),
        "samples": attempted,
        "setup_s_runs": setups,
        "known_defect_failures": len(failures) - len(unexpected),
    }
    if args.trace:
        info["layer_map"] = layers.LAYER_MAP
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    names = passes[0]["names"]
    timings = {name: [p["times"][i] for p in passes] for i, name in enumerate(names)}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result, "instance_times": timings}, fh, indent=1)
    if args.trace:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance", "failed"],
                       "spans_per_traced_worker": [r["spans"] for r in traced]}, fh)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
