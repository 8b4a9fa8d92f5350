#!/usr/bin/env python3
"""ncstein benchmark: one closed-loop client runs a workload through the CLI.

    python3 bench/run.py --workload search_adapted_d8 --seed 1 --seconds 40 --trace 0

With --trace 0 the run measures the end-to-end metrics with tracing off; with
--trace 1 it alternates untraced and traced passes, writes the spans to
.bench_run/trace-<workload>.npz and prints the per-layer metrics derived from
that file. Every pass is verified; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

import os

# OpenBLAS reads its thread count once, when numpy loads, so the pin must
# come before any import of numpy. One thread: the client is a single
# closed loop on matrices of dimension <= 32.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"
if not (SRC / "ncstein" / "__init__.py").is_file():
    sys.exit(f"bench: no ncstein sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 21
MIN_PASSES = 3
# Enough spans for steady per-layer figures while the trace stays near 15 MB
# of memory.
MAX_TRACED_SPANS = 500_000

# Times the cold path a user pays per CLI invocation: import the package,
# parse the config, build its filtration. argv: [src dir, config JSON].
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ncstein
from ncstein.cli import parse_config
cfg = parse_config(sys.argv[2])
ncstein.build_filtration(cfg.filtration, cfg.dim, cfg.local_dims)
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "linf_gap_rel_median": "ratio",
    "linf_gap_rel_max": "ratio",
    "peak_rss_mb": "MB",
}


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError):
        blas_name = blas_version = "unknown"
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in sorted((SRC / "ncstein").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_ncstein_lines": lines,
    }


def setup_sample(config: dict) -> float:
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(ops, tracer=None) -> workloads.PassResult:
    """Run the operations once, back to back."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    results = []
    t0 = time.perf_counter()
    with span("bench.pass"):
        for op in ops:
            with span("bench.op"):
                results.append(workloads.run_op(op))
    return workloads.PassResult(time.perf_counter() - t0, results)


class Ledger:
    """Operations attempted and failed across the run, with their problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ops, result, reference, witness=None) -> None:
        """Verify one pass; a written witness counts as one more operation."""
        problems = workloads.verify(ops, result, reference)
        self.attempted += len(ops)
        if witness is not None:
            self.attempted += 1
            problem = workloads.replay(witness)
            if problem:
                problems["witness replay"] = problem
        self.failed += len(problems)
        self.problems.extend(f"{k}: {v}" for k, v in problems.items())


def op_fastest(passes) -> list[float]:
    """Each operation's fastest latency over the run's passes, in seconds.

    Every pass repeats identical work with identical outputs, so the spread
    between passes is the machine's, not the program's: on a shared machine
    throughput dips in bursts that last seconds. The fastest pass is the
    reading least disturbed by them; comparisons between commits then take
    medians over runs.
    """
    return [min(p.ops[i].seconds for p in passes) for i in range(len(passes[0].ops))]


def timed_run(workload, seconds: float, ledger: Ledger) -> dict:
    """Passes until `seconds` of pass time are spent, with the set-up samples
    spread over the run rather than taken in one burst."""
    setup_sample(workload.setup_config)  # warms the bytecode cache; dropped
    setup = []
    passes = []
    window = 0.0
    while True:
        result = run_pass(workload.ops)
        ledger.check(workload.ops, result, passes[0] if passes else None, workload.witness)
        passes.append(result)
        window += result.seconds
        while len(setup) < SETUP_REPEATS * min(1.0, window / seconds):
            setup.append(setup_sample(workload.setup_config))
        typical = statistics.median(p.seconds for p in passes)
        if len(passes) >= MIN_PASSES and window + typical > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(workload.setup_config))
    if any(op.bracket is not None for op in workload.ops):
        family_pass = passes[0]
    else:
        # every workload reports bracket quality; here the family runs untimed
        family_pass = run_pass(workload.family)
        ledger.check(workload.family, family_pass, None)
    gap_median, gap_max = workloads.gap_metrics(family_pass)
    fastest = op_fastest(passes)
    latencies = [t * 1e3 for t in fastest]
    metrics = {
        "setup_s": statistics.median(setup),
        "evals_per_s": passes[0].evaluations / sum(fastest),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "linf_gap_rel_median": gap_median,
        "linf_gap_rel_max": gap_max,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"passes {len(passes)}, operations per pass {len(fastest)}, latency samples "
          f"{len(fastest) * len(passes)}, evaluations per pass {passes[0].evaluations}, "
          f"set-up samples {len(setup)}")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def traced_run(workload, seconds: float, ledger: Ledger, env: dict) -> dict:
    """Untraced and traced passes in turn, after one untraced warm-up pass
    that every later pass must match."""
    reference = run_pass(workload.ops)
    ledger.check(workload.ops, reference, None, workload.witness)
    tracer = spans.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        result = run_pass(workload.ops)
        ledger.check(workload.ops, result, reference, workload.witness)
        untraced.append(result)
        tracer.install()
        try:
            result = run_pass(workload.ops, tracer)
        finally:
            tracer.uninstall()
        ledger.check(workload.ops, result, reference, workload.witness)
        traced.append(result)
        pair = untraced[-1].seconds + traced[-1].seconds
        if time.perf_counter() - start + pair > seconds or len(tracer.start) > MAX_TRACED_SPANS:
            break
    path = OUT_DIR / f"trace-{workload.name}.npz"
    tracer.save(path, {
        "workload": workload.name,
        "environment": env,
        "traced_pass_s": [p.seconds for p in traced],
        "untraced_pass_s": [p.seconds for p in untraced],
        "evaluations": sum(p.evaluations for p in traced),
    })
    metrics, breakdown = spans.derive(path)
    print(f"trace file {path.relative_to(ROOT)}: {len(tracer.start)} spans over "
          f"{len(traced)} traced passes")
    print("self seconds by layer " + json.dumps(breakdown))
    return {name: (value, spans.PER_LAYER[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (used by the smoke test)")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT_DIR, tiny=args.tiny)
    env = environment(args.seed)
    print("environment " + json.dumps(env))

    ledger = Ledger()
    if args.trace:
        metrics = traced_run(workload, args.seconds, ledger, env)
    else:
        metrics = timed_run(workload, args.seconds, ledger)
    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}")
    print(f"failed_share {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
