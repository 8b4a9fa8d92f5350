"""Workload streams for the ncstein benchmark and the checks on their outputs.

A workload is a list of operations run back to back by one closed-loop
client: each operation starts only after the previous one returned. Most
operations are CLI commands, run in-process through the public entry points
`ncstein.cli.parse_config` and `run_command` on a generated JSON config; the
`linf_doob_d4` workload also calls `ncstein.linf_norm_positive` directly on a
fixed family of positive sequences.

Every command seed is drawn from the benchmark seed. The bracket family is
a fixed reference set (the shapes, exponents and seeds of acceptance
criterion 7), so its deterministic gap metrics compare the same instances
from one commit to the next.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import ncstein
from ncstein import cli

WORKLOADS = ("search_adapted_d8", "linf_doob_d4", "checks_tensor_mixed")

# Proved ceilings the benchmark re-checks on every report (ratio <= limit).
CEILINGS = {"s_12_adapted": 2.0 + 1e-6, "s_qq": 1.0 + 1e-8}
REPLAY_TOL = 1e-10
BRACKET_ORDER_TOL = 1e-8

# Criterion 7's bracket family: shapes (dim, terms) and exponents cycle
# together, so 30 brackets cover each pairing once.
FAMILY_SHAPES = ((2, 1), (3, 2), (4, 3), (5, 2), (6, 4), (3, 5))
FAMILY_EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
FAMILY_SIZE = 30

# (inequality, p, q) for the checks_tensor_mixed stream: every checkable id
# that runs on the tensor filtration, plus the classical-base embedding. The
# mix puts the median latency inside a cluster of similar commands (the
# crp_stein and q = 2 s_isometry checks) rather than between two clusters,
# where a small reordering would move it.
CHECK_MIX = (
    ("s_pq", 2, 2), ("s_pq", 4, 2), ("s_qq", 2, 2), ("dd_p", 1.5, None), ("dd_p", 3, None),
    ("crp_stein", 2, None), ("crp_stein", 3, None), ("crp_stein", 4, None),
    ("s_isometry", 3, 2),
    ("projections", 3, 1.5),
    ("s_pq", 3, 1.5), ("s_qq", 3, 3),
    ("semicommutative", 2, 1.5),
)
CHECK_ROUNDS = 2   # the mix is repeated with fresh seeds: 26 checks per pass
AXIOM_COMMANDS = 5  # the slowest 5 of 31 commands, so the p90 falls among them
AXIOM_TRIALS = 12
# search_adapted_d8 runs many short searches rather than one long one: the
# fastest-pass statistics need operations well under a second, and the
# latency percentiles need enough operations that no single input's cost
# decides them (with 4 searches the p90 was the slowest search of the seed).
ADAPTED_SEARCHES = 20
ADAPTED_BUDGET = 50


@dataclass
class Op:
    """One timed operation: a CLI config document or a bracket call."""

    label: str
    config: dict | None = None
    bracket: tuple | None = None  # (sequence, p, seed)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    setup_config: dict  # the config the set-up measurement parses
    family: list[Op]  # the bracket family behind the linf_gap metrics
    witness: Path | None = None  # replayed after each pass when set


@dataclass
class OpResult:
    seconds: float
    output: str  # report text, or repr of the bracket ends
    code: int
    evaluations: int
    stderr: str = ""
    bracket: tuple[float, float] | None = None


@dataclass
class PassResult:
    seconds: float
    ops: list[OpResult] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.ops)


def bracket_family(size: int) -> list[Op]:
    """Criterion 7's first `size` brackets, including p = 1 and p = inf."""
    ops = []
    for seed in range(size):
        dim, terms = FAMILY_SHAPES[seed % len(FAMILY_SHAPES)]
        p = FAMILY_EXPONENTS[seed % len(FAMILY_EXPONENTS)]
        seq = [ncstein.sample_psd(dim, 40_000 * seed + n) for n in range(terms)]
        ops.append(Op(f"linf d={dim} n={terms} p={p}", bracket=(seq, p, seed)))
    return ops


def _exponent(value):
    return "inf" if value == math.inf else value


def build(name: str, seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """The operation stream of one workload for one benchmark seed.

    tiny shrinks budgets and stream lengths so the smoke test stays fast; the
    shapes and code paths stay the same.
    """
    rng = random.Random(f"{name}:{seed}")

    def draw() -> int:
        return rng.randrange(1_000_000)

    family = bracket_family(5 if tiny else FAMILY_SIZE)

    if name == "search_adapted_d8":
        ops = [Op("search s_12_adapted", {
            "command": "search", "inequality": "s_12_adapted", "p": 1, "q": 2, "dim": 8,
            "filtration": "dyadic", "seq_len": 4, "budget": 10 if tiny else ADAPTED_BUDGET,
            "restarts": 2, "seed": draw()}) for _ in range(4 if tiny else ADAPTED_SEARCHES)]
        return Workload(name, ops, ops[0].config, family)

    if name == "linf_doob_d4":
        witness = out_dir / "witness-linf_doob_d4.json"
        config = {"command": "search", "inequality": "doob_maximal", "p": 2, "dim": 4,
                  "filtration": "dyadic", "budget": 4 if tiny else 36, "restarts": 2 if tiny else 8,
                  "seed": draw(), "witness_out": str(witness)}
        ops = [Op("search doob_maximal", config)] + family
        return Workload(name, ops, config, family, witness)

    if name == "checks_tensor_mixed":
        checks = []
        for _ in range(1 if tiny else CHECK_ROUNDS):
            for inequality, p, q in CHECK_MIX:
                config = {"command": "check", "inequality": inequality, "p": _exponent(p),
                          "dim": 8, "filtration": "tensor", "local_dims": [2, 2, 2],
                          "seq_len": 4, "seed": draw()}
                if q is not None:
                    config["q"] = _exponent(q)
                if inequality == "semicommutative":
                    config["atoms"] = 3
                    config["probabilities"] = [[1, 4], [1, 4], [1, 2]]
                checks.append(Op(f"check {inequality} p={p} q={q}", config))
        n_axioms = 1 if tiny else AXIOM_COMMANDS
        axioms = [Op("axioms tensor", {"command": "axioms", "dim": 8, "filtration": "tensor",
                                       "local_dims": [2, 2, 2],
                                       "trials": 2 if tiny else AXIOM_TRIALS, "seed": draw()})
                  for _ in range(n_axioms)]
        # a fixed order: an operation's latency depends a little on what ran
        # before it, so the order must not change with the seed
        stride = len(checks) // n_axioms
        ops = []
        for k, op in enumerate(checks, start=1):
            ops.append(op)
            if k % stride == 0 and axioms:
                ops.append(axioms.pop())
        return Workload(name, ops, ops[0].config, family)

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def run_cli(config: dict) -> tuple[int, str, str]:
    """Parse and run one config in-process; returns (exit code, report, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_command(cli.parse_config(json.dumps(config)))
        except ValueError as exc:  # ConfigError: the generated config was refused
            print(f"config refused: {exc}", file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def _evaluations(config: dict, report: str) -> int:
    """The report's evaluations column for searches; a check counts as 1."""
    if config["command"] != "search":
        return 1
    rows = list(csv.DictReader(io.StringIO(report)))
    return sum(int(row["evaluations"]) for row in rows) if rows else 0


def run_op(op: Op) -> OpResult:
    if op.bracket is not None:
        seq, p, seed = op.bracket
        t0 = time.perf_counter()
        bracket = ncstein.linf_norm_positive(seq, p, seed=seed)
        elapsed = time.perf_counter() - t0
        ends = (bracket.lower.value, bracket.upper.value)
        return OpResult(elapsed, repr(ends), 0, 1, bracket=ends)
    t0 = time.perf_counter()
    code, report, stderr = run_cli(op.config)
    elapsed = time.perf_counter() - t0
    return OpResult(elapsed, report, code, _evaluations(op.config, report) if code == 0 else 0,
                    stderr)


def verify(ops: list[Op], result: PassResult,
           reference: PassResult | None) -> dict[str, str]:
    """Problems found in one pass, keyed by the operation that failed.

    A pass must match the run's first pass byte for byte, every command must
    exit 0, proved ceilings must hold and brackets must be ordered. An empty
    dict means every operation is correct.
    """
    problems = {}
    for i, (op, res) in enumerate(zip(ops, result.ops)):
        where = f"op {i} ({op.label})"
        if res.code != 0:
            problems[where] = f"exit code {res.code}: {res.stderr.strip()[:200]}"
        elif reference is not None and res.output != reference.ops[i].output:
            problems[where] = "output differs from the first pass"
        elif res.bracket is not None:
            lower, upper = res.bracket
            if not lower <= upper + BRACKET_ORDER_TOL:
                problems[where] = f"bracket lower {lower!r} > upper {upper!r}"
        elif op.config["command"] in ("check", "search"):
            rows = list(csv.DictReader(io.StringIO(res.output)))
            limit = CEILINGS.get(rows[0]["inequality_id"]) if len(rows) == 1 else None
            if len(rows) != 1:
                problems[where] = f"expected one report row, got {len(rows)}"
            elif limit is not None and not float(rows[0]["ratio"]) <= limit:
                problems[where] = f"ratio {rows[0]['ratio']} breaks ceiling {limit}"
    return problems


def replay(path: Path) -> str | None:
    """Replay a stored witness through `check --witness`; None when it
    reproduces its best ratio."""
    best = json.loads(path.read_text(encoding="utf-8"))["best_ratio"]
    code, report, stderr = run_cli({"command": "check", "witness": str(path)})
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    ratio = float(next(csv.DictReader(io.StringIO(report)))["ratio"])
    if not abs(ratio - best) <= REPLAY_TOL:
        return f"ratio {ratio!r} differs from best_ratio {best!r}"
    return None


def gap_metrics(result: PassResult) -> tuple[float, float]:
    """Median and max of (upper - lower) / upper over the pass's brackets."""
    gaps = [(upper - lower) / upper for lower, upper in
            (r.bracket for r in result.ops if r.bracket is not None)]
    return statistics.median(gaps), max(gaps)
