"""Configuration-driven command line front end.

Commands: axioms (conditional-expectation residual table), check (one
inequality instance), search (extremal-ratio search), table (a (p, q) sweep).
Configs are strict JSON: unknown keys are fatal, exponents accept numbers or
the string "inf". Reports are CSV or a JSON mirror with identical field
names, rendered deterministically so identical configs produce byte-identical
files.

Exit codes: 0 success, 1 configuration or runtime error, 2 when a proved
ceiling (or an explicit assert_ratio_le) fails; the report is still written
in that case.

Seed precedence: the NCSTEIN_SEED environment variable overrides --seed,
which overrides the config value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expectation import Filtration, axiom_residuals, build_filtration, tower_residual
from .inequality import (
    INEQUALITIES,
    ClassicalSpace,
    ceiling_violated,
    get_inequality,
    run_inequality,
)
from .opcore import INF, herm, _complex_gaussian
from .search import (
    SearchConfig,
    estimate_constant,
    isometry_family,
    seeded_inputs,
    sweep,
)

AXIOM_GATE = 1e-9

CSV_COLUMNS = (
    "inequality_id", "p", "q", "lag", "dim", "seq_len", "filtration", "seed",
    "lhs", "lhs_bound", "rhs", "rhs_bound", "ratio", "certifying", "evaluations",
)
AXIOM_COLUMNS = ("filtration", "dim", "seed", "trials", "level", "check", "value")


class ConfigError(ValueError):
    """Invalid configuration document."""


_COMMON_KEYS = {"command", "seed", "out", "format"}
_INSTANCE_KEYS = {"inequality", "p", "q", "lag", "dim", "local_dims",
                  "filtration", "seq_len"}
_ALLOWED_KEYS = {
    "axioms": _COMMON_KEYS | {"dim", "local_dims", "filtration", "trials"},
    "check": _COMMON_KEYS | _INSTANCE_KEYS | {"assert_ratio_le", "atoms",
                                              "probabilities", "witness"},
    "search": _COMMON_KEYS | _INSTANCE_KEYS | {"budget", "restarts", "step_scale",
                                               "adapted_only", "witness_out"},
    "table": _COMMON_KEYS | _INSTANCE_KEYS | {"budget", "restarts", "step_scale",
                                              "adapted_only", "points"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run parameters; every field satisfies its downstream
    precondition before any computation starts."""

    command: str
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    inequality: str | None = None
    p: float | None = None
    q: float | None = None
    lag: int | None = None
    dim: int = 4
    local_dims: tuple[int, ...] | None = None
    filtration: str = "dyadic"
    seq_len: int = 4
    trials: int = 50
    budget: int = 5000
    restarts: int = 8
    step_scale: float = 0.25
    adapted_only: bool = False
    assert_ratio_le: float | None = None
    points: tuple[tuple[float, float | None], ...] | None = None
    atoms: int = 2
    probabilities: tuple[Fraction, ...] | None = None
    witness: str | None = None
    witness_out: str | None = None
    # the filtration built while validating; filled by parse_config, not a config key
    filt: Filtration | None = field(default=None, compare=False, repr=False)


def _parse_exponent(value, key: str) -> float:
    if value == "inf":
        return INF
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number or \"inf\", got {value!r}")
    if value < 1:
        raise ConfigError(f"key {key!r} must satisfy {key} >= 1, got {value}")
    return float(value)


def _parse_int(data, key, default, minimum):
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"key {key!r} must be >= {minimum}, got {value}")
    return value


def _parse_lag(data, default) -> int:
    lag = _parse_int(data, "lag", default, 0)
    if lag > 1:
        raise ConfigError(f"key 'lag' must be 0 or 1, got {lag!r}")
    return lag


def _parse_local_dims(value):
    if value is not None and (
            not isinstance(value, list) or not value
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in value)):
        raise ConfigError("key 'local_dims' must be a list of positive integers")
    return value


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a strict JSON number")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a strict-JSON configuration document."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON configuration: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    command = data.get("command")
    if command not in _ALLOWED_KEYS:
        raise ConfigError(
            f"key 'command' must be one of {sorted(_ALLOWED_KEYS)}, got {command!r}"
        )
    for key in data:
        if key not in _ALLOWED_KEYS[command]:
            raise ConfigError(f"unknown configuration key {key!r} for command {command!r}")

    seed = _parse_int(data, "seed", 0, 0)
    fmt = data.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"key 'format' must be 'csv' or 'json', got {fmt!r}")
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("key 'out' must be a string path")

    filtration = data.get("filtration", "dyadic")
    local_dims = _parse_local_dims(data.get("local_dims"))
    dim = _parse_int(data, "dim", 4, 1) if "dim" in data or local_dims is None else None
    try:
        filt = build_filtration(filtration, dim, local_dims)
    except ValueError as exc:
        raise ConfigError(f"invalid filtration: {exc}") from exc
    if filtration == "tensor":
        local_dims = filt.levels[0].local_dims
    elif local_dims is not None:
        local_dims = tuple(local_dims)

    cfg = RunConfig(
        command=command, seed=seed, out=out, format=fmt,
        dim=filt.dim, local_dims=local_dims, filtration=filtration,
        trials=_parse_int(data, "trials", 50, 1), filt=filt,
    )
    if command == "axioms":
        return cfg

    if command == "check" and "witness" in data:
        # replay mode: the witness file is self-contained
        if not isinstance(data["witness"], str):
            raise ConfigError("key 'witness' must be a string path")
        extra = set(data) - {"command", "witness", "out", "format"}
        if extra:
            raise ConfigError(
                f"witness replay takes its instance from the file; remove {sorted(extra)}"
            )
        return dataclasses.replace(cfg, witness=data["witness"])

    inequality = data.get("inequality")
    try:
        ineq = get_inequality(inequality)
    except ValueError:
        raise ConfigError(
            f"key 'inequality' must be one of {sorted(INEQUALITIES)}, got {inequality!r}"
        ) from None
    if command != "check" and not ineq.searchable:
        raise ConfigError(f"{inequality!r} supports the check command only")
    if "p" not in data:
        raise ConfigError("key 'p' is required")
    p = _parse_exponent(data["p"], "p")
    q = None
    if ineq.uses_q:
        if "q" not in data:
            raise ConfigError(f"key 'q' is required for {inequality!r}")
        q = _parse_exponent(data["q"], "q")
    elif "q" in data:
        raise ConfigError(f"key 'q' does not apply to {inequality!r}")
    lag = _parse_lag(data, ineq.default_lag)
    try:
        ineq.validate(p, q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    seq_len = _parse_int(data, "seq_len", 4, 1)
    adapted_only = data.get("adapted_only", False)
    if not isinstance(adapted_only, bool):
        raise ConfigError("key 'adapted_only' must be a boolean")

    kind = ineq.input_kind
    if kind not in ("operator", "process"):
        # adapted inputs are also projected onto their own level, at lag 0
        at_lag = 0 if kind == "adapted-seq" or adapted_only else lag
        if max(seq_len - 1 - at_lag, 0) >= len(filt):
            raise ConfigError(
                f"key 'seq_len' = {seq_len} exceeds the filtration depth {len(filt)} "
                f"at lag {at_lag}"
            )
    if kind == "projections" and seq_len > filt.dim:
        raise ConfigError("key 'seq_len' cannot exceed 'dim' for projection families")

    cfg = dataclasses.replace(cfg, inequality=inequality, p=p, q=q, lag=lag,
                              seq_len=seq_len)

    if command == "check":
        assert_le = data.get("assert_ratio_le")
        if assert_le is not None:
            if isinstance(assert_le, bool) or not isinstance(assert_le, (int, float)):
                raise ConfigError("key 'assert_ratio_le' must be a number")
            cfg = dataclasses.replace(cfg, assert_ratio_le=float(assert_le))
        if kind == "process":
            atoms = _parse_int(data, "atoms", 2, 1)
            probs = data.get("probabilities")
            if probs is None:
                weights = tuple(Fraction(1, atoms) for _ in range(atoms))
            else:
                if (not isinstance(probs, list) or len(probs) != atoms
                        or any(not isinstance(w, list) or len(w) != 2 for w in probs)):
                    raise ConfigError(
                        "key 'probabilities' must list one [numerator, denominator] per atom"
                    )
                try:
                    weights = tuple(Fraction(int(a), int(b)) for a, b in probs)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ConfigError(f"invalid probability fraction: {exc}") from exc
            if any(w <= 0 for w in weights) or sum(weights) != 1:
                raise ConfigError("key 'probabilities' must be positive and sum to 1")
            cfg = dataclasses.replace(cfg, atoms=atoms, probabilities=weights)
        elif "atoms" in data or "probabilities" in data:
            raise ConfigError("keys 'atoms'/'probabilities' apply to 'semicommutative' only")
        return cfg

    # search and table share the optimizer block
    budget = _parse_int(data, "budget", 5000, 0)
    restarts = _parse_int(data, "restarts", 8, 0)
    step_scale = data.get("step_scale", 0.25)
    if isinstance(step_scale, bool) or not isinstance(step_scale, (int, float)) or step_scale <= 0:
        raise ConfigError(f"key 'step_scale' must be a positive number, got {step_scale!r}")
    witness_out = data.get("witness_out")
    if witness_out is not None and not isinstance(witness_out, str):
        raise ConfigError("key 'witness_out' must be a string path")
    cfg = dataclasses.replace(cfg, budget=budget, restarts=restarts,
                              step_scale=float(step_scale), adapted_only=adapted_only,
                              witness_out=witness_out)
    try:
        _search_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if command == "table":
        points = data.get("points")
        if (not isinstance(points, list)
                or any(not isinstance(pt, list) or len(pt) != 2 for pt in points)):
            raise ConfigError("key 'points' must be a list of [p, q] pairs")
        parsed = []
        for i, (pp, qq) in enumerate(points):
            pe = _parse_exponent(pp, f"points[{i}].p")
            qe = _parse_exponent(qq, f"points[{i}].q") if ineq.uses_q else None
            try:
                ineq.validate(pe, qe)
            except ValueError as exc:
                raise ConfigError(f"points[{i}]: {exc}") from exc
            parsed.append((pe, qe))
        cfg = dataclasses.replace(cfg, points=tuple(parsed))
    return cfg


def _search_config(cfg: RunConfig) -> SearchConfig:
    return SearchConfig(
        inequality_id=cfg.inequality, p=cfg.p, q=cfg.q, dim=cfg.dim,
        seq_len=cfg.seq_len, filtration=cfg.filtration, local_dims=cfg.local_dims,
        lag=cfg.lag, budget=cfg.budget, restarts=cfg.restarts,
        step_scale=cfg.step_scale, seed=cfg.seed, adapted_only=cfg.adapted_only,
    )


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == INF:
            return "inf"
        return format(value, ".17g")
    return str(value)


def _json_value(value):
    if isinstance(value, float) and value == INF:
        return "inf"
    return value


def render_report(rows: list[dict], fmt: str, columns=CSV_COLUMNS) -> str:
    """Serialize result rows deterministically (17 significant digits)."""
    if fmt == "json":
        payload = [{k: _json_value(row[k]) for k in columns} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt_value(row[k]) for k in columns) for row in rows)
    return "\n".join(lines) + "\n"


def write_report(rows: list[dict], fmt: str, path: str | None,
                 columns=CSV_COLUMNS) -> None:
    """Write a rendered report to path, or stdout when path is None."""
    payload = render_report(rows, fmt, columns)
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)


def _sort_key(row):
    q = row["q"]
    return (row["inequality_id"], row["p"], -1.0 if q is None else q, row["seed"])


def _report_row(report, *, dim, seq_len, filtration, seed, evaluations) -> dict:
    return {
        "inequality_id": report.inequality_id,
        "p": report.p,
        "q": report.q,
        "lag": report.lag,
        "dim": dim,
        "seq_len": seq_len,
        "filtration": filtration,
        "seed": seed,
        "lhs": report.lhs.value,
        "lhs_bound": report.lhs.bound,
        "rhs": report.rhs.value,
        "rhs_bound": report.rhs.bound,
        "ratio": report.ratio,
        "certifying": report.certifying,
        "evaluations": evaluations,
    }


# ---------------------------------------------------------------------------
# matrix / witness wire format
# ---------------------------------------------------------------------------


def encode_matrix(x) -> dict:
    """Language-neutral matrix object: row-major [re, im] entry pairs."""
    a = np.asarray(x, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def decode_matrix(obj) -> np.ndarray:
    """Inverse of encode_matrix with strict validation."""
    if not isinstance(obj, dict) or set(obj) != {"dim", "entries"}:
        raise ConfigError("matrix objects need exactly the keys 'dim' and 'entries'")
    dim = obj["dim"]
    entries = obj["entries"]
    if not isinstance(dim, int) or dim < 1:
        raise ConfigError(f"matrix 'dim' must be a positive integer, got {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ConfigError(f"matrix 'entries' must hold dim^2 = {dim * dim} pairs")
    flat = []
    for pair in entries:
        if (not isinstance(pair, list) or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)):
            raise ConfigError("matrix entries must be [re, im] number pairs")
        flat.append(complex(pair[0], pair[1]))
    return np.array(flat, dtype=complex).reshape(dim, dim)


def _write_witness(path: str, cfg: RunConfig, result) -> None:
    payload = {
        "inequality": cfg.inequality,
        "p": _json_value(cfg.p),
        "q": _json_value(cfg.q),
        "lag": cfg.lag,
        "dim": cfg.dim,
        "seq_len": cfg.seq_len,
        "filtration": cfg.filtration,
        "local_dims": list(cfg.local_dims) if cfg.local_dims else None,
        "seed": cfg.seed,
        "best_ratio": result.best_ratio,
        "witness": [encode_matrix(x) for x in result.witness],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def _load_witness(path: str):
    """Read a witness file back into checker inputs plus its instance data."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read witness file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed witness file: {exc}") from exc
    required = {"inequality", "p", "q", "lag", "dim", "seq_len", "filtration",
                "local_dims", "seed", "best_ratio", "witness"}
    if not isinstance(data, dict) or set(data) != required:
        raise ConfigError(f"witness file must hold exactly the keys {sorted(required)}")
    inequality = data["inequality"]
    try:
        ineq = get_inequality(inequality)
    except ValueError:
        raise ConfigError(f"witness file names unknown inequality {inequality!r}") from None
    if not ineq.searchable:
        raise ConfigError(f"{inequality!r} witnesses are not replayable")
    kind = ineq.input_kind
    if not isinstance(data["witness"], list) or not data["witness"]:
        raise ConfigError("witness file must hold a nonempty list of matrices")
    matrices = [decode_matrix(obj) for obj in data["witness"]]
    p = _parse_exponent(data["p"], "p")
    q = None if data["q"] is None else _parse_exponent(data["q"], "q")
    ineq.validate(p, q)
    _parse_lag(data, None)
    dim, seed = _parse_int(data, "dim", None, 1), _parse_int(data, "seed", None, 0)
    _parse_int(data, "seq_len", None, 1)
    filt = build_filtration(data["filtration"], dim, _parse_local_dims(data["local_dims"]))
    if kind == "operator":
        inputs = {"x": matrices[0]}
    else:
        inputs = {"seq": matrices}
        if kind == "isometry-seq":
            inputs["isometries"] = isometry_family(dim, len(matrices), seed)
    return inputs, filt, data, p, q


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def _run_axioms(cfg: RunConfig):
    rows = []
    for level, spec in enumerate(cfg.filt.levels):
        res = axiom_residuals(spec, cfg.trials, cfg.seed + level)
        checks = {
            "projection": res.projection,
            "bimodule": res.bimodule,
            "trace": res.trace,
            "positivity": res.positivity,
            "adjoint": res.adjoint,
        }
        for p, excess in sorted(res.contractivity.items()):
            checks[f"contractivity_p{'inf' if p == INF else format(p, 'g')}"] = excess
        for name in sorted(checks):
            rows.append({
                "filtration": cfg.filtration, "dim": cfg.dim, "seed": cfg.seed,
                "trials": cfg.trials, "level": level, "check": name,
                "value": float(checks[name]),
            })
    rows.append({
        "filtration": cfg.filtration, "dim": cfg.dim, "seed": cfg.seed,
        "trials": cfg.trials, "level": -1, "check": "tower",
        "value": float(tower_residual(cfg.filt, cfg.trials, cfg.seed)),
    })
    violated = any(row["value"] > AXIOM_GATE for row in rows)
    return rows, violated, AXIOM_COLUMNS


def _semicommutative_instance(cfg: RunConfig):
    # default classical chain: split atoms off one at a time, repeat the
    # finest level until the sequence fits
    atoms = cfg.atoms
    levels = []
    for split in range(atoms):
        singles = [(i,) for i in range(split)]
        rest = tuple(range(split, atoms))
        levels.append(tuple(singles + ([rest] if rest else [])))
    while len(levels) < cfg.seq_len:
        levels.append(levels[-1])
    space = ClassicalSpace(cfg.probabilities, tuple(levels))
    rng = np.random.default_rng([cfg.seed, 0xC1A55])
    process = [
        [herm(g.conj().T @ g) for g in (_complex_gaussian(rng, cfg.dim)
                                        for _ in range(cfg.seq_len))]
        for _ in range(atoms)
    ]
    return {"process": process, "space": space}


def _run_check(cfg: RunConfig):
    if cfg.witness is not None:
        inputs, filt, meta, p, q = _load_witness(cfg.witness)
        report = run_inequality(meta["inequality"], inputs, filt, p, q,
                                meta["lag"], seed=meta["seed"])
        rows = [_report_row(report, dim=meta["dim"], seq_len=meta["seq_len"],
                            filtration=meta["filtration"], seed=meta["seed"],
                            evaluations=1)]
        return rows, ceiling_violated(report), CSV_COLUMNS
    if get_inequality(cfg.inequality).input_kind == "process":
        inputs = _semicommutative_instance(cfg)
        filt = None
        filtration_name = "classical"
    else:
        filt = cfg.filt
        inputs = seeded_inputs(cfg.inequality, cfg.dim, cfg.seq_len, filt, cfg.seed)
        filtration_name = cfg.filtration
    report = run_inequality(cfg.inequality, inputs, filt, cfg.p, cfg.q, cfg.lag,
                            seed=cfg.seed)
    rows = [_report_row(report, dim=cfg.dim, seq_len=cfg.seq_len,
                        filtration=filtration_name, seed=cfg.seed, evaluations=1)]
    violated = ceiling_violated(report)
    if (cfg.assert_ratio_le is not None and report.ratio is not None
            and report.ratio > cfg.assert_ratio_le):
        violated = True
    return rows, violated, CSV_COLUMNS


def _run_search(cfg: RunConfig):
    result = estimate_constant(_search_config(cfg))
    if cfg.witness_out is not None:
        _write_witness(cfg.witness_out, cfg, result)
    rows = [_report_row(result.report, dim=cfg.dim, seq_len=cfg.seq_len,
                        filtration=cfg.filtration, seed=cfg.seed,
                        evaluations=result.evaluations_used)]
    return rows, ceiling_violated(result.report), CSV_COLUMNS


def _run_table(cfg: RunConfig):
    rows = []
    violated = False
    for row in sweep(cfg.points, _search_config(cfg)):
        if row.result is None:
            print(f"point (p={row.p}, q={row.q}) failed: {row.error}", file=sys.stderr)
            rows.append({
                "inequality_id": cfg.inequality, "p": row.p, "q": row.q,
                "lag": cfg.lag, "dim": cfg.dim, "seq_len": cfg.seq_len,
                "filtration": cfg.filtration, "seed": cfg.seed,
                "lhs": None, "lhs_bound": "", "rhs": None, "rhs_bound": "",
                "ratio": None, "certifying": False, "evaluations": 0,
            })
            continue
        rows.append(_report_row(row.result.report, dim=cfg.dim, seq_len=cfg.seq_len,
                                filtration=cfg.filtration, seed=cfg.seed,
                                evaluations=row.result.evaluations_used))
        violated = violated or ceiling_violated(row.result.report)
    rows.sort(key=_sort_key)
    return rows, violated, CSV_COLUMNS


def run_command(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        if cfg.command == "axioms":
            rows, violated, columns = _run_axioms(cfg)
        elif cfg.command == "check":
            rows, violated, columns = _run_check(cfg)
        elif cfg.command == "search":
            rows, violated, columns = _run_search(cfg)
        elif cfg.command == "table":
            rows, violated, columns = _run_table(cfg)
        else:
            raise ConfigError(f"unknown command {cfg.command!r}")
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"ncstein: error: {exc}", file=sys.stderr)
        return 1
    try:
        write_report(rows, cfg.format, cfg.out, columns)
    except OSError as exc:
        print(f"ncstein: error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return 2 if violated else 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; keep 2 reserved for
    # failed hard assertions
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"ncstein: error: {message}")


def main(argv=None) -> None:
    parser = _Parser(
        prog="ncstein",
        description="Run inequality suites on matrix tracial probability spaces.",
    )
    parser.add_argument("command", choices=("axioms", "check", "search", "table"))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", help="report path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument("--seed", type=int, help="seed override")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"ncstein: error: cannot read config: {exc}", file=sys.stderr)
        sys.exit(1)
    try:
        cfg = parse_config(text)
        if cfg.command != args.command:
            raise ConfigError(
                f"config command {cfg.command!r} does not match {args.command!r}"
            )
    except ConfigError as exc:
        print(f"ncstein: error: {exc}", file=sys.stderr)
        sys.exit(1)

    if args.out is not None:
        cfg = dataclasses.replace(cfg, out=args.out)
    if args.format is not None:
        cfg = dataclasses.replace(cfg, format=args.format)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    env_seed = os.environ.get("NCSTEIN_SEED")
    if env_seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=int(env_seed))
        except ValueError:
            print(f"ncstein: error: NCSTEIN_SEED must be an integer, got {env_seed!r}",
                  file=sys.stderr)
            sys.exit(1)
    sys.exit(run_command(cfg))


if __name__ == "__main__":
    main()
