"""Configuration-driven command line front end.

Commands: axioms (conditional-expectation residual table), check (one
inequality instance), search (extremal-ratio search), table (a (p, q) sweep).
Configs are strict JSON: unknown keys are fatal, and the CLI checks only the
keys it owns; the library checks every other value, and the CLI prints its message.
Reports are CSV or a JSON mirror with identical field names, rendered
deterministically so identical configs produce byte-identical files.

Exit codes: 0 success, 1 configuration or runtime error, 2 when a proved
ceiling (or an explicit assert_ratio_le) fails; the report is still written
in that case.

Seed precedence: the NCSTEIN_SEED environment variable overrides --seed,
which overrides the config value; all three pass the same checks. A witness
replay takes its seed from the file and refuses all three.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .expectation import FILTRATION_KINDS, build_filtration, tower_residual, _axiom_levels
from .inequality import INEQUALITIES, ceiling_violated, get_inequality, run_inequality
from .opcore import INF, as_count
from .search import SearchConfig, estimate_constant, isometry_family, seeded_inputs

AXIOM_GATE = 1e-9

# the leading columns of both schemas are RunConfig fields
INSTANCE_COLUMNS = ("inequality_id", "p", "q", "lag", "dim", "seq_len", "filtration", "seed")
CSV_COLUMNS = INSTANCE_COLUMNS + (
    "lhs", "lhs_bound", "rhs", "rhs_bound", "ratio", "certifying", "evaluations",
)
AXIOM_COLUMNS = ("filtration", "dim", "seed", "trials", "level", "check", "value")


class ConfigError(ValueError):
    """Invalid configuration document."""


# the keys of one inequality instance, in a witness file's order; the file
# adds best_ratio and the witness matrices
INSTANCE_KEYS = ("inequality", "p", "q", "lag", "dim", "seq_len", "filtration",
                 "local_dims", "seed")
_WITNESS_KEYS = {*INSTANCE_KEYS, "best_ratio", "witness"}
_COMMON_KEYS = {"command", "seed", "out", "format"}
COMMAND_KEYS = {
    "axioms": _COMMON_KEYS | {"dim", "local_dims", "filtration", "trials"},
    "check": _COMMON_KEYS | {*INSTANCE_KEYS, "assert_ratio_le", "atoms", "probabilities",
                             "witness"},
    "search": _COMMON_KEYS | {*INSTANCE_KEYS, "budget", "restarts", "step_scale",
                              "adapted_only", "witness_out"},
    "table": _COMMON_KEYS | {*INSTANCE_KEYS, "budget", "restarts", "step_scale",
                             "adapted_only", "points"},
}


@dataclass(frozen=True, kw_only=True)
class RunConfig(SearchConfig):
    """One validated command: the instance and search fields of SearchConfig,
    which the search takes as they are, plus the fields only the CLI reads:
    the filtration's kind and shape, which build `filt` and fill the report
    columns, and the command's own keys, which the CLI checks. parse_config builds it
    once, filtration included; every check runs here, but axioms checks trials and seed
    when it runs, and a witness replay the instance its file holds."""

    command: str
    dim: int = 4
    filtration: str = "dyadic"  # 'dyadic' | 'tensor', or 'classical' for semicommutative
    local_dims: list[int] | None = None
    out: str | None = None
    format: str = "csv"
    trials: int = 50
    assert_ratio_le: float | None = None
    points: tuple[tuple[float, float | None], ...] | None = None
    witness: str | None = None
    witness_out: str | None = None

    def __post_init__(self):
        if self.inequality_id is not None:  # axioms, or a witness replay before its file is read
            super().__post_init__()


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _float(value, key: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise ConfigError(f"key {key!r} must lie within floating-point range") from None


def _checked(ok, must: str, convert=None):
    """The parser of a key whose value passes one test, ok(value), and then
    convert(value, key) if given; `must` completes the error message and may
    show the {value!r}."""
    def parse(value, key: str):
        if not ok(value):
            raise ConfigError(f"key {key!r} must be " + must.format(value=value))
        return value if convert is None else convert(value, key)
    return parse


def _library(call, *args, prefix: str = "", **kwargs):
    """call(*args, **kwargs), whose ValueError becomes a ConfigError that prints prefix
    and the library's message."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _positive(value, key: str) -> int:
    """A count the CLI owns, under the library's one integer rule."""
    return _library(as_count, value, f"key {key!r}")


def _optional(parse):
    """parse, except that null leaves the field at its default."""
    return lambda value, key: None if value is None else parse(value, key)


_number = _checked(_is_number, "a number", _float)
_path = _checked(lambda v: isinstance(v, str), "a string path")
# the exponents of the points are checked by the inequality in _instance
_points = _checked(lambda v: isinstance(v, list) and all(
    isinstance(pt, list) and len(pt) == 2 for pt in v), "a list of [p, q] pairs")


def _probabilities(value, key: str) -> tuple[Fraction, ...]:
    if (not isinstance(value, list)
            or any(not isinstance(w, list) or len(w) != 2 for w in value)):
        raise ConfigError("key 'probabilities' must list one [numerator, denominator] per atom")
    if any(isinstance(n, bool) or not isinstance(n, int) for w in value for n in w):
        raise ConfigError(f"key 'probabilities' must hold integers, got {value!r}")
    try:
        return tuple(Fraction(a, b) for a, b in value)
    except ZeroDivisionError as exc:
        raise ConfigError(f"invalid probability fraction: {exc}") from exc


# the parser of each key the CLI owns, in the order the keys are checked; every
# other key passes as written to its library owner (through _build, or the axioms
# run for trials and seed), and _instance turns atoms and probabilities into weights
_PARSERS = {
    "command": _checked(lambda v: isinstance(v, str) and v in COMMAND_KEYS,
                        f"one of {sorted(COMMAND_KEYS)}, got {{value!r}}"),
    "format": _checked(lambda v: v in ("csv", "json"), "'csv' or 'json', got {value!r}"),
    "out": _optional(_path),
    "inequality": _checked(lambda v: isinstance(v, str) and v in INEQUALITIES,
                           f"one of {sorted(INEQUALITIES)}, got {{value!r}}"),
    "adapted_only": _checked(lambda v: isinstance(v, bool), "a boolean"),
    "assert_ratio_le": _optional(_number),
    "atoms": _positive,
    "probabilities": _optional(_probabilities),
    "witness_out": _optional(_path),
    "points": _points,
    "witness": _path,
}


def _field(key: str) -> str:
    """The RunConfig field a key sets: the key itself, but inequality_id for inequality."""
    return "inequality_id" if key == "inequality" else key


def _fields(data: dict) -> dict:
    """The RunConfig fields of the keys in data, the CLI's own through their parsers."""
    parsed = {key: parse(data[key], key) for key, parse in _PARSERS.items() if key in data}
    return {_field(key): parsed.get(key, value) for key, value in data.items()}


def _build(fields: dict, probabilities: tuple[Fraction, ...] | None = None) -> RunConfig:
    """The RunConfig of fields, with the command's one build of its filtration,
    passed in, and every check run; ConfigError when one fails. A process
    instance runs on the classical chain over the atom weights `probabilities`,
    seq_len levels deep, but its filtration must still name a known kind and
    its local_dims multiply to dim; no other instance names `classical`. The
    report's dim is the chain's, or the classical chain's block size."""
    kind, local_dims = fields.get("filtration", RunConfig.filtration), fields.get("local_dims")
    dim = fields.get("dim", RunConfig.dim if local_dims is None else None)  # None: their product
    if kind == "classical" and probabilities is None:
        raise ConfigError("filtration 'classical' applies to 'semicommutative' only")
    if kind not in FILTRATION_KINDS:
        raise ConfigError(f"invalid filtration: unknown filtration kind {kind!r}")
    chain = {}
    if probabilities is not None:  # the depth is seq_len, refused by its own name
        chain = {"probabilities": probabilities,
                 "depth": _library(as_count, fields.get("seq_len", RunConfig.seq_len), "seq_len")}
        kind = fields["filtration"] = "classical"
    filt = _library(build_filtration, kind, dim, local_dims, **chain,
                    prefix="invalid filtration: ")
    dim = filt.levels[0].block_dim if kind == "classical" else filt.dim
    return _library(RunConfig, filt=filt, **{**fields, "dim": dim})


def _no_q(ineq, q, prefix: str = ""):
    """q, refused in the key's words where the id takes none (the library drops such a q)."""
    if q is not None and not ineq.uses_q:
        raise ConfigError(f"{prefix}key 'q' does not apply to {ineq.id!r}")
    return q


def _instance(fields: dict) -> RunConfig:
    """Validate one inequality instance and its command's fields: the one
    validator of config documents and witness files."""
    command, inequality = fields["command"], fields.get("inequality_id")
    if inequality is None:
        raise ConfigError("key 'inequality' is required")
    ineq = get_inequality(inequality)
    if command != "check" and not ineq.searchable:
        raise ConfigError(f"{inequality!r} supports the check command only")
    _no_q(ineq, fields.get("q"))
    probabilities = None
    if ineq.input_kind == "process":
        atoms = fields.pop("atoms", 2)
        probabilities = (fields.pop("probabilities", None)
                         or tuple(Fraction(1, atoms) for _ in range(atoms)))
        if len(probabilities) != atoms:
            raise ConfigError(
                "key 'probabilities' must list one [numerator, denominator] per atom")
    elif "atoms" in fields or "probabilities" in fields:
        raise ConfigError("keys 'atoms'/'probabilities' apply to 'semicommutative' only")
    if command == "table":
        points = enumerate(_points(fields.get("points"), "points"))
        fields["points"] = tuple(_library(ineq.validate, p, _no_q(ineq, q, f"points[{i}]: "),
                                          prefix=f"points[{i}]: ") for i, (p, q) in points)
    return _build(fields, probabilities)


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a strict JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):  # a float literal past the float range, such as 1e400
        raise ConfigError(f"number {literal} lies outside the floating-point range")
    return value


def _unique_keys(pairs: list) -> dict:
    """The object of `pairs`; json.loads would keep a repeated key's last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate key {key!r}")
        data[key] = value
    return data


def _load_json(text: str, what: str):
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float,
                          object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except ValueError as exc:  # a syntax error, or an integer literal past int's digit limit
        raise ConfigError(f"malformed {what}: {exc}") from exc


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate a strict-JSON configuration document.

    overrides maps common keys (the command line's out, format and seed) to
    values that replace the document's; they go through the same parsers.
    """
    data = _load_json(text, "JSON configuration")
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    command = _PARSERS["command"](data.get("command"), "command")
    for key in data:
        if key not in COMMAND_KEYS[command]:
            raise ConfigError(f"unknown configuration key {key!r} for command {command!r}")
    fields = {**_fields(data), **_fields(overrides or {})}
    if command == "check" and "witness" in data:  # the witness file is self-contained
        extra = {*data, *(overrides or ())} - {"command", "witness", "out", "format"}
        if extra:
            raise ConfigError(
                f"witness replay takes its instance from the file; remove {sorted(extra)}"
            )
        # the file is read, and its filtration built, when the command runs
        return RunConfig(inequality_id=None, **fields)
    if command == "axioms":
        return _build({"inequality_id": None, **fields})
    return _instance(fields)


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


def _report_row(cfg: RunConfig, report, evaluations=0, seq_len=None, point=None) -> dict:
    """The row of cfg's instance: the exponents and sides of report and the
    number of operators checked (seq_len, default the config's), or the
    exponents `point` and empty sides when the instance failed."""
    row = {column: getattr(cfg, column) for column in INSTANCE_COLUMNS}
    if report is None:
        row.update(p=point[0], q=point[1], lhs=None, lhs_bound="", rhs=None, rhs_bound="",
                   ratio=None, certifying=False)
    else:
        row.update(p=report.p, q=report.q, lhs=report.lhs.value, lhs_bound=report.lhs.bound,
                   rhs=report.rhs.value, rhs_bound=report.rhs.bound, ratio=report.ratio,
                   certifying=report.certifying)
    row.update(seq_len=seq_len or cfg.seq_len, evaluations=evaluations)
    return row


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
    dim = _positive(obj["dim"], "matrix dim")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ConfigError(f"matrix 'entries' must hold dim^2 = {dim * dim} pairs")
    if any(not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair))
           for pair in entries):
        raise ConfigError("matrix entries must be [re, im] number pairs")
    try:
        return np.array([complex(*pair) for pair in entries], dtype=complex).reshape(dim, dim)
    except OverflowError:  # an integer literal past the float range
        raise ConfigError("matrix entries must lie within floating-point range") from None


def _write_witness(path: str, cfg: RunConfig, result) -> None:
    payload = {key: _json_value(getattr(cfg, _field(key))) for key in INSTANCE_KEYS}
    payload["seq_len"] = len(result.witness)
    if cfg.filtration == "tensor":  # the builder's default when the config has none
        payload["local_dims"] = cfg.filt.levels[0].local_dims
    payload.update(best_ratio=result.best_ratio,
                   witness=[encode_matrix(x) for x in result.witness])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def _load_witness(path: str) -> tuple[RunConfig, tuple]:
    """A witness file's instance, validated as a config document's is, with
    seq_len the number of stored matrices, and its run_inequality arguments
    (seq, isometries) on the instance's filt."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = _load_json(handle.read(), "witness file")
    except OSError as exc:
        raise ConfigError(f"cannot read witness file: {exc}") from exc
    if not isinstance(data, dict) or set(data) != _WITNESS_KEYS:
        raise ConfigError(f"witness file must hold exactly the keys {sorted(_WITNESS_KEYS)}")
    if not isinstance(data["witness"], list) or not data["witness"]:
        raise ConfigError("witness file must hold a nonempty list of matrices")
    matrices = [decode_matrix(obj) for obj in data["witness"]]
    _number(data["best_ratio"], "best_ratio")
    instance = {key: data[key] for key in INSTANCE_KEYS}
    fields = _fields({**instance, "command": "check", "seq_len": len(matrices)})
    ineq = get_inequality(fields["inequality_id"])
    if not ineq.searchable:
        raise ConfigError(f"{ineq.id!r} witnesses are not replayable")
    cfg = _instance(fields)
    return cfg, (matrices, isometry_family(cfg.inequality_id, cfg.dim, len(matrices), cfg.seed))


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def _run_axioms(cfg: RunConfig):
    instance = {column: getattr(cfg, column) for column in AXIOM_COLUMNS[:4]}
    rows = []
    for level, res in enumerate(_axiom_levels(cfg.filt.levels, cfg.trials, cfg.seed)):
        checks = {name: getattr(res, name)
                  for name in ("projection", "bimodule", "trace", "positivity", "adjoint")}
        for p, excess in sorted(res.contractivity.items()):
            checks[f"contractivity_p{'inf' if p == INF else format(p, 'g')}"] = excess
        for name in sorted(checks):
            rows.append({**instance, "level": level, "check": name,
                         "value": float(checks[name])})
    rows.append({**instance, "level": -1, "check": "tower",
                 "value": float(tower_residual(cfg.filt, cfg.trials, cfg.seed))})
    violated = any(row["value"] > AXIOM_GATE for row in rows)
    return rows, violated, AXIOM_COLUMNS


def _run_check(cfg: RunConfig):
    if cfg.witness is not None:
        cfg, (seq, isometries) = _load_witness(cfg.witness)
    else:
        seq, isometries = seeded_inputs(cfg.inequality_id, cfg.filt, cfg.seq_len, cfg.seed)
    report = run_inequality(cfg.inequality_id, seq, cfg.filt, cfg.p, cfg.q, cfg.lag, isometries)
    rows = [_report_row(cfg, report, 1, len(seq))]
    violated = ceiling_violated(report)
    if (cfg.assert_ratio_le is not None and report.ratio is not None
            and report.ratio > cfg.assert_ratio_le):
        violated = True
    return rows, violated, CSV_COLUMNS


def _run_search(cfg: RunConfig):
    result = estimate_constant(cfg)
    if cfg.witness_out is not None:
        _write_witness(cfg.witness_out, cfg, result)
    rows = [_report_row(cfg, result.report, result.evaluations_used, len(result.witness))]
    return rows, ceiling_violated(result.report), CSV_COLUMNS


def _run_table(cfg: RunConfig):
    """One search per point on the config's one filtration; a point that fails
    gets an empty row and a stderr line, and the rest of the grid still runs."""
    rows = []
    violated = False
    for p, q in cfg.points:
        try:
            result = estimate_constant(replace(cfg, p=p, q=q))
        except (ValueError, RuntimeError) as exc:
            print(f"point (p={p}, q={q}) failed: {exc}", file=sys.stderr)
            rows.append(_report_row(cfg, None, point=(p, q)))
            continue
        rows.append(_report_row(cfg, result.report, result.evaluations_used,
                                len(result.witness)))
        violated = violated or ceiling_violated(result.report)
    rows.sort(key=_sort_key)
    return rows, violated, CSV_COLUMNS


_COMMANDS = {"axioms": _run_axioms, "check": _run_check, "search": _run_search,
             "table": _run_table}


def run_command(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        if cfg.command not in _COMMANDS:
            raise ConfigError(f"unknown command {cfg.command!r}")
        rows, violated, columns = _COMMANDS[cfg.command](cfg)
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
    overrides = {key: getattr(args, key) for key in ("out", "format", "seed")
                 if getattr(args, key) is not None}
    env_seed = os.environ.get("NCSTEIN_SEED")
    try:
        if env_seed is not None:
            try:
                overrides["seed"] = int(env_seed)
            except ValueError:
                raise ConfigError(f"NCSTEIN_SEED must be an integer, got {env_seed!r}") from None
        cfg = parse_config(text, overrides)
        if cfg.command != args.command:
            raise ConfigError(
                f"config command {cfg.command!r} does not match {args.command!r}"
            )
    except ConfigError as exc:
        print(f"ncstein: error: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(run_command(cfg))


if __name__ == "__main__":
    main()
