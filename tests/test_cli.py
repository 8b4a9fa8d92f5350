"""CLI: strict config parsing, report schemas, exit codes, determinism."""

import ast
import csv
import dataclasses
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from ncstein import (
    CellAverage,
    Filtration,
    Pinching,
    SearchConfig,
    TensorFactor,
    build_filtration,
    is_adapted,
    jensen_gap,
    pinching_from_sizes,
    run_inequality,
    sample_adapted_positive,
    sample_unitary,
    tower_residual,
)
from ncstein import expectation
from ncstein.expectation import _axiom_levels
from ncstein.inequality import INEQUALITIES
from ncstein.seqnorm import NormValue
from ncstein.cli import (
    AXIOM_COLUMNS,
    COMMAND_KEYS,
    CSV_COLUMNS,
    ConfigError,
    RunConfig,
    _PARSERS,
    decode_matrix,
    encode_matrix,
    parse_config,
    render_report,
    run_command,
    write_report,
)

ROOT = Path(__file__).resolve().parent.parent


def cfg_text(**kwargs):
    return json.dumps(kwargs)


def test_parse_example_defaults():
    cfg = parse_config(cfg_text(command="check", inequality="s_qq", p=2, q=2,
                                dim=4, filtration="dyadic", seed=1))
    assert cfg.lag == 1  # one-step-behind is the printed form for s_qq
    assert cfg.seed == 1 and cfg.format == "csv" and cfg.restarts == 8


def test_parse_rejects_small_q():
    with pytest.raises(ConfigError, match="q >= 1"):
        parse_config(cfg_text(command="check", inequality="s_qq", p=2, q=0.5, dim=4))


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="'foo'"):
        parse_config(cfg_text(command="check", inequality="s_qq", p=2, q=2, foo=1))


def test_parse_rejects_malformed_and_bad_command():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="command"):
        parse_config(cfg_text(command="frobnicate"))


def test_parse_inf_exponent():
    cfg = parse_config(cfg_text(command="check", inequality="doob_maximal",
                                p="inf", dim=4))
    assert cfg.p == float("inf")


def test_parse_validates_depth():
    with pytest.raises(ConfigError, match=re.escape(
            "sequence term 8 needs filtration level 8 but only 3 levels exist (lag 0)")):
        parse_config(cfg_text(command="check", inequality="s_pq", p=3, q=2,
                              dim=4, seq_len=9, lag=0))


def test_parse_validates_adapted_depth_at_lag_zero():
    # adapted inputs are projected at lag 0, so seq_len 5 cannot run on d=8
    with pytest.raises(ConfigError, match=re.escape(
            "sequence term 4 needs filtration level 4 but only 4 levels exist (lag 0)")):
        parse_config(cfg_text(command="search", inequality="s_12_adapted", p=1, q=2,
                              dim=8, seq_len=5, budget=400, restarts=2))
    with pytest.raises(ConfigError, match=re.escape(
            "sequence term 4 needs filtration level 4 but only 4 levels exist (lag 0)")):
        parse_config(cfg_text(command="search", inequality="s_qq", p=2, q=2, dim=8,
                              seq_len=5, adapted_only=True))
    parse_config(cfg_text(command="search", inequality="s_qq", p=2, q=2, dim=8, seq_len=5))


DYADIC4 = build_filtration("dyadic", 4)


# each input rule has one owner in the library, and the CLI prints its words: the
# config (a check unless it names its command) and the library call of each case
# break the same rule
@pytest.mark.parametrize("config, library", [
    pytest.param(dict(inequality="s_pq", p=3, q=2, dim=4, seq_len=4, lag=0),
                 lambda: run_inequality("s_pq", [np.eye(4)] * 4, DYADIC4, 3, 2, 0), id="depth"),
    # terms 3 to 8 are out of range: both name the deepest
    pytest.param(dict(inequality="s_pq", p=3, q=2, dim=4, seq_len=9, lag=0),
                 lambda: run_inequality("s_pq", [np.eye(4)] * 9, DYADIC4, 3, 2, 0),
                 id="depth-nine-terms"),
    pytest.param(dict(inequality="s_qq", p=2, q=2, dim=4, seq_len=3, lag=2),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                                      lag=2), id="lag-two"),
    pytest.param(dict(inequality="s_qq", p=2, dim=4, seq_len=3),
                 lambda: run_inequality("s_qq", [np.eye(4)] * 3, DYADIC4, 2), id="missing-q"),
    pytest.param(dict(inequality="semicommutative", p=3, q=2, dim=2,
                      probabilities=[[1, 3], [1, 3]]),
                 lambda: build_filtration("classical", 2, probabilities=(Fraction(1, 3),) * 2),
                 id="weights"),
    pytest.param(dict(inequality="s_qq", p=2, q=0.5, dim=4, seq_len=3),
                 lambda: run_inequality("s_qq", [np.eye(4)] * 3, DYADIC4, 2, 0.5), id="small-q"),
    pytest.param(dict(inequality="s_pq", p="3", q=2, dim=4, seq_len=3),
                 lambda: run_inequality("s_pq", [np.eye(4)] * 3, DYADIC4, "3", 2), id="p-string"),
    pytest.param(dict(inequality="s_qq", p=2, q=2, dim=4, seq_len=0),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=0),
                 id="seq_len-zero"),
    pytest.param(dict(command="search", inequality="s_qq", p=2, q=2, dim=4, seq_len=3,
                      step_scale=0),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                                      step_scale=0), id="step_scale-zero"),
    pytest.param(dict(inequality="s_qq", p=2, q=2, dim=0, seq_len=3),
                 lambda: build_filtration("dyadic", 0), id="dim-zero"),
    pytest.param(dict(inequality="s_qq", p=2, q=2, dim=4, seq_len=3, seed=-1),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                                      seed=-1), id="seed-negative"),
    # the type of each library-owned field
    pytest.param(dict(inequality="s_qq", p=2, q=2, dim="4", seq_len=3),
                 lambda: build_filtration("dyadic", "4"), id="dim-string"),
    pytest.param(dict(inequality="s_qq", p=2, q=2, filtration="tensor", local_dims=[2.5, 2],
                      seq_len=3),
                 lambda: build_filtration("tensor", None, [2.5, 2]), id="local_dims-float"),
    pytest.param(dict(command="axioms", trials="3"),
                 lambda: _axiom_levels(DYADIC4.levels, "3", 0), id="trials-string"),
    pytest.param(dict(command="search", inequality="s_qq", p=2, q=2, dim=4, seq_len=3,
                      step_scale="0.5"),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                                      step_scale="0.5"), id="step_scale-string"),
    pytest.param(dict(inequality="s_qq", p=2, q=2, dim=4, seq_len=3, lag=1.0),
                 lambda: run_inequality("s_qq", [np.eye(4)] * 3, DYADIC4, 2, 2, 1.0),
                 id="lag-float"),
    pytest.param(dict(inequality="s_qq", p=2, q=2, dim=4, seq_len="3"),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len="3"),
                 id="seq_len-string"),
    pytest.param(dict(command="search", inequality="s_qq", p=2, q=2, dim=4, seq_len=3,
                      budget=2.5),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                                      budget=2.5), id="budget-float"),
    pytest.param(dict(command="search", inequality="s_qq", p=2, q=2, dim=4, seq_len=3,
                      restarts=True),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                                      restarts=True), id="restarts-true"),
    pytest.param(dict(inequality="s_qq", p=2, q=2, dim=4, seq_len=3, seed=[1]),
                 lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                                      seed=[1]), id="seed-list"),
    # a semicommutative seq_len is its classical chain's depth, refused by its own name
    pytest.param(dict(inequality="semicommutative", p=3, q=2, dim=2, seq_len="3"),
                 lambda: SearchConfig(inequality_id="semicommutative", p=3, q=2, seq_len="3"),
                 id="semicommutative-seq_len-string"),
])
def test_cli_prints_the_library_message_of_each_rule(config, library, capsys):
    with pytest.raises(ValueError) as refused:
        library()
    assert type(refused.value) is ValueError
    text = cfg_text(**{"command": "check", **config})
    if config.get("command") == "axioms":  # the axioms command checks trials when it runs
        assert run_command(parse_config(text)) == 1
        printed = capsys.readouterr().err
    else:
        with pytest.raises(ConfigError) as parsed:
            parse_config(text)
        printed = f"ncstein: error: {parsed.value}\n"
    assert printed.endswith(f"{refused.value}\n"), (printed, str(refused.value))


def test_cli_parses_only_its_own_keys():
    # every other key reaches its library owner as it is, and the owner checks its type too
    own = {"command", "inequality", "format", "out", "adapted_only", "atoms", "probabilities",
           "points", "witness", "witness_out", "assert_ratio_le"}
    assert set(_PARSERS) == own
    assert set().union(*COMMAND_KEYS.values()) - own == {
        "p", "q", "lag", "seed", "dim", "trials", "seq_len", "budget", "restarts", "step_scale",
        "local_dims", "filtration"}
    cfg = parse_config(cfg_text(command="check", inequality="s_qq", p=2, q=2, seed=3))
    assert cfg.inequality_id == "s_qq" and cfg.seed == 3


# refusals at the input boundary, each with the error type and the message it prints
@pytest.mark.parametrize("call, error, message", [
    (lambda: Pinching(()), ValueError, "pinching needs at least one block"),
    (lambda: Pinching(((),)), ValueError, "pinching blocks must be nonempty"),
    (lambda: TensorFactor((0,), 0), ValueError, "local_dims[0] must be >= 1, got 0"),
    (lambda: CellAverage(((0,),), 0), ValueError, "block_dim must be >= 1, got 0"),
    (lambda: CellAverage(((),), 1), ValueError, "cells must be nonempty"),
    (lambda: Pinching(((0, 1.9),)), ValueError, "blocks entry must be an integer, got 1.9"),
    (lambda: CellAverage(((0.7,),), 1), ValueError, "cells entry must be an integer, got 0.7"),
    (lambda: SearchConfig(None), ValueError, "unknown inequality None"),
    (lambda: Filtration(()), ValueError, "filtration needs at least one level"),
    (lambda: build_filtration("classical", probabilities=(1,)), ValueError,
     "dim must be an integer, got None"),
    (lambda: Filtration((pinching_from_sizes([1]), pinching_from_sizes([1, 1]))), ValueError,
     "all filtration levels must share one dimension"),
    (lambda: NormValue(-1.0), ValueError, "norm values are nonnegative"),
    (lambda: NormValue(1.0, "sideways"), ValueError, "unknown bound direction 'sideways'"),
    (lambda: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                          step_scale=0), ValueError,
     "step_scale must be a finite positive number, got 0"),
    *[(lambda name=name, bad=bad: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4,
                                               **{"seq_len": 3, name: bad}),
       ValueError, f"{name} must be an integer, got {bad!r}")
      for name in ("seq_len", "budget", "restarts", "seed") for bad in (True, 2.5, "3")],
    # each count field and step_scale has one library owner, the type rule included: these
    # built a d = 4 chain (int(2.5) is 2) or a d = 1 one, ran one trial, built with step 1.0
    # or an infinite one, or raised numpy's or a comparison's TypeError
    (lambda: build_filtration("tensor", local_dims=[2.5, 2]), ValueError,
     "local_dims[0] must be an integer, got 2.5"),
    (lambda: build_filtration("dyadic", True), ValueError, "dim must be an integer, got True"),
    # a dyadic chain has no factors, so it refuses local_dims even when their product is dim
    (lambda: build_filtration("dyadic", 8, (2, 4)), ValueError,
     "dyadic pinching takes no local_dims, got (2, 4)"),
    (lambda: tower_residual(DYADIC4, True, 0), ValueError, "trials must be an integer, got True"),
    *[(lambda bad=bad: SearchConfig(inequality_id="s_qq", p=2, q=2, filt=DYADIC4, seq_len=3,
                                    step_scale=bad),
       ValueError, f"step_scale must be a finite positive number, got {bad!r}")
      for bad in (True, math.inf, "0.5")],
    (lambda: _axiom_levels(DYADIC4.levels, 2, 1.5), ValueError, "seed must be an integer, got 1.5"),
    (lambda: _axiom_levels(DYADIC4.levels, 2, -1), ValueError, "seed must be >= 0, got -1"),
    (lambda: jensen_gap(np.eye(4), DYADIC4.levels[0], 0), ValueError, "q must be positive"),
    (lambda: is_adapted([np.eye(4)], build_filtration("dyadic", 8)), ValueError,
     "operator dimension 4 does not match 8"),
    (lambda: run_inequality("s_isometry", [np.eye(4)] * 2, DYADIC4, 2, 1.5,
                            isometries=[sample_unitary(4, 0)]), ValueError,
     "sequence and isometries must have equal length"),
    (lambda: parse_config("[1]"), ConfigError, "configuration must be a JSON object"),
    (lambda: parse_config(cfg_text(command="check", p=2)), ConfigError,
     "key 'inequality' is required"),
    (lambda: parse_config(cfg_text(command="check", inequality="semicommutative", p=3, q=2,
                                   dim=2, probabilities=[[1, 0], [1, 2]])), ConfigError,
     "invalid probability fraction: Fraction(1, 0)"),
    (lambda: decode_matrix({"dim": 1, "entries": [[1.0, 0.0]], "extra": 1}), ConfigError,
     "matrix objects need exactly the keys 'dim' and 'entries'"),
    (lambda: decode_matrix({"dim": 1, "entries": [[1.0]]}), ConfigError,
     "matrix entries must be [re, im] number pairs"),
])
def test_boundary_refusals_print_their_message(call, error, message):
    for _ in range(2):  # a refusal is never cached: the second call is refused alike
        with pytest.raises(ValueError) as refused:
            call()
        assert (type(refused.value), str(refused.value)) == (error, message)


def test_parse_search_budget_message():
    with pytest.raises(ConfigError, match="budget >= restarts >= 1"):
        parse_config(cfg_text(command="search", inequality="s_qq", p=2, q=2,
                              dim=4, budget=0))


def test_axioms_command(tmp_path):
    out = tmp_path / "ax.csv"
    cfg = parse_config(cfg_text(command="axioms", filtration="tensor",
                                local_dims=[2, 2], trials=25, out=str(out)))
    assert run_command(cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(AXIOM_COLUMNS)
    for line in lines[1:]:
        value = float(line.rsplit(",", 1)[1])
        assert value <= 1e-9


def test_check_command_exit0(tmp_path):
    out = tmp_path / "check.csv"
    cfg = parse_config(cfg_text(command="check", inequality="s_qq", p=2, q=2,
                                dim=4, seed=3, out=str(out)))
    assert run_command(cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2  # header + one row


def test_check_hard_assert_exit2(tmp_path):
    out = tmp_path / "check2.csv"
    cfg = parse_config(cfg_text(command="check", inequality="dd_p", p=1, dim=4,
                                seq_len=3, assert_ratio_le=0.5, out=str(out)))
    assert run_command(cfg) == 2
    assert out.exists()  # report written despite the failed assertion


def test_search_command(tmp_path):
    out = tmp_path / "s.csv"
    cfg = parse_config(cfg_text(command="search", inequality="s_qq", p=2, q=2,
                                dim=4, seq_len=3, budget=300, restarts=3,
                                seed=5, out=str(out)))
    assert run_command(cfg) == 0
    header, row = out.read_text().strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["inequality_id"] == "s_qq"
    assert float(fields["ratio"]) <= 1 + 1e-8
    assert int(fields["evaluations"]) <= 300


def test_table_command_sorted(tmp_path):
    out = tmp_path / "t.csv"
    cfg = parse_config(cfg_text(command="table", inequality="s_qq", p=2, q=2,
                                dim=4, seq_len=3, budget=200, restarts=2,
                                points=[[3, 3], [1, 1], [2, 2]], out=str(out)))
    assert run_command(cfg) == 0
    lines = out.read_text().strip().splitlines()
    ps = [float(line.split(",")[1]) for line in lines[1:]]
    assert ps == sorted(ps)


def test_json_report_round_trip(tmp_path):
    out = tmp_path / "r.json"
    cfg = parse_config(cfg_text(command="check", inequality="s_pq", p=3, q=2,
                                lag=0, dim=4, seq_len=3, seed=2, format="json",
                                out=str(out)))
    assert run_command(cfg) == 0
    payload = json.loads(out.read_text())
    assert list(payload[0].keys()) == list(CSV_COLUMNS)
    assert json.loads(json.dumps(payload)) == payload


def test_reports_byte_identical(tmp_path):
    blobs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = parse_config(cfg_text(command="search", inequality="s_pq", p=3,
                                    q=1.5, lag=0, dim=4, seq_len=3, budget=250,
                                    restarts=2, seed=11, out=str(out)))
        assert run_command(cfg) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_write_report_empty_table(tmp_path):
    out = tmp_path / "empty.csv"
    write_report([], "csv", str(out))
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_table_with_empty_grid(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = parse_config(cfg_text(command="table", inequality="s_qq", p=2, q=2,
                                dim=4, seq_len=3, budget=100, restarts=2,
                                points=[], out=str(out)))
    assert run_command(cfg) == 0
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_render_float_precision():
    rows = [dict.fromkeys(CSV_COLUMNS)]
    rows[0].update(inequality_id="dd_p", p=1.0, q=None, lag=0, dim=2, seq_len=1,
                   filtration="dyadic", seed=0, lhs=1 / 3, lhs_bound="exact",
                   rhs=float("inf"), rhs_bound="exact", ratio=None,
                   certifying=True, evaluations=1)
    text = render_report(rows, "csv")
    row = text.splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("lhs")] == "0.33333333333333331"
    assert row[CSV_COLUMNS.index("rhs")] == "inf"
    assert row[CSV_COLUMNS.index("ratio")] == ""
    assert row[CSV_COLUMNS.index("certifying")] == "true"


def run_cli(args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    # the child imports ncstein from this checkout's src, as pytest's pythonpath does
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([inherited] if inherited else []))
    return subprocess.run([sys.executable, "-m", "ncstein.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_cli_end_to_end(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(cfg_text(command="check", inequality="s_qq", p=2, q=2,
                               dim=4, seed=1))
    proc = run_cli(["check", "--config", str(config)])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)

    # seed precedence: environment beats the flag, which beats the config
    flag = run_cli(["check", "--config", str(config), "--seed", "9"])
    env = run_cli(["check", "--config", str(config), "--seed", "9"],
                  env={"NCSTEIN_SEED": "1"})
    assert flag.stdout != proc.stdout
    assert env.stdout == proc.stdout

    missing = run_cli(["check", "--config", str(tmp_path / "nope.json")])
    assert missing.returncode == 1

    mismatch = run_cli(["search", "--config", str(config)])
    assert mismatch.returncode == 1
    assert "does not match" in mismatch.stderr


def test_cli_usage_error_is_exit_1():
    proc = run_cli(["bogus-command", "--config", "x.json"])
    assert proc.returncode == 1


def test_semicommutative_check_runs(tmp_path):
    out = tmp_path / "semi.csv"
    cfg = parse_config(cfg_text(command="check", inequality="semicommutative",
                                p=3, q=2, dim=2, seq_len=2, atoms=2,
                                probabilities=[[1, 3], [2, 3]], out=str(out)))
    assert run_command(cfg) == 0
    assert out.read_text().count("\n") == 2
    # the check runs on the classical chain of its atoms and builds no stock
    # filtration: a block dim no stock filtration takes (dyadic needs a power of 2)
    # used to be refused as an invalid filtration. The last instance is the one
    # bench/workloads.py sends: seq_len 4 on three atoms repeats the finest level
    for instance in (dict(dim=3, seq_len=2),
                     dict(dim=8, seq_len=2, filtration="tensor", local_dims=[2, 2, 2]),
                     dict(dim=8, seq_len=4, filtration="tensor", local_dims=[2, 2, 2], atoms=3,
                          probabilities=[[1, 4], [1, 4], [1, 2]])):
        cfg = parse_config(cfg_text(command="check", inequality="semicommutative", p=2,
                                    q=1.5, out=str(out), **instance))
        assert cfg.filtration == "classical" and len(cfg.filt) >= cfg.seq_len, instance
        assert run_command(cfg) == 0, instance
        header, *rows = out.read_text().splitlines()
        row = dict(zip(CSV_COLUMNS, rows[0].split(",")))
        assert len(rows) == 1 and header == ",".join(CSV_COLUMNS)
        assert (row["dim"], row["filtration"]) == (str(instance["dim"]), "classical")
    with pytest.raises(ConfigError, match="unknown filtration kind 'weird'"):
        parse_config(cfg_text(command="check", inequality="semicommutative", p=2, q=1.5,
                              dim=3, filtration="weird"))
    # local_dims must still multiply to dim, with a stock instance's message
    for inequality in ("semicommutative", "s_pq"):
        with pytest.raises(ConfigError, match=re.escape(
                "invalid filtration: product of local_dims (2, 3) must equal dim 4")):
            parse_config(cfg_text(command="check", inequality=inequality, p=2, q=1.5, dim=4,
                                  local_dims=[2, 3]))


def test_probabilities_must_be_integer_fractions():
    # int() truncated 1.9 to 1 (so the weights read 1/2, 1/2) and parsed "1"
    for probabilities in ([[1.9, 2], [1, 2]], [["1", "2"], [1, 2]], [[True, 2], [1, 2]]):
        with pytest.raises(ConfigError, match="'probabilities' must hold integers"):
            parse_config(cfg_text(command="check", inequality="semicommutative", p=3, q=2,
                                  dim=2, probabilities=probabilities))


SP_INF_SEARCH = dict(inequality="s_p_inf", p=2, dim=4, seq_len=3, budget=20, restarts=2, seed=1)


def test_search_whose_witness_replays_with_no_ratio(tmp_path, capsys, monkeypatch):
    # a kernel whose nonzero rhs is inf at p = 1e6, as an overflowing norm would
    # give: the witness cannot be normalized to rhs = 1 and its replay has no ratio
    record = INEQUALITIES["s_p_inf"]

    def overflowing(xs, filt, p, q, lag):
        lhs, rhs, *ends = record.kernel(xs, filt, p, q, lag)
        rhs = tuple(NormValue(math.inf, "upper") if p == 1e6 and side.value > 0 else side
                    for side in rhs)
        return (lhs, rhs, *ends)

    monkeypatch.setitem(INEQUALITIES, "s_p_inf", dataclasses.replace(record, kernel=overflowing))
    out = tmp_path / "t.csv"
    cfg = parse_config(cfg_text(command="table", points=[[2, None], [1000000, None]],
                                out=str(out), **SP_INF_SEARCH))
    assert run_command(cfg) == 0
    assert "point (p=1000000.0, q=None) failed: " in capsys.readouterr().err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["p"], row["ratio"] != "") for row in rows] == [("2", True), ("1000000", False)]
    cfg = parse_config(cfg_text(command="search", **{**SP_INF_SEARCH, "p": 1000000}))
    assert run_command(cfg) == 1
    assert capsys.readouterr().err.startswith("ncstein: error: ")


def test_large_p_table_reports_finite_ratios(tmp_path, capsys):
    # the norms scale by the top of each spectrum, so no side overflows at p = 1e6
    out = tmp_path / "t.csv"
    cfg = parse_config(cfg_text(command="table", points=[[2, None], [1000000, None]],
                                out=str(out), **SP_INF_SEARCH))
    assert run_command(cfg) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["p"] for row in rows] == ["2", "1000000"]
    assert all(math.isfinite(float(row["ratio"])) for row in rows)


def test_large_q_table_reports_its_point(tmp_path, capsys):
    # without the scale of each sequence by its top, |x|^400 overflows: the point
    # fails, and the table raises under this suite's RuntimeWarning filter
    out = tmp_path / "t.csv"
    cfg = parse_config(cfg_text(command="table", inequality="s_qq", p=2, q=2, dim=4,
                                seq_len=3, budget=8, restarts=2, points=[[400, 400]],
                                out=str(out)))
    assert run_command(cfg) == 0
    assert capsys.readouterr().err == ""
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert (row["p"], row["q"], row["evaluations"]) == ("400", "400", "8")
    assert float(row["ratio"]) <= 1 + 1e-8


def test_matrix_wire_format_round_trip():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = encode_matrix(x)
    assert set(obj) == {"dim", "entries"} and len(obj["entries"]) == 9
    np.testing.assert_array_equal(decode_matrix(obj), x)
    # survives a JSON round trip bit for bit
    np.testing.assert_array_equal(decode_matrix(json.loads(json.dumps(obj))), x)
    with pytest.raises(ConfigError, match="dim"):
        decode_matrix({"dim": 0, "entries": []})
    with pytest.raises(ConfigError, match="pairs"):
        decode_matrix({"dim": 2, "entries": [[1, 0]]})


def test_witness_round_trip_via_cli(tmp_path):
    witness_path = tmp_path / "w.json"
    search = parse_config(cfg_text(command="search", inequality="s_pq", p=3, q=2,
                                   lag=0, dim=4, seq_len=3, budget=300, restarts=3,
                                   seed=4, witness_out=str(witness_path),
                                   out=str(tmp_path / "s.csv")))
    assert run_command(search) == 0
    payload = json.loads(witness_path.read_text())
    assert len(payload["witness"]) == 3

    replay_out = tmp_path / "replay.csv"
    replay = parse_config(cfg_text(command="check", witness=str(witness_path),
                                   out=str(replay_out)))
    assert run_command(replay) == 0
    row = replay_out.read_text().strip().splitlines()[1].split(",")
    ratio = float(row[CSV_COLUMNS.index("ratio")])
    assert abs(ratio - payload["best_ratio"]) <= 1e-10


def test_witness_replay_config_is_exclusive():
    with pytest.raises(ConfigError, match="remove"):
        parse_config(cfg_text(command="check", witness="w.json", p=2))


def test_witness_replay_missing_file(tmp_path):
    cfg = parse_config(cfg_text(command="check", witness=str(tmp_path / "none.json")))
    assert run_command(cfg) == 1


def test_config_roundtrip_is_frozen():
    cfg = parse_config(cfg_text(command="axioms", dim=4))
    assert isinstance(cfg, RunConfig)
    with pytest.raises(Exception):
        cfg.seed = 5


def test_parse_rejects_nan_step_scale():
    # json.loads accepts NaN by default, and NaN slips past a `<= 0` check
    text = cfg_text(command="search", inequality="s_qq", p=2, q=2, budget=40, restarts=2,
                    step_scale=0.25).replace("0.25", "NaN")
    with pytest.raises(ConfigError, match="NaN is not a strict JSON number"):
        parse_config(text)


def test_parse_rejects_nan_and_infinite_assert_ratio_le():
    for literal in ("NaN", "Infinity", "-Infinity"):
        text = cfg_text(command="check", inequality="s_qq", p=2, q=2,
                        assert_ratio_le=1.5).replace("1.5", literal)
        with pytest.raises(ConfigError, match=f"{literal} is not a strict JSON number"):
            parse_config(text)


def _search_with_witness(tmp_path, **kwargs):
    witness_path = tmp_path / "w.json"
    cfg = parse_config(cfg_text(command="search", witness_out=str(witness_path),
                                out=str(tmp_path / "s.csv"), **kwargs))
    assert run_command(cfg) == 0
    return witness_path


def test_witness_rejects_nan(tmp_path, capsys):
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=4,
                                        seq_len=3, budget=20, restarts=2)
    text = witness_path.read_text()
    ratio = f'"best_ratio": {json.dumps(json.loads(text)["best_ratio"])}'
    assert ratio in text
    witness_path.write_text(text.replace(ratio, '"best_ratio": NaN'))
    cfg = parse_config(cfg_text(command="check", witness=str(witness_path)))
    assert run_command(cfg) == 1
    assert "NaN is not a strict JSON number" in capsys.readouterr().err


def test_parse_and_builder_reject_the_same_filtrations(tmp_path):
    for filtration, dim, local_dims in (("dyadic", 6, None), ("tensor", 8, [2, 2]),
                                        ("dyadic", 8, [2, 2]), ("tensor", 6, None)):
        data = {"command": "axioms", "filtration": filtration, "dim": dim}
        if local_dims is not None:
            data["local_dims"] = local_dims
        with pytest.raises(ConfigError):
            parse_config(json.dumps(data))
        with pytest.raises(ValueError):
            build_filtration(filtration, dim, local_dims)

    # the builder's tensor default reaches the witness file and its replay
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=8,
                                        filtration="tensor", seq_len=3, budget=40,
                                        restarts=2)
    payload = json.loads(witness_path.read_text())
    assert payload["local_dims"] == [2, 2, 2]
    replay_out = tmp_path / "replay.csv"
    replay = parse_config(cfg_text(command="check", witness=str(witness_path),
                                   out=str(replay_out)))
    assert run_command(replay) == 0
    row = replay_out.read_text().strip().splitlines()[1].split(",")
    assert abs(float(row[CSV_COLUMNS.index("ratio")]) - payload["best_ratio"]) <= 1e-10


def test_bench_setup_path_runs(tmp_path, monkeypatch, capsys):
    """bench/run.py times its SETUP_CODE (parse_config, then the package's
    build_filtration) on each gated workload's first config; a rename that
    breaks that code must fail here, not only in the benchmark."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    setup_code = next(node.value.value for node in tree.body if isinstance(node, ast.Assign)
                      and getattr(node.targets[0], "id", None) == "SETUP_CODE")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    gated = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert gated
    for entry in gated:
        workload = workloads.build(entry["name"], 1, tmp_path, tiny=True)
        assert workload.setup_config == workload.ops[0].config
        monkeypatch.setattr(sys, "argv", ["-c", str(ROOT / "src"),
                                          json.dumps(workload.setup_config)])
        exec(setup_code, {})
        assert float(capsys.readouterr().out) > 0


def test_lag_must_be_an_integer_in_config_and_witness(tmp_path, capsys):
    # `lag not in (0, 1)` let true through (the report printed it) and 1.0
    # through to a TypeError deep in the conditioning code
    for lag in (True, 1.0):
        with pytest.raises(ConfigError, match="^lag must be the integer 0 or 1"):
            parse_config(cfg_text(command="check", inequality="s_qq", p=2, q=2, lag=lag))
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=4,
                                        seq_len=3, budget=20, restarts=2)
    payload = json.loads(witness_path.read_text())
    for lag in (True, 1.0):
        witness_path.write_text(json.dumps({**payload, "lag": lag}))
        assert run_command(parse_config(cfg_text(command="check",
                                                 witness=str(witness_path)))) == 1
        assert "ncstein: error: lag must be the integer 0 or 1" in capsys.readouterr().err


def test_witness_rejects_malformed_fields(tmp_path, capsys):
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=4,
                                        seq_len=3, budget=20, restarts=2)
    payload = json.loads(witness_path.read_text())
    # a 1 x 1 matrix with dim true used to escape as a TypeError
    bool_dim = [{"dim": True, "entries": [[1.0, 0.0]]}] * 3
    for key, value in (("witness", 5), ("local_dims", 7), ("seed", [1]), ("dim", "4"),
                       ("best_ratio", "x"), ("witness", bool_dim)):
        witness_path.write_text(json.dumps({**payload, key: value}))
        cfg = parse_config(cfg_text(command="check", witness=str(witness_path)))
        assert run_command(cfg) == 1, key
        assert capsys.readouterr().err.startswith("ncstein: error: "), key


def test_oversized_numbers_are_config_errors(tmp_path, capsys):
    # an integer literal past the float range used to escape as an OverflowError,
    # and one past int's 4300-digit limit as a plain ValueError
    big = 10 ** 400
    table = dict(command="table", inequality="s_qq", p=2, q=2, points=[[2, 2]])
    check = dict(command="check", inequality="s_qq", p=2, q=2)
    # the library names an exponent or step_scale, and the CLI a number key
    for config, message in (({**table, "p": big}, "exponent p must lie within"),
                            ({**table, "q": big}, "exponent q must lie within"),
                            ({**table, "step_scale": big},
                             "step_scale must be a finite positive number"),
                            ({**table, "points": [[2, 2], [big, 2]]},
                             "points[1]: exponent p must lie within"),
                            ({**check, "assert_ratio_le": -big},
                             "key 'assert_ratio_le' must lie within")):
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}"):
            parse_config(json.dumps(config))
    with pytest.raises(ConfigError, match="malformed JSON configuration: Exceeds the limit"):
        parse_config(cfg_text(command="check", inequality="s_qq", p=2, q=2, seed=7)
                     .replace("7", "7" * 4301))
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=4,
                                        seq_len=3, budget=20, restarts=2)
    payload = json.loads(witness_path.read_text())
    matrix = payload["witness"][0]
    huge = {**matrix, "entries": [[big, 0]] + matrix["entries"][1:]}
    for key, value, message in (("witness", [huge] * 3, "matrix entries must lie within"),
                                ("best_ratio", big, "key 'best_ratio' must lie within")):
        witness_path.write_text(json.dumps({**payload, key: value}))
        assert run_command(parse_config(cfg_text(command="check",
                                                 witness=str(witness_path)))) == 1
        assert message in capsys.readouterr().err


def test_float_literals_past_the_float_range_are_config_errors(tmp_path, capsys):
    # json.loads reads 1e400 as inf: a step_scale of inf passed the `> 0` check and the
    # search spent its budget on non-finite proposals, and p = 1e400 was read as p = inf
    search = cfg_text(command="search", inequality="s_qq", p=2, q=2, dim=4, seq_len=3,
                      budget=40, restarts=2, step_scale=0.25)
    for text in (search.replace("0.25", "1e400"), search.replace("0.25", "-1e400"),
                 search.replace('"p": 2', '"p": 1e400')):
        with pytest.raises(ConfigError, match="number -?1e400 lies outside the floating"):
            parse_config(text)
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=4,
                                        seq_len=3, budget=20, restarts=2)
    payload = json.loads(witness_path.read_text())
    witness_path.write_text(json.dumps({**payload, "best_ratio": "x"}).replace('"x"', "1e400"))
    assert run_command(parse_config(cfg_text(command="check", witness=str(witness_path)))) == 1
    assert "number 1e400 lies outside the floating-point range" in capsys.readouterr().err


def test_duplicate_keys_are_config_errors(tmp_path, capsys):
    # json.loads keeps a repeated key's last value: a second "p" silently replaced the
    # first, and a second "inequality" switched the instance to another id
    text = cfg_text(command="check", inequality="s_pq", p=3, q=1.5, dim=8, seq_len=3)
    for extra, key in ((', "p": 2}', "p"), (', "inequality": "dd_p", "q": null}', "inequality")):
        with pytest.raises(ConfigError, match=f"^duplicate key '{key}'$"):
            parse_config(text[:-1] + extra)
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=4,
                                        seq_len=3, budget=20, restarts=2)
    text = witness_path.read_text()
    for key, before in (("p", "seed"), ("dim", "entries")):  # the document, a matrix object
        assert f'"{before}": ' in text
        witness_path.write_text(text.replace(f'"{before}": ', f'"{key}": 3, "{before}": ', 1))
        assert run_command(parse_config(cfg_text(command="check",
                                                 witness=str(witness_path)))) == 1
        assert f"duplicate key '{key}'" in capsys.readouterr().err


def test_reports_identical_across_blas_thread_counts(tmp_path):
    """The thread count is set for each child process only."""
    configs = {
        "check": {"command": "check", "inequality": "s_p_inf", "p": 2, "dim": 8,
                  "seq_len": 4, "seed": 3},
        "search": {"command": "search", "inequality": "doob_maximal", "p": 2, "dim": 8,
                   "budget": 20, "restarts": 2, "seed": 4},
    }
    outputs = {}
    for threads in ("1", "2"):
        for name, config in configs.items():
            witness = tmp_path / f"{name}-{threads}.witness.json"
            if name == "search":
                config = {**config, "witness_out": str(witness)}
            path = tmp_path / f"{name}-{threads}.json"
            path.write_text(json.dumps(config))
            proc = run_cli([name, "--config", str(path)],
                           env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs[name, threads] = (proc.stdout,
                                      witness.read_bytes() if witness.exists() else None)
    for name in configs:
        assert outputs[name, "1"] == outputs[name, "2"], name
    assert outputs["search", "1"][1] is not None


def test_witness_seq_len_is_its_number_of_matrices(tmp_path, capsys):
    # the stored seq_len used to be the config's, and the replay printed it
    # as stored: an edited 99 replayed with exit 0 and printed 99
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=4,
                                        seq_len=3, budget=20, restarts=2)
    payload = json.loads(witness_path.read_text())
    assert payload["seq_len"] == 3
    witness_path.write_text(json.dumps({**payload, "seq_len": 99}))
    replay_out = tmp_path / "replay.csv"
    replay = parse_config(cfg_text(command="check", witness=str(witness_path),
                                   out=str(replay_out)))
    assert run_command(replay) == 0
    row = replay_out.read_text().strip().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("seq_len")] == "3"

    doob_dir = tmp_path / "doob"
    doob_dir.mkdir()
    doob_path = _search_with_witness(doob_dir, inequality="doob_maximal", p=2, dim=4,
                                     budget=20, restarts=2)
    doob = json.loads(doob_path.read_text())
    assert len(doob["witness"]) == 1 and doob["seq_len"] == 1
    # a row's seq_len is the number of operators checked, not the config's default 4
    replay_out, check_out = doob_dir / "replay.csv", doob_dir / "check.csv"
    assert run_command(parse_config(cfg_text(command="check", witness=str(doob_path),
                                             out=str(replay_out)))) == 0
    assert run_command(parse_config(cfg_text(command="check", inequality="doob_maximal", p=2,
                                             dim=4, out=str(check_out)))) == 0
    for path in (doob_dir / "s.csv", replay_out, check_out):
        row = path.read_text().splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("seq_len")] == "1", path.name
    # a second stored operator was dropped and the replay printed seq_len 2
    doob_path.write_text(json.dumps({**doob, "witness": doob["witness"] * 2}))
    assert run_command(parse_config(cfg_text(command="check", witness=str(doob_path)))) == 1
    assert capsys.readouterr().err == (
        "ncstein: error: the sequence must hold one operator, got 2\n")


def test_seed_overrides_pass_the_config_seed_check(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(cfg_text(command="check", inequality="s_qq", p=2, q=2, dim=4, seed=1))
    for args, env in ((["--seed", "-1"], None), ([], {"NCSTEIN_SEED": "-1"})):
        proc = run_cli(["check", "--config", str(config), *args], env=env)
        assert proc.returncode == 1, args
        assert proc.stderr == "ncstein: error: seed must be >= 0, got -1\n", args
        assert proc.stdout == "", args


def test_each_command_builds_its_filtration_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_filtration(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "ncstein" or name.startswith("ncstein."))
                and getattr(module, "build_filtration", None) is build_filtration):
            monkeypatch.setattr(module, "build_filtration", counting)
    witness_path = tmp_path / "w.json"
    configs = [
        dict(command="axioms", filtration="tensor", dim=8, trials=2),
        dict(command="check", inequality="s_pq", p=3, q=1.5, dim=8, filtration="tensor"),
        dict(command="check", inequality="semicommutative", p=3, q=2, dim=8,
             filtration="tensor", local_dims=[2, 2, 2]),
        dict(command="search", inequality="s_12_adapted", p=1, q=2, dim=8, budget=20,
             restarts=2, witness_out=str(witness_path)),
        dict(command="check", witness=str(witness_path)),
        dict(command="table", inequality="s_qq", p=2, q=2, dim=4, seq_len=3, budget=20,
             restarts=2, points=[[1, 1], [2, 2], [3, 3]]),
    ]
    built = []
    post_init = Filtration.__post_init__
    monkeypatch.setattr(Filtration, "__post_init__",
                        lambda filt: post_init(filt) or built.append(filt))
    expectation._chain.cache_clear()
    for config in configs:
        calls.clear()
        cfg = parse_config(json.dumps({**config, "out": str(tmp_path / "r.csv")}))
        assert run_command(cfg) == 0, config
        assert len(calls) == 1, (config, calls)
    # equal shapes share one chain: tensor d = 8, the classical chain over two atoms,
    # dyadic d = 8 (the search and its replay) and dyadic d = 4
    assert len(built) == 4, built


# exponents inside each id's domain, for one check of each on the dyadic d = 4 chain
CHECK_POINTS = {
    "s_pq": (3, 1.5), "s_qq": (1.5, 1.5), "s_12_adapted": (1, 2), "s_isometry": (3, 1.5),
    "dd_p": (2, None), "doob_maximal": (2, None), "s_p_inf": (2, None), "crp_stein": (1.5, None),
    "projections": (3, 1.5), "semicommutative": (3, 2),
}


def _chain_arrays(filt):
    """Every array a chain holds, by name: each level's rows, orbits and mask, and the masks
    of its cached term plans."""
    for spec in filt.levels:
        yield from (("rows", rows) for rows in spec.rows)
        yield from (("_orbits", orbits) for orbits in spec._orbits)
        if spec._mask is not None:
            yield "_mask", spec._mask
    yield from (("plan masks", masks) for _, masks in filt._plans.values() if masks is not None)


def test_every_command_runs_on_a_read_only_chain(tmp_path):
    # equal shapes share one chain, so no command may write into it
    assert set(CHECK_POINTS) == set(INEQUALITIES)
    configs = [dict(command="check", inequality=inequality, p=p, dim=4, seq_len=3,
                    **({} if q is None else {"q": q}))
               for inequality, (p, q) in CHECK_POINTS.items()]
    configs += [
        dict(command="search", inequality="s_qq", p=2, q=2, dim=4, seq_len=3, budget=20,
             restarts=2),
        dict(command="table", inequality="s_pq", p=2, q=2, dim=4, seq_len=3, budget=20,
             restarts=2, points=[[2, 2], [3, 1.5]]),
        dict(command="axioms", filtration="dyadic", dim=4, trials=2),
        dict(command="axioms", filtration="tensor", dim=8, trials=2),
    ]
    names = set()
    for config in configs:
        cfg = parse_config(cfg_text(**config, out=str(tmp_path / "r.csv")))
        assert run_command(cfg) == 0, config
        for name, array in _chain_arrays(cfg.filt):
            names.add(name)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
    assert names == {"rows", "_orbits", "_mask", "plan masks"}


BENCH_SEMICOMMUTATIVE = dict(inequality="semicommutative", p=2, q=1.5, dim=8,
                             filtration="tensor", local_dims=[2, 2, 2], atoms=3,
                             probabilities=[[1, 4], [1, 4], [1, 2]], seq_len=4)
TENSOR8 = dict(command="check", dim=8, filtration="tensor", local_dims=[2, 2, 2])
# a command, and earlier commands on its chain's shape (a semicommutative chain's depth is
# its seq_len, so there only the exponents and the seed move)
REUSED = {
    "check-dyadic4": (
        dict(command="check", inequality="s_pq", p=3, q=1.5, dim=4, seq_len=3, seed=1),
        [dict(command="check", inequality="s_qq", p=2, q=2, dim=4, seq_len=2, lag=0),
         dict(command="check", inequality="s_qq", p=2, q=2, dim=4, seq_len=4, seed=5)]),
    "check-tensor8": (
        dict(TENSOR8, inequality="s_qq", p=3, q=3, seq_len=4, seed=2),
        [dict(TENSOR8, inequality="s_pq", p=2, q=2, seq_len=2, lag=0),
         dict(TENSOR8, inequality="crp_stein", p=2, seq_len=3, seed=7)]),
    "check-classical": (
        dict(BENCH_SEMICOMMUTATIVE, command="check", seed=3),
        [dict(BENCH_SEMICOMMUTATIVE, command="check", seed=9),
         dict(BENCH_SEMICOMMUTATIVE, command="check", p=3, q=2)]),
    "axioms-tensor8": (
        dict(command="axioms", filtration="tensor", dim=8, local_dims=[2, 2, 2], trials=3,
             seed=4),
        [dict(TENSOR8, inequality="s_pq", p=2, q=2, seq_len=2, lag=0),
         dict(TENSOR8, inequality="s_qq", p=3, q=3, seq_len=5, seed=6)]),
}


@pytest.mark.parametrize("target, earlier", REUSED.values(), ids=list(REUSED))
def test_a_reused_chain_prints_the_bytes_of_a_fresh_one(target, earlier, capsys):
    def report(config):
        cfg = parse_config(cfg_text(**config))
        assert run_command(cfg) == 0, config
        return cfg.filt, capsys.readouterr().out

    expectation._chain.cache_clear()
    filt, fresh = report(target)
    plans = set(filt._plans)
    for config in earlier:
        assert report(config)[0] is filt, config
    sample_adapted_positive(filt, 2, 0, lag=1)  # and a library caller on the same shape
    assert set(filt._plans) - plans, filt._plans  # plans of other lengths or lags
    assert report(target) == (filt, fresh)


def test_config_and_witness_share_one_instance_parser(tmp_path, capsys):
    witness_path = _search_with_witness(tmp_path, inequality="s_qq", p=2, q=2, dim=4,
                                        seq_len=3, budget=20, restarts=2)
    payload = json.loads(witness_path.read_text())
    base = dict(command="check", inequality="s_qq", p=2, q=2, dim=4, seq_len=3)
    for key, value in (("inequality", "bogus"), ("q", 0.5), ("lag", 2), ("dim", 0),
                       ("local_dims", [0]), ("filtration", "weird")):
        with pytest.raises(ConfigError) as from_config:
            parse_config(json.dumps({**base, key: value}))
        witness_path.write_text(json.dumps({**payload, key: value}))
        assert run_command(parse_config(cfg_text(command="check",
                                                 witness=str(witness_path)))) == 1, key
        assert capsys.readouterr().err == f"ncstein: error: {from_config.value}\n", key


def test_readme_lists_each_command_keys():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    intro = text[text.index("Config keys by command"):]
    common = set(re.findall(r"`([^`]+)`", intro[:intro.index("|")]))
    rows = dict(re.findall(r"^\| `(\w+)` +\| (.*) \|$", intro, re.MULTILINE))
    assert set(rows) == set(COMMAND_KEYS)
    for command, keys in rows.items():
        assert common | set(re.findall(r"`([^`]+)`", keys)) == COMMAND_KEYS[command], command
