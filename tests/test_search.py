"""Extremal-ratio search: determinism, ceilings, witnesses, (p, q) sweeps, and the
lockstep search against its sequential oracle."""

import csv
import dataclasses
import json
import pickle
import re
import zlib

import numpy as np
import pytest

from ncstein import (
    SearchConfig,
    build_filtration,
    cond_exp,
    estimate_constant,
    is_adapted,
    op_norm,
    project_adapted,
    sample_hermitian,
    sample_psd,
)
from ncstein import opcore, search
from ncstein.cli import CSV_COLUMNS, parse_config, run_command
from ncstein.inequality import INEQUALITIES, run_inequality

from oracles import sequential_climb


def test_config_validation():
    with pytest.raises(ValueError, match="budget >= restarts >= 1"):
        SearchConfig(inequality_id="s_qq", p=2, q=2, budget=0)
    with pytest.raises(ValueError, match="budget >= restarts >= 1"):
        SearchConfig(inequality_id="s_qq", p=2, q=2, budget=4, restarts=8)
    with pytest.raises(ValueError, match="seq_len must be >= 1, got 0"):
        SearchConfig(inequality_id="s_qq", p=2, q=2, filt=build_filtration("dyadic", 4),
                     seq_len=0)


def test_config_is_valid_once_built():
    filt = build_filtration("dyadic", 4)
    cfg = SearchConfig(inequality_id="s_pq", p=3, q=2, filt=filt, seq_len=3)
    assert (cfg.p, cfg.q, cfg.lag) == (3.0, 2.0, 0) and cfg.filt is filt
    assert isinstance(cfg.p, float) and isinstance(cfg.q, float)
    # an id without q stores None, whatever q it was given
    assert SearchConfig(inequality_id="dd_p", p=2, q=5, filt=filt, seq_len=3).q is None
    with pytest.raises(ValueError, match="s_qq needs p = q finite, got p=2, q=3"):
        SearchConfig(inequality_id="s_qq", p=2, q=3, filt=filt, seq_len=3)
    with pytest.raises(ValueError, match="s_pq needs a filtration"):
        SearchConfig(inequality_id="s_pq", p=3, q=2, seq_len=3)
    with pytest.raises(ValueError, match="doob_maximal needs a filtration"):
        SearchConfig(inequality_id="doob_maximal", p=2)
    with pytest.raises(ValueError, match="filtration depth 3 at lag 0"):
        SearchConfig(inequality_id="s_pq", p=3, q=2, filt=filt, seq_len=4)
    # a process instance needs one too: the classical chain it lives on
    with pytest.raises(ValueError, match="semicommutative needs a filtration"):
        SearchConfig(inequality_id="semicommutative", p=3, q=2, seq_len=3)
    chain = build_filtration("classical", 2, probabilities=(1,), depth=3)
    assert SearchConfig(inequality_id="semicommutative", p=3, q=2, filt=chain,
                        seq_len=3).filt is chain


@pytest.mark.parametrize("lag", (2, -1, True, 1.0, "1"))
def test_config_rejects_a_lag_other_than_the_integer_0_or_1(lag):
    filt = build_filtration("dyadic", 8)
    message = re.escape(f"lag must be the integer 0 or 1, got {lag!r}")
    with pytest.raises(ValueError, match=message):
        SearchConfig(inequality_id="s_qq", p=2, q=2, filt=filt, seq_len=3, lag=lag)
    seq = [sample_psd(8, n) for n in range(3)]
    with pytest.raises(ValueError, match=message):
        run_inequality("s_qq", seq, filt, 2, 2, lag)
    assert SearchConfig(inequality_id="s_qq", p=2, q=2, filt=filt, lag=np.int64(0)).lag == 0


def test_s22_search_hits_one():
    cfg = SearchConfig(inequality_id="s_qq", p=2, q=2, filt=build_filtration("dyadic", 4),
                       seq_len=4, budget=2000, restarts=8, seed=0)
    res = estimate_constant(cfg)
    assert 1 - 1e-6 <= res.best_ratio <= 1 + 1e-8
    # the witness comes from the coarsest-subalgebra start and stays there
    filt = build_filtration("dyadic", 4)
    for x in res.witness:
        assert op_norm(cond_exp(x, filt.levels[0]) - x) <= 1e-10
    assert res.best_ratio >= 1 - 1e-10


def test_dd1_search_equality_regime():
    cfg = SearchConfig(inequality_id="dd_p", p=1, filt=build_filtration("dyadic", 4),
                       seq_len=3, budget=600, restarts=4, seed=1)
    res = estimate_constant(cfg)
    assert abs(res.best_ratio - 1) <= 1e-10


def test_witness_replay_and_normalization():
    cfg = SearchConfig(inequality_id="s_pq", p=3, q=2, filt=build_filtration("dyadic", 4),
                       seq_len=3, budget=800, restarts=4, seed=2)
    res = estimate_constant(cfg)
    assert res.report.rhs.value == pytest.approx(1.0, rel=1e-10)
    filt = build_filtration("dyadic", 4)
    replay = run_inequality("s_pq", res.witness, filt, 3, 2, 0)
    assert abs(replay.ratio - res.best_ratio) <= 1e-10


def test_trajectory_and_budget():
    cfg = SearchConfig(inequality_id="s_pq", p=3, q=2, filt=build_filtration("dyadic", 4),
                       seq_len=3, budget=500, restarts=4, seed=3)
    res = estimate_constant(cfg)
    assert res.evaluations_used <= cfg.budget
    bests = [b for _, b in res.trajectory]
    assert all(b1 <= b2 for b1, b2 in zip(bests[:-1], bests[1:]))
    indices = [i for i, _ in res.trajectory]
    assert all(i1 < i2 for i1, i2 in zip(indices[:-1], indices[1:]))


def test_search_deterministic():
    cfg = SearchConfig(inequality_id="s_qq", p=1.5, q=1.5, filt=build_filtration("dyadic", 4),
                       seq_len=3, budget=400, restarts=4, seed=7)
    r1 = estimate_constant(cfg)
    r2 = estimate_constant(cfg)
    assert r1.best_ratio == r2.best_ratio
    assert r1.trajectory == r2.trajectory
    for a, b in zip(r1.witness, r2.witness):
        np.testing.assert_array_equal(a, b)


def test_adapted_search_emits_adapted_witness():
    cfg = SearchConfig(inequality_id="s_12_adapted", p=1, q=2,
                       filt=build_filtration("dyadic", 4), seq_len=3, budget=800, restarts=4,
                       seed=4)
    res = estimate_constant(cfg)
    filt = build_filtration("dyadic", 4)
    assert is_adapted(list(res.witness), filt, 0).adapted
    assert res.best_ratio <= 2 + 1e-6


def test_doob_search_runs():
    cfg = SearchConfig(inequality_id="doob_maximal", p=2, filt=build_filtration("dyadic", 4),
                       seq_len=1, budget=300, restarts=3, seed=5)
    res = estimate_constant(cfg)
    assert np.isfinite(res.best_ratio)
    assert len(res.witness) == 1


def test_adapted_search_rejects_seq_len_beyond_depth_at_lag_zero():
    with pytest.raises(ValueError, match="needs filtration level 4"):
        SearchConfig(inequality_id="s_12_adapted", p=1, q=2, filt=build_filtration("dyadic", 8),
                     seq_len=5, budget=400, restarts=2)


def test_unsearchable_rejected():
    cfg = SearchConfig(inequality_id="projections", p=3, q=1,
                       filt=build_filtration("dyadic", 4), seq_len=3)
    with pytest.raises(ValueError, match="not a searchable"):
        estimate_constant(cfg)


def test_project_adapted():
    filt = build_filtration("tensor", 8, (2, 2, 2))
    raw = [sample_psd(8, 70 + k) for k in range(3)]
    projected = project_adapted(raw, filt, 0)
    assert is_adapted(projected, filt, 0).adapted
    twice = project_adapted(projected, filt, 0)
    for a, b in zip(projected, twice):
        assert op_norm(a - b) <= 1e-12
    zeros = [np.zeros((8, 8))] * 3
    for z in project_adapted(zeros, filt, 0):
        assert op_norm(z) == 0.0


# A (p, q) sweep is one search per point, each on a copy of one config that
# shares its filtration, estimate_constant(dataclasses.replace(cfg, p=p, q=q)):
# what the CLI's table command runs.


def test_sweep_qq_grid():
    base = SearchConfig(inequality_id="s_qq", p=2, q=2, filt=build_filtration("dyadic", 4),
                        seq_len=3, budget=300, restarts=3, seed=6)
    total = 0
    for q in (1.0, 1.5, 2.0, 3.0):
        cfg = dataclasses.replace(base, p=q, q=q)
        assert cfg.filt is base.filt
        result = estimate_constant(cfg)
        assert 1 - 1e-6 <= result.best_ratio <= 1 + 1e-8
        total += result.evaluations_used
        assert total <= 4 * base.budget


def test_sweep_propagates_point_failures(capsys, monkeypatch):
    base = SearchConfig(inequality_id="s_qq", p=2, q=2, filt=build_filtration("dyadic", 4),
                        seq_len=3, budget=200, restarts=2, seed=8)
    assert estimate_constant(dataclasses.replace(base, p=2.0, q=2.0)).report.ratio is not None
    # a point outside the exponent domain is refused when its config is built
    with pytest.raises(ValueError, match="p = q"):
        dataclasses.replace(base, p=2.0, q=3.0)
    # a point whose search fails gets an empty row and a stderr line in a table,
    # and the rest of the grid still runs: here a kernel that refuses p = 1e300
    record = INEQUALITIES["s_p_inf"]

    def refusing(xs, filt, p, *args):
        if p > 1e9:
            raise np.linalg.LinAlgError("refused exponent")
        return record.kernel(xs, filt, p, *args)

    monkeypatch.setitem(INEQUALITIES, record.id, dataclasses.replace(record, kernel=refusing))
    cfg = parse_config(json.dumps(dict(command="table", inequality="s_p_inf", p=2, dim=4,
                                       seq_len=2, budget=8, restarts=2,
                                       points=[[1e300, None], [2, None]])))
    assert run_command(cfg) == 0
    out, err = capsys.readouterr()
    assert err == "point (p=1e+300, q=None) failed: search produced no accepted evaluation\n"
    rows = list(csv.DictReader(out.splitlines()))
    assert [(row["p"], row["ratio"] != "", row["evaluations"]) for row in rows] == [
        ("2", True, "8"), ("1.0000000000000001e+300", False, "0")]


def test_sweep_empty_grid(capsys):
    cfg = parse_config(json.dumps(dict(command="table", inequality="s_qq", p=2, q=2, dim=4,
                                       budget=100, restarts=2, seq_len=3, points=[])))
    assert run_command(cfg) == 0
    assert capsys.readouterr() == (",".join(CSV_COLUMNS) + "\n", "")


# (p, q, budget, seq_len) of one search per searchable id against the sequential
# oracle. 60 is a budget 8 restarts do not divide; the ell_inf ids solve a barrier
# problem per evaluation, so they run on a budget of 8 and two terms.
ORACLE_CASES = {
    "s_pq": (3, 1.5, 60, 3),
    "s_qq": (1.5, 1.5, 60, 3),
    "s_12_adapted": (1, 2, 60, 3),
    "s_isometry": (3, 1.5, 60, 3),
    "dd_p": (2, None, 60, 3),
    "crp_stein": (3, None, 60, 3),
    "doob_maximal": (2, None, 8, 1),
    "s_p_inf": (2, None, 8, 2),
}
SHAPES = {"dyadic4": ("dyadic", 4, None), "dyadic8": ("dyadic", 8, None),
          "tensor8": ("tensor", 8, (2, 2, 2))}


def outcome(run, *args):
    """The pickled result of a search, or its exception's type and message: equal
    pickles mean bitwise-equal ratios, trajectories, witnesses and reports."""
    try:
        return pickle.dumps(run(*args))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("restarts", (1, 2, 8))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("inequality_id", ORACLE_CASES)
def test_lockstep_search_equals_sequential_oracle(inequality_id, shape, restarts):
    p, q, budget, seq_len = ORACLE_CASES[inequality_id]
    filtration, dim, local_dims = SHAPES[shape]
    cfg = SearchConfig(inequality_id=inequality_id, p=p, q=q,
                       filt=build_filtration(filtration, dim, local_dims), seq_len=seq_len,
                       budget=budget, restarts=restarts, seed=11)
    result = estimate_constant(cfg)
    assert pickle.dumps(result) == pickle.dumps(sequential_climb(cfg))
    assert result.evaluations_used == budget // restarts * restarts


@pytest.mark.parametrize("cfg", (
    # CR_p below p = 2: the kernel runs its splitting search once per restart
    SearchConfig(inequality_id="crp_stein", p=1.5, filt=build_filtration("dyadic", 4),
                 seq_len=2, budget=5, restarts=2, seed=12),
    SearchConfig(inequality_id="s_pq", p=3, q=1.5, filt=build_filtration("dyadic", 8),
                 seq_len=3, budget=90, restarts=8, seed=13, adapted_only=True),
    # dd_p's ratio is 1 at p = 1, so nearly every proposal is rejected and the step
    # falls below MIN_STEP: the restarts stop after different numbers of evaluations,
    # well inside the budget, and a later restart still improves the best ratio
    SearchConfig(inequality_id="dd_p", p=1, filt=build_filtration("dyadic", 4), seq_len=3,
                 budget=800, restarts=4, seed=19, step_scale=1e-5),
), ids=("crp_stein_p1.5", "s_pq_adapted_only", "early_stops"))
def test_lockstep_search_equals_oracle_off_the_grid(cfg):
    got = outcome(estimate_constant, cfg)
    assert isinstance(got, bytes) and got == outcome(sequential_climb, cfg)


def test_lockstep_search_draws_noise_in_chunks(monkeypatch):
    # a budget beyond NOISE_ENTRIES is drawn a few evaluations at a time, on the
    # same streams
    cfg = SearchConfig(inequality_id="s_pq", p=3, q=1.5, filt=build_filtration("dyadic", 4),
                       seq_len=3, budget=50, restarts=3, seed=16)
    monkeypatch.setattr(search, "NOISE_ENTRIES", 4 * 3 * 4 * 4)
    assert pickle.dumps(estimate_constant(cfg)) == pickle.dumps(sequential_climb(cfg))


def test_lockstep_sweep_equals_oracle():
    base = SearchConfig(inequality_id="s_qq", p=2, q=2, filt=build_filtration("dyadic", 4),
                        seq_len=3, budget=70, restarts=3, seed=14)
    for q in (1.0, 1.5, 3.0):
        cfg = dataclasses.replace(base, p=q, q=q)
        got = outcome(estimate_constant, cfg)
        assert isinstance(got, bytes) and got == outcome(sequential_climb, cfg)
    with pytest.raises(ValueError, match="p = q"):
        dataclasses.replace(base, p=2.0, q=3.0)


def flagged(xs) -> bool:
    """A content test that picks about one sequence in four, whichever batch it is in."""
    return zlib.crc32(np.ascontiguousarray(xs).tobytes()) % 4 == 0


REJECTION_SEARCH = SearchConfig(inequality_id="s_qq", p=1.5, q=1.5,
                                filt=build_filtration("dyadic", 8), seq_len=3, budget=120,
                                restarts=4, seed=15)


def flags(kernel, xs, args):
    """Which sequences of a batch the patched kernels below single out. The replay of
    the normalized witness (rhs 1) is left alone, so the search can finish."""
    rhs = np.asarray(kernel(xs, *args)[1], float)
    return [flagged(x) and abs(value - 1) > 1e-9 for x, value in zip(xs, rhs)]


def refusing(kernel, calls):
    # LinAlgError is a ValueError: the batch fails as a whole
    def patched(xs, *args):
        calls.append(flags(kernel, xs, args))
        if any(calls[-1]):
            raise np.linalg.LinAlgError("flagged sequence")
        return kernel(xs, *args)
    return patched


def vanishing(kernel, calls):
    def patched(xs, *args):
        calls.append(flags(kernel, xs, args))
        lhs, rhs = kernel(xs, *args)
        return lhs, np.where(calls[-1], 0.0, rhs)
    return patched


@pytest.mark.parametrize("patch", (refusing, vanishing))
def test_rejected_sequence_leaves_its_batch_alone(monkeypatch, patch):
    # a flagged sequence is rejected as the sequential loop rejects it, and the
    # other restarts of its step are scored as if it were not there
    record = INEQUALITIES[REJECTION_SEARCH.inequality_id]
    calls = []
    monkeypatch.setitem(INEQUALITIES, record.id,
                        dataclasses.replace(record, kernel=patch(record.kernel, calls)))
    got = outcome(estimate_constant, REJECTION_SEARCH)
    assert any(any(batch) and not all(batch) for batch in calls if len(batch) > 1)
    assert got == outcome(sequential_climb, REJECTION_SEARCH)
    assert isinstance(got, bytes)  # the search itself completed


def test_rejected_initial_draws_stop_the_search(monkeypatch):
    # every rhs vanishes, so no initial draw is accepted: once a restart has spent
    # MAX_INITIAL_DRAWS of a larger budget, the search refuses to go on, raising from
    # inside the lockstep step as the sequential loop does
    record = INEQUALITIES["s_qq"]

    def vanishing_rhs(xs, *args):
        return record.kernel(xs, *args)[0], np.zeros(len(xs))

    monkeypatch.setitem(INEQUALITIES, record.id, dataclasses.replace(record, kernel=vanishing_rhs))
    cfg = SearchConfig(inequality_id="s_qq", p=1.5, q=1.5, filt=build_filtration("dyadic", 4),
                       seq_len=2, budget=3 * (search.MAX_INITIAL_DRAWS + 5), restarts=3, seed=17)
    got = outcome(estimate_constant, cfg)
    assert got == (RuntimeError, "checker rejected 100 initial draws for s_qq (restart 0)")
    assert got == outcome(sequential_climb, cfg)


def test_non_finite_proposal_never_reaches_the_kernel(monkeypatch):
    cfg = REJECTION_SEARCH
    record = INEQUALITIES[cfg.inequality_id]
    seen, hits, draw = [], [], opcore._complex_gaussians

    def finite_only(xs, *args):
        seen.append(len(xs))
        assert np.isfinite(xs).all()
        return record.kernel(xs, *args)

    def poisoned(rng, count, dim):
        # nan in every flagged (seq_len, d, d) draw, wherever it falls in the stream
        draws = draw(rng, count, dim).reshape(-1, cfg.seq_len, dim, dim)
        hits.append([flagged(z) for z in draws])
        draws[hits[-1]] = np.nan
        return draws.reshape(count, dim, dim)

    monkeypatch.setitem(INEQUALITIES, record.id, dataclasses.replace(record, kernel=finite_only))
    monkeypatch.setattr(search, "_complex_gaussians", poisoned)
    got = outcome(estimate_constant, cfg)
    assert any(map(any, hits))
    # beyond the one replay, the steps with a poisoned proposal scored one at a time
    assert seen.count(1) > 2
    monkeypatch.setattr(opcore, "_complex_gaussians", poisoned)
    assert got == outcome(sequential_climb, cfg)
    assert isinstance(got, bytes)
