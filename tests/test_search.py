"""Extremal-ratio search: determinism, ceilings, witnesses, sweeps, and the
lockstep search against its sequential oracle."""

import dataclasses
import pickle
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
    sweep,
)
from ncstein import opcore, search
from ncstein.inequality import INEQUALITIES, run_inequality

from oracles import sequential_climb


def test_config_validation():
    with pytest.raises(ValueError, match="budget >= restarts >= 1"):
        SearchConfig(inequality_id="s_qq", p=2, q=2, budget=0)
    with pytest.raises(ValueError, match="budget >= restarts >= 1"):
        SearchConfig(inequality_id="s_qq", p=2, q=2, budget=4, restarts=8)
    with pytest.raises(ValueError, match="dim and seq_len"):
        SearchConfig(inequality_id="s_qq", p=2, q=2, dim=0)


def test_s22_search_hits_one():
    cfg = SearchConfig(inequality_id="s_qq", p=2, q=2, dim=4, seq_len=4,
                       budget=2000, restarts=8, seed=0)
    res = estimate_constant(cfg)
    assert 1 - 1e-6 <= res.best_ratio <= 1 + 1e-8
    # the witness comes from the coarsest-subalgebra start and stays there
    filt = build_filtration("dyadic", 4)
    for x in res.witness:
        assert op_norm(cond_exp(x, filt.levels[0]) - x) <= 1e-10
    assert res.best_ratio >= 1 - 1e-10


def test_dd1_search_equality_regime():
    cfg = SearchConfig(inequality_id="dd_p", p=1, dim=4, seq_len=3,
                       budget=600, restarts=4, seed=1)
    res = estimate_constant(cfg)
    assert abs(res.best_ratio - 1) <= 1e-10


def test_witness_replay_and_normalization():
    cfg = SearchConfig(inequality_id="s_pq", p=3, q=2, dim=4, seq_len=3,
                       budget=800, restarts=4, seed=2)
    res = estimate_constant(cfg)
    assert res.report.rhs.value == pytest.approx(1.0, rel=1e-10)
    filt = build_filtration("dyadic", 4)
    replay = run_inequality("s_pq", res.witness, filt, 3, 2, 0)
    assert abs(replay.ratio - res.best_ratio) <= 1e-10


def test_trajectory_and_budget():
    cfg = SearchConfig(inequality_id="s_pq", p=3, q=2, dim=4, seq_len=3,
                       budget=500, restarts=4, seed=3)
    res = estimate_constant(cfg)
    assert res.evaluations_used <= cfg.budget
    bests = [b for _, b in res.trajectory]
    assert all(b1 <= b2 for b1, b2 in zip(bests[:-1], bests[1:]))
    indices = [i for i, _ in res.trajectory]
    assert all(i1 < i2 for i1, i2 in zip(indices[:-1], indices[1:]))


def test_search_deterministic():
    cfg = SearchConfig(inequality_id="s_qq", p=1.5, q=1.5, dim=4, seq_len=3,
                       budget=400, restarts=4, seed=7)
    r1 = estimate_constant(cfg)
    r2 = estimate_constant(cfg)
    assert r1.best_ratio == r2.best_ratio
    assert r1.trajectory == r2.trajectory
    for a, b in zip(r1.witness, r2.witness):
        np.testing.assert_array_equal(a, b)


def test_adapted_search_emits_adapted_witness():
    cfg = SearchConfig(inequality_id="s_12_adapted", p=1, q=2, dim=4, seq_len=3,
                       budget=800, restarts=4, seed=4)
    res = estimate_constant(cfg)
    filt = build_filtration("dyadic", 4)
    assert is_adapted(list(res.witness), filt, 0).adapted
    assert res.best_ratio <= 2 + 1e-6


def test_doob_search_runs():
    cfg = SearchConfig(inequality_id="doob_maximal", p=2, dim=4, seq_len=1,
                       budget=300, restarts=3, seed=5)
    res = estimate_constant(cfg)
    assert np.isfinite(res.best_ratio)
    assert len(res.witness) == 1


def test_adapted_search_rejects_seq_len_beyond_depth_at_lag_zero():
    cfg = SearchConfig(inequality_id="s_12_adapted", p=1, q=2, dim=8, seq_len=5,
                       budget=400, restarts=2)
    with pytest.raises(ValueError, match="needs filtration level 4"):
        estimate_constant(cfg)


def test_unsearchable_rejected():
    cfg = SearchConfig(inequality_id="projections", p=3, q=1, dim=4)
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


def test_sweep_qq_grid():
    base = SearchConfig(inequality_id="s_qq", p=2, q=2, dim=4, seq_len=3,
                        budget=300, restarts=3, seed=6)
    rows = sweep([(q, q) for q in (1.0, 1.5, 2.0, 3.0)], base)
    assert len(rows) == 4
    total = 0
    for row in rows:
        assert row.error is None
        assert 1 - 1e-6 <= row.result.best_ratio <= 1 + 1e-8
        total += row.result.evaluations_used
        assert total <= 4 * base.budget


def test_sweep_propagates_point_failures():
    base = SearchConfig(inequality_id="s_qq", p=2, q=2, dim=4, seq_len=3,
                        budget=200, restarts=2, seed=8)
    rows = sweep([(2.0, 2.0), (2.0, 3.0)], base)
    assert rows[0].error is None
    assert rows[1].result is None and "p = q" in rows[1].error


def test_sweep_empty_grid():
    base = SearchConfig(inequality_id="s_qq", p=2, q=2, dim=4, budget=100, restarts=2)
    assert sweep([], base) == []


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
    cfg = SearchConfig(inequality_id=inequality_id, p=p, q=q, dim=dim, seq_len=seq_len,
                       filtration=filtration, local_dims=local_dims, budget=budget,
                       restarts=restarts, seed=11)
    result = estimate_constant(cfg)
    assert pickle.dumps(result) == pickle.dumps(sequential_climb(cfg))
    assert result.evaluations_used == budget // restarts * restarts


@pytest.mark.parametrize("cfg", (
    # CR_p below p = 2: the kernel runs its splitting search once per restart
    SearchConfig(inequality_id="crp_stein", p=1.5, dim=4, seq_len=2, budget=5, restarts=2,
                 seed=12),
    SearchConfig(inequality_id="s_pq", p=3, q=1.5, dim=8, seq_len=3, budget=90, restarts=8,
                 seed=13, adapted_only=True),
    # dd_p's ratio is 1 at p = 1, so nearly every proposal is rejected and the step
    # falls below MIN_STEP: the restarts stop after different numbers of evaluations,
    # well inside the budget, and a later restart still improves the best ratio
    SearchConfig(inequality_id="dd_p", p=1, dim=4, seq_len=3, budget=800, restarts=4,
                 seed=19, step_scale=1e-5),
), ids=("crp_stein_p1.5", "s_pq_adapted_only", "early_stops"))
def test_lockstep_search_equals_oracle_off_the_grid(cfg):
    got = outcome(estimate_constant, cfg)
    assert isinstance(got, bytes) and got == outcome(sequential_climb, cfg)


def test_lockstep_search_draws_noise_in_chunks(monkeypatch):
    # a budget beyond NOISE_ENTRIES is drawn a few evaluations at a time, on the
    # same streams
    cfg = SearchConfig(inequality_id="s_pq", p=3, q=1.5, dim=4, seq_len=3, budget=50,
                       restarts=3, seed=16)
    monkeypatch.setattr(search, "NOISE_ENTRIES", 4 * 3 * 4 * 4)
    assert pickle.dumps(estimate_constant(cfg)) == pickle.dumps(sequential_climb(cfg))


def test_lockstep_sweep_equals_oracle(monkeypatch):
    base = SearchConfig(inequality_id="s_qq", p=2, q=2, dim=4, seq_len=3, budget=70,
                        restarts=3, seed=14)
    points = [(q, q) for q in (1.0, 1.5, 3.0)] + [(2.0, 3.0)]
    rows = sweep(points, base)
    monkeypatch.setattr(search, "_climb", sequential_climb)
    assert pickle.dumps(rows) == pickle.dumps(sweep(points, base))
    assert rows[-1].error is not None


def flagged(xs) -> bool:
    """A content test that picks about one sequence in four, whichever batch it is in."""
    return zlib.crc32(np.ascontiguousarray(xs).tobytes()) % 4 == 0


REJECTION_SEARCH = SearchConfig(inequality_id="s_qq", p=1.5, q=1.5, dim=8, seq_len=3,
                                budget=120, restarts=4, seed=15)


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
    # beyond the two replays, the steps with a poisoned proposal scored one at a time
    assert seen.count(1) > 2
    monkeypatch.setattr(opcore, "_complex_gaussians", poisoned)
    assert got == outcome(sequential_climb, cfg)
    assert isinstance(got, bytes)
