"""Extremal-ratio search: determinism, ceilings, witnesses, sweeps."""

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
from ncstein.inequality import run_inequality


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
