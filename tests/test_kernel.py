"""Trusted stack kernel: equivalence with the public per-term routes, and
the work the search loop does per evaluation."""

from collections import Counter

import numpy as np
import pytest

from ncstein import (
    CellAverage,
    SearchConfig,
    TensorFactor,
    build_filtration,
    cond_exp,
    estimate_constant,
    hermitian_eig,
    is_psd,
    level_index,
    pinching_from_sizes,
    project_adapted,
    run_inequality,
    sample_hermitian,
    sample_psd,
)
from ncstein import cli, expectation, inequality, opcore, search, seqnorm
from ncstein.expectation import _cond_exp_stack, _condition
from ncstein.inequality import INEQUALITIES, _first, _stein_sides
from ncstein.search import seeded_inputs
from ncstein.opcore import HERMITIAN_TOL, as_stack, _complex_gaussian, _complex_gaussians

from oracles import column_norm_svd, loop_cond_exp

SPECS = (
    pinching_from_sizes([1, 3, 2, 2]),
    TensorFactor((2, 3, 2), 0),
    TensorFactor((2, 3, 2), 1),
    TensorFactor((2, 3, 2), 2),
    CellAverage(((0, 2), (1,), (3, 4, 5)), 2),
)


def general_stack(dim, count, seed):
    """Non-Hermitian complex operators, as the axioms suite feeds cond_exp."""
    return _complex_gaussians(np.random.default_rng(seed), count, dim)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_stack_cond_exp_matches_per_term(spec):
    xs = general_stack(spec.dim, 3, 11)
    stacked = _cond_exp_stack(xs, spec)
    for x, got in zip(xs, stacked):
        np.testing.assert_array_equal(got, cond_exp(x, spec))
        ref = loop_cond_exp(x, spec)
        assert np.abs(got - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("lag", (0, 1))
@pytest.mark.parametrize("filt", (
    build_filtration("dyadic", 8),
    build_filtration("tensor", local_dims=(2, 3, 2)),
), ids=("dyadic", "tensor"))
def test_condition_matches_per_level(filt, lag):
    xs = general_stack(filt.dim, 4, 12)
    got = _condition(xs, filt, lag)
    for n, x in enumerate(xs):
        spec = filt.levels[level_index(n, lag, len(filt))]
        np.testing.assert_array_equal(got[n], cond_exp(x, spec))
    np.testing.assert_array_equal(np.stack(project_adapted(list(xs), filt, lag)), got)


def oracle_ratio(seq, filt, p, q, lag):
    conditioned = [loop_cond_exp(x, filt.levels[level_index(n, lag, len(filt))])
                   for n, x in enumerate(seq)]
    return column_norm_svd(conditioned, p, q) / column_norm_svd(seq, p, q)


@pytest.mark.parametrize("p, q, lag", ((3.0, 1.5, 0), (3.0, 2.0, 0), (2.5, 1.0, 1),
                                       (1.5, 1.5, 1), (3.0, 3.0, 1)))
def test_kernel_ratio_matches_checker_and_oracle(p, q, lag):
    filt = build_filtration("dyadic", 8)
    seq = [sample_psd(8, 300 + n) for n in range(4)]
    lhs, rhs = _stein_sides(as_stack(seq), filt, p, q, lag)
    report = run_inequality("s_pq", seq, filt, p, q, lag)
    assert (lhs, rhs) == (report.lhs.value, report.rhs.value)
    assert abs(lhs / rhs - oracle_ratio(seq, filt, p, q, lag)) <= 1e-12


# the exponents (p, q) of one instance of each searchable id
EXPONENTS = {
    "s_pq": (3.0, 1.5),
    "s_qq": (1.5, 1.5),
    "s_12_adapted": (1.0, 2.0),
    "s_isometry": (3.0, 1.5),
    "dd_p": (2.0, None),
    "doob_maximal": (2.0, None),
    "s_p_inf": (2.0, None),
    "crp_stein": (1.5, None),
}


def test_checkers_cover_every_searchable_id():
    assert set(EXPONENTS) == {i for i, ineq in INEQUALITIES.items() if ineq.searchable}


@pytest.mark.parametrize("inequality_id", EXPONENTS)
def test_kernel_sides_equal_checker_sides(inequality_id):
    p, q = EXPONENTS[inequality_id]
    seq, filt, isometries = seeded_inputs(inequality_id, 4, 3, build_filtration("dyadic", 4), 5)
    ineq = INEQUALITIES[inequality_id]
    for lag in (0, 1):
        sides = _first(ineq.kernel(as_stack(seq)[None], filt, *ineq.validate(p, q), lag,
                                   isometries))
        report = run_inequality(inequality_id, seq, filt, p, q, lag, isometries)
        ends = (report.lhs, report.rhs, report.lhs_upper, report.rhs_lower)
        assert report.lag == lag
        assert [side.value for side in sides] == [end.value for end in ends if end is not None]


def test_kernel_ratio_adapted_s12():
    filt = build_filtration("tensor", local_dims=(2, 2, 2))
    seq = project_adapted([sample_psd(8, 400 + n) for n in range(4)], filt, 0)
    lhs, rhs = _stein_sides(as_stack(seq), filt, 1.0, 2.0, 1)
    report = run_inequality("s_12_adapted", seq, filt, 1, 2)
    assert (lhs, rhs) == (report.lhs.value, report.rhs.value)
    assert abs(lhs / rhs - oracle_ratio(seq, filt, 1.0, 2.0, 1)) <= 1e-12
    with pytest.raises(ValueError, match="not adapted"):
        run_inequality("s_12_adapted", [sample_psd(8, 5)] * 2, filt, 1, 2)


def test_kernel_rejects_non_psd_terms_for_q_not_two():
    filt = build_filtration("dyadic", 4)
    seq = as_stack([sample_psd(4, 1), sample_hermitian(4, 2)])
    with pytest.raises(ValueError, match="item 1 is not positive semidefinite"):
        run_inequality("s_pq", seq, filt, 1.5, 1.5, 1)


@pytest.mark.parametrize("count, dim", ((1, 3), (4, 8)))
def test_batched_draw_equals_single_draws(count, dim):
    batched = _complex_gaussians(np.random.default_rng([9, count]), count, dim)
    rng = np.random.default_rng([9, count])
    # the per-matrix formula the search loop used to draw with
    single = [(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
              / np.sqrt(2) for _ in range(count)]
    np.testing.assert_array_equal(batched, np.stack(single))
    rng = np.random.default_rng([9, count])
    np.testing.assert_array_equal(batched, np.stack([_complex_gaussian(rng, dim)
                                                     for _ in range(count)]))
    # the search's pre-draw: one (budget * count) draw, cut into budget (count, d, d)
    # draws, is the stream of budget successive draws
    budget = 5
    whole = _complex_gaussians(np.random.default_rng([9, count]), budget * count, dim)
    rng = np.random.default_rng([9, count])
    np.testing.assert_array_equal(whole.reshape(budget, count, dim, dim),
                                  np.stack([_complex_gaussians(rng, count, dim)
                                            for _ in range(budget)]))


def test_hermitian_checks_near_tolerance():
    h = sample_psd(4, 21)
    scale = max(1.0, np.linalg.norm(h, 2))
    w_exact, _ = hermitian_eig(h)
    np.testing.assert_array_equal(w_exact, np.linalg.eigh(h)[0])
    assert is_psd(h)
    for excess, accepted in ((0.1, True), (10.0, False)):
        a = h.copy()
        a[0, 1] += excess * HERMITIAN_TOL * scale
        if accepted:
            w, _ = hermitian_eig(a)
            np.testing.assert_array_equal(w, np.linalg.eigh(opcore.herm(a))[0])
            assert is_psd(a)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eig(a)
            assert not is_psd(a)


def count_calls(monkeypatch):
    """Count LAPACK-backed numpy calls, as_operator validations, Schatten norms,
    stacked conditional expectations and checker runs from here on."""
    counts = Counter()

    def counted(name, fn, key):
        def wrapper(*args, **kwargs):
            if name != "norm" or (args[1] if len(args) > 1 else kwargs.get("ord")) == 2:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name), "lapack"))
    for home, fn in ((opcore, "as_operator"), (opcore, "schatten_norm"),
                     (expectation, "_cond_exp_stack"), (inequality, "run_inequality")):
        wrapped = counted(fn, getattr(home, fn), fn)
        for module in (opcore, expectation, seqnorm, inequality, search, cli):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, wrapped)
    return counts


# (p, q, dim, seq_len, budgets, LAPACK calls per evaluation) per searchable id. The
# two ell_inf ids solve a barrier problem per bracket, so they run at d = 4 on small
# budgets.
LOOP_CASES = {
    "s_pq": (3, 1.5, 8, 4, (50, 250), 2),
    "s_qq": (1.5, 1.5, 8, 4, (50, 250), 2),
    "s_12_adapted": (1, 2, 8, 4, (50, 250), 2),
    "s_isometry": (3, 1.5, 8, 4, (50, 250), 2),
    "dd_p": (2, None, 8, 4, (50, 250), 2),
    "crp_stein": (3, None, 8, 4, (50, 250), 2),
    "doob_maximal": (2, None, 4, 3, (6, 16), None),
    "s_p_inf": (2, None, 4, 3, (6, 16), None),
}


@pytest.mark.parametrize("inequality_id", LOOP_CASES)
def test_search_loop_work_per_evaluation(monkeypatch, inequality_id):
    # Two budgets share their initial draws and the witness replay, so the
    # difference in counts is the hill-climbing loop alone. Each restart count
    # runs the same two numbers of lockstep steps.
    p, q, dim, seq_len, budgets, lapack_per_eval = LOOP_CASES[inequality_id]
    counts = count_calls(monkeypatch)
    loop_lapack = {}
    for restarts in (2, 8):
        seen = []
        for budget in budgets:
            counts.clear()
            cfg = SearchConfig(inequality_id=inequality_id, p=p, q=q,
                               filt=build_filtration("dyadic", dim), seq_len=seq_len,
                               budget=budget * restarts // 2, restarts=restarts, seed=3)
            evaluations = estimate_constant(cfg).evaluations_used
            seen.append((evaluations, counts["lapack"], counts["as_operator"]))
        (e0, lapack0, ops0), (e1, lapack1, ops1) = seen
        assert e1 - e0 == (budgets[1] - budgets[0]) * restarts // 2
        assert ops1 == ops0  # nothing is validated inside the loop
        if lapack_per_eval is not None:
            assert lapack1 - lapack0 <= lapack_per_eval * (e1 - e0)
        loop_lapack[restarts] = lapack1 - lapack0
    if lapack_per_eval is not None:
        # a closed-form kernel scores every running restart in one call
        assert loop_lapack[8] == loop_lapack[2]


@pytest.mark.parametrize("filt", (build_filtration("dyadic", 8),
                                  build_filtration("tensor", local_dims=(2, 2, 2))),
                         ids=("dyadic", "tensor"))
def test_axioms_trial_work(monkeypatch, filt):
    # the difference between two trial counts is the work of the extra trials: two
    # stacked conditional expectations, one SVD of five matrices and one eigvalsh per
    # trial, and nothing validated inside the loop
    counts = count_calls(monkeypatch)
    for spec in filt.levels:
        seen = []
        for trials in (2, 5):
            counts.clear()
            expectation.axiom_residuals(spec, trials, 1)
            seen.append(Counter(counts))
        assert seen[1]["lapack"] - seen[0]["lapack"] == 2 * 3
        assert seen[1]["_cond_exp_stack"] - seen[0]["_cond_exp_stack"] == 2 * 3
        assert seen[0]["as_operator"] == seen[1]["as_operator"] == 0
        assert seen[0]["schatten_norm"] == seen[1]["schatten_norm"] == 0


@pytest.mark.parametrize("filt", (build_filtration("dyadic", 8),
                                  build_filtration("tensor", local_dims=(2, 3, 2))),
                         ids=("dyadic", "tensor"))
def test_tower_trial_work(monkeypatch, filt):
    # an extra trial projects x onto every level and then every projection onto every
    # level, one stacked call each, and takes one stacked operator norm per level
    counts = count_calls(monkeypatch)
    seen = []
    for trials in (2, 5):
        counts.clear()
        expectation.tower_residual(filt, trials, 1)
        seen.append(Counter(counts))
    assert seen[1]["lapack"] - seen[0]["lapack"] == len(filt) * 3
    assert seen[1]["_cond_exp_stack"] - seen[0]["_cond_exp_stack"] == 2 * len(filt) * 3
    assert seen[0]["as_operator"] == seen[1]["as_operator"] == 0


@pytest.mark.parametrize("inequality_id, p, q, dim, seq_len", (
    ("s_12_adapted", 1, 2, 8, 4), ("doob_maximal", 2, None, 4, 3)))
def test_search_replays_its_witness_once(monkeypatch, inequality_id, p, q, dim, seq_len):
    counts = count_calls(monkeypatch)
    cfg = SearchConfig(inequality_id=inequality_id, p=p, q=q,
                       filt=build_filtration("dyadic", dim), seq_len=seq_len,
                       budget=12, restarts=2, seed=3)
    result = estimate_constant(cfg)
    assert counts["run_inequality"] == 1
    assert result.report.rhs.value == pytest.approx(1.0, rel=1e-12)
