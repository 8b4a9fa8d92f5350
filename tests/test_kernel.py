"""Trusted stack kernel: equivalence with the public per-term routes, and
the work the search loop does per evaluation."""

import functools
import json
import math
import operator
import pickle
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ncstein import (
    CellAverage,
    Filtration,
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
    sample_projection_family,
    sample_psd,
    sample_unitary,
)
from ncstein import cli, expectation, inequality, opcore, search, seqnorm
from ncstein.expectation import _cond_exp_stack, _condition
from ncstein.inequality import INEQUALITIES, _conjugate, _first, _stein_kernel
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


def written_partial_trace(xs, spec):
    """A TensorFactor's normalized partial trace written out in full: the drop diagonal
    copies added in order from the first and, when there are two or more, divided by
    drop (a complex division, which can turn -0.0 to +0.0), on every copy, and +0.0 off
    them. These are the bytes _cond_exp_stack must give, so at the full algebra (drop
    1) E keeps every byte, -0.0 included."""
    d = xs.shape[-1]
    keep = math.prod(spec.local_dims[: spec.retained])
    drop, n = d // keep, xs.size // (d * d)
    copies = np.diagonal(xs.reshape(n, keep, drop, keep, drop), axis1=2, axis2=4)  # a view
    partial = functools.reduce(operator.add, np.moveaxis(copies, -1, 0))
    if drop > 1:
        partial = partial / drop
    out = np.zeros((n, keep, drop, keep, drop), xs.dtype)
    for b in range(drop):
        out[:, :, b, :, b] = partial
    return out.reshape(xs.shape)


def signed_zero_stack(dim, count, seed):
    """General operators with -0.0 and +0.0 in the real and the imaginary parts."""
    xs = general_stack(dim, count, seed)
    xs.real[:, ::3] = -0.0
    xs.imag[:, :, 1::2] = -0.0
    xs.real[:, 1::3, ::2] = 0.0
    xs[-1] = complex(-0.0, -0.0)  # a whole term of negative zeros
    return xs


CONDITION_CHAINS = {
    "tensor222": build_filtration("tensor", local_dims=(2, 2, 2)),
    "tensor232": build_filtration("tensor", local_dims=(2, 3, 2)),
    # its top level traces out the last factor, so no level is the full algebra
    "tensor-partial-top": Filtration(tuple(TensorFactor((2, 2, 3), r) for r in range(3))),
    "cells": Filtration(tuple(CellAverage(cells, 2) for cells in (
        ((0, 1, 2),), ((0,), (1, 2)), ((0,), (1,), (2,))))),
}


@pytest.mark.parametrize("lag", (0, 1))
@pytest.mark.parametrize("name", CONDITION_CHAINS)
def test_condition_is_bitwise_per_term(name, lag):
    # every level run, sliced out of a batch of two sequences, gives each term the bytes
    # of its own cond_exp, signed zeros included; on a tensor level these are the bytes
    # of the written-out partial trace, at the full algebra as below it
    filt = CONDITION_CHAINS[name]
    length = len(filt) + lag  # at lag 1 the first two terms share level 0
    xs = signed_zero_stack(filt.dim, 2 * length, 3).reshape(2, length, filt.dim, filt.dim)
    got = _condition(xs, filt, lag)
    assert got.tobytes() == np.stack([_condition(seq, filt, lag) for seq in xs]).tobytes()
    for n in range(length):
        spec = filt.levels[level_index(n, lag, len(filt))]
        for b in range(2):
            assert got[b, n].tobytes() == cond_exp(xs[b, n], spec).tobytes()
        if isinstance(spec, TensorFactor):
            assert got[:, n].tobytes() == written_partial_trace(xs[:, n], spec).tobytes()
    top = filt.levels[-1]
    if isinstance(top, TensorFactor) and top.retained == len(top.local_dims):
        # the full algebra: E is the identity, to the byte, -0.0 kept in both parts
        assert got[:, -1].tobytes() == xs[:, -1].tobytes()
    elif name == "tensor-partial-top":
        assert not np.array_equal(got[:, -1], xs[:, -1])


def test_full_algebra_tops_agree_on_signed_zeros():
    # one signed-zero rule for every family: where each orbit is one entry, E keeps its
    # bytes, so the full-algebra tops of the dyadic and the tensor chain both keep -0.0
    xs = signed_zero_stack(8, 3, 4)
    tops = [build_filtration(kind, 8).levels[-1] for kind in ("dyadic", "tensor")]
    assert [_cond_exp_stack(xs, top).tobytes() for top in tops] == [xs.tobytes()] * 2


def oracle_ratio(seq, filt, p, q, lag):
    conditioned = [loop_cond_exp(x, filt.levels[level_index(n, lag, len(filt))])
                   for n, x in enumerate(seq)]
    return column_norm_svd(conditioned, p, q) / column_norm_svd(seq, p, q)


@pytest.mark.parametrize("p, q, lag", ((3.0, 1.5, 0), (3.0, 2.0, 0), (2.5, 1.0, 1),
                                       (1.5, 1.5, 1), (3.0, 3.0, 1)))
def test_kernel_ratio_matches_checker_and_oracle(p, q, lag):
    filt = build_filtration("dyadic", 8)
    seq = [sample_psd(8, 300 + n) for n in range(4)]
    lhs, rhs = _stein_kernel(as_stack(seq), filt, p, q, lag)
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
    filt = build_filtration("dyadic", 4)
    seq, isometries = seeded_inputs(inequality_id, filt, 3, 5)
    ineq = INEQUALITIES[inequality_id]
    # the kernel scores s_isometry's sequence conjugated by its unitaries
    ys = None if isometries is None else as_stack(isometries)
    for lag in (0, 1):
        sides = _first(ineq.kernel(_conjugate(as_stack(seq), ys)[None], filt,
                                   *ineq.validate(p, q), lag))
        report = run_inequality(inequality_id, seq, filt, p, q, lag, isometries)
        ends = (report.lhs, report.rhs, report.lhs_upper, report.rhs_lower)
        assert report.lag == lag
        assert [side.value for side in sides] == [end.value for end in ends if end is not None]


def test_kernel_ratio_adapted_s12():
    filt = build_filtration("tensor", local_dims=(2, 2, 2))
    seq = project_adapted([sample_psd(8, 400 + n) for n in range(4)], filt, 0)
    lhs, rhs = _stein_kernel(as_stack(seq), filt, 1.0, 2.0, 1)
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
    """Count LAPACK-backed numpy calls, np.stack and np.clip calls, as_operator and
    as_stack validations, Schatten norms, stacked conditional expectations and checker
    runs from here on."""
    counts = Counter()

    def counted(name, fn, key):
        def wrapper(*args, **kwargs):
            if name != "norm" or (args[1] if len(args) > 1 else kwargs.get("ord")) == 2:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name), "lapack"))
    for name in ("stack", "clip"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name), name))
    for home, fn in ((opcore, "as_operator"), (opcore, "as_stack"), (opcore, "schatten_norm"),
                     (expectation, "_cond_exp_stack"), (inequality, "run_inequality")):
        wrapped = counted(fn, getattr(home, fn), fn)
        for module in (opcore, expectation, seqnorm, inequality, search, cli):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, wrapped)
    return counts


# (p, q, dim, seq_len, budgets, LAPACK calls per evaluation) per searchable id, and
# s_qq at p = q = 1, whose column norms need no eigh. The two ell_inf ids solve a
# barrier problem per bracket, so they run at d = 4 on small budgets.
LOOP_CASES = {
    "s_pq": (3, 1.5, 8, 4, (50, 250), 2),
    "s_qq": (1.5, 1.5, 8, 4, (50, 250), 2),
    "s_qq-q1": (1, 1, 8, 4, (50, 250), 0.5),
    "s_12_adapted": (1, 2, 8, 4, (50, 250), 2),
    "s_isometry": (3, 1.5, 8, 4, (50, 250), 2),
    "dd_p": (2, None, 8, 4, (50, 250), 2),
    "crp_stein": (3, None, 8, 4, (50, 250), 2),
    "doob_maximal": (2, None, 4, 3, (6, 16), None),
    "s_p_inf": (2, None, 4, 3, (6, 16), None),
}


@pytest.mark.parametrize("case", LOOP_CASES)
def test_search_loop_work_per_evaluation(monkeypatch, case):
    # Two budgets share their initial draws and the witness replay, so the
    # difference in counts is the hill-climbing loop alone. Each restart count
    # runs the same two numbers of lockstep steps.
    inequality_id = case.split("-")[0]
    p, q, dim, seq_len, budgets, lapack_per_eval = LOOP_CASES[case]
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


def eigen_shapes(monkeypatch):
    """Count the (function, input shape) of every eigh, eigvalsh, svd and norm call, and
    every np.count_nonzero call (the block test of the column core), from here on."""
    seen = Counter()

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            seen[name, np.shape(a)] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "count_nonzero", counted("count_nonzero", np.count_nonzero))
    return seen


# one input of each kind whose operators do not match the dimension 8 of its chain:
# (id, p, q, term size, unitary size)
WRONG_SIZE = {
    "isometry-seq-small-unitaries": ("s_isometry", 3, 1.5, 8, 4),
    "isometry-seq-small-terms": ("s_isometry", 3, 1.5, 4, 8),
    "positive-seq": ("s_pq", 3, 1.5, 4, None),
    "adapted-seq": ("s_12_adapted", 1, 2, 4, None),
    "operator": ("doob_maximal", 2, None, 4, None),
    "projections": ("projections", 3, 1.5, 4, None),
    "process": ("semicommutative", 3, 1.5, 4, None),
}


@pytest.mark.parametrize("case", WRONG_SIZE)
def test_wrong_size_is_refused_before_any_spectrum(monkeypatch, case):
    # one size check of the terms and the unitaries comes before every input kind's
    # own check, so a refused input takes no spectrum
    inequality_id, p, q, size, unitary_size = WRONG_SIZE[case]
    filt = (build_filtration("classical", 4, probabilities=(Fraction(1, 2),) * 2, depth=3)
            if case == "process" else build_filtration("dyadic", 8))
    n = 1 if case == "operator" else 3
    seq = (sample_projection_family(size, n, 0) if case == "projections"
           else [sample_psd(size, k) for k in range(n)])
    isometries = None if unitary_size is None else [sample_unitary(unitary_size, k)
                                                    for k in range(n)]
    seen = eigen_shapes(monkeypatch)
    with pytest.raises(ValueError, match="^operator dimension 4 does not match 8$"):
        run_inequality(inequality_id, seq, filt, p, q, isometries=isometries)
    assert not seen


def test_classical_check_takes_block_spectra(monkeypatch):
    # on the 3-atom chain of weights 1/4, 1/4, 1/2 (4 slots of 8 x 8 blocks, d = 32) every
    # column-norm kernel sees only 8 x 8 blocks, and a q = 2 check, which has no PSD gate,
    # takes no other spectrum: a silent fall back to the dense path fails here
    filt = build_filtration("classical", 8, probabilities=(Fraction(1, 4), Fraction(1, 4),
                                                           Fraction(1, 2)), depth=4)
    seq = seeded_inputs("semicommutative", filt, 4, 5)[0]
    seen = eigen_shapes(monkeypatch)
    run_inequality("semicommutative", seq, filt, 3, 2)
    kernels = [("semicommutative", 2, 1.5, seq), ("semicommutative", 3, 3, seq),
               ("crp_stein", 3, None, _condition(seq, filt, 1)),
               ("projections", 3, 1.5, sample_projection_family(32, 4, 0))]
    for inequality_id, p, q, xs in kernels:
        INEQUALITIES[inequality_id].kernel(as_stack(xs)[None], filt, p, q, 1)
    eigen = {key: count for key, count in seen.items() if key[0] != "count_nonzero"}
    assert eigen and all(shape[-2:] == (8, 8) for _, shape in eigen)


def test_dyadic_search_keeps_its_eigen_calls(monkeypatch):
    # an s_12_adapted search on a dyadic chain passes no block: its LAPACK calls are
    # those of the dense column core, and it makes no block test
    seen = eigen_shapes(monkeypatch)
    estimate_constant(SearchConfig(inequality_id="s_12_adapted", p=1, q=2,
                                   filt=build_filtration("dyadic", 8), seq_len=4, budget=50,
                                   restarts=2, seed=3))
    assert seen == {("eigh", (4, 8, 8)): 1, ("eigvalsh", (2, 2, 8, 8)): 25,
                    ("eigvalsh", (2, 1, 8, 8)): 1}


@pytest.mark.parametrize("case", [*LOOP_CASES, "crp_stein-split"])
def test_search_round_calls_no_numpy_wrapper(monkeypatch, case):
    # a lockstep round stacks with np.array and clamps with np.maximum, which give the
    # bytes of np.stack and np.clip without their Python-level wrappers: two budgets
    # differ in rounds only, and make the same np.stack and np.clip calls
    inequality_id = case.split("-")[0]
    # below p = 2 a CR_p side takes 100 splitting steps per evaluation
    p, q, dim, seq_len, budgets, _ = LOOP_CASES.get(case, (1.5, None, 4, 3, (6, 16), None))
    counts = count_calls(monkeypatch)
    seen = []
    for budget in budgets:
        counts.clear()
        cfg = SearchConfig(inequality_id=inequality_id, p=p, q=q, seq_len=seq_len,
                           filt=build_filtration("dyadic", dim), budget=budget, restarts=2,
                           seed=3)
        seen.append((estimate_constant(cfg).evaluations_used, counts["stack"], counts["clip"]))
    (e0, *calls0), (e1, *calls1) = seen
    assert e1 - e0 == budgets[1] - budgets[0]
    assert calls1 == calls0


@pytest.mark.parametrize("case", LOOP_CASES)
def test_kernel_scores_a_sequence_alike_in_any_batch(case):
    # the lockstep search scores its running restarts in one kernel call and replays
    # the witness alone, so a sequence's sides must not depend on the batch around it
    inequality_id = case.split("-")[0]
    p, q, dim, seq_len = LOOP_CASES[case][:4]
    cfg = SearchConfig(inequality_id=inequality_id, p=p, q=q,
                       filt=build_filtration("dyadic", dim), seq_len=seq_len)
    instances = [seeded_inputs(inequality_id, cfg.filt, seq_len, seed) for seed in range(3)]
    xs = np.stack([as_stack(seq) for seq, _ in instances])
    kernel, ys = INEQUALITIES[inequality_id].kernel, instances[0][1]
    # as the search scores them: a batch conjugated by one isometry family at once
    batch = kernel(_conjugate(xs, ys), cfg.filt, cfg.p, cfg.q, cfg.lag)
    for k in range(len(xs)):
        alone = kernel(_conjugate(xs[k:k + 1], ys), cfg.filt, cfg.p, cfg.q, cfg.lag)
        assert (pickle.dumps([side[k] for side in batch])
                == pickle.dumps([side[0] for side in alone]))


@pytest.mark.parametrize("filt", (build_filtration("dyadic", 8),
                                  build_filtration("tensor", local_dims=(2, 2, 2))),
                         ids=("dyadic", "tensor"))
def test_axioms_trial_work(monkeypatch, filt):
    # the trials of a chunk share its work: two stacked conditional expectations, one
    # SVD of the (5, trials, d, d) stack and one eigvalsh, so extra trials add no call,
    # and nothing is validated
    counts = count_calls(monkeypatch)
    for spec in filt.levels:
        seen = []
        for trials in (2, 5):
            counts.clear()
            expectation.axiom_residuals(spec, trials, 1)
            seen.append(Counter(counts))
        assert seen[0]["lapack"] == seen[1]["lapack"] == 2
        assert seen[0]["_cond_exp_stack"] == seen[1]["_cond_exp_stack"] == 2
        assert seen[0]["as_operator"] == seen[1]["as_operator"] == 0
        assert seen[0]["schatten_norm"] == seen[1]["schatten_norm"] == 0


@pytest.mark.parametrize("filt", (build_filtration("dyadic", 8),
                                  build_filtration("tensor", local_dims=(2, 3, 2))),
                         ids=("dyadic", "tensor"))
def test_tower_trial_work(monkeypatch, filt):
    # the trials of a chunk share its work: x onto every level, then every projection
    # onto every level, one stacked call each, and one SVD of the (L, L, trials, d, d)
    # differences, so extra trials add no call, and nothing is validated
    counts = count_calls(monkeypatch)
    seen = []
    for trials in (2, 5):
        counts.clear()
        expectation.tower_residual(filt, trials, 1)
        seen.append(Counter(counts))
    assert seen[0]["lapack"] == seen[1]["lapack"] == 1
    assert seen[0]["_cond_exp_stack"] == seen[1]["_cond_exp_stack"] == 2 * len(filt)
    assert seen[0]["as_operator"] == seen[1]["as_operator"] == 0


def test_axioms_command_work(monkeypatch, tmp_path):
    # a tensor d=8 axioms command: one SVD and one eigvalsh for every level's
    # residuals, and one 2-norm for the tower
    cfg = cli.parse_config(json.dumps({"command": "axioms", "filtration": "tensor", "dim": 8,
                                       "trials": 12, "out": str(tmp_path / "ax.csv")}))
    counts = count_calls(monkeypatch)
    assert cli.run_command(cfg) == 0
    assert counts["lapack"] == 3


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


def test_adapted_check_validates_each_term_once(monkeypatch, tmp_path):
    # the seeded draws are projected on the trusted core, so the only validation of an
    # adapted check is run_inequality's boundary: one as_stack of the whole stack, which
    # checks it in one pass and calls as_operator on no term
    cfg = cli.parse_config(json.dumps({"command": "check", "inequality": "s_12_adapted",
                                       "p": 1, "q": 2, "dim": 8, "seq_len": 4,
                                       "out": str(tmp_path / "check.csv")}))
    counts = count_calls(monkeypatch)
    assert cli.run_command(cfg) == 0
    assert counts["run_inequality"] == 1
    assert counts["as_stack"] == 1
    assert counts["as_operator"] == 0


def test_projection_family_check_work(monkeypatch):
    # a valid 4-term family: every r_n^2 - r_n, r_n - r_n* and r_m r_n (m < n), 14
    # matrices, is round-off under the entry bound of the norm gate, so none takes an SVD
    xs = np.stack(sample_projection_family(8, 4, 1))
    counts = count_calls(monkeypatch)
    inequality._check_inputs("projections", xs, None, build_filtration("dyadic", 8), 1.5)
    assert counts["lapack"] == 0


def test_projection_family_check_memory_is_bounded():
    # the residuals are checked term by term, n + 2 matrices for term n: at d = 32 a
    # 32-term family (528 residuals) and the same family padded with 32 zero projections
    # (2144 residuals), both refused as longer than the filtration, stay within 8 MiB
    family = np.stack(sample_projection_family(32, 32, 0))
    filt = build_filtration("dyadic", 32)
    for xs in (family, np.concatenate([family, np.zeros_like(family)])):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="only 6 levels exist"):
                run_inequality("projections", xs, filt, 3, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
    # the first failure is named, in the same words
    xs = family[:4].copy()
    xs[3] = xs[2]
    with pytest.raises(ValueError, match="^projections 2 and 3 are not orthogonal$"):
        inequality._check_inputs("projections", xs, None, filt, 1.5)
    xs[1] *= 2
    with pytest.raises(ValueError, match="^item 1 is not a projection within tolerance$"):
        inequality._check_inputs("projections", xs, None, filt, 1.5)
