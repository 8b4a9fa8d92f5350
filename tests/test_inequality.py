"""Inequality checkers: ratio reports, proved ceilings, reductions."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ncstein import (
    CellAverage,
    Filtration,
    build_filtration,
    column_q_norm,
    cond_exp,
    herm,
    is_adapted,
    jensen_gap,
    ntrace,
    pinching_from_sizes,
    project_adapted,
    sample_adapted_positive,
    sample_projection_family,
    sample_psd,
    sample_unitary,
    schatten_norm,
)
from ncstein.seqnorm import linf_norm_positive
from ncstein.cli import ConfigError, parse_config
from ncstein.expectation import ADAPTED_TOL, _condition
from ncstein.inequality import (INEQUALITIES, UNITARY_CHECK_TOL, RatioReport, ceiling_violated,
                               run_inequality, _check_inputs, _norms_above)
from ncstein.opcore import as_stack
from ncstein.search import seeded_inputs
from ncstein.seqnorm import NormValue

from oracles import dyadic_average, scalar_cond_exp, scalar_lpq

INF = math.inf


def dyadic(dim):
    return build_filtration("dyadic", dim)


def psd_seq(dim, n, seed):
    return [sample_psd(dim, 1000 * seed + k) for k in range(n)]


def diag_seq(rows):
    return [np.diag(np.asarray(r, dtype=float)).astype(complex) for r in rows]


# ---------------------------------------------------------------------------
# stein_pq
# ---------------------------------------------------------------------------


def test_stein_pq_fixed_terms_ratio_one():
    filt = dyadic(4)
    base = cond_exp(sample_psd(4, 0), filt.levels[0])
    rep = run_inequality("s_pq", [base] * 3, filt, 3, 2, 1)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_stein_pp_constant_one(q):
    filt = dyadic(8)
    for seed in range(10):
        rep = run_inequality("s_qq", psd_seq(8, 4, seed), filt, q, q, 1)
        assert rep.ratio <= 1 + 1e-8
        assert not ceiling_violated(rep)


def test_stein_pq_diagonal_oracle():
    rng = np.random.default_rng(4)
    fs = rng.uniform(0.1, 2.0, size=(3, 4))
    filt = dyadic(4)
    rep = run_inequality("s_pq", diag_seq(fs), filt, 3, 2, 0)
    w = np.full(4, 0.25)
    # pinching fixes diagonal inputs, so both sides are plain column norms
    assert rep.lhs.value == pytest.approx(scalar_lpq(fs, 3, 2, w), abs=1e-10)
    assert rep.rhs.value == pytest.approx(scalar_lpq(fs, 3, 2, w), abs=1e-10)


def test_stein_pq_rejections():
    filt = dyadic(4)
    seq = psd_seq(4, 2, 0)
    with pytest.raises(ValueError, match="q <= p"):
        run_inequality("s_pq", seq, filt, 1.5, 2, 0)
    with pytest.raises(ValueError, match="proved range"):
        run_inequality("s_pq", seq, filt, 4, 3, 0)
    with pytest.raises(ValueError, match="not positive"):
        run_inequality("s_pq", [np.diag([1.0, -1.0, 0, 0])], filt, 3, 1.5, 0)
    # q = 2 admits non-positive entries
    rep = run_inequality("s_pq", [np.diag([1.0, -1.0, 0, 0])], filt, 3, 2, 0)
    assert rep.ratio is not None


def test_stein_pq_lag_consistency():
    # terms measurable one level behind are fixed by lag-1 conditioning
    filt = dyadic(8)
    seq = [cond_exp(sample_psd(8, k), filt.levels[max(k - 1, 0)]) for k in range(4)]
    rep = run_inequality("s_pq", seq, filt, 3, 2, 1)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_report_determinism():
    filt = dyadic(4)
    seq = psd_seq(4, 3, 9)
    a = run_inequality("s_pq", seq, filt, 2.5, 1.5, 1)
    b = run_inequality("s_pq", seq, filt, 2.5, 1.5, 1)
    assert (a.lhs.value, a.rhs.value, a.ratio) == (b.lhs.value, b.rhs.value, b.ratio)


def test_zero_rhs_gives_undefined_ratio():
    rep = RatioReport("s_pq", NormValue(0.0), NormValue(0.0), 2.0, 2.0, 0)
    assert rep.ratio is None
    assert not ceiling_violated(rep)


@pytest.mark.parametrize("sides, ratio, certifying, interval", (
    ((NormValue(2.0), NormValue(4.0)), 0.5, True, None),  # closed forms
    ((NormValue(2.0, "lower"), NormValue(4.0)), 0.5, False, None),
    ((NormValue(2.0), NormValue(4.0, "upper")), 0.5, False, None),
    ((NormValue(2.0, "lower"), NormValue(4.0, "upper"), NormValue(3.0, "upper"),
      NormValue(1.0, "lower")), 0.5, True, (0.5, 3.0)),
    ((NormValue(2.0, "lower"), NormValue(4.0, "upper"), NormValue(3.0, "upper"),
      NormValue(0.0, "lower")), 0.5, True, (0.5, math.inf)),  # the rhs may vanish
    ((NormValue(2.0), NormValue(4.0, "upper"), None, NormValue(1.0, "lower")),
     0.5, True, (0.5, 2.0)),  # only the rhs is a bracket
    ((NormValue(0.0, "lower"), NormValue(0.0, "upper"), NormValue(0.0, "upper"),
      NormValue(0.0, "lower")), None, True, None),
))
def test_report_derives_ratio_certifying_and_interval(sides, ratio, certifying, interval):
    rep = RatioReport("s_p_inf", *sides[:2], 2.0, math.inf, 0, *sides[2:])
    assert (rep.ratio, rep.certifying, rep.ratio_interval) == (ratio, certifying, interval)


# ---------------------------------------------------------------------------
# adapted instance at (1, 2)
# ---------------------------------------------------------------------------


def test_adapted_s12_bound():
    filt = dyadic(8)
    for seed in range(20):
        seq = sample_adapted_positive(filt, 4, seed)
        rep = run_inequality("s_12_adapted", seq, filt, 1, 2)
        assert rep.ratio <= 2 + 1e-6
    assert INEQUALITIES["s_12_adapted"].ceiling(1, 2) == ("le", 2.0, 1e-6)


def test_adapted_s12_rejects_unadapted():
    filt = dyadic(4)
    with pytest.raises(ValueError, match="not adapted"):
        run_inequality("s_12_adapted", psd_seq(4, 3, 1), filt, 1, 2)


# ---------------------------------------------------------------------------
# isometry-conjugated variant
# ---------------------------------------------------------------------------


def test_isometry_identity_reduces_to_stein_pq():
    filt = dyadic(4)
    seq = psd_seq(4, 3, 2)
    eyes = [np.eye(4, dtype=complex)] * 3
    via_isom = run_inequality("s_isometry", seq, filt, 3, 1.5, isometries=eyes)
    direct = run_inequality("s_pq", seq, filt, 3, 1.5, 0)
    assert via_isom.lhs.value == direct.lhs.value
    assert via_isom.rhs.value == direct.rhs.value
    assert via_isom.ratio == direct.ratio


def test_isometry_scalar_reduction():
    filt = dyadic(4)
    coeffs = [0.7, 1.3, 0.4]
    seq = [c * np.eye(4) for c in coeffs]
    ys = [sample_unitary(4, s) for s in range(3)]
    rep = run_inequality("s_isometry", seq, filt, 3, 1.5, isometries=ys)
    want = (sum(c**1.5 for c in coeffs)) ** (1 / 1.5)
    assert rep.lhs.value == pytest.approx(want, rel=1e-10)
    assert rep.rhs.value == pytest.approx(want, rel=1e-10)


def test_isometry_q1_matches_dual_doob():
    filt = dyadic(4)
    seq = psd_seq(4, 3, 5)
    ys = [sample_unitary(4, 50 + s) for s in range(3)]
    rep = run_inequality("s_isometry", seq, filt, 3, 1, isometries=ys)
    conj = [u.conj().T @ x @ u for u, x in zip(ys, seq)]
    dd = run_inequality("dd_p", conj, filt, 3)
    assert rep.lhs.value == pytest.approx(dd.lhs.value, rel=1e-12)
    assert rep.rhs.value == pytest.approx(dd.rhs.value, rel=1e-12)


def test_isometry_rejects_non_unitary():
    filt = dyadic(4)
    seq = psd_seq(4, 2, 1)
    bad = [np.eye(4), np.diag([1.0, 1.0, 1.0, 0.5])]
    with pytest.raises(ValueError, match="not unitary"):
        run_inequality("s_isometry", seq, filt, 3, 1.5, isometries=bad)


def test_isometry_check_names_the_first_non_unitary():
    # one stacked norm checks every isometry; the lower failing index is reported
    filt = dyadic(4)
    seq = psd_seq(4, 4, 1)
    ys = [sample_unitary(4, 7), 2 * np.eye(4), sample_unitary(4, 8), np.diag([1.0, 1.0, 1.0, 0.5])]
    with pytest.raises(ValueError, match=r"^isometry 1 is not unitary within tolerance$"):
        run_inequality("s_isometry", seq, filt, 3, 1.5, isometries=ys)


# ---------------------------------------------------------------------------
# norm-bound gates: only the terms a cheap bound cannot clear take an SVD
# ---------------------------------------------------------------------------


def svd_only_gate(kind, xs, ys, filt):
    """The error text of the adapted or the unitary gate, every operator norm taken by
    SVD; None when the inputs pass."""
    if kind == "adapted-seq":
        residual = float(np.linalg.norm(_condition(xs, filt, 0) - xs, 2, axis=(1, 2)).max())
        if residual > ADAPTED_TOL:
            return f"sequence is not adapted: residual {residual:.3e}"
        return None
    off = np.linalg.norm(ys.conj().swapaxes(1, 2) @ ys - np.eye(xs.shape[1]), 2, axis=(1, 2))
    bad = np.flatnonzero(off > UNITARY_CHECK_TOL)
    return f"isometry {bad[0]} is not unitary within tolerance" if bad.size else None


def gate_error(kind, xs, ys, filt):
    try:
        _check_inputs(kind, xs, ys, filt, 2.0)
    except ValueError as err:
        return str(err)
    return None


def _rank_one_terms(scales, seed):
    """c u v* for each c and unit u, v: operator norm c, equal to the Frobenius norm. Per
    scale a dense u v*, a single entry, and the constant (1 + i) / (8 sqrt 2), whose
    norm meets the bound sqrt(2) d max(|Re a_ij|, |Im a_ij|)."""
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    single = np.zeros((8, 8), complex)
    single[0, 5] = 1.0
    units = (np.outer(u, v.conj()) / np.linalg.norm(u) / np.linalg.norm(v), single,
             np.full((8, 8), (1 + 1j) / (8 * 2**0.5)))
    return np.array([c * m for c in scales for m in units])


@pytest.mark.parametrize("tol", [ADAPTED_TOL, UNITARY_CHECK_TOL])
def test_norm_bound_sends_rank_one_terms_at_the_tolerance_to_the_svd(tol):
    diffs = _rank_one_terms(tol * np.array([1 - 1e-12, 1 + 1e-12]), 4)
    norms = _norms_above(diffs, tol)
    assert np.array_equal(norms, np.linalg.norm(diffs, 2, axis=(1, 2)))
    assert (norms > tol).tolist() == [False] * 3 + [True] * 3
    # far below tol no term takes the SVD
    assert not _norms_above(diffs * 1e-3, tol).any()


def test_gates_decide_rank_one_terms_at_the_tolerance_as_the_svd():
    filt = dyadic(8)
    xs = as_stack(sample_adapted_positive(filt, 4, 2))
    for c in ADAPTED_TOL * np.array([1 - 1e-12, 1 + 1e-12]):
        bumped = xs.copy()
        bumped[1, 0, 5] = c  # off the 2 x 2 blocks of level 1, whose E_1 takes it off again
        expected = svd_only_gate("adapted-seq", bumped, None, filt)
        assert gate_error("adapted-seq", bumped, None, filt) == expected
        assert (expected is None) == (c < ADAPTED_TOL)
    ys = as_stack([sample_unitary(8, s) for s in range(4)])
    for t in UNITARY_CHECK_TOL * np.array([1 - 1e-12, 1 + 1e-12, 2.0]):
        for k in range(4):
            bent = ys.copy()
            bent[k, :, 0] *= np.sqrt(1 + t)
            assert gate_error("isometry-seq", xs, bent, filt) == svd_only_gate(
                "isometry-seq", xs, bent, filt)
    assert gate_error("isometry-seq", xs, bent, filt) == (
        "isometry 3 is not unitary within tolerance")


def test_gates_take_huge_entries_without_warning():
    # entries of 1e300 would overflow a Frobenius norm; the bound squares nothing
    filt = dyadic(8)
    xs = as_stack(psd_seq(8, 4, 5))
    huge = 1e300 * xs
    ys = 1e150 * as_stack([sample_unitary(8, s) for s in range(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, seq, isometries in (("adapted-seq", huge, None), ("isometry-seq", xs, ys),
                                      ("adapted-seq", _condition(huge, filt, 0), None)):
            expected = svd_only_gate(kind, seq, isometries, filt)
            assert gate_error(kind, seq, isometries, filt) == expected
        assert gate_error("adapted-seq", huge, None, filt).startswith("sequence is not adapted")
        assert gate_error("adapted-seq", _condition(huge, filt, 0), None, filt) is None
        assert gate_error("isometry-seq", xs, ys, filt) == (
            "isometry 0 is not unitary within tolerance")
        diffs = np.full((2, 8, 8), 1e300 - 1e300j)
        assert np.array_equal(_norms_above(diffs, 1e-10), np.linalg.norm(diffs, 2, axis=(1, 2)))


def test_tensor_adapted_check_takes_no_svd_of_round_off(monkeypatch):
    filt = build_filtration("tensor", 8, [2, 2, 2])
    seq, _ = seeded_inputs("crp_stein", filt, 4, 3)
    xs = as_stack(seq)
    assert (_condition(xs, filt, 0) - xs).any()  # E_n(x_n) - x_n is round-off, not 0
    norm = np.linalg.norm
    calls = []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    assert gate_error("adapted-seq", xs, None, filt) is None and not calls


OVERFLOWING = np.full((8, 8), 1.7e308 - 1.7e308j)  # products and differences overflow


@pytest.mark.parametrize("inequality_id, p, q, seq, isometries, message", (
    ("s_12_adapted", 1, 2, [OVERFLOWING] * 2, None, "sequence is not adapted"),
    ("s_isometry", 3, 2, [np.eye(8)] * 2, [OVERFLOWING] * 2,
     "isometry 0 is not unitary within tolerance"),
    ("projections", 3, 1.5, [OVERFLOWING] * 2, None,
     "item 0 is not a projection within tolerance"),
    ("projections", 3, 1.5, [1e200 * np.eye(8), np.eye(8)], None,
     "item 0 is not a projection within tolerance"),
), ids=("adapted", "isometry", "projections", "projections-1e200"))
def test_gates_refuse_overflowing_residuals(inequality_id, p, q, seq, isometries, message):
    # a residual that overflows to inf or nan, or whose SVD norm reads nan, is refused
    # in the gate's own words, never passed on to the kernel's LinAlgError
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=f"^{message}") as err:
            run_inequality(inequality_id, seq, dyadic(8), p, q, isometries=isometries)
    assert not isinstance(err.value, np.linalg.LinAlgError)


def test_is_adapted_refuses_an_overflowing_residual():
    with np.errstate(over="ignore", invalid="ignore"):
        assert not is_adapted([OVERFLOWING] * 2, dyadic(8)).adapted


# ---------------------------------------------------------------------------
# dual Doob
# ---------------------------------------------------------------------------


def test_dual_doob_trace_equality_at_p1():
    # every E is trace preserving, so the equality holds at either lag
    filt = dyadic(8)
    for seed in range(10):
        for lag in (0, 1):
            rep = run_inequality("dd_p", psd_seq(8, 4, seed), filt, 1, lag=lag)
            assert rep.lag == lag
            assert abs(rep.lhs.value - rep.rhs.value) <= 1e-10
            assert not ceiling_violated(rep)


def test_dual_doob_fixed_terms():
    filt = dyadic(4)
    seq = [cond_exp(sample_psd(4, k), filt.levels[k]) for k in range(3)]
    rep = run_inequality("dd_p", seq, filt, 2)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_dual_doob_deterministic():
    filt = dyadic(8)
    seq = psd_seq(8, 4, 3)
    r1 = run_inequality("dd_p", seq, filt, 2)
    r2 = run_inequality("dd_p", seq, filt, 2)
    assert r1.ratio == r2.ratio
    assert np.isfinite(r1.ratio)


# ---------------------------------------------------------------------------
# Doob maximal and ell_inf contraction
# ---------------------------------------------------------------------------


def test_doob_maximal_constant_martingale():
    filt = dyadic(4)
    x = cond_exp(sample_psd(4, 2), filt.levels[0])
    rep = run_inequality("doob_maximal", [x], filt, 2)
    assert rep.ratio == pytest.approx(1.0, abs=1e-6)
    assert rep.ratio_interval[1] >= rep.ratio_interval[0]


def test_doob_maximal_identity():
    filt = dyadic(4)
    rep = run_inequality("doob_maximal", [np.eye(4)], filt, 3)
    assert rep.ratio == pytest.approx(1.0, abs=1e-6)


def test_doob_maximal_diagonal_oracle():
    rng = np.random.default_rng(8)
    f = rng.uniform(0.2, 2.0, size=4)
    filt = dyadic(4)
    rep = run_inequality("doob_maximal", [np.diag(f).astype(complex)], filt, 2)
    # pinching fixes a diagonal operator, so the chain is constant
    want = scalar_lpq(np.tile(f, (len(filt), 1)), 2, INF, np.full(4, 0.25))
    assert rep.lhs.value == pytest.approx(want, abs=1e-6)
    assert rep.lhs_upper.value == pytest.approx(want, abs=1e-6)
    assert rep.certifying


@pytest.mark.parametrize("dim", (4, 8))
def test_doob_maximal_at_p_inf_stays_at_most_one(dim):
    # every E_n contracts L_inf, so the true ratio is at most 1; the lower end takes
    # the pairing's rounding bound off, so round-off cannot lift the ratio above 1
    filt = dyadic(dim)
    for seed in range(30):
        seq, _ = seeded_inputs("doob_maximal", filt, 1, seed)
        for lag in (0, 1):
            assert run_inequality("doob_maximal", seq, filt, INF, lag=lag).ratio <= 1


def test_doob_maximal_rejects_p1():
    with pytest.raises(ValueError, match="p = 1"):
        run_inequality("doob_maximal", [np.eye(4)], dyadic(4), 1)


def test_sp_inf_constant_level0():
    filt = dyadic(4)
    x = cond_exp(sample_psd(4, 1), filt.levels[0])
    rep = run_inequality("s_p_inf", [x] * 3, filt, 2)
    lo, hi = rep.ratio_interval
    assert lo <= 1 <= hi
    assert rep.certifying


def test_sp_inf_reduces_to_doob_on_constant_sequence():
    filt = dyadic(4)
    x = sample_psd(4, 6)
    rep = run_inequality("s_p_inf", [x] * len(filt), filt, 2)
    doob = run_inequality("doob_maximal", [x], filt, 2)
    assert rep.lhs.value == pytest.approx(doob.lhs.value, rel=1e-6)
    assert rep.lhs_upper.value == pytest.approx(doob.lhs_upper.value, rel=1e-6)


def test_sp_inf_diagonal_oracle():
    rng = np.random.default_rng(12)
    fs = rng.uniform(0.1, 2.0, size=(3, 4))
    filt = dyadic(4)
    rep = run_inequality("s_p_inf", diag_seq(fs), filt, 2)
    want = scalar_lpq(fs, 2, INF, np.full(4, 0.25))
    assert rep.rhs.value == pytest.approx(want, abs=1e-6)
    assert rep.rhs_lower.value == pytest.approx(want, abs=1e-6)
    lo, hi = rep.ratio_interval
    assert lo <= 1.0 + 1e-6 and hi >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# CR_p
# ---------------------------------------------------------------------------


def test_crp_stein_p2_matches_column_ratio():
    filt = dyadic(8)
    raw = [herm(sample_psd(8, 30 + k)) for k in range(3)]
    seq = project_adapted(raw, filt, 0)
    rep = run_inequality("crp_stein", seq, filt, 2)
    stein = run_inequality("s_pq", seq, filt, 2, 2, 1)
    assert rep.ratio == pytest.approx(stein.ratio, rel=1e-10)
    assert rep.certifying


def test_crp_stein_fixed_terms():
    filt = dyadic(8)
    seq = [cond_exp(sample_psd(8, k), filt.levels[max(k - 1, 0)]) for k in range(3)]
    rep = run_inequality("crp_stein", seq, filt, 3)
    assert rep.ratio == pytest.approx(1.0, abs=1e-10)


def test_crp_stein_small_p_observational():
    filt = dyadic(2)
    seq = project_adapted(psd_seq(2, 2, 7), filt, 0)
    rep = run_inequality("crp_stein", seq, filt, 1.5)
    assert np.isfinite(rep.ratio)
    assert rep.lhs.bound == "upper" and rep.rhs.bound == "upper"
    assert not rep.certifying


def test_crp_stein_rejects_unadapted():
    filt = dyadic(4)
    with pytest.raises(ValueError, match="not adapted"):
        run_inequality("crp_stein", psd_seq(4, 2, 3), filt, 2)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_projections_identity():
    filt = dyadic(4)
    rep = run_inequality("projections", [np.eye(4)], filt, 3, 1)
    assert rep.ratio == pytest.approx(1.0, abs=1e-10)
    assert rep.rhs.value == 1.0


def test_projections_rank_one_diagonal():
    filt = build_filtration("tensor", local_dims=(2, 2))
    projs = [np.diag([1.0 if i == k else 0.0 for i in range(4)]) for k in range(3)]
    rep = run_inequality("projections", projs, filt, 3, 1)
    # scalar data: E_0 r = 1/4, E_1 r = (diagonal block average), E_2 r = r
    terms = [cond_exp(r, filt.levels[n]) for n, r in enumerate(projs)]
    want = schatten_norm(sum(terms), 3)
    assert rep.lhs.value == pytest.approx(want, rel=1e-10)


def test_projections_match_stein_formula():
    filt = dyadic(4)
    projs = sample_projection_family(4, 3, seed=4)
    rep = run_inequality("projections", projs, filt, 3, 2)
    stein = run_inequality("s_pq", projs, filt, 3, 2, 0)
    assert rep.lhs.value == stein.lhs.value


def test_projections_reject_overlapping():
    filt = dyadic(4)
    p1 = np.diag([1.0, 0, 0, 0])
    with pytest.raises(ValueError, match="orthogonal"):
        run_inequality("projections", [p1, p1], filt, 3, 1)


def _refusal(family) -> str:
    with pytest.raises(ValueError) as refused:
        run_inequality("projections", family, dyadic(4), 3, 1)
    return str(refused.value)


def test_projections_report_the_first_refusal():
    # the scan stops at the first item n that is not a projection or overlaps an
    # earlier one; each family below also has a later fault that goes unreported
    r0, r1, r2 = sample_projection_family(4, 3, 1)
    assert _refusal([r0, 2 * r1, r1]) == "item 1 is not a projection within tolerance"
    assert _refusal([r0, r1, r1, 2 * r2]) == "projections 1 and 2 are not orthogonal"
    skew = r1 + r1 @ np.ones((4, 4)) @ (np.eye(4) - r1)  # idempotent, not Hermitian
    assert np.abs(skew @ skew - skew).max() < 1e-12 < np.abs(skew - skew.conj().T).max()
    assert _refusal([r0, skew, r1]) == "item 1 is not a projection within tolerance"


# ---------------------------------------------------------------------------
# Jensen gap
# ---------------------------------------------------------------------------


def test_jensen_gap_inside_subalgebra():
    spec = pinching_from_sizes([2, 2])
    x = cond_exp(sample_psd(4, 4), spec)
    gap, mn = jensen_gap(x, spec, 1.7)
    assert np.linalg.norm(gap) <= 1e-8
    assert mn >= -1e-10


def test_jensen_gap_linear_case():
    spec = pinching_from_sizes([1, 1, 2])
    _, mn = jensen_gap(sample_psd(4, 5), spec, 1)
    assert abs(mn) <= 1e-12


@pytest.mark.parametrize("q", [1.25, 1.5, 2.0])
def test_jensen_gap_convex_range(q):
    spec = pinching_from_sizes([2, 2])
    for seed in range(25):
        _, mn = jensen_gap(sample_psd(4, seed), spec, q)
        assert mn >= -1e-8


def test_jensen_gap_violation_beyond_convex_range():
    # t^3 is not operator convex; pinching onto 2x2 blocks detects it
    spec = pinching_from_sizes([2, 2])
    for seed in range(1000):
        _, mn = jensen_gap(sample_psd(4, seed), spec, 3)
        if mn < -1e-6:
            return
    pytest.fail("no convexity violation found for q = 3 at block size 2")


# ---------------------------------------------------------------------------
# semi-commutative processes
# ---------------------------------------------------------------------------


def classical(weights, depth, dim=2):
    return build_filtration("classical", dim, probabilities=tuple(map(Fraction, weights)),
                            depth=depth)


def block_process(process, filt):
    """The stack on filt's slots of process[w], the sequence at atom w: each of the
    atom's slots holds a copy of its d x d terms on the diagonal."""
    d = filt.levels[0].block_dim
    stack = np.zeros((len(process[0]), filt.dim, filt.dim), dtype=complex)
    for seq, cell in zip(process, filt.levels[-1].cells):
        for s in cell:
            stack[:, s * d:(s + 1) * d, s * d:(s + 1) * d] = seq
    return stack


def test_semicommutative_single_atom():
    filt = classical([1], 2)  # the only partition, repeated to cover both terms
    process = [psd_seq(2, 2, 6)]
    rep = run_inequality("semicommutative", block_process(process, filt), filt, 3, 2)
    # one atom, trivial classical information: conditioning is the identity
    direct = column_q_norm(process[0], 3, 2).value
    assert rep.lhs.value == pytest.approx(direct, rel=1e-10)
    assert rep.rhs.value == pytest.approx(direct, rel=1e-10)


def test_semicommutative_scalar_oracle():
    # scalar process on two uniform atoms, trivial-then-full filtration
    rng = np.random.default_rng(13)
    fs = rng.uniform(0.1, 2.0, size=(2, 2))  # (n, atom)
    filt = classical([Fraction(1, 2)] * 2, 2, dim=1)
    process = [[np.array([[fs[n, w]]], dtype=complex) for n in range(2)] for w in range(2)]
    rep = run_inequality("semicommutative", block_process(process, filt), filt, 3, 2)
    w = np.full(2, 0.5)
    conditioned = np.stack([
        scalar_cond_exp(fs[0], [(0, 1)], w),
        scalar_cond_exp(fs[1], [(0,), (1,)], w),
    ])
    assert rep.lhs.value == pytest.approx(scalar_lpq(conditioned, 3, 2, w), abs=1e-10)
    assert rep.rhs.value == pytest.approx(scalar_lpq(fs, 3, 2, w), abs=1e-10)


def test_semicommutative_weighted_identity():
    filt = classical([Fraction(1, 3), Fraction(2, 3)], 2)
    eye = np.eye(2, dtype=complex)
    rep = run_inequality("semicommutative", block_process([[eye, eye]] * 2, filt), filt, 3, 2)
    # the identity on the slots has unit normalized trace, so both sides are
    # ||sqrt(2) * 1||_3 = sqrt(2)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs.value == pytest.approx(2 ** 0.5, abs=1e-10)


def test_semicommutative_rejects_non_psd_terms_unless_q_is_two():
    filt, process = _classical_instance()
    process[1][1] = -process[1][1]  # term 1 at atom 1 is negative definite
    seq = block_process(process, filt)
    with pytest.raises(ValueError, match="sequence item 1 is not positive semidefinite"):
        run_inequality("semicommutative", seq, filt, 2, 1.5)
    assert run_inequality("semicommutative", seq, filt, 2, 2).ratio is not None


@pytest.mark.parametrize("q", (1.5, 2))
def test_semicommutative_rejects_terms_that_are_no_block_function(q):
    # the gate replaces the guarantee of a block embedding: every term must be fixed by
    # the top level's conditional expectation, whatever q the PSD check skips
    filt = classical([Fraction(1, 3), Fraction(2, 3)], 2)
    ok = block_process([psd_seq(2, 2, 5), psd_seq(2, 2, 6)], filt)
    assert run_inequality("semicommutative", ok, filt, 3, q).ratio is not None
    for where in ((1, 0, 5), (0, 2, 2)):  # off the block diagonal; unequal slots of atom 1
        bad = ok.copy()
        bad[where] += 1e-6
        bad = herm(bad)
        with pytest.raises(ValueError, match=r"sequence is not in the top filtration level: "
                                             r"residual \d"):
            run_inequality("semicommutative", bad, filt, 3, q)
    # a full-rank PSD term is no block function either, and s_pq takes it on the same chain
    full = np.stack([sample_psd(filt.dim, 9)] * 2)
    with pytest.raises(ValueError, match="not in the top filtration level"):
        run_inequality("semicommutative", full, filt, 3, q)
    assert run_inequality("s_pq", full, filt, 3, q).ratio is not None
    with pytest.raises(ValueError, match="operator dimension 4 does not match 6"):
        run_inequality("semicommutative", psd_seq(4, 2, 5), filt, 3, q)


def test_classical_dyadic_chain_with_real_averaging():
    """Checkers against the scalar oracle on a filtration whose conditional
    expectations genuinely average (not the identity on diagonals)."""
    rng = np.random.default_rng(77)
    atoms = 4
    w = np.full(atoms, 1 / atoms)
    chains = [((0, 1, 2, 3),), ((0, 1), (2, 3)), ((0,), (1,), (2,), (3,))]
    filt = Filtration(tuple(CellAverage(cells, 1) for cells in chains))
    fs = rng.uniform(0.1, 2.0, size=(3, atoms))
    seq = [np.diag(f).astype(complex) for f in fs]

    f = fs[0]
    # term n conditions on level max(n - lag, 0) in every check, the doob chain's
    # copy n of f included
    for lag in (0, 1):
        level = [chains[max(n - lag, 0)] for n in range(3)]
        conditioned = np.stack([scalar_cond_exp(fs[n], level[n], w) for n in range(3)])

        stein = run_inequality("s_pq", seq, filt, 3, 2, lag)
        assert stein.lhs.value == pytest.approx(scalar_lpq(conditioned, 3, 2, w), abs=1e-10)
        assert stein.rhs.value == pytest.approx(scalar_lpq(fs, 3, 2, w), abs=1e-10)

        dd = run_inequality("dd_p", seq, filt, 2, lag=lag)
        assert dd.lhs.value == pytest.approx(
            float(np.sqrt(w @ conditioned.sum(axis=0) ** 2)), abs=1e-10), lag
        assert dd.rhs.value == pytest.approx(
            float(np.sqrt(w @ fs.sum(axis=0) ** 2)), abs=1e-10)

        chain_values = np.stack([scalar_cond_exp(f, cells, w) for cells in level])
        doob = run_inequality("doob_maximal", [np.diag(f).astype(complex)], filt, 2, lag=lag)
        doob_want = scalar_lpq(chain_values, 2, INF, w)
        assert doob.lhs.value == pytest.approx(doob_want, abs=1e-6), lag
        assert doob.lhs_upper.value == pytest.approx(doob_want, abs=1e-6), lag


# (id, whether the inputs are adapted, p, q, the classical q) of each closed form
CLASSICAL_CLOSED_FORMS = (("s_pq", False, 3, 1.5, 1.5), ("s_pq", False, 2.5, 2, 2),
                          ("s_qq", False, 1.5, 1.5, 1.5), ("dd_p", False, 2, None, 1),
                          ("dd_p", False, 3, None, 1), ("s_12_adapted", True, 1, 2, 2),
                          ("crp_stein", True, 2, None, 2), ("crp_stein", True, 3, None, 2))


def test_diagonal_inputs_give_the_classical_values():
    """On the tensor chain of (2, 2, 2) diagonal inputs are a classical dyadic
    martingale: every closed form is its classical square-function norm to 1e-12
    relative (CR_p's column and row sides agree for commuting self-adjoint terms),
    and every ell_inf bracket holds the classical ||max_n x_n||_p."""
    filt = build_filtration("tensor", local_dims=(2, 2, 2))
    rng, w = np.random.default_rng(5), np.full(filt.dim, 1 / filt.dim)

    def conditioned(fs, lag):  # term n on level max(n - lag, 0)
        return np.stack([dyadic_average(f, max(n - lag, 0)) for n, f in enumerate(fs)])

    def holds(lower, upper, value):
        assert lower.value <= value * (1 + 1e-12) and upper.value >= value * (1 - 1e-12)

    for _ in range(4):
        fs = rng.exponential(size=(len(filt), filt.dim))
        seqs = {False: fs, True: conditioned(fs, 0)}  # True: term n inside level n
        for lag in (0, 1):
            for inequality_id, adapted, p, q, classical_q in CLASSICAL_CLOSED_FORMS:
                seq = seqs[adapted]
                rep = run_inequality(inequality_id, diag_seq(seq), filt, p, q, lag)
                assert rep.lhs.value == pytest.approx(
                    scalar_lpq(conditioned(seq, lag), p, classical_q, w), rel=1e-12)
                assert rep.rhs.value == pytest.approx(
                    scalar_lpq(seq, p, classical_q, w), rel=1e-12)
        for p in (1.5, 2, 3, INF):
            holds(*linf_norm_positive(diag_seq(fs), p), scalar_lpq(fs, p, INF, w))
            for lag in (0, 1):
                doob = run_inequality("doob_maximal", diag_seq(fs[:1]), filt, p, lag=lag)
                assert doob.rhs.value == pytest.approx(scalar_lpq(fs[:1], p, 1, w), rel=1e-12)
                holds(doob.lhs, doob.lhs_upper,
                      scalar_lpq(conditioned(fs[[0] * len(filt)], lag), p, INF, w))
                sp = run_inequality("s_p_inf", diag_seq(fs), filt, p, lag=lag)
                holds(sp.lhs, sp.lhs_upper, scalar_lpq(conditioned(fs, lag), p, INF, w))
                holds(sp.rhs_lower, sp.rhs, scalar_lpq(fs, p, INF, w))


def test_run_inequality_dispatch_and_validation():
    filt = dyadic(4)
    rep = run_inequality("dd_p", psd_seq(4, 2, 2), filt, 2, None, 0)
    assert rep.inequality_id == "dd_p"
    with pytest.raises(ValueError, match="s_qq needs p = q"):
        run_inequality("s_qq", psd_seq(4, 2, 2), filt, 2, 3, 1)
    with pytest.raises(ValueError, match="unknown inequality"):
        run_inequality("nope", [], filt, 2, 2, 0)
    # doob_maximal's sequence holds its one operator
    x, y = psd_seq(4, 2, 3)
    one = run_inequality("doob_maximal", [x], filt, 2, None, 0)
    assert one.ratio_interval == run_inequality("doob_maximal", [x], filt, 2).ratio_interval
    with pytest.raises(ValueError, match="must hold one operator, got 2"):
        run_inequality("doob_maximal", [x, y], filt, 2, None, 0)


# ---------------------------------------------------------------------------
# registry: one exponent domain per id
# ---------------------------------------------------------------------------

GRID = (1.0, 1.5, 2.0, 3.0, INF)


def _classical_instance():
    return classical([Fraction(1, 2)] * 2, 2), [psd_seq(2, 2, 5), psd_seq(2, 2, 6)]


def _report(call, inequality_id):
    """call()'s report, or None when it refuses with the registry's domain message."""
    try:
        return call()
    except ValueError as exc:
        assert str(exc).startswith(f"{inequality_id} needs "), exc
        return None


def test_one_exponent_domain_per_inequality():
    for inequality_id, ineq in INEQUALITIES.items():
        filt = classical([Fraction(1, 2)] * 2, 2) if inequality_id == "semicommutative" else (
            dyadic(2))
        seq, isometries = seeded_inputs(inequality_id, filt, 2, 3)
        points = [(p, q) for p in GRID for q in (GRID if ineq.uses_q else (None,))]
        accepted = set()
        for p, q in points:
            config = {"command": "check", "inequality": inequality_id, "dim": 2, "seq_len": 2,
                      "p": "inf" if p == INF else p}
            if ineq.uses_q:
                config["q"] = "inf" if q == INF else q
            try:
                cfg = parse_config(json.dumps(config))
            except ConfigError as exc:
                assert str(exc).startswith(f"{inequality_id} needs "), exc
                cfg = None
            # lag omitted: the registry's default_lag, the one the CLI fills in
            report = _report(lambda: run_inequality(
                inequality_id, seq, filt, p, q, isometries=isometries), inequality_id)
            assert (report is None) == (cfg is None), (inequality_id, p, q)
            if cfg is not None:
                assert report.lag == cfg.lag == ineq.default_lag, (inequality_id, p, q)
                accepted.add((p, q))
        assert accepted and len(accepted) < len(points), inequality_id


def test_hard_ceiling_pinned_for_every_id():
    le_one = ("le", 1.0, 1e-8)
    for inequality_id in INEQUALITIES:
        for p in GRID:
            for q in GRID:
                want = {
                    "s_qq": le_one,
                    "s_pq": le_one if p == q else None,
                    "s_12_adapted": ("le", 2.0, 1e-6),
                    "dd_p": ("eq", 1.0, 1e-10) if p == 1 else None,
                }.get(inequality_id)
                assert INEQUALITIES[inequality_id].ceiling(p, q) == want, (inequality_id, p, q)
    assert len(INEQUALITIES) == 10
