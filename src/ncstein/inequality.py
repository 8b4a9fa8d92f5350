"""Inequality ratio reports.

Every check is one call, run_inequality(id, seq, filt, p, q=None, lag=None,
isometries=None): it evaluates both sides of one martingale-type inequality
on the operator sequence (x_n) and the filtration its conditional
expectations come from, and reports lhs, rhs and their ratio. q and lag
default to the id's registry record. doob_maximal's sequence holds its one
operator; a process over a classical base arrives as a sequence of block
functions on the atoms, on the chain build_filtration("classical", ...) builds,
and s_isometry's sequence is conjugated by its unitaries before the kernel.

Closed-form sides are exact; ell_inf-based sides are brackets, and a
violation of a bound is only certified when the lhs lower end beats the rhs
upper end, so optimizer slack can never manufacture counterexamples.

Every fact about an inequality id (default lag, input kind, exponent domain,
proved ceiling, kernel) lives in its one Inequality record in INEQUALITIES.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .expectation import (
    ADAPTED_TOL,
    Filtration,
    as_lag,
    cond_exp,
    _cond_exp_stack,
    _condition,
)
from .opcore import (
    INF,
    as_exponent,
    as_operator,
    as_stack,
    herm,
    psd_power,
    _norms_above,
    _p_mean,
)
from .seqnorm import (
    NormValue,
    _column_norms,
    _crp_columns,
    _crp_split,
    _linf_bracket,
    _require_positive,
)

PROJECTION_TOL = 1e-8
UNITARY_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class RatioReport:
    """Both sides of one inequality instance; the ratio and its enclosure derive from them.

    ratio is lhs.value / rhs.value, or None when rhs vanishes (faithfulness
    then forces lhs to vanish too, so the quotient carries no information).
    When a side is a bracket, lhs_upper / rhs_lower carry the other ends and
    ratio_interval encloses the true ratio. certifying marks reports whose
    bound directions admit a meaningful upper estimate of the true ratio.
    """

    inequality_id: str
    lhs: NormValue
    rhs: NormValue
    p: float
    q: float | None
    lag: int
    lhs_upper: NormValue | None = None
    rhs_lower: NormValue | None = None

    @property
    def ratio(self) -> float | None:
        return self.lhs.value / self.rhs.value if self.rhs.value > 0 else None

    @property
    def certifying(self) -> bool:
        return ((self.lhs.bound != "lower" or self.lhs_upper is not None)
                and (self.rhs.bound != "upper" or self.rhs_lower is not None))

    @property
    def ratio_interval(self) -> tuple[float, float] | None:
        if self.ratio is None or (self.lhs_upper is None and self.rhs_lower is None):
            return None
        low = (self.rhs_lower or self.rhs).value
        return self.ratio, (self.lhs_upper or self.lhs).value / low if low > 0 else INF


# Every kernel scores a batch: xs[k, n, d, d] holds k sequences, and each side it
# returns has one entry per sequence, a float array for a closed form and a NormValue
# array for a bracket, from one call of its norm core on the stacked sides. In every
# kernel E(x_n) is E_{max(n - lag, 0)}(x_n), the level the lag pairs with term n, so
# each id conditions at the lag its report prints.


def _stein_kernel(xs, filt, p, q, lag):
    # ||(sum |E(x_n)|^q)^(1/q)||_p against ||(sum |x_n|^q)^(1/q)||_p
    return tuple(_column_norms(np.array([_condition(xs, filt, lag), xs]), p, q, filt.block_dim))


def _doob_kernel(xs, filt, p, q, lag):
    # the ell_inf bracket of the chain (E(x))_n, one copy of x per level: E_0(x), ...,
    # E_N(x) at lag 0 and E_0(x), E_0(x), ..., E_{N-1}(x) at lag 1; against the exact ||x||_p
    lower, upper = _linf_bracket(_condition(np.repeat(xs, len(filt), axis=1), filt, lag), p)
    return lower, _p_mean(np.linalg.svd(xs[:, 0], compute_uv=False), p, top=0), upper


def _sp_inf_kernel(xs, filt, p, q, lag):
    # the ell_inf brackets of (E(x_n)) and (x_n); the ratio pairs the certified ends
    # (lhs lower over rhs upper) and ratio_interval holds the full enclosure
    lower, upper = _linf_bracket(np.array([_condition(xs, filt, lag), xs]), p)
    return lower[0], upper[1], upper[0], lower[1]


def _crp_kernel(xs, filt, p, q, lag):
    # CR_p norms of (E(x_n)) and (x_n); below p = 2 both are splitting upper bounds,
    # so the report is non-certifying
    sides = np.array([_condition(xs, filt, lag), xs])
    return tuple(_crp_columns(sides, p, filt.block_dim) if p >= 2 else _crp_split(sides, p))


def _projections_kernel(xs, filt, p, q, lag):
    # the lhs of s_pq; r^q = r for projections and the family sums to at most 1, so
    # the rhs is at most ||1||_p = 1 and is pinned to 1: the ratio is the lhs
    lhs = _column_norms(_condition(xs, filt, lag), p, q, filt.block_dim)
    return lhs, np.ones_like(lhs)


def _first(sides) -> list[NormValue]:
    """The first sequence's entry of each kernel side, as a NormValue (a float entry
    is an exact side)."""
    return [side[0] if isinstance(side[0], NormValue) else NormValue(side[0]) for side in sides]


def jensen_gap(x, spec, q) -> tuple[np.ndarray, float]:
    """Operator-convexity gap E(x^q) - E(x)^q for PSD x.

    Returns the Hermitian gap and its minimum eigenvalue; the gap is PSD for
    q in [1, 2] and can fail to be for q > 2, which the harness uses as a
    non-vacuity probe.
    """
    q = float(q)
    if q <= 0:
        raise ValueError("q must be positive")

    def power(a):
        return herm(a) if q == 1 else psd_power(herm(a), q)

    a = as_operator(x)
    xq = power(a)
    ex = cond_exp(a if q != 1 else herm(a), spec)
    gap = herm(cond_exp(xq, spec) - power(ex))
    return gap, float(np.linalg.eigvalsh(gap)[0])


# ---------------------------------------------------------------------------
# Inequality registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inequality:
    """Every fact about one inequality id.

    `needs` states the exponent domain in words and is the error message when
    `domain(p, q)` is false (q is None unless `uses_q`). `ceiling(p, q)` is the
    proved-constant assertion (kind, limit, tolerance) or None: 'le' asserts
    ratio <= limit + tolerance, 'eq' |ratio - limit| <= tolerance.
    `kernel(xs, filt, p, q, lag)` scores the k sequences of a trusted
    xs[k, n, d, d] (for s_isometry, already conjugated by _conjugate) and
    validates nothing; it returns the
    sides (lhs, rhs[, lhs_upper, rhs_lower]), each with one entry per
    sequence. A report shows `report_q` as q when the id takes none.
    """

    id: str
    input_kind: str
    domain: Callable[[float, float | None], bool]
    needs: str
    kernel: Callable[..., tuple]
    default_lag: int = 0
    uses_q: bool = False
    report_q: float | None = None
    searchable: bool = True
    ceiling: Callable[[float, float | None], tuple[str, float, float] | None] = (
        lambda p, q: None)

    def validate(self, p, q=None) -> tuple[float, float | None]:
        """The exponents as floats; ValueError if one is missing, invalid or outside the domain."""
        if p is None or self.uses_q and q is None:
            raise ValueError(f"{self.id} requires an exponent {'p' if p is None else 'q'}")
        p, q = as_exponent(p), as_exponent(q, "q") if self.uses_q else None
        if not self.domain(p, q):
            got = f"p={p:g}" if q is None else f"p={p:g}, q={q:g}"
            raise ValueError(f"{self.id} needs {self.needs}, got {got}")
        return p, q


def _stein_domain(p, q):
    return q <= p < INF and (q <= 2 or p == q)


_STEIN_NEEDS = "1 <= q <= p < inf with q <= 2 unless p = q (the proved range)"
_P_ABOVE_ONE = "p > 1 (p = 1 is rejected: the dual exponent degenerates)"
_LE_ONE = ("le", 1.0, 1e-8)
_S_PQ = Inequality("s_pq", "positive-seq", _stein_domain, _STEIN_NEEDS, _stein_kernel,
                   uses_q=True, ceiling=lambda p, q: _LE_ONE if p == q else None)

INEQUALITIES: dict[str, Inequality] = {ineq.id: ineq for ineq in (
    _S_PQ,
    Inequality("s_qq", "positive-seq", lambda p, q: p == q < INF, "p = q finite", _stein_kernel,
               default_lag=1, uses_q=True, ceiling=lambda p, q: _LE_ONE),
    # adapted sequences (term n inside level n) at (p, q) = (1, 2), one step behind
    Inequality("s_12_adapted", "adapted-seq", lambda p, q: (p, q) == (1, 2),
               "the fixed instance p = 1, q = 2", _stein_kernel, default_lag=1, uses_q=True,
               ceiling=lambda p, q: ("le", 2.0, 1e-6)),
    # s_pq on (herm(y_n* x_n y_n)), since y* x^q y = (y* x y)^q for a unitary y
    replace(_S_PQ, id="s_isometry", input_kind="isometry-seq"),
    # s_pq at q = 1: ||sum E(x_n)||_p against ||sum x_n||_p; at p = 1 both sides are
    # tau(sum x_n), since every E is trace preserving, so the ratio is 1 at either lag
    Inequality("dd_p", "positive-seq", lambda p, q: p < INF, "finite p",
               lambda xs, filt, p, q, lag: _stein_kernel(xs, filt, p, 1.0, lag),
               ceiling=lambda p, q: ("eq", 1.0, 1e-10) if p == 1 else None),
    Inequality("doob_maximal", "operator", lambda p, q: p > 1, _P_ABOVE_ONE, _doob_kernel),
    Inequality("s_p_inf", "positive-seq", lambda p, q: p > 1, _P_ABOVE_ONE, _sp_inf_kernel,
               report_q=INF),
    # adapted sequences, one step behind
    Inequality("crp_stein", "adapted-seq", lambda p, q: 1 < p < INF, "1 < p < inf",
               _crp_kernel, default_lag=1, report_q=2.0),
    Inequality("projections", "projections", lambda p, q: q <= 2 < p < INF,
               "1 <= q <= 2 < p < inf", _projections_kernel, uses_q=True, searchable=False),
    # s_pq for a positive process over a classical base: block functions on the atoms
    replace(_S_PQ, id="semicommutative", input_kind="process", searchable=False),
)}


def get_inequality(inequality_id: str) -> Inequality:
    """The registry record of an id; ValueError for an unknown one."""
    try:
        return INEQUALITIES[inequality_id]
    except (KeyError, TypeError):
        raise ValueError(f"unknown inequality {inequality_id!r}") from None


def _check_inputs(kind: str, xs: np.ndarray, ys: np.ndarray | None, filt: Filtration,
                  q: float | None) -> None:
    """The one check of an input kind on the stacks of a checker's sequence (xs)
    and isometries (ys), after the one size check of both; ValueError when it fails."""
    for stack in (xs,) if ys is None else (xs, ys):
        if stack.shape[-1] != filt.dim:
            raise ValueError(f"operator dimension {stack.shape[-1]} does not match {filt.dim}")
    if kind == "adapted-seq" and not (residual := _norms_above(
            _condition(xs, filt, 0) - xs, ADAPTED_TOL).max()) <= ADAPTED_TOL:
        raise ValueError(f"sequence is not adapted: residual {residual:.3e}")
    elif kind == "process" and not (residual := _norms_above(
            _cond_exp_stack(xs, filt.levels[-1]) - xs, ADAPTED_TOL).max()) <= ADAPTED_TOL:
        raise ValueError(f"sequence is not in the top filtration level: residual {residual:.3e}")
    elif kind == "isometry-seq":
        if ys is None or len(ys) != len(xs):
            raise ValueError("sequence and isometries must have equal length")
        _require_positive(xs)
        off = _norms_above(ys.conj().swapaxes(1, 2) @ ys - np.eye(xs.shape[1]), UNITARY_CHECK_TOL)
        if (bad := np.flatnonzero(~(off <= UNITARY_CHECK_TOL))).size:
            raise ValueError(f"isometry {bad[0]} is not unitary within tolerance")
    elif kind == "projections":  # term by term: r_n^2 - r_n, r_n - r_n*, r_m r_n for m < n
        for n, r in enumerate(xs):
            norms = _norms_above(np.concatenate([[r @ r - r, r - r.conj().T], xs[:n] @ r]),
                                 PROJECTION_TOL)
            if (bad := np.flatnonzero(~(norms <= PROJECTION_TOL))).size:
                raise ValueError(f"item {n} is not a projection within tolerance" if bad[0] < 2
                                 else f"projections {bad[0] - 2} and {n} are not orthogonal")
    elif kind == "operator":
        if len(xs) != 1:
            raise ValueError(f"the sequence must hold one operator, got {len(xs)}")
        _require_positive(xs)
    elif kind in ("positive-seq", "process") and q != 2:
        _require_positive(xs)


def _conjugate(xs: np.ndarray, ys: np.ndarray | None) -> np.ndarray:
    """herm(y_n* x_n y_n) for every term of trusted stacks xs[..., n, d, d], or xs when
    there are no isometries ys: the sequence a kernel scores."""
    return xs if ys is None else herm(ys.conj().swapaxes(-1, -2) @ xs @ ys)


def run_inequality(inequality_id: str, seq: Sequence, filt: Filtration, p, q=None,
                   lag: int | None = None, isometries: Sequence | None = None) -> RatioReport:
    """The one validating path of every check, the CLI and the search's replay.

    seq is the operator sequence (one operator for doob_maximal), filt the
    filtration it lives on and isometries the unitaries s_isometry pairs with
    it, which every other id refuses; lag None is the id's default_lag. Checks
    the exponents against the id's domain, then the inputs as finite
    equal-size (n, d, d) stacks by the id's input kind, then runs the id's
    trusted kernel.
    """
    ineq = get_inequality(inequality_id)
    p, q = ineq.validate(p, q)
    lag = ineq.default_lag if lag is None else as_lag(lag)
    xs = as_stack(seq)
    if isometries is not None and ineq.input_kind != "isometry-seq":
        raise ValueError(f"{ineq.id} takes no isometries")
    ys = None if isometries is None else as_stack(isometries)
    _check_inputs(ineq.input_kind, xs, ys, filt, q)
    lhs, rhs, *ends = _first(ineq.kernel(_conjugate(xs, ys)[None], filt, p, q, lag))
    return RatioReport(ineq.id, lhs, rhs, p, q if ineq.uses_q else ineq.report_q, lag, *ends)


def ceiling_violated(report: RatioReport) -> bool:
    """Whether a report breaches its id's proved ceiling (certified sides only)."""
    ceiling = get_inequality(report.inequality_id).ceiling(report.p, report.q)
    if ceiling is None or report.ratio is None:
        return False
    kind, limit, tol = ceiling
    if kind == "eq":
        return abs(report.ratio - limit) > tol
    return report.ratio > limit + tol
