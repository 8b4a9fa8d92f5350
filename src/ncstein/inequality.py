"""Inequality ratio reports.

Every check is one call, run_inequality(id, seq, filt, p, q=None, lag=None,
isometries=None): it evaluates both sides of one martingale-type inequality
on the operator sequence (x_n) and the filtration its conditional
expectations come from, and reports lhs, rhs and their ratio. q and lag
default to the id's registry record. doob_maximal's sequence holds its one
operator; a process over a classical base is embedded into one tracial space
first (embed_process), so it arrives as a sequence on its classical chain.

Closed-form sides are exact; ell_inf-based sides are brackets, and a
violation of a bound is only certified when the lhs lower end beats the rhs
upper end, so optimizer slack can never manufacture counterexamples.

Every fact about an inequality id (default lag, input kind, exponent domain,
proved ceiling, kernel) lives in its one Inequality record in INEQUALITIES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .expectation import (
    ADAPTED_TOL,
    CellAverage,
    Filtration,
    as_lag,
    cond_exp,
    _adapted_residual,
    _condition,
)
from .opcore import (
    INF,
    as_exponent,
    as_operator,
    as_stack,
    herm,
    op_norm,
    psd_power,
    _p_mean,
)
from .seqnorm import (
    NormValue,
    _abs_q_stack,
    _column_norms,
    _crp,
    _crp_columns,
    _linf_bracket,
    _require_positive,
    _root_norms,
)

PROJECTION_TOL = 1e-8
UNITARY_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class RatioReport:
    """Both sides of one inequality instance and their ratio.

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
    ratio: float | None
    certifying: bool
    ratio_interval: tuple[float, float] | None = None
    lhs_upper: NormValue | None = None
    rhs_lower: NormValue | None = None


def _make_report(inequality_id, lhs, rhs, p, q, lag, lhs_upper=None, rhs_lower=None):
    ratio = lhs.value / rhs.value if rhs.value > 0 else None
    has_upper_lhs = lhs.bound in ("exact", "upper") or lhs_upper is not None
    has_lower_rhs = rhs.bound in ("exact", "lower") or rhs_lower is not None
    interval = None
    if ratio is not None and (lhs_upper is not None or rhs_lower is not None):
        hi_lhs = lhs_upper.value if lhs_upper is not None else lhs.value
        lo_rhs = rhs_lower.value if rhs_lower is not None else rhs.value
        high = hi_lhs / lo_rhs if lo_rhs > 0 else INF
        interval = (ratio, high)
    return RatioReport(
        inequality_id=inequality_id,
        lhs=lhs,
        rhs=rhs,
        p=float(p),
        q=None if q is None else float(q),
        lag=lag,
        ratio=ratio,
        certifying=has_upper_lhs and has_lower_rhs,
        ratio_interval=interval,
        lhs_upper=lhs_upper,
        rhs_lower=rhs_lower,
    )


# Every kernel scores a batch: xs[k, n, d, d] holds k sequences, and each side it
# returns has one entry per sequence, a float array for a closed form and k NormValues
# for a bracket. In every kernel E(x_n) is E_{max(n - lag, 0)}(x_n), the level the lag
# pairs with term n, so each id conditions at the lag its report prints.


def _stein_sides(xs: np.ndarray, filt: Filtration, p: float, q: float, lag: int) -> np.ndarray:
    """The column norms [lhs, rhs] of E(xs) and xs."""
    return _column_norms(np.stack([_condition(xs, filt, lag), xs]), p, q)


def _stein_kernel(xs, filt, p, q, lag, ys):
    # ||(sum |E(x_n)|^q)^(1/q)||_p against ||(sum |x_n|^q)^(1/q)||_p
    return tuple(_stein_sides(xs, filt, p, q, lag))


def _isometry_kernel(xs, filt, p, q, lag, ys):
    # ||(sum E(y_n* x_n y_n)^q)^(1/q)||_p against ||(sum y_n* x_n^q y_n)^(1/q)||_p for
    # unitaries y_n; identity isometries give s_pq's sides
    ys_adj = ys.conj().swapaxes(1, 2)
    powers, _ = _abs_q_stack(np.stack([_condition(herm(ys_adj @ xs @ ys), filt, lag), xs]), q)
    sums = np.stack([powers[0].sum(axis=-3), (ys_adj @ powers[1] @ ys).sum(axis=-3)])
    return tuple(_root_norms(sums, p, q))


def _dual_doob_kernel(xs, filt, p, q, lag, ys):
    # ||sum E(x_n)||_p against ||sum x_n||_p; at p = 1 both sides are tau(sum x_n),
    # since every E is trace preserving, so the ratio is 1 at either lag
    sums = np.stack([_condition(xs, filt, lag).sum(axis=-3), xs.sum(axis=-3)])
    return tuple(_root_norms(sums, p, 1.0))


def _each(kernel):
    """The batch kernel that runs `kernel`, whose sides are the NormValues of one
    (n, d, d) stack, on each sequence in turn."""
    def batched(xs, filt, p, q, lag, ys):
        return tuple(zip(*(kernel(x, filt, p, q, lag, ys) for x in xs)))
    return batched


@_each
def _doob_kernel(xs, filt, p, q, lag, ys):
    # the ell_inf bracket of the chain (E(x))_n, one copy of x per level: E_0(x), ...,
    # E_N(x) at lag 0 and E_0(x), E_0(x), ..., E_{N-1}(x) at lag 1; against the exact ||x||_p
    bracket = _linf_bracket(_condition(np.repeat(xs, len(filt), axis=0), filt, lag), p)
    norm = _p_mean(np.linalg.svd(xs[0], compute_uv=False), p, top=0)
    return bracket.lower, NormValue(norm, "exact"), bracket.upper


@_each
def _sp_inf_kernel(xs, filt, p, q, lag, ys):
    # the ell_inf brackets of (E(x_n)) and (x_n); the ratio pairs the certified ends
    # (lhs lower over rhs upper) and ratio_interval holds the full enclosure
    left, right = _linf_bracket(_condition(xs, filt, lag), p), _linf_bracket(xs, p)
    return left.lower, right.upper, left.upper, right.lower


def _crp_kernel(xs, filt, p, q, lag, ys):
    # CR_p norms of (E(x_n)) and (x_n); below p = 2 both are splitting upper bounds,
    # so the report is non-certifying
    sides = np.stack([_condition(xs, filt, lag), xs])
    if p >= 2:
        return tuple(_crp_columns(sides, p))
    return tuple(tuple(_crp(x, p) for x in side) for side in sides)


def _projections_kernel(xs, filt, p, q, lag, ys):
    # the lhs of s_pq; r^q = r for projections and the family sums to at most 1, so
    # the rhs is at most ||1||_p = 1 and is pinned to 1: the ratio is the lhs
    lhs = _column_norms(_condition(xs, filt, lag), p, q)
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
# Semi-commutative embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalSpace:
    """Finite probability space with rational weights and a partition chain.

    levels lists partitions of the atom indices from coarse to fine; they
    induce the classical filtration whose conditional expectations average
    over cells.
    """

    probabilities: tuple[Fraction, ...]
    levels: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        probs = tuple(Fraction(w) for w in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if not probs or any(w <= 0 for w in probs):
            raise ValueError("probabilities must be positive")
        if sum(probs) != 1:
            raise ValueError(f"probabilities must sum to 1, got {sum(probs)}")
        levels = tuple(tuple(tuple(int(i) for i in c) for c in lv) for lv in self.levels)
        object.__setattr__(self, "levels", levels)
        atoms = len(probs)
        if not levels:
            raise ValueError("at least one classical level is required")
        for lv in levels:
            flat = sorted(i for c in lv for i in c)
            if flat != list(range(atoms)):
                raise ValueError("each level must partition the atom indices")
        for coarse, fine in zip(levels[:-1], levels[1:]):
            coarse_sets = [set(c) for c in coarse]
            if not all(any(set(c) <= s for s in coarse_sets) for c in fine):
                raise ValueError("classical levels must refine upward")

    @property
    def atoms(self) -> int:
        return len(self.probabilities)


def embed_process(process: Sequence[Sequence],
                  space: ClassicalSpace) -> tuple[np.ndarray, Filtration]:
    """The block-diagonal stack of a matrix-valued process over `space` and
    the filtration it lives on.

    process[w] is the sequence (f_n(w))_n at atom w. Each atom of weight k/m
    becomes k slots of weight 1/m, one d x d diagonal block each, so the
    uniform normalized trace on the enlarged space reproduces the weighted
    classical expectation; the classical levels become cell-averaging
    subalgebras over the slots.
    """
    if len(process) != space.atoms:
        raise ValueError("process must supply one sequence per atom")
    per_atom = [as_stack(seq) for seq in process]
    shapes = {seq.shape for seq in per_atom}
    if len(shapes) != 1:
        raise ValueError("all atom sequences must share length and dimension")
    n, d, _ = shapes.pop()
    den = math.lcm(*(w.denominator for w in space.probabilities))
    bounds = np.cumsum([0] + [w.numerator * (den // w.denominator) for w in space.probabilities])
    slots = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    filt = Filtration(tuple(
        CellAverage(tuple(tuple(s for atom in cell for s in slots[atom]) for cell in level), d)
        for level in space.levels))
    embedded = np.zeros((n, filt.dim, filt.dim), dtype=complex)
    for atom, atom_slots in enumerate(slots):
        for s in atom_slots:
            embedded[:, s * d : (s + 1) * d, s * d : (s + 1) * d] = per_atom[atom]
    return embedded, filt


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
    `kernel(xs, filt, p, q, lag, ys)` scores the k sequences of a trusted
    xs[k, n, d, d] (ys: the isometries) and validates nothing; it returns the
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
        """The exponents as floats; ValueError outside the domain."""
        p = as_exponent(p)
        if self.uses_q and q is None:
            raise ValueError(f"{self.id} requires an exponent q")
        q = as_exponent(q) if self.uses_q else None
        if not self.domain(p, q):
            got = f"p={p:g}" if q is None else f"p={p:g}, q={q:g}"
            raise ValueError(f"{self.id} needs {self.needs}, got {got}")
        return p, q


def _stein_domain(p, q):
    return q <= p < INF and (q <= 2 or p == q)


_STEIN_NEEDS = "1 <= q <= p < inf with q <= 2 unless p = q (the proved range)"
_P_ABOVE_ONE = "p > 1 (p = 1 is rejected: the dual exponent degenerates)"
_LE_ONE = ("le", 1.0, 1e-8)

INEQUALITIES: dict[str, Inequality] = {ineq.id: ineq for ineq in (
    Inequality("s_pq", "positive-seq", _stein_domain, _STEIN_NEEDS, _stein_kernel, uses_q=True,
               ceiling=lambda p, q: _LE_ONE if p == q else None),
    Inequality("s_qq", "positive-seq", lambda p, q: p == q < INF, "p = q finite", _stein_kernel,
               default_lag=1, uses_q=True, ceiling=lambda p, q: _LE_ONE),
    # adapted sequences (term n inside level n) at (p, q) = (1, 2), one step behind
    Inequality("s_12_adapted", "adapted-seq", lambda p, q: (p, q) == (1, 2),
               "the fixed instance p = 1, q = 2", _stein_kernel, default_lag=1, uses_q=True,
               ceiling=lambda p, q: ("le", 2.0, 1e-6)),
    Inequality("s_isometry", "isometry-seq", lambda p, q: q <= 2 and q <= p < INF,
               "1 <= q <= 2 and q <= p < inf", _isometry_kernel, uses_q=True),
    Inequality("dd_p", "positive-seq", lambda p, q: p < INF, "finite p", _dual_doob_kernel,
               ceiling=lambda p, q: ("eq", 1.0, 1e-10) if p == 1 else None),
    Inequality("doob_maximal", "operator", lambda p, q: p > 1, _P_ABOVE_ONE, _doob_kernel),
    Inequality("s_p_inf", "positive-seq", lambda p, q: p > 1, _P_ABOVE_ONE, _sp_inf_kernel,
               report_q=INF),
    # adapted sequences, one step behind
    Inequality("crp_stein", "adapted-seq", lambda p, q: 1 < p < INF, "1 < p < inf",
               _crp_kernel, default_lag=1, report_q=2.0),
    Inequality("projections", "projections", lambda p, q: q <= 2 < p < INF,
               "1 <= q <= 2 < p < inf", _projections_kernel, uses_q=True, searchable=False),
    # s_pq for a positive process over a classical base, embedded by embed_process
    Inequality("semicommutative", "process", _stein_domain, _STEIN_NEEDS, _stein_kernel,
               uses_q=True, searchable=False),
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
    and isometries (ys); ValueError when it fails."""
    if kind == "adapted-seq" and (residual := _adapted_residual(xs, filt, 0)) > ADAPTED_TOL:
        raise ValueError(f"sequence is not adapted: residual {residual:.3e}")
    elif kind == "isometry-seq":
        if ys is None or len(ys) != len(xs):
            raise ValueError("sequence and isometries must have equal length")
        _require_positive(xs)
        off = np.linalg.norm(ys.conj().swapaxes(1, 2) @ ys - np.eye(xs.shape[1]), 2, axis=(1, 2))
        if (bad := np.flatnonzero(off > UNITARY_CHECK_TOL)).size:
            raise ValueError(f"isometry {bad[0]} is not unitary within tolerance")
    elif kind == "projections":
        for n, r in enumerate(xs):
            if op_norm(r @ r - r) > PROJECTION_TOL or op_norm(r - r.conj().T) > PROJECTION_TOL:
                raise ValueError(f"item {n} is not a projection within tolerance")
            for m in range(n):
                if op_norm(xs[m] @ r) > PROJECTION_TOL:
                    raise ValueError(f"projections {m} and {n} are not orthogonal")
    elif kind == "operator":
        if len(xs) != 1:
            raise ValueError(f"the sequence must hold one operator, got {len(xs)}")
        _require_positive(xs)
    elif kind in ("positive-seq", "process") and q != 2:
        _require_positive(xs)


def run_inequality(inequality_id: str, seq: Sequence, filt: Filtration, p, q=None,
                   lag: int | None = None, isometries: Sequence | None = None) -> RatioReport:
    """The one validating path of every check, the CLI and the search's replay.

    seq is the operator sequence (one operator for doob_maximal), filt the
    filtration it lives on and isometries the unitaries s_isometry pairs with
    it; lag None is the id's default_lag. Checks the exponents against the
    id's domain, then the inputs as finite equal-size (n, d, d) stacks by the
    id's input kind, then runs the id's trusted kernel.
    """
    ineq = get_inequality(inequality_id)
    p, q = ineq.validate(p, q)
    lag = ineq.default_lag if lag is None else as_lag(lag)
    xs = as_stack(seq)
    ys = None if isometries is None else as_stack(isometries)
    _check_inputs(ineq.input_kind, xs, ys, filt, q)
    lhs, rhs, *ends = _first(ineq.kernel(xs[None], filt, p, q, lag, ys))
    return _make_report(ineq.id, lhs, rhs, p, q if ineq.uses_q else ineq.report_q, lag, *ends)


def ceiling_violated(report: RatioReport) -> bool:
    """Whether a report breaches its id's proved ceiling (certified sides only)."""
    ceiling = get_inequality(report.inequality_id).ceiling(report.p, report.q)
    if ceiling is None or report.ratio is None:
        return False
    kind, limit, tol = ceiling
    if kind == "eq":
        return abs(report.ratio - limit) > tol
    return report.ratio > limit + tol
