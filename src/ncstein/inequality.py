"""Inequality checkers producing ratio reports.

Each checker evaluates both sides of one martingale-type inequality on
concrete inputs and reports lhs, rhs and their ratio. Closed-form sides are
exact; ell_inf-based sides are brackets, and a violation of a bound is only
certified when the lhs lower end beats the rhs upper end, so optimizer slack
can never manufacture counterexamples.

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
    cond_exp,
    _adapted_residual,
    _condition,
)
from .opcore import (
    INF,
    as_operator,
    as_stack,
    check_exponent,
    herm,
    op_norm,
    psd_power,
    schatten_norm,
    _psd_flags,
)
from .seqnorm import (
    NormValue,
    _abs_q_stack,
    _column_norms,
    _crp,
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


def _stein_sides(xs: np.ndarray, filt: Filtration, p: float, q: float, lag: int) -> np.ndarray:
    """The column norms [lhs, rhs] of E(xs) and xs."""
    return _column_norms(np.stack([_condition(xs, filt, lag), xs]), p, q)


def _stein_kernel(xs, filt, p, q, lag, ys):
    return tuple(map(NormValue, _stein_sides(xs, filt, p, q, lag)))


def _isometry_kernel(xs, filt, p, q, lag, ys):
    ys_adj = ys.conj().swapaxes(1, 2)
    powers = _abs_q_stack(np.stack([_condition(herm(ys_adj @ xs @ ys), filt, lag), xs]), q)
    sums = np.stack([powers[0].sum(axis=0), (ys_adj @ powers[1] @ ys).sum(axis=0)])
    return tuple(map(NormValue, _root_norms(sums, p, q)))


def _dual_doob_kernel(xs, filt, p, q, lag, ys):
    sums = np.stack([_condition(xs, filt, 0).sum(axis=0), xs.sum(axis=0)])
    return tuple(map(NormValue, _root_norms(sums, p, 1.0)))


def _doob_kernel(xs, filt, p, q, lag, ys):
    # the chain (E_0(x), ..., E_N(x)) conditions one copy of x per level at lag 0
    bracket = _linf_bracket(_condition(np.repeat(xs, len(filt), axis=0), filt, 0), p)
    return bracket.lower, NormValue(schatten_norm(xs[0], p), "exact"), bracket.upper


def _sp_inf_kernel(xs, filt, p, q, lag, ys):
    left, right = _linf_bracket(_condition(xs, filt, lag), p), _linf_bracket(xs, p)
    return left.lower, right.upper, left.upper, right.lower


def _crp_kernel(xs, filt, p, q, lag, ys):
    return _crp(_condition(xs, filt, lag), p), _crp(xs, p)


def _projections_kernel(xs, filt, p, q, lag, ys):
    return NormValue(float(_column_norms(_condition(xs, filt, lag), p, q))), NormValue(1.0)


def check_stein_pq(seq: Sequence, filt: Filtration, p, q, lag: int = 1,
                   inequality_id: str = "s_pq") -> RatioReport:
    """Column-norm contraction of conditioned sequences.

    lhs = ||(sum |E(x_n)|^q)^(1/q)||_p against the same norm of the inputs.
    (p, q) must lie in the domain of the `inequality_id` record; the proved
    q > p instance for adapted sequences is check_adapted_s12. Sequences must
    be positive unless q = 2.
    """
    return run_inequality(inequality_id, {"seq": seq}, filt, p, q, lag)


def check_adapted_s12(seq: Sequence, filt: Filtration, lag: int = 1,
                      inequality_id: str = "s_12_adapted") -> RatioReport:
    """The adapted instance at (p, q) = (1, 2) with one-step-behind
    conditioning, where the ratio is capped by the proved constant 2.

    Adaptedness (term n inside level n) is a precondition and is verified.
    """
    return run_inequality(inequality_id, {"seq": seq}, filt, 1, 2, lag)


def check_stein_isometry(seq: Sequence, isometries: Sequence, filt: Filtration,
                         p, q, lag: int = 0,
                         inequality_id: str = "s_isometry") -> RatioReport:
    """Conjugated variant: ||(sum (E(y* x y))^q)^(1/q)||_p against
    ||(sum y* x^q y)^(1/q)||_p for unitaries y_n and positive x_n.

    With identity isometries both sides collapse to check_stein_pq at lag 0.
    """
    return run_inequality(inequality_id, {"seq": seq, "isometries": isometries}, filt, p, q, lag)


def check_dual_doob(seq: Sequence, filt: Filtration, p,
                    inequality_id: str = "dd_p") -> RatioReport:
    """||sum E_n(x_n)||_p against ||sum x_n||_p for positive x_n.

    At p = 1 both sides equal the normalized trace of the sum, so the ratio
    is 1 up to round-off.
    """
    return run_inequality(inequality_id, {"seq": seq}, filt, p, None, 0)


def check_doob_maximal(x, filt: Filtration, p,
                       inequality_id: str = "doob_maximal") -> RatioReport:
    """ell_inf bracket of the full projection chain (E_0(x), ..., E_N(x))
    against the exact ||x||_p, for PSD x and p > 1."""
    return run_inequality(inequality_id, {"x": x}, filt, p, None, 0)


def check_sp_inf(seq: Sequence, filt: Filtration, p, lag: int = 0,
                 inequality_id: str = "s_p_inf") -> RatioReport:
    """ell_inf bracket of the conditioned sequence against the bracket of
    the inputs; the scalar ratio pairs the certified sides (lhs lower over
    rhs upper) and ratio_interval holds the full enclosure."""
    return run_inequality(inequality_id, {"seq": seq}, filt, p, None, lag)


def check_crp_stein(seq: Sequence, filt: Filtration, p, lag: int = 1,
                    inequality_id: str = "crp_stein") -> RatioReport:
    """CR_p contraction for adapted sequences under one-step-behind
    conditioning. For p < 2 both sides are splitting upper bounds and the
    report is flagged non-certifying."""
    return run_inequality(inequality_id, {"seq": seq}, filt, p, None, lag)


def check_projections(projs: Sequence, filt: Filtration, p, q, lag: int = 0,
                      inequality_id: str = "projections") -> RatioReport:
    """Column norm of conditioned mutually orthogonal projections.

    Since r^q = r for projections and the family sums to at most the
    identity, the uncontracted side is at most ||1||_p = 1; the rhs is
    pinned to 1 and the ratio is the lhs itself.
    """
    return run_inequality(inequality_id, {"projections": projs}, filt, p, q, lag)


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


def embed_classical(space: ClassicalSpace, block_dim: int) -> tuple[Filtration, list[list[int]]]:
    """Replicate atoms to uniform weight and build the induced filtration.

    Each atom of weight k/m becomes k slots of weight 1/m, so the uniform
    normalized trace on the enlarged space reproduces the weighted classical
    expectation. Returns the filtration of cell-averaging subalgebras and
    the slot lists per atom.
    """
    den = math.lcm(*(w.denominator for w in space.probabilities))
    counts = [w.numerator * (den // w.denominator) for w in space.probabilities]
    slots: list[list[int]] = []
    start = 0
    for k in counts:
        slots.append(list(range(start, start + k)))
        start += k
    levels = []
    for lv in space.levels:
        cells = tuple(
            tuple(s for atom in cell for s in slots[atom]) for cell in lv
        )
        levels.append(CellAverage(cells, block_dim))
    return Filtration(tuple(levels)), slots


def check_semicommutative(process: Sequence[Sequence], space: ClassicalSpace,
                          p, q, lag: int = 0,
                          inequality_id: str = "semicommutative") -> RatioReport:
    """Column-norm contraction for a positive matrix-valued process over a
    finite classical base.

    process[w] is the sequence (f_n(w))_n at atom w. The process embeds
    block-diagonally (one block per replicated slot) into a single tracial
    space, the classical filtration becomes a chain of cell-averaging
    subalgebras, and the check runs check_stein_pq's kernel there.
    """
    return run_inequality(inequality_id, {"process": process, "space": space}, None, p, q, lag)


def _embedded(process: Sequence[Sequence], space: ClassicalSpace) -> tuple[np.ndarray, Filtration]:
    """The block-diagonal stack of a process over `space` and its filtration."""
    if len(process) != space.atoms:
        raise ValueError("process must supply one sequence per atom")
    per_atom = [as_stack(seq) for seq in process]
    lengths = {len(seq) for seq in per_atom}
    dims = {seq[0].shape[0] for seq in per_atom}
    if len(lengths) != 1 or len(dims) != 1:
        raise ValueError("all atom sequences must share length and dimension")
    d = dims.pop()
    filt, slots = embed_classical(space, d)
    embedded = np.zeros((lengths.pop(), filt.dim, filt.dim), dtype=complex)
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
    proved-constant assertion or None. `kernel(xs, filt, p, q, lag, ys)`
    returns the sides (lhs, rhs[, lhs_upper, rhs_lower]) from trusted stacks
    (ys: the isometries) and validates nothing. A report shows `report_q` as q
    when the id takes none.
    """

    id: str
    input_kind: str
    domain: Callable[[float, float | None], bool]
    needs: str
    kernel: Callable[..., tuple[NormValue, ...]]
    default_lag: int = 0
    uses_q: bool = False
    report_q: float | None = None
    searchable: bool = True
    ceiling: Callable[[float, float | None], tuple[str, float, float] | None] = (
        lambda p, q: None)

    def validate(self, p, q=None) -> tuple[float, float | None]:
        """The exponents as floats; ValueError outside the domain."""
        p = check_exponent(p)
        if self.uses_q and q is None:
            raise ValueError(f"{self.id} requires an exponent q")
        q = check_exponent(q) if self.uses_q else None
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
    Inequality("crp_stein", "adapted-seq", lambda p, q: 1 < p < INF, "1 < p < inf",
               _crp_kernel, default_lag=1, report_q=2.0),
    Inequality("projections", "projections", lambda p, q: q <= 2 < p < INF,
               "1 <= q <= 2 < p < inf", _projections_kernel, uses_q=True, searchable=False),
    Inequality("semicommutative", "process", _stein_domain, _STEIN_NEEDS, _stein_kernel,
               uses_q=True, searchable=False),
)}


def get_inequality(inequality_id: str) -> Inequality:
    """The registry record of an id; ValueError for an unknown one."""
    try:
        return INEQUALITIES[inequality_id]
    except (KeyError, TypeError):
        raise ValueError(f"unknown inequality {inequality_id!r}") from None


def _checked_inputs(kind: str, inputs: dict, filt: Filtration | None, q: float | None):
    """The trusted stacks (xs, ys) of a checker's inputs and the filtration they live
    on, after the one check of their input kind; ValueError when it fails."""
    ys = None
    if kind == "process":
        xs, filt = _embedded(inputs["process"], inputs["space"])
    elif kind == "operator":
        xs = as_stack([inputs["x"]])
        if not _psd_flags(xs)[0]:
            raise ValueError("input operator must be positive semidefinite")
    else:
        xs = as_stack(inputs["projections" if kind == "projections" else "seq"])
    if kind == "adapted-seq" and (residual := _adapted_residual(xs, filt, 0)) > ADAPTED_TOL:
        raise ValueError(f"sequence is not adapted: residual {residual:.3e}")
    elif kind == "isometry-seq":
        ys = as_stack(inputs["isometries"])
        if len(ys) != len(xs):
            raise ValueError("sequence and isometries must have equal length")
        _require_positive(xs)
        eye = np.eye(xs.shape[1])
        for n, u in enumerate(ys):
            if op_norm(u.conj().T @ u - eye) > UNITARY_CHECK_TOL:
                raise ValueError(f"isometry {n} is not unitary within tolerance")
    elif kind == "projections":
        for n, r in enumerate(xs):
            if op_norm(r @ r - r) > PROJECTION_TOL or op_norm(r - r.conj().T) > PROJECTION_TOL:
                raise ValueError(f"item {n} is not a projection within tolerance")
            for m in range(n):
                if op_norm(xs[m] @ r) > PROJECTION_TOL:
                    raise ValueError(f"projections {m} and {n} are not orthogonal")
    elif kind in ("positive-seq", "process") and q != 2:
        _require_positive(xs)
    return xs, ys, filt


def run_inequality(inequality_id: str, inputs: dict, filt: Filtration,
                   p, q, lag: int) -> RatioReport:
    """The one validating path of every checker, the CLI and the search's replay:
    the exponents against the id's domain, then the inputs by their kind, then
    the id's trusted kernel."""
    ineq = get_inequality(inequality_id)
    p, q = ineq.validate(p, q)
    xs, ys, filt = _checked_inputs(ineq.input_kind, inputs, filt, q)
    lhs, rhs, *ends = ineq.kernel(xs, filt, p, q, lag, ys)
    return _make_report(ineq.id, lhs, rhs, p, q if ineq.uses_q else ineq.report_q, lag, *ends)


def hard_ceiling(inequality_id: str, p, q) -> tuple[str, float, float] | None:
    """Proved-constant assertion for an instance: (kind, limit, tolerance).

    kind 'le' asserts ratio <= limit + tolerance; kind 'eq' asserts
    |ratio - limit| <= tolerance. None means the instance is observational.
    """
    return get_inequality(inequality_id).ceiling(p, q)


def ceiling_violated(report: RatioReport) -> bool:
    """Whether a report breaches its proved ceiling (certified sides only)."""
    ceiling = hard_ceiling(report.inequality_id, report.p, report.q)
    if ceiling is None or report.ratio is None:
        return False
    kind, limit, tol = ceiling
    if kind == "eq":
        return abs(report.ratio - limit) > tol
    return report.ratio > limit + tol
