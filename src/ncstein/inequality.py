"""Inequality checkers producing ratio reports.

Each checker evaluates both sides of one martingale-type inequality on
concrete inputs and reports lhs, rhs and their ratio. Closed-form sides are
exact; ell_inf-based sides are brackets, and a violation of a bound is only
certified when the lhs lower end beats the rhs upper end, so optimizer slack
can never manufacture counterexamples.

Proved constants are exposed through hard_ceiling(): ratio <= 1 when the
conditioning and column exponents agree, ratio <= 2 for adapted sequences at
(p, q) = (1, 2) with one-step-behind conditioning, and exact equality of the
summed-sequence check at p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    is_psd,
    op_norm,
    psd_power,
    schatten_norm,
)
from .seqnorm import (
    LinfBracket,
    NormValue,
    column_q_norm,
    crp_norm,
    linf_norm_positive,
    _abs_q_stack,
    _column_norms,
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


def _require_adapted(xs: np.ndarray, filt: Filtration) -> None:
    residual = _adapted_residual(xs, filt, 0)
    if residual > ADAPTED_TOL:
        raise ValueError(f"sequence is not adapted: residual {residual:.3e}")


def _stein_sides(xs: np.ndarray, filt: Filtration, p: float, q: float, lag: int,
                 adapted: bool = False) -> tuple[float, float]:
    """Trusted kernel of check_stein_pq, check_adapted_s12 and the search loop: the column
    norms (lhs, rhs) of E(xs) and xs. Terms must be PSD unless q = 2, and adapted if `adapted`."""
    if adapted:
        _require_adapted(xs, filt)
    norms, psd = _column_norms(np.stack([_condition(xs, filt, lag), xs]), p, q)
    if psd is not None and not psd[1].all():
        raise ValueError(f"sequence item {int(np.argmin(psd[1]))} is not positive semidefinite")
    return float(norms[0]), float(norms[1])


def check_stein_pq(seq: Sequence, filt: Filtration, p, q, lag: int = 1,
                   inequality_id: str = "s_pq") -> RatioReport:
    """Column-norm contraction of conditioned sequences.

    lhs = ||(sum |E(x_n)|^q)^(1/q)||_p against the same norm of the inputs.
    Both exponents must be finite with 1 <= q <= p; q > 2 is only meaningful
    when p = q (outside that the bound is unproved and rejected; the proved
    q > p instance for adapted sequences lives in check_adapted_s12).
    Sequences must be positive unless q = 2.
    """
    xs = as_stack(seq)
    p, q = check_exponent(p), check_exponent(q)
    if p == INF or q == INF:
        raise ValueError("both exponents must be finite here")
    if q > p:
        raise ValueError(f"need q <= p, got q={q} > p={p}")
    if q > 2 and p != q:
        raise ValueError(f"q={q} > 2 with p != q is outside the proved range")
    lhs, rhs = map(NormValue, _stein_sides(xs, filt, p, q, lag))
    return _make_report(inequality_id, lhs, rhs, p, q, lag)


def check_adapted_s12(seq: Sequence, filt: Filtration, lag: int = 1,
                      inequality_id: str = "s_12_adapted") -> RatioReport:
    """The adapted instance at (p, q) = (1, 2) with one-step-behind
    conditioning, where the ratio is capped by the proved constant 2.

    Adaptedness (term n inside level n) is a precondition and is verified.
    """
    lhs, rhs = map(NormValue, _stein_sides(as_stack(seq), filt, 1.0, 2.0, lag, adapted=True))
    return _make_report(inequality_id, lhs, rhs, 1.0, 2.0, lag)


def check_stein_isometry(seq: Sequence, isometries: Sequence, filt: Filtration,
                         p, q, lag: int = 0,
                         inequality_id: str = "s_isometry") -> RatioReport:
    """Conjugated variant: ||(sum (E(y* x y))^q)^(1/q)||_p against
    ||(sum y* x^q y)^(1/q)||_p for unitaries y_n and positive x_n.

    With identity isometries both sides collapse to check_stein_pq at lag 0.
    """
    items = as_stack(seq)
    ys = as_stack(isometries)
    p, q = check_exponent(p), check_exponent(q)
    if not 1 <= q <= 2:
        raise ValueError(f"need 1 <= q <= 2, got q={q}")
    if p == INF or p < q:
        raise ValueError(f"need q <= p < inf, got p={p}")
    if len(ys) != len(items):
        raise ValueError("sequence and isometries must have equal length")
    _require_positive(items)
    d = items[0].shape[0]
    eye = np.eye(d)
    for n, u in enumerate(ys):
        if op_norm(u.conj().T @ u - eye) > UNITARY_CHECK_TOL:
            raise ValueError(f"isometry {n} is not unitary within tolerance")
    ys_adj = ys.conj().swapaxes(1, 2)
    powers, _ = _abs_q_stack(np.stack([_condition(ys_adj @ items @ ys, filt, lag), items]), q)
    sums = np.stack([powers[0].sum(axis=0), (ys_adj @ powers[1] @ ys).sum(axis=0)])
    lhs, rhs = map(NormValue, _root_norms(sums, p, q))
    return _make_report(inequality_id, lhs, rhs, p, q, lag)


def check_dual_doob(seq: Sequence, filt: Filtration, p,
                    inequality_id: str = "dd_p") -> RatioReport:
    """||sum E_n(x_n)||_p against ||sum x_n||_p for positive x_n.

    At p = 1 both sides equal the normalized trace of the sum, so the ratio
    is 1 up to round-off.
    """
    items = as_stack(seq)
    p = check_exponent(p)
    if p == INF:
        raise ValueError("p must be finite here")
    _require_positive(items)
    sums = np.stack([_condition(items, filt, 0).sum(axis=0), items.sum(axis=0)])
    lhs, rhs = map(NormValue, _root_norms(sums, p, 1.0))
    return _make_report(inequality_id, lhs, rhs, p, None, 0)


def check_doob_maximal(x, filt: Filtration, p, *, seed: int = 0,
                       inequality_id: str = "doob_maximal") -> RatioReport:
    """ell_inf bracket of the full projection chain (E_0(x), ..., E_N(x))
    against the exact ||x||_p, for PSD x and p > 1."""
    a = as_operator(x)
    p = check_exponent(p)
    if p == 1:
        raise ValueError("p = 1 is rejected: the dual exponent degenerates")
    if not is_psd(a):
        raise ValueError("input operator must be positive semidefinite")
    chain = [cond_exp(a, spec) for spec in filt.levels]
    bracket = linf_norm_positive(chain, p, seed=seed)
    rhs = NormValue(schatten_norm(a, p), "exact")
    return _make_report(inequality_id, bracket.lower, rhs, p, None, 0,
                        lhs_upper=bracket.upper)


def check_sp_inf(seq: Sequence, filt: Filtration, p, lag: int = 0, *,
                 seed: int = 0, inequality_id: str = "s_p_inf") -> RatioReport:
    """ell_inf bracket of the conditioned sequence against the bracket of
    the inputs; the scalar ratio pairs the certified sides (lhs lower over
    rhs upper) and ratio_interval holds the full enclosure."""
    items = as_stack(seq)
    p = check_exponent(p)
    if p == 1:
        raise ValueError("p = 1 is rejected: the dual exponent degenerates")
    _require_positive(items)
    conditioned = _condition(items, filt, lag)
    left: LinfBracket = linf_norm_positive(conditioned, p, seed=seed)
    right: LinfBracket = linf_norm_positive(items, p, seed=seed + 1)
    return _make_report(inequality_id, left.lower, right.upper, p, INF, lag,
                        lhs_upper=left.upper, rhs_lower=right.lower)


def check_crp_stein(seq: Sequence, filt: Filtration, p, lag: int = 1, *,
                    seed: int = 0, inequality_id: str = "crp_stein") -> RatioReport:
    """CR_p contraction for adapted sequences under one-step-behind
    conditioning. For p < 2 both sides are splitting upper bounds and the
    report is flagged non-certifying."""
    items = as_stack(seq)
    p = check_exponent(p)
    if not 1 < p < INF:
        raise ValueError(f"need 1 < p < inf, got p={p}")
    _require_adapted(items, filt)
    conditioned = _condition(items, filt, lag)
    lhs = crp_norm(conditioned, p, seed=seed)
    rhs = crp_norm(items, p, seed=seed + 1)
    return _make_report(inequality_id, lhs, rhs, p, 2.0, lag)


def check_projections(projs: Sequence, filt: Filtration, p, q, lag: int = 0,
                      inequality_id: str = "projections") -> RatioReport:
    """Column norm of conditioned mutually orthogonal projections.

    Since r^q = r for projections and the family sums to at most the
    identity, the uncontracted side is at most ||1||_p = 1; the rhs is
    pinned to 1 and the ratio is the lhs itself.
    """
    items = as_stack(projs)
    p, q = check_exponent(p), check_exponent(q)
    if not (1 <= q <= 2 < p < INF):
        raise ValueError(f"need 1 <= q <= 2 < p < inf, got p={p}, q={q}")
    for n, r in enumerate(items):
        if op_norm(r @ r - r) > PROJECTION_TOL or op_norm(r - r.conj().T) > PROJECTION_TOL:
            raise ValueError(f"item {n} is not a projection within tolerance")
        for m in range(n):
            if op_norm(items[m] @ r) > PROJECTION_TOL:
                raise ValueError(f"projections {m} and {n} are not orthogonal")
    lhs = column_q_norm(_condition(items, filt, lag), p, q)
    rhs = NormValue(1.0, "exact")
    return _make_report(inequality_id, lhs, rhs, p, q, lag)


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
    subalgebras, and the check delegates to check_stein_pq there.
    """
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
    return check_stein_pq(embedded, filt, p, q, lag, inequality_id=inequality_id)


# ---------------------------------------------------------------------------
# Inequality catalogue
# ---------------------------------------------------------------------------

# id -> (default lag, input kind, searchable, uses q)
INEQUALITIES: dict[str, tuple[int, str, bool, bool]] = {
    "s_pq": (0, "positive-seq", True, True),
    "s_qq": (1, "positive-seq", True, True),
    "s_12_adapted": (1, "adapted-seq", True, True),
    "s_isometry": (0, "isometry-seq", True, True),
    "dd_p": (0, "positive-seq", True, False),
    "doob_maximal": (0, "operator", True, False),
    "s_p_inf": (0, "positive-seq", True, False),
    "crp_stein": (1, "adapted-seq", True, False),
    "projections": (0, "projections", False, True),
    "semicommutative": (0, "process", False, True),
}


def default_lag(inequality_id: str) -> int:
    return INEQUALITIES[inequality_id][0]


def input_kind(inequality_id: str) -> str:
    return INEQUALITIES[inequality_id][1]


def is_searchable(inequality_id: str) -> bool:
    return INEQUALITIES[inequality_id][2]


def uses_q(inequality_id: str) -> bool:
    return INEQUALITIES[inequality_id][3]


def validate_exponents(inequality_id: str, p, q) -> None:
    """Reject (p, q) combinations outside an inequality's stated range."""
    if inequality_id not in INEQUALITIES:
        raise ValueError(f"unknown inequality {inequality_id!r}")
    p = check_exponent(p)
    if uses_q(inequality_id):
        if q is None:
            raise ValueError(f"{inequality_id} requires an exponent q")
        q = check_exponent(q)
    if inequality_id == "s_pq":
        if p == INF or q > p or (q > 2 and p != q):
            raise ValueError("s_pq needs 1 <= q <= p < inf with q <= 2 unless p = q")
    elif inequality_id == "s_qq":
        if p != q or p == INF:
            raise ValueError("s_qq needs p = q finite")
    elif inequality_id == "s_12_adapted":
        if (p, q) != (1.0, 2.0):
            raise ValueError("s_12_adapted is the fixed instance p = 1, q = 2")
    elif inequality_id == "s_isometry":
        if not (1 <= q <= 2 and q <= p < INF):
            raise ValueError("s_isometry needs 1 <= q <= 2 <= p or q <= p, p finite")
    elif inequality_id == "dd_p":
        if p == INF:
            raise ValueError("dd_p needs finite p")
    elif inequality_id in ("doob_maximal", "s_p_inf"):
        if p == 1:
            raise ValueError(f"{inequality_id} needs p > 1")
    elif inequality_id == "crp_stein":
        if not 1 < p < INF:
            raise ValueError("crp_stein needs 1 < p < inf")
    elif inequality_id == "projections":
        if not (1 <= q <= 2 < p < INF):
            raise ValueError("projections needs 1 <= q <= 2 < p < inf")


def run_inequality(inequality_id: str, inputs: dict, filt: Filtration,
                   p, q, lag: int, seed: int = 0) -> RatioReport:
    """Uniform dispatcher used by the search engine and the CLI."""
    validate_exponents(inequality_id, p, q)
    if inequality_id in ("s_pq", "s_qq"):
        return check_stein_pq(inputs["seq"], filt, p, q, lag, inequality_id=inequality_id)
    if inequality_id == "s_12_adapted":
        return check_adapted_s12(inputs["seq"], filt, lag)
    if inequality_id == "s_isometry":
        return check_stein_isometry(inputs["seq"], inputs["isometries"], filt, p, q, lag)
    if inequality_id == "dd_p":
        return check_dual_doob(inputs["seq"], filt, p)
    if inequality_id == "doob_maximal":
        return check_doob_maximal(inputs["x"], filt, p, seed=seed)
    if inequality_id == "s_p_inf":
        return check_sp_inf(inputs["seq"], filt, p, lag, seed=seed)
    if inequality_id == "crp_stein":
        return check_crp_stein(inputs["seq"], filt, p, lag, seed=seed)
    if inequality_id == "projections":
        return check_projections(inputs["projections"], filt, p, q, lag)
    if inequality_id == "semicommutative":
        return check_semicommutative(inputs["process"], inputs["space"], p, q, lag)
    raise ValueError(f"unknown inequality {inequality_id!r}")


def hard_ceiling(inequality_id: str, p, q) -> tuple[str, float, float] | None:
    """Proved-constant assertion for an instance: (kind, limit, tolerance).

    kind 'le' asserts ratio <= limit + tolerance; kind 'eq' asserts
    |ratio - limit| <= tolerance. None means the instance is observational.
    """
    if inequality_id == "s_qq":
        return ("le", 1.0, 1e-8)
    if inequality_id == "s_pq" and p == q:
        return ("le", 1.0, 1e-8)
    if inequality_id == "s_12_adapted":
        return ("le", 2.0, 1e-6)
    if inequality_id == "dd_p" and p == 1:
        return ("eq", 1.0, 1e-10)
    return None


def ceiling_violated(report: RatioReport) -> bool:
    """Whether a report breaches its proved ceiling (certified sides only)."""
    ceiling = hard_ceiling(report.inequality_id, report.p, report.q)
    if ceiling is None or report.ratio is None:
        return False
    kind, limit, tol = ceiling
    if kind == "eq":
        return abs(report.ratio - limit) > tol
    return report.ratio > limit + tol
