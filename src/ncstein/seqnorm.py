"""Vector-valued sequence norms over a matrix tracial space.

Closed forms: the column/row ell_2 norms, general ell_q column norms, the
CR_p norm for p >= 2, and the ell_1 norm of positive sequences (norm of the
sum). Two quantities are only bracketed:

  * CR_p for p < 2 is an infimum over splittings x_n = a_n + b_n; a fixed
    number of closed-form alternating steps returns an upper bound and its
    splitting.
  * The ell_inf norm of a positive sequence, min ||a||_p over a >= x_n, comes
    from one deterministic log-det barrier solve (damped Newton on the d^2
    real coordinates of a Hermitian a). Its majorant a gives the upper end,
    certified by the factorization x_n = a^(1/2) y_n a^(1/2) with contractions
    y_n; its duals y_n ~ (a - x_n)^-1, scaled to ||sum y_n||_p' <= 1, give the
    lower end sum_n ntrace(x_n y_n), less a bound on its rounding error. The
    closed form a = max_n ||x_n||_inf 1, with relative gap 1 - d^(-1/p), replaces
    the solve where that gap is below LINF_GAP_REL (p = inf included) or the
    solve's bracket is wider.

Each public norm validates once and calls a trusted core on stacks items[..., n, d, d],
which scores every sequence alike in any batch; equal calls return identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .opcore import (
    INF,
    abs_op,
    as_exponent,
    as_stack,
    conjugate_exponent,
    herm,
    _abs_q_stack,
    _gram,
    _p_mean,
    _psd_flags,
)



@dataclass(frozen=True)
class NormValue:
    """A norm together with the direction in which it bounds the true value."""

    value: float
    bound: str = "exact"  # 'exact' | 'lower' | 'upper'
    certificate: object | None = None

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if self.value < 0:
            raise ValueError("norm values are nonnegative")
        if self.bound not in ("exact", "lower", "upper"):
            raise ValueError(f"unknown bound direction {self.bound!r}")

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class DualCertificate:
    """Feasible positive duals realizing a lower bound on the ell_inf norm."""

    duals: tuple[np.ndarray, ...]
    objective: float
    feasibility: float  # ||sum duals||_{p'}, must be <= 1 up to round-off
    margin: float  # bound on the rounding error of objective, taken off the lower end


@dataclass(frozen=True)
class FactorizationWitness:
    """Decomposition x_n = left @ y_n @ right with contraction factors y_n."""

    left: np.ndarray
    right: np.ndarray
    contractions: tuple[np.ndarray, ...]
    residual: float  # max reassembly error in operator norm


@dataclass(frozen=True)
class SplitWitness:
    """Splitting x_n = a_n + b_n behind a CR_p upper bound (p < 2)."""

    column_part: tuple[np.ndarray, ...]
    row_part: tuple[np.ndarray, ...]


class LinfBracket(NamedTuple):
    lower: NormValue
    upper: NormValue


def _require_positive(xs: np.ndarray) -> None:
    """ValueError naming the first term of a trusted stack that fails is_psd."""
    bad = np.flatnonzero(~_psd_flags(xs))
    if bad.size:
        raise ValueError(f"sequence item {bad[0]} is not positive semidefinite")


def _root_norms(s: np.ndarray, p: float, q: float) -> np.ndarray:
    """||s^(1/q)||_p for every PSD operator of s[..., d, d] from one batched
    eigvalsh: the (p/q)-mean of its spectrum w, to the power 1/q."""
    return _p_mean(np.maximum(np.linalg.eigvalsh(herm(s)), 0.0), p / q) ** (1.0 / q)


def _column_norms(xs: np.ndarray, p: float, q: float, block: int | None = None) -> np.ndarray:
    """Column norms of trusted stacks xs[..., n, d, d]. Given a block size b, a stack with
    no nonzero entry outside the diagonal b x b blocks (a classical chain's top level) is
    scored on those blocks, whose pooled spectra are the operators' spectra."""
    if block is not None:
        *lead, n, d, _ = xs.shape
        m = d // block
        blocks = np.einsum("...wiwj->...wij", xs.reshape(*lead, n, m, block, m, block))
    if block is not None and np.count_nonzero(blocks) == np.count_nonzero(xs):
        powers, scale = _abs_q_stack(blocks.reshape(*lead, n * m, block, block), q)
        w = np.linalg.eigvalsh(herm(powers.reshape(blocks.shape).sum(axis=-4)))
        norms = _p_mean(np.sort(np.maximum(w, 0.0).reshape(*lead, d)), p / q) ** (1.0 / q)
    else:
        powers, scale = _abs_q_stack(xs, q)
        norms = _root_norms(powers.sum(axis=-3), p, q)
    return scale * norms if q > 2 else norms  # below q = 2 the scale is 1.0


def column_q_norm(seq: Sequence, p, q) -> NormValue:
    """Column norm ||(sum_n |x_n|^q)^(1/q)||_p, exact.

    q must be finite (the positive ell_inf norm has its own entry point);
    the outer norm is mean(w^(p/q))^(1/p) over the eigenvalues w of the sum.
    """
    xs, p, q = as_stack(seq), as_exponent(p), as_exponent(q, "q")
    if q == INF:
        raise ValueError("q = inf is handled by linf_norm_positive")
    if q != 2:  # away from q = 2 the core reads each term as |x|: replace any non-PSD x
        for k in np.flatnonzero(~_psd_flags(xs)):
            xs[k] = abs_op(xs[k])
    return NormValue(float(_column_norms(xs[None], p, q)[0]), "exact")


def row_2_norm(seq: Sequence, p) -> NormValue:
    """Row norm ||(sum_n |x_n*|^2)^(1/2)||_p; the column norm of the adjoints."""
    xs = as_stack(seq).conj().swapaxes(1, 2)
    return NormValue(float(_column_norms(xs[None], as_exponent(p), 2.0)[0]), "exact")


def l1_norm_positive(seq: Sequence, p) -> NormValue:
    """ell_1 norm of a positive sequence: ||sum_n x_n||_p, exact; the column norm at q = 1."""
    items = as_stack(seq)
    p = as_exponent(p)
    _require_positive(items)
    return NormValue(float(_column_norms(items[None], p, 1.0)[0]), "exact")


# ---------------------------------------------------------------------------
# CR_p
# ---------------------------------------------------------------------------


def crp_norm(seq: Sequence, p) -> NormValue:
    """CR_p norm: max of column and row norms for p >= 2 (exact); for p < 2
    the infimum over splittings x_n = a_n + b_n of column(a) + row(b),
    reported as the best value found (an upper bound) with its splitting.
    """
    items, p = as_stack(seq)[None], as_exponent(p)
    return NormValue(float(_crp_columns(items, p)[0])) if p >= 2 else _crp_split(items, p)[0]


def _crp_columns(items: np.ndarray, p: float, block: int | None = None) -> np.ndarray:
    """CR_p (p >= 2) of trusted stacks items[..., n, d, d]: the larger of the column
    and row norms, both from one batched eigvalsh (of the blocks given `block`, as
    _column_norms)."""
    sides = np.array([items, items.conj().swapaxes(-1, -2)])
    return _column_norms(sides, p, 2.0, block).max(axis=0)


_CRP_STEPS = 100  # alternating steps of the splitting solve below p = 2


def _crp_split(items: np.ndarray, p: float) -> np.ndarray:
    """CR_p (p < 2) of trusted stacks items[..., n, d, d], as NormValues over the
    leading axes: exact 0 for a zero sequence, else an upper end with its splitting.

    CR_p^2 is the minimum of sum_n ntrace(a_n W^-1 a_n* + b_n* V^-1 b_n), jointly
    convex, over splittings x = a + b and W, V > 0 with ||W||_r + ||V||_r <= 1,
    r = p / (2 - p). From a = x / 2 each step takes the best W, V of a, proportional
    to A^(p-1) S^(1-p/2) and B^(p-1) T^(1-p/2) with S = sum a* a, T = sum b b*,
    A = ||S^(1/2)||_p and B = ||T^(1/2)||_p, from one stacked eigh, then the a that
    solves V a + a W = x W: in the eigenbases of V and W, a_ij = x_ij nu_j / (mu_i
    + nu_j), 1/2 where both vanish. The value is the best of a = x, a = 0 and the
    last a; the step count is fixed, so a sequence's value does not depend on its
    batch.
    """
    a = items / 2
    for _ in range(_CRP_STEPS):
        w, u = np.linalg.eigh(_gram(np.array([a, (items - a).conj().swapaxes(-1, -2)])).sum(-3))
        w = np.maximum(w, 0.0)  # the spectra of S and T
        nu, mu = _p_mean(w, p / 2)[..., None] ** ((p - 1) / 2) * w ** (1 - p / 2)
        total = mu[..., :, None] + nu[..., None, :]
        share = np.divide(nu[..., None, :], total, out=np.full(total.shape, 0.5), where=total > 0)
        col, row = u[..., None, :, :]
        a = row @ (share[..., None, :, :] * (row.conj().swapaxes(-1, -2) @ items @ col)) \
            @ col.conj().swapaxes(-1, -2)
    tried = np.array([items, np.zeros_like(items), a])
    values = _column_norms(np.array([tried, (items - tried).conj().swapaxes(-1, -2)]), p, 2.0)
    values = values.sum(axis=0)
    split = np.empty(items.shape[:-3], dtype=object)
    for idx in np.ndindex(split.shape):
        k = int(values[(slice(None), *idx)].argmin())  # the first on ties: x, then 0
        x, column_part = items[idx], tried[(k, *idx)]
        witness = SplitWitness(tuple(column_part), tuple(x - column_part))
        split[idx] = NormValue(values[(k, *idx)], "upper", witness) if x.any() else NormValue(0.0)
    return split


# ---------------------------------------------------------------------------
# ell_inf of positive sequences: one log-det barrier solve
# ---------------------------------------------------------------------------

LINF_GAP_REL = 1e-9  # the solve stops once (upper - lower) / upper is certified below this
FACTOR_PINV_REL = 1e-12  # eigenvalues of the majorant below this share of its top are dropped
FACTOR_RESIDUAL_TOL = 1e-8  # largest reassembly error of a factorization, relative
_T_GROWTH = 30.0  # barrier weight factor between two centring stages
_NEWTON_TINY = 1e-14  # half the squared Newton decrement that counts as centred
_QUADRATIC = 0.25  # squared decrement below which a full Newton step is tried first


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis B_k of the d x d Hermitian matrices under tr(a b), as the
    unitary d^2 x d^2 matrix whose column k is B_k flattened row-major."""
    e = np.eye(d * d).reshape(-1, d, d)
    i, j = np.divmod(np.arange(d * d), d)
    scale = np.where(i == j, 0.5, np.sqrt(0.5))[:, None, None]
    sym, anti = e + e.swapaxes(1, 2), 1j * (e.swapaxes(1, 2) - e)
    return (scale * np.where((i <= j)[:, None, None], sym, anti)).reshape(d * d, d * d).T


def _barrier(xs, a, p, t) -> float:
    """t ||a||_p - sum_n log det(a - x_n); inf unless every a - x_n > 0."""
    w = np.linalg.eigvalsh(np.concatenate([a[None], a - xs]))
    if w[1:, 0].min() <= 0:
        return INF
    return t * float(_p_mean(w[0], p)) - float(np.log(w[1:]).sum())


def _newton_system(xs, a, p, t, basis):
    """The barrier's gradient and Hessian in `basis` coordinates, and that of ||a||_p."""
    d, adj = len(a), basis.conj().T
    w, u = np.linalg.eigh(a)
    f = float(_p_mean(w, p))
    gw = (w / f) ** (p - 1)  # spectrum of (a / f)^(p-1), the gradient under ntrace
    h = (adj @ ((u * gw) @ u.conj().T).reshape(-1)).real / d
    sinv = np.linalg.inv(a - xs)
    grad = t * h - (adj @ sinv.sum(axis=0).reshape(-1)).real
    # D -> sum_n S_n^-1 D S_n^-1 acts on row-major vectors as sum_n S_n^-1 (x) S_n^-T
    kron = np.einsum("nij,nkl->iljk", sinv, sinv).reshape(d * d, d * d)
    # Daleckii-Krein: the derivative of (a / f)^(p-1) along D is u (gamma o u* D u) u*,
    # with gamma the divided differences of (lambda / f)^(p-1)
    diff = w[:, None] - w[None, :]
    tie = np.abs(diff) <= 1e-8 * w[-1]
    gamma = np.where(tie, (p - 1) / f * ((w[:, None] + w[None, :]) / (2 * f)) ** (p - 2),
                     (gw[:, None] - gw[None, :]) / np.where(tie, 1.0, diff))
    rot = (u.conj().T @ basis.T.reshape(-1, d, d) @ u).reshape(d * d, d * d).T
    hess = ((adj @ kron @ basis).real
            + t * (rot.conj().T @ (gamma.reshape(-1, 1) * rot)).real / d
            + t * (1 - p) / f * np.outer(h, h))
    return grad, h, hess


def _center(xs, a, p, t, basis):
    """Damped Newton on the barrier at weight t, until the decrement is tiny,
    stops shrinking under full steps (round-off), or no step decreases it."""
    last = INF
    while True:
        grad, h, hess = _newton_system(xs, a, p, t, basis)
        step = np.linalg.solve(hess, -grad)
        dec = float(-grad @ step)
        if dec / 2 <= _NEWTON_TINY or dec >= last:
            return a, h, hess
        move, s = (basis @ step).reshape(a.shape), 1.0
        if dec < _QUADRATIC and np.linalg.eigvalsh(a + move - xs)[:, 0].min() > 0:
            last = dec
        else:  # backtracking to sufficient decrease; infeasible points are inf
            last, start = INF, _barrier(xs, a, p, t)
            while _barrier(xs, a + s * move, p, t) >= start - s * dec / 4:
                s /= 2
                if s < 1e-10:
                    return a, h, hess
        a = herm(a + s * move)


def _duals(xs, a, p):
    """Duals y_n = (a - x_n)^-1 / ||sum_m (a - x_m)^-1||_p' and their pairing (a lower bound)."""
    ys = herm(np.linalg.inv(a - xs))
    ys /= _root_norms(ys.sum(axis=0), conjugate_exponent(p), 1.0)
    return ys, float(np.einsum("nij,nji->", xs, ys).real) / a.shape[0]


def _barrier_solve(xs, p, top) -> np.ndarray:
    """A majorant a > x_n of near-minimal ||a||_p (1 <= p < inf, top = max_n ||x_n||_inf).
    Each stage multiplies t by _T_GROWTH and starts from the last centre moved along
    the path's tangent, as the path is close to linear in 1/t."""
    n, d = xs.shape[:2]
    basis, xs = _hermitian_basis(d), xs / top  # solved at max_n ||x_n||_inf = 1
    a, t = 2.0 * np.eye(d, dtype=complex), 0.5 * n * d  # duality gap n d / t ~ ||a||_p
    best, best_gap = a, INF
    while True:
        a, h, hess = _center(xs, a, p, t, basis)
        gap = 1.0 - _duals(xs, a, p)[1] / float(_root_norms(a, p, 1.0))
        if gap >= best_gap:  # round-off has taken over: keep the best stage
            return top * best
        if gap <= LINF_GAP_REL:
            return top * a
        best, best_gap = a, gap
        tangent = (basis @ np.linalg.solve(hess, -h)).reshape(d, d) * t * (1 - 1 / _T_GROWTH)
        feasible = (s for s in 0.5 ** np.arange(10)
                    if np.linalg.eigvalsh(a + s * tangent - xs)[:, 0].min() > 0)
        a, t = herm(a + next(feasible, 0.0) * tangent), t * _T_GROWTH


def _try_factorization(items, m, p):
    """Factor x_n = r y_n r with contractions y_n through r = (c m)^(1/2), c the largest
    ||m^(-1/2) x_n m^(-1/2)||_inf: returns (c ||m||_p, witness), or raises RuntimeError."""
    w, v = np.linalg.eigh(herm(m))
    keep = w > FACTOR_PINV_REL * w[-1]
    root = (v * np.sqrt(np.where(keep, w, 0.0))) @ v.conj().T
    rooti = (v * np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)) @ v.conj().T
    ys = herm(rooti @ items @ rooti)
    residual = float(np.linalg.norm(root @ ys @ root - items, 2, axis=(1, 2)).max())
    if residual > FACTOR_RESIDUAL_TOL * max(1.0, np.linalg.norm(items, 2, axis=(1, 2)).max()):
        raise RuntimeError("no valid factorization found for a positive sequence")
    contraction = np.linalg.norm(ys, 2, axis=(1, 2)).max()
    side = np.sqrt(contraction) * root
    value = contraction * _p_mean(np.linalg.svd(root, compute_uv=False), 2.0 * p, top=0) ** 2
    return value, FactorizationWitness(side, side, tuple(ys / contraction), residual)


def linf_norm_positive(seq: Sequence, p, *, seed: int = 0) -> LinfBracket:
    """Bracket for ||(x_n)||_{L_p(ell_inf)} = min ||a||_p over a >= x_n (x_n >= 0).

    The upper end factors x_n = a^(1/2) y_n a^(1/2) through a majorant a, with
    contractions y_n; the lower end pairs the x_n with duals y_n >= 0,
    ||sum y_n||_p' <= 1. The closed form takes a = c 1, c = max_n ||x_n||_inf,
    and the dual d^(1-1/p) v v* on that term's top eigenvector v: its relative
    gap is 1 - d^(-1/p), 0 at p = inf. When that gap exceeds LINF_GAP_REL the
    barrier solve's majorant and duals are tried, and the tighter bracket is
    returned. The solve is deterministic: `seed` is accepted and ignored.
    """
    items, p = as_stack(seq), as_exponent(p)
    _require_positive(items)
    return LinfBracket(*(end[0] for end in _linf_bracket(items[None], p)))


def _linf_bracket(items: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """linf_norm_positive of trusted PSD stacks items[..., n, d, d]: the lower and
    the upper ends as NormValue arrays over the leading axes, one sequence at a time."""
    ends = np.empty((*items.shape[:-3], 2), dtype=object)
    for idx in np.ndindex(ends.shape[:-1]):
        ends[idx] = _linf_sequence(items[idx], p)
    return ends[..., 0], ends[..., 1]


def _linf_sequence(items: np.ndarray, p: float) -> LinfBracket:
    """The bracket of one trusted PSD stack items[n, d, d]."""
    if not items.any():
        zero = NormValue(0.0, "exact")
        return LinfBracket(zero, zero)
    xs, d = herm(items), items.shape[1]
    w, v = np.linalg.eigh(xs)
    n = int(np.argmax(w[:, -1]))
    closed_gap = 1.0 - d ** (-1.0 / p)
    if closed_gap > LINF_GAP_REL:
        a = _barrier_solve(xs, p, w[n, -1])
        bracket = _certified(items, a, _duals(xs, a, p)[0], p)
        if bracket.upper.value - bracket.lower.value <= closed_gap * bracket.upper.value:
            return bracket
    duals = np.zeros_like(xs)
    duals[n] = d ** (1.0 - 1.0 / p) * np.outer(v[n, :, -1], v[n, :, -1].conj())
    return _certified(items, w[n, -1] * np.eye(d), duals, p)


def _certified(items, a, duals, p) -> LinfBracket:
    """The bracket of a majorant a (factored into the upper end) and duals (paired into
    the lower end) of a trusted PSD stack: (objective - margin) / max(1, ||sum duals||_p').
    objective = sum_n ntrace(x_n y_n) sums N = n d^2 complex products in some order, so its
    rounding error is at most margin = sqrt(2) gamma_(N+3) sum |x_n,ij| |y_n,ji| / d, with
    gamma_k = k u / (1 - k u), u = 2^-53 (Higham, Accuracy and Stability, secs. 3.1, 3.6)."""
    d = items.shape[1]
    objective = float(np.einsum("nij,nji->", items, duals).real) / d
    rounding = (items.size + 3) * 2.0**-53
    margin = (2**0.5 * rounding / (1 - rounding)
              * float(np.einsum("nij,nji->", np.abs(items), np.abs(duals))) / d)
    feasibility = float(_p_mean(np.linalg.svd(duals.sum(axis=0), compute_uv=False),
                                conjugate_exponent(p), top=0))
    lower = NormValue(max((objective - margin) / max(1.0, feasibility), 0.0), "lower",
                      DualCertificate(tuple(duals), objective, feasibility, margin))
    value, witness = _try_factorization(items, a, p)
    return LinfBracket(lower, NormValue(value, "upper", witness))
