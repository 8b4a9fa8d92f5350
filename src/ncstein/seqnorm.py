"""Vector-valued sequence norms over a matrix tracial space.

Closed forms: the column/row ell_2 norms, general ell_q column norms, the
CR_p norm for p >= 2, and the ell_1 norm of positive sequences (norm of the
sum). Two quantities are only bracketed:

  * CR_p for p < 2 is an infimum over splittings x_n = a_n + b_n; a local
    search returns an upper bound together with its splitting.
  * The ell_inf norm of a positive sequence is sandwiched between the best
    dual pairing found by projected ascent (a certified lower bound) and
    the value of an explicit factorization x_n = a y_n b with contractions
    y_n (a certified upper bound). The dual side maximizes
    sum_n ntrace(x_n y_n) over positive duals with ||sum y_n||_p' <= 1.

Every optimizer is seeded and pure; repeated calls with equal arguments
return identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .opcore import (
    EIG_CLAMP_REL,
    INF,
    abs_op,
    as_stack,
    check_exponent,
    conjugate_exponent,
    herm,
    is_psd,
    ntrace,
    op_norm,
    psd_power,
    schatten_norm,
    _complex_gaussian,
    _complex_gaussians,
)

FACTOR_PINV_REL = 1e-12
FACTOR_RESIDUAL_TOL = 1e-8


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


@dataclass(frozen=True)
class DualCertificate:
    """Feasible positive duals realizing a lower bound on the ell_inf norm."""

    duals: tuple[np.ndarray, ...]
    objective: float
    feasibility: float  # ||sum duals||_{p'}, must be <= 1 up to round-off


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


def _all_zero(seq) -> bool:
    return all(not np.any(x) for x in seq)


def _require_positive(seq) -> None:
    for n, x in enumerate(seq):
        if not is_psd(x):
            raise ValueError(f"sequence item {n} is not positive semidefinite")


def _abs_q_stack(xs: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray | None]:
    """|x|^q for every operator of a trusted stack xs[..., d, d]; for q != 2 also
    which terms are PSD (is_psd's test, from one batched eigh): those skip |x|."""
    if q == 2:
        return xs.conj().swapaxes(-1, -2) @ xs, None
    flat = xs.reshape(-1, *xs.shape[-2:])
    h = herm(flat)
    w, u = np.linalg.eigh(h)
    clamp = EIG_CLAMP_REL * np.maximum(1.0, np.maximum(abs(w[:, 0]), abs(w[:, -1])))
    psd = w[:, 0] >= -clamp
    for k in np.flatnonzero(~np.all(flat == flat.conj().swapaxes(1, 2), axis=(1, 2))):
        psd[k] = is_psd(flat[k])
    out = h if q == 1 else herm((u * np.clip(w, 0.0, None)[:, None, :] ** q)
                                @ u.conj().swapaxes(1, 2))
    for k in np.flatnonzero(~psd):
        out[k] = psd_power(abs_op(flat[k]), q)
    return out.reshape(xs.shape), psd.reshape(xs.shape[:-2])


def _root_norms(s: np.ndarray, p: float, q: float) -> np.ndarray:
    """||s^(1/q)||_p for every PSD operator of s[..., d, d] from one batched
    eigvalsh: mean(w^(p/q))^(1/p), or max(w)^(1/q) at p = inf."""
    w = np.clip(np.linalg.eigvalsh(herm(s)), 0.0, None)
    if p == INF:
        return w[..., -1] ** (1.0 / q)
    return np.mean(w ** (p / q), axis=-1) ** (1.0 / p)


def _column_norms(xs: np.ndarray, p: float, q: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Column norms of trusted stacks xs[..., n, d, d], and _abs_q_stack's PSD flags."""
    powers, psd = _abs_q_stack(xs, q)
    return _root_norms(powers.sum(axis=-3), p, q), psd


def column_q_norm(seq: Sequence, p, q) -> NormValue:
    """Column norm ||(sum_n |x_n|^q)^(1/q)||_p, exact.

    q must be finite (the positive ell_inf norm has its own entry point);
    the outer norm is mean(w^(p/q))^(1/p) over the eigenvalues w of the sum.
    """
    xs = as_stack(seq)
    p = check_exponent(p)
    if q == INF:
        raise ValueError("q = inf is handled by linf_norm_positive")
    q = check_exponent(q)
    return NormValue(float(_column_norms(xs, p, q)[0]), "exact")


def row_2_norm(seq: Sequence, p) -> NormValue:
    """Row norm ||(sum_n |x_n*|^2)^(1/2)||_p; the column norm of the adjoints."""
    xs = as_stack(seq).conj().swapaxes(1, 2)
    return NormValue(float(_column_norms(xs, check_exponent(p), 2.0)[0]), "exact")


def l1_norm_positive(seq: Sequence, p) -> NormValue:
    """ell_1 norm of a positive sequence: ||sum_n x_n||_p, exact."""
    items = as_stack(seq)
    p = check_exponent(p)
    _require_positive(items)
    if _all_zero(items):
        return NormValue(0.0, "exact")
    return NormValue(schatten_norm(sum(items), p), "exact")


# ---------------------------------------------------------------------------
# CR_p
# ---------------------------------------------------------------------------


def crp_norm(seq: Sequence, p, *, seed: int = 0, max_steps: int = 2000) -> NormValue:
    """CR_p norm: max of column and row norms for p >= 2 (exact); for p < 2
    the infimum over splittings x_n = a_n + b_n of column(a) + row(b),
    reported as the best value found (an upper bound) with its splitting.
    """
    items = as_stack(seq)
    p = check_exponent(p)
    if _all_zero(items):
        return NormValue(0.0, "exact")
    if p >= 2:  # column and row norms from one batched eigvalsh
        sides = np.stack([items, items.conj().swapaxes(1, 2)])
        return NormValue(float(_column_norms(sides, p, 2.0)[0].max()), "exact")
    return _crp_split(items, p, seed, max_steps)


def _crp_split(items: np.ndarray, p: float, seed: int, max_steps: int) -> NormValue:
    def objective(a_seq):  # column(a) + row(b), both from one batched eigvalsh
        b_seq = items - a_seq
        sides = np.stack([a_seq, b_seq.conj().swapaxes(1, 2)])
        return float(_column_norms(sides, p, 2.0)[0].sum()), b_seq

    best_val, best_b = objective(items)  # a = x, b = 0
    best_a = items.copy()
    for cand in (np.zeros_like(items), items / 2):
        val, b_seq = objective(cand)
        if val < best_val:
            best_val, best_a, best_b = val, cand, b_seq

    # local refinement from the symmetric splitting
    rng = np.random.default_rng(seed)
    a_cur = items / 2
    cur_val, _ = objective(a_cur)
    scale = max(1e-30, max(op_norm(x) for x in items))
    step = 0.25 * scale
    rejected = 0
    for _ in range(max_steps):
        if step < 1e-8 * scale:
            break
        proposal = a_cur + step * _complex_gaussians(rng, *items.shape[:2])
        val, b_seq = objective(proposal)
        if val < cur_val:
            a_cur, cur_val = proposal, val
            rejected = 0
            if val < best_val:
                best_val, best_a, best_b = val, proposal, b_seq
        else:
            rejected += 1
            if rejected >= 20:
                step /= 2
                rejected = 0
    witness = SplitWitness(tuple(best_a), tuple(best_b))
    return NormValue(best_val, "upper", witness)


# ---------------------------------------------------------------------------
# ell_inf of positive sequences: factorization upper bound
# ---------------------------------------------------------------------------


def _pinching_basis(items: list[np.ndarray]) -> np.ndarray:
    """Eigenbasis of the sum, tie-broken so that simultaneously diagonalizable
    inputs keep their common eigenbasis even when the sum has repeated
    eigenvalues."""
    s = herm(sum(items))
    tie = sum((n + 1) * x for n, x in enumerate(items)) * (1e-3 / (len(items) + 1))
    _, v = np.linalg.eigh(herm(s + tie))
    return v


def _try_factorization(items, m, p):
    """Factor through the PSD middle term m; None when m misses some range."""
    w, v = np.linalg.eigh(herm(m))
    w = np.clip(w, 0.0, None)
    top = float(w[-1])
    if top <= 0.0:
        return None
    cutoff = FACTOR_PINV_REL * top
    r = np.where(w > cutoff, np.sqrt(w), 0.0)
    rinv = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    root = (v * r) @ v.conj().T
    rooti = (v * rinv) @ v.conj().T
    ys = [herm(rooti @ x @ rooti) for x in items]
    x_scale = max(1.0, max(op_norm(x) for x in items))
    residual = max(op_norm(root @ y @ root - x) for y, x in zip(ys, items))
    if residual > FACTOR_RESIDUAL_TOL * x_scale:
        return None
    contraction = max(op_norm(y) for y in ys)
    if contraction <= 0.0:
        return None
    two_p = INF if p == INF else 2.0 * p
    value = contraction * schatten_norm(root, two_p) ** 2
    # renormalize so every stored contraction has norm <= 1
    side = np.sqrt(contraction) * root
    ys = tuple(y / contraction for y in ys)
    witness = FactorizationWitness(side, side, ys, residual)
    return value, witness


def _factorization_upper(items: list[np.ndarray], p: float) -> NormValue:
    s = herm(sum(items))
    candidates = [s]
    v = _pinching_basis(items)
    diag = np.stack([np.einsum("ij,jk,ki->i", v.conj().T, x, v).real for x in items])
    pointwise_max = np.clip(diag.max(axis=0), 0.0, None)
    candidates.append(herm((v * pointwise_max) @ v.conj().T))

    best = None
    for m in candidates:
        res = _try_factorization(items, m, p)
        if res is not None and (best is None or res[0] < best[0]):
            best = res
    if best is None:
        raise RuntimeError("no valid factorization found for a positive sequence")
    return NormValue(best[0], "upper", best[1])


# ---------------------------------------------------------------------------
# ell_inf of positive sequences: dual ascent lower bound
# ---------------------------------------------------------------------------


def _w_norm(w: np.ndarray, pp: float) -> float:
    """Schatten p'-norm of a PSD matrix from its (clamped) eigenvalues."""
    if pp == INF:
        return float(w[-1])
    return float(np.mean(w**pp) ** (1.0 / pp))


def _norm_gradient_eig(w, v, pp, d) -> np.ndarray:
    """Scaled gradient of ||S||_{p'} from the eigendecomposition of S,
    normalized so the ratio-ascent direction is z_n @ (x_n - ell * grad)."""
    if pp == INF:
        top = w >= w[-1] * (1.0 - 1e-12)
        proj = (v * top.astype(float)) @ v.conj().T
        return d * herm(proj) / max(1, int(top.sum()))
    norm = _w_norm(w, pp)
    if norm <= 0:
        return np.zeros((d, d), dtype=complex)
    return herm((v * (w ** (pp - 1.0))) @ v.conj().T) * norm ** (1.0 - pp)


def _ascend(items, zs, pp, max_iter, tol):
    """Projected gradient ascent of the dual pairing on ||sum z*z||_{p'} = 1.

    Steps follow the gradient of the scale-invariant ratio
    sum ntrace(x_n z_n* z_n) / ||sum z_n* z_n||_{p'}, with backtracking and
    renormalization after every move; ascent stops once the relative gain
    stays below tol or the step size underflows.
    """
    x_stack = np.stack(items)
    d = x_stack.shape[1]
    z_stack = np.stack([np.asarray(z, dtype=complex) for z in zs])

    def spectrum(z_arr):
        y = np.matmul(z_arr.conj().transpose(0, 2, 1), z_arr)
        w, v = np.linalg.eigh(herm(y.sum(axis=0)))
        return y, np.clip(w, 0.0, None), v

    y, w, v = spectrum(z_stack)
    g = _w_norm(w, pp)
    if g <= 0:
        return list(z_stack), 0.0
    z_stack, y, w = z_stack / np.sqrt(g), y / g, w / g
    ell = float(np.real(np.einsum("nij,nji->", x_stack, y))) / d

    eta = 0.1
    stall = 0
    for _ in range(max_iter):
        ghat = _norm_gradient_eig(w, v, pp, d)
        direction = np.matmul(z_stack, x_stack - ell * ghat[None])
        dscale = np.linalg.norm(direction)
        zscale = np.linalg.norm(z_stack)
        if dscale <= 0 or zscale <= 0:
            break
        trial = z_stack + eta * (zscale / dscale) * direction
        y_t, w_t, v_t = spectrum(trial)
        g_t = _w_norm(w_t, pp)
        if g_t <= 0:
            break
        trial, y_t, w_t = trial / np.sqrt(g_t), y_t / g_t, w_t / g_t
        ell_new = float(np.real(np.einsum("nij,nji->", x_stack, y_t))) / d
        if ell_new > ell:
            gain = ell_new - ell
            z_stack, y, w, v, ell = trial, y_t, w_t, v_t, ell_new
            eta = min(eta * 1.3, 1.0)
            stall = stall + 1 if gain < tol * max(1.0, ell) else 0
        else:
            eta /= 2
            stall += 1
            if eta < 1e-12:
                break
        if stall >= 10:
            break
    return list(z_stack), ell


def _holder_start(items, p):
    """Dual guess saturating the trace pairing term by term."""
    starts = []
    for x in items:
        w, v = np.linalg.eigh(herm(x))
        w = np.clip(w, 0.0, None)
        if p == INF:
            top = (w >= w[-1] * (1.0 - 1e-12)) & (w > 0)
            weights = top.astype(float)
        else:
            weights = w ** ((p - 1.0) / 2.0)
        starts.append((v * weights) @ v.conj().T)
    return starts


def _pinched_start(items, p):
    """Classical argmax dual in a joint-ish eigenbasis; exact for commuting
    sequences."""
    v = _pinching_basis(items)
    diag = np.stack([np.clip(np.einsum("ij,jk,ki->i", v.conj().T, x, v).real, 0.0, None)
                     for x in items])
    pointwise_max = diag.max(axis=0)
    owner = diag.argmax(axis=0)
    if p == INF:
        top = pointwise_max.max()
        weights = ((pointwise_max >= top * (1.0 - 1e-12)) & (pointwise_max > 0)).astype(float)
    else:
        weights = pointwise_max ** (p - 1.0)
    starts = []
    for n in range(len(items)):
        u = np.sqrt(np.where(owner == n, weights, 0.0))
        starts.append(u[:, None] * v.conj().T)
    return starts


def _dual_lower(items, p, restarts, max_iter, tol, seed) -> NormValue:
    d = items[0].shape[0]
    pp = conjugate_exponent(p)
    rng = np.random.default_rng(seed)
    starts = [_holder_start(items, p), _pinched_start(items, p)]
    while len(starts) < restarts:
        starts.append([_complex_gaussian(rng, d) for _ in items])

    best_obj = 0.0
    best_zs = None
    for zs in starts[:restarts]:
        zs_out, obj = _ascend(items, zs, pp, max_iter, tol)
        if obj > best_obj:
            best_obj, best_zs = obj, zs_out

    if best_zs is None:
        duals = tuple(np.zeros((d, d), dtype=complex) for _ in items)
        return NormValue(0.0, "lower", DualCertificate(duals, 0.0, 0.0))
    duals = [herm(z.conj().T @ z) for z in best_zs]
    feas = schatten_norm(herm(sum(duals)), pp)
    if feas > 1.0:
        duals = [y / feas for y in duals]
        feas = schatten_norm(herm(sum(duals)), pp)
    objective = sum(float(np.real(ntrace(x @ y))) for x, y in zip(items, duals))
    cert = DualCertificate(tuple(duals), objective, feas)
    return NormValue(max(objective, 0.0), "lower", cert)


def linf_norm_positive(seq: Sequence, p, *, restarts: int = 8,
                       max_iter: int = 5000, tol: float = 1e-8,
                       seed: int = 0) -> LinfBracket:
    """Bracket for the ell_inf norm of a positive sequence.

    The lower end is the best dual pairing sum_n ntrace(x_n y_n) found over
    positive duals with ||sum y_n||_{p'} <= 1 (certificate attached); the
    upper end is the value of an explicit factorization through the sum or
    a pinched pointwise maximum, whichever is smaller. The true norm lies
    in between. Ascent restarts include a term-by-term trace-saturating
    start and a classical argmax start, then seeded random draws.
    """
    items = as_stack(seq)
    p = check_exponent(p)
    _require_positive(items)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if _all_zero(items):
        zero = NormValue(0.0, "exact")
        return LinfBracket(zero, zero)
    upper = _factorization_upper(items, p)
    lower = _dual_lower(items, p, restarts, max_iter, tol, seed)
    return LinfBracket(lower, upper)
