"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against plain scalar/array formulas
(or a different decomposition route) so that agreement with the package is
a genuine two-route check, not a reflection of shared code.
"""

import math

import numpy as np

INF = math.inf


def scalar_lp(values, p, weights):
    """Weighted L_p norm of a scalar function on finitely many atoms."""
    values = np.abs(np.asarray(values, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if p == INF:
        return float(values.max())
    return float((weights * values**p).sum() ** (1.0 / p))


def scalar_lpq(fs, p, q, weights):
    """Classical L_p(ell_q) norm; fs has shape (sequence, atoms)."""
    fs = np.abs(np.asarray(fs, dtype=float))
    if q == INF:
        inner = fs.max(axis=0)
    else:
        inner = (fs**q).sum(axis=0) ** (1.0 / q)
    return scalar_lp(inner, p, weights)


def scalar_cond_exp(values, cells, weights):
    """Classical conditional expectation onto a partition of the atoms."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    out = np.empty_like(values)
    for cell in cells:
        idx = list(cell)
        out[idx] = (weights[idx] * values[idx]).sum() / weights[idx].sum()
    return out


def svd_abs(x):
    """|x| assembled from a singular value decomposition."""
    _, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    v = vh.conj().T
    return v @ np.diag(s) @ v.conj().T


def eig_singular_values(x):
    """Singular values via the spectrum of x* x, not via SVD."""
    x = np.asarray(x, dtype=complex)
    w = np.linalg.eigvalsh(x.conj().T @ x)
    return np.sqrt(np.clip(w[::-1], 0.0, None))


def schatten_from_eig(x, p):
    """Normalized Schatten norm computed through eig_singular_values."""
    s = eig_singular_values(x)
    if p == INF:
        return float(s[0])
    return float(np.mean(s**p) ** (1.0 / p))


def loop_cond_exp(x, spec):
    """Conditional expectation written block by block (one loop per block or
    cell, np.kron for the tensor family): the reference for the stacked
    implementation in ncstein.expectation."""
    from ncstein import CellAverage, Pinching, TensorFactor

    a = np.asarray(x, dtype=complex)
    if isinstance(spec, Pinching):
        out = np.zeros_like(a)
        for b in spec.blocks:
            lo, hi = b[0], b[-1] + 1
            out[lo:hi, lo:hi] = a[lo:hi, lo:hi]
        return out
    if isinstance(spec, TensorFactor):
        keep = math.prod(spec.local_dims[: spec.retained])
        drop = spec.dim // keep
        partial = np.einsum("ibjb->ij", a.reshape(keep, drop, keep, drop)) / drop
        return np.kron(partial, np.eye(drop))
    assert isinstance(spec, CellAverage)
    d = spec.block_dim
    out = np.zeros_like(a)
    for cell in spec.cells:
        avg = sum(a[w * d : (w + 1) * d, w * d : (w + 1) * d] for w in cell) / len(cell)
        for w in cell:
            out[w * d : (w + 1) * d, w * d : (w + 1) * d] = avg
    return out


def column_norm_svd(seq, p, q):
    """||(sum_n |x_n|^q)^(1/q)||_p with |x|^q = V S^q V* from each term's SVD
    and the outer norm from the singular values of the sum."""
    total = 0
    for x in seq:
        _, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
        v = vh.conj().T
        total = total + (v * s**q) @ v.conj().T
    sv = np.linalg.svd(total, compute_uv=False)
    return float(np.mean(sv ** (p / q)) ** (1.0 / p))


def sequential_climb(cfg, p=None, q=None):
    """estimate_constant (at the exponents (p, q) when given) with its restarts run
    one after another, each scoring one proposal per kernel call: the reference
    for the lockstep search in ncstein.search."""
    from ncstein.expectation import _cond_exp_stack, _condition
    from ncstein.inequality import _first, get_inequality, run_inequality
    from ncstein.opcore import herm, _complex_gaussians
    from ncstein.search import MAX_INITIAL_DRAWS, MIN_STEP, SearchResult, isometry_family
    from ncstein.seqnorm import _abs_q_stack

    ineq = get_inequality(cfg.inequality_id)
    p, q = cfg.resolve(*((cfg.p, cfg.q) if p is None else (p, q)))
    filt, lag = cfg.filt, cfg.lag
    kind = ineq.input_kind
    adapted = kind == "adapted-seq" or cfg.adapted_only
    n_mats = 1 if kind == "operator" else cfg.seq_len
    isometries = isometry_family(cfg.inequality_id, cfg.dim, n_mats, cfg.seed)

    def evaluate(zs):
        xs = herm(zs.conj().swapaxes(1, 2) @ zs)
        if not np.isfinite(xs).all():
            raise ValueError("proposal has non-finite entries")
        if adapted:
            xs = _condition(xs, filt, 0)
        lhs, rhs = _first(ineq.kernel(xs[None], filt, p, q, lag, isometries))[:2]
        return (lhs.value / rhs.value if rhs.value > 0 else None), xs

    def replay(xs):
        return run_inequality(cfg.inequality_id, xs, filt, p, q, lag, isometries)

    evaluations = 0
    per_restart = cfg.budget // cfg.restarts
    best_ratio = -np.inf
    best_xs = None
    trajectory = []

    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        start_evals = evaluations
        current = None
        current_ratio = -np.inf
        current_xs = None
        for _ in range(MAX_INITIAL_DRAWS):
            if evaluations - start_evals >= per_restart:
                break
            zs = _complex_gaussians(rng, n_mats, cfg.dim)
            if restart == 0:
                coarse = _cond_exp_stack(herm(zs.conj().swapaxes(1, 2) @ zs), filt.levels[0])
                zs = _abs_q_stack(coarse, 0.5)
            evaluations += 1
            try:
                ratio, xs = evaluate(zs)
            except ValueError:
                continue
            if ratio is not None:
                current, current_ratio, current_xs = zs, ratio, xs
                break
        if current is None:
            if evaluations - start_evals >= per_restart:
                continue
            raise RuntimeError(
                f"checker rejected {MAX_INITIAL_DRAWS} initial draws for "
                f"{cfg.inequality_id} (restart {restart})"
            )
        if current_ratio > best_ratio:
            best_ratio, best_xs = current_ratio, current_xs
            trajectory.append((evaluations, best_ratio))

        step = cfg.step_scale
        rejections = 0
        while evaluations - start_evals < per_restart and step >= MIN_STEP:
            proposal = current + step * _complex_gaussians(rng, n_mats, cfg.dim)
            evaluations += 1
            try:
                ratio, xs = evaluate(proposal)
            except ValueError:
                ratio = None
            if ratio is not None and ratio > current_ratio:
                current, current_ratio = proposal, ratio
                rejections = 0
                if ratio > best_ratio:
                    best_ratio, best_xs = ratio, xs
                    trajectory.append((evaluations, best_ratio))
            else:
                rejections += 1
                if rejections >= 20:
                    step /= 2
                    rejections = 0

    if best_xs is None:
        raise RuntimeError("search produced no accepted evaluation")
    report = replay(best_xs)
    scale = report.rhs.value
    if scale > 0:
        best_xs = (1.0 / scale) * best_xs
        report = replay(best_xs)
    if report.ratio is None:
        raise RuntimeError(f"the best {cfg.inequality_id} witness at p={p:g} replays with no "
                           f"ratio: its rhs is {scale:g}, which cannot be normalized to 1")
    return SearchResult(best_ratio=float(report.ratio), witness=tuple(best_xs),
                        evaluations_used=evaluations, trajectory=tuple(trajectory),
                        report=report)
