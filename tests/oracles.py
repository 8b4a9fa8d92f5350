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
    """Classical L_p(ell_q) norm; fs has shape (sequence, atoms). For commuting
    positive terms diag(fs[n]) it is their column norm, and at q = inf their
    L_p(ell_inf) norm ||max_n x_n||_p: the pointwise max is the least majorant."""
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


def dyadic_average(values, level):
    """E_level of diag(values) on the tensor chain of local_dims (2,) * N, read on the
    diagonal: the values averaged over their N - level trailing bits. So diagonal
    inputs are a classical dyadic martingale."""
    values = np.asarray(values, dtype=float)
    return values.reshape(2**level, -1).mean(axis=1).repeat(len(values) // 2**level)


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


def contains_by_units(outer, inner):
    """Whether the subalgebra inner lies in outer: E_outer, through loop_cond_exp, fixes
    every matrix unit of inner. E_inner of the d^2 standard matrix units spans inner, and
    each is fixed to round-off or moved by at least 1/d^2."""
    d = inner.dim
    for e in range(d):
        for f in range(d):
            unit = np.zeros((d, d), complex)
            unit[e, f] = 1.0
            u = loop_cond_exp(unit, inner)
            if np.abs(loop_cond_exp(u, outer) - u).max() > 1e-12:
                return False
    return True


def axiom_residuals_reference(spec, trials, seed):
    """axiom_residuals with one schatten_norm call per matrix and exponent: the
    reference for the stacked SVD in ncstein.expectation."""
    from ncstein.expectation import AxiomResiduals, cond_exp
    from ncstein.opcore import herm, ntrace, op_norm, schatten_norm, _complex_gaussian

    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    d = spec.dim
    exponents = (1.0, 2.0, 3.0, INF)
    out = {
        "projection": 0.0,
        "bimodule": 0.0,
        "trace": 0.0,
        "positivity": 0.0,
        "adjoint": 0.0,
    }
    contract = {p: 0.0 for p in exponents}
    for _ in range(trials):
        x = _complex_gaussian(rng, d)
        a = cond_exp(_complex_gaussian(rng, d), spec)
        b = cond_exp(_complex_gaussian(rng, d), spec)
        z = _complex_gaussian(rng, d)
        psd = herm(z.conj().T @ z)

        ex = cond_exp(x, spec)
        out["projection"] = max(out["projection"], op_norm(cond_exp(ex, spec) - ex))
        out["bimodule"] = max(
            out["bimodule"], op_norm(cond_exp(a @ x @ b, spec) - a @ ex @ b)
        )
        out["trace"] = max(out["trace"], abs(ntrace(ex) - ntrace(x)))
        out["adjoint"] = max(out["adjoint"], op_norm(cond_exp(x.conj().T, spec) - ex.conj().T))
        w = np.linalg.eigvalsh(herm(cond_exp(psd, spec)))
        out["positivity"] = max(out["positivity"], max(0.0, -float(w[0])))
        for p in exponents:
            excess = schatten_norm(ex, p) - schatten_norm(x, p)
            contract[p] = max(contract[p], max(0.0, excess))
    return AxiomResiduals(contractivity=contract, **out)


def verify_bracket(seq, p, bracket):
    """Assert that an ell_inf bracket of the positive sequence seq holds, re-checked
    from its certificates' matrices alone. Lower end: PSD duals y_n with
    ||sum y_n||_p' <= 1 whose pairing sum_n ntrace(x_n y_n) is the reported
    objective, and the value is (objective - margin) / max(1, ||sum y_n||_p'), so
    that round-off in the pairing and in the duals' norm cannot lift it. Upper end:
    contractions y_n that reassemble x_n = left y_n right, with the value
    ||left||_2p ||right||_2p. And lower <= upper."""
    seq = [np.asarray(x, dtype=complex) for x in seq]
    lower, upper = bracket
    cert, wit = lower.certificate, upper.certificate
    assert cert.feasibility <= 1 + 1e-8
    assert cert.margin >= 0
    assert lower.value == max((cert.objective - cert.margin) / max(1.0, cert.feasibility), 0.0)
    for y in cert.duals:
        assert np.linalg.eigvalsh((y + y.conj().T) / 2)[0] >= -1e-10
    total = sum(cert.duals)
    w = np.clip(np.linalg.eigvalsh((total + total.conj().T) / 2), 0.0, None)  # a PSD sum
    p_dual = 1.0 if p == INF else (INF if p == 1 else p / (p - 1))
    assert (w.max() if p_dual == INF else np.mean(w**p_dual)) <= 1 + 1e-8
    pairing = sum(np.trace(x @ y).real / len(x) for x, y in zip(seq, cert.duals))
    assert abs(pairing - cert.objective) <= max(1e-10 * abs(cert.objective), 1e-12)
    assert abs(pairing - lower.value) <= 1e-10 * lower.value
    assert pairing <= upper.value + 1e-8  # duality: a feasible pairing stays below
    norms = [np.linalg.norm(x, 2) for x in seq]
    assert wit.residual <= 1e-8 * max(1.0, *norms)
    for x, y, norm in zip(seq, wit.contractions, norms):
        assert np.linalg.norm(y, 2) <= 1 + 1e-8
        assert np.linalg.norm(wit.left @ y @ wit.right - x, 2) <= 1e-8 * norm

    def schatten(m, r):  # through eig_singular_values, scaled by the top: r may be large
        s = eig_singular_values(m)
        return s[0] if r == INF else s[0] * np.mean((s / s[0]) ** r) ** (1.0 / r)

    sides = schatten(wit.left, 2 * p) * schatten(wit.right, 2 * p)
    assert abs(upper.value - sides) <= 1e-9 * sides
    assert lower.value <= upper.value + 1e-8


def crp_dual_lower(seq, p, witness):
    """A lower end of CR_p(x), 1 <= p < 2, from a splitting x_n = a_n + b_n by
    duality: the dual of CR_p is C_p' cap R_p' (Pisier-Xu 1997, Junge-Xu 2003), so
    every y with max(||y||_C_p', ||y||_R_p') = 1 gives Re sum_n ntrace(y_n* x_n) <=
    CR_p(x). Tries the column side y_n = a_n S^((p-2)/2), S = sum a_n* a_n, and the
    row side y_n = T^((p-2)/2) b_n, T = sum b_n b_n*, each with its power taken on
    the support from eigh, and returns the larger lower end."""
    xs = np.asarray(seq, dtype=complex)
    p_dual = INF if p == 1 else p / (p - 1)

    def spectrum(m):
        return np.linalg.eigh((m + m.conj().T) / 2)

    def power(m, r):  # m^r on the support of the PSD m
        w, v = spectrum(m)
        keep = w > 1e-12 * max(w[-1], 0.0)
        return (v * np.where(keep, np.where(keep, w, 1.0) ** r, 0.0)) @ v.conj().T

    def root_norm(m):  # ||m^(1/2)||_p' of the PSD m
        w = np.clip(spectrum(m)[0], 0.0, None)
        return np.sqrt(w[-1]) if p_dual == INF else np.mean(w ** (p_dual / 2)) ** (1 / p_dual)

    def adj(m):
        return m.conj().swapaxes(-1, -2)

    a, b = np.asarray(witness.column_part), np.asarray(witness.row_part)
    duals = []
    if a.any():
        duals.append(a @ power((adj(a) @ a).sum(axis=0), (p - 2) / 2))
    if b.any():
        duals.append(power((b @ adj(b)).sum(axis=0), (p - 2) / 2) @ b)
    lower = 0.0
    for y in duals:
        scale = max(root_norm((adj(y) @ y).sum(axis=0)), root_norm((y @ adj(y)).sum(axis=0)))
        pairing = np.trace(adj(y) @ xs, axis1=1, axis2=2).sum().real / xs.shape[-1]
        lower = max(lower, pairing / scale)
    return lower


def tower_residual_reference(filt, trials, seed):
    """tower_residual with each level's first projection through the validating
    cond_exp: the reference for the trusted stacked core in ncstein.expectation."""
    from ncstein.expectation import cond_exp, _cond_exp_stack
    from ncstein.opcore import _complex_gaussian

    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = _complex_gaussian(rng, filt.dim)
        projected = np.stack([cond_exp(x, spec) for spec in filt.levels])
        for m, spec_m in enumerate(filt.levels):  # E_m of every E_n(x) against E_min(m,n)(x)
            diff = _cond_exp_stack(projected, spec_m) - projected[np.minimum(range(len(filt)), m)]
            worst = max(worst, float(np.linalg.norm(diff, 2, axis=(1, 2)).max()))
    return worst


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


def sequential_climb(cfg):
    """estimate_constant with its restarts run one after another, each scoring one
    proposal per kernel call: the reference for the lockstep search in
    ncstein.search."""
    from ncstein.expectation import _cond_exp_stack, _condition
    from ncstein.inequality import _first, get_inequality, run_inequality
    from ncstein.opcore import herm, _complex_gaussians
    from ncstein.search import MAX_INITIAL_DRAWS, MIN_STEP, SearchResult, isometry_family
    from ncstein.seqnorm import _abs_q_stack

    ineq = get_inequality(cfg.inequality_id)
    p, q, filt, lag = cfg.p, cfg.q, cfg.filt, cfg.lag
    kind = ineq.input_kind
    adapted = kind == "adapted-seq" or cfg.adapted_only
    n_mats = 1 if kind == "operator" else cfg.seq_len
    isometries = isometry_family(cfg.inequality_id, filt.dim, n_mats, cfg.seed)

    def evaluate(zs):
        xs = herm(zs.conj().swapaxes(1, 2) @ zs)
        if not np.isfinite(xs).all():
            raise ValueError("proposal has non-finite entries")
        if adapted:
            xs = _condition(xs, filt, 0)
        # s_isometry's kernel scores the sequence conjugated by its unitaries
        scored = xs if isometries is None else herm(
            isometries.conj().swapaxes(1, 2) @ xs @ isometries)
        lhs, rhs = _first(ineq.kernel(scored[None], filt, p, q, lag))[:2]
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
            zs = _complex_gaussians(rng, n_mats, filt.dim)
            if restart == 0:
                coarse = _cond_exp_stack(herm(zs.conj().swapaxes(1, 2) @ zs), filt.levels[0])
                zs = _abs_q_stack(coarse, 0.5)[0]
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
            proposal = current + step * _complex_gaussians(rng, n_mats, filt.dim)
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


# ---------------------------------------------------------------------------
# Byte oracles: the plain formulas the per-evaluation cores compute with other
# calls, which must give the same bytes.
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny


def complex_gaussians_formula(rng, count, dim):
    """(count, dim, dim) standard complex Gaussians as one complex expression."""
    g = rng.standard_normal((count, 2, dim, dim))
    return (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2)


def _herm(a):
    return (a + a.conj().swapaxes(-1, -2)) / 2


def clip_abs_q_stack(xs, q):
    """(x / t)^q of PSD stacks xs[..., n, d, d] and the scales t (q not 1 or 2), with
    the spectra clamped by np.clip."""
    w, u = np.linalg.eigh(_herm(xs))
    w, scale = np.clip(w, 0.0, None), 1.0
    if q > 2:
        scale = np.maximum(w.max(axis=(-2, -1)), _TINY)
        w /= scale[..., None, None]
    return _herm((u * w[..., None, :] ** q) @ u.conj().swapaxes(-1, -2)), scale


def clip_root_norms(s, p, q):
    """||s^(1/q)||_p of PSD stacks s[..., d, d], finite p, with the spectra clamped by
    np.clip and scaled by their top before the (p/q)-th power."""
    w = np.clip(np.linalg.eigvalsh(_herm(s)), 0.0, None)
    r = p / q
    scale = np.maximum(w[..., -1], _TINY)
    mean = ((w / scale[..., None]) ** r).sum(axis=-1) / w.shape[-1]
    return (scale * mean ** (1 / r)) ** (1.0 / q)


def clip_column_norms(xs, p, q):
    """||(sum_n |x_n|^q)^(1/q)||_p of stacks xs[..., n, d, d] (PSD terms unless q = 2),
    always multiplied by the scale."""
    if q == 2:
        powers, scale = xs.conj().swapaxes(-1, -2) @ xs, 1.0
    elif q == 1:
        powers, scale = _herm(xs), 1.0
    else:
        powers, scale = clip_abs_q_stack(xs, q)
    return scale * clip_root_norms(powers.sum(axis=-3), p, q)


def clip_psd_power(a, r):
    """a^r of a PSD operator with its spectrum clamped by np.clip."""
    w, u = np.linalg.eigh(_herm(a))
    return _herm((u * np.clip(w, 0.0, None) ** r) @ u.conj().T)
