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
