"""Dense complex-matrix kernel for a finite tracial probability space.

Everything here works with the normalized trace ntrace(x) = tr(x) / d, so
the identity has trace one and norm one for every exponent. To convert a
Schatten norm to the unnormalized convention multiply by d**(1/p).

Exponents live in [1, inf]; math.inf selects the operator-norm branch and
is treated as a first-class value, never as a large float.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf

# Acceptance / drift tolerances, relative to max(1, operator norm).
HERMITIAN_TOL = 1e-8
EIG_CLAMP_REL = 1e-10
_TINY = np.finfo(float).tiny  # smallest normal float: the scale of a zero spectrum


def as_operator(x) -> np.ndarray:
    """Validate x as a square complex matrix with finite entries."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("operator dimension must be >= 1")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("operator entries must be finite")
    return a


def as_stack(seq) -> np.ndarray:
    """Validate a nonempty sequence of equal-size operators as one trusted (n, d, d) stack."""
    items = [as_operator(x) for x in seq]
    if not items:
        raise ValueError("operator sequence must be nonempty")
    dims = {x.shape[0] for x in items}
    if len(dims) != 1:
        raise ValueError(f"operator sequence mixes dimensions {sorted(dims)}")
    return np.stack(items)


def ntrace(x) -> complex:
    """Normalized trace tr(x)/d; equals 1 on the identity."""
    a = np.asarray(x)
    return complex(np.trace(a)) / a.shape[0]


def herm(x) -> np.ndarray:
    """Hermitian part (x + x*)/2 of an operator or of each operator in a stack."""
    a = np.asarray(x)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def op_norm(x) -> float:
    """Operator (spectral) norm, the p = inf Schatten norm."""
    return float(np.linalg.norm(np.asarray(x), 2))


def check_exponent(p) -> float:
    """Validate an exponent in [1, inf] and return it as a float."""
    p = float(p)
    if not p >= 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    return p


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian operator.

    Returns (eigenvalues, transition) with eigenvalues ascending and
    h = transition @ diag(eigenvalues) @ transition*. The input may deviate
    from Hermitian by at most HERMITIAN_TOL * max(1, ||h||); it is
    symmetrized before decomposing. Larger asymmetry is rejected.
    """
    a = as_operator(h)
    if not np.array_equal(a, a.conj().T):  # a bitwise Hermitian input needs no SVD
        residual, scale = op_norm(a - a.conj().T), max(1.0, op_norm(a))
        if residual > HERMITIAN_TOL * scale:
            raise ValueError(
                f"operator is not Hermitian: asymmetry {residual:.3e} exceeds "
                f"tolerance {HERMITIAN_TOL * scale:.3e}"
            )
    w, u = np.linalg.eigh(herm(a))
    return w, u


def _eig_clamp(w: np.ndarray) -> float:
    scale = max(1.0, float(abs(w[0])), float(abs(w[-1])))
    return EIG_CLAMP_REL * scale


def abs_op(x) -> np.ndarray:
    """Absolute value |x| = (x* x)^(1/2); always PSD."""
    a = as_operator(x)
    w, u = np.linalg.eigh(herm(a.conj().T @ a))
    s = np.sqrt(np.clip(w, 0.0, None))
    return herm((u * s) @ u.conj().T)


def psd_power(a, r) -> np.ndarray:
    """Fractional power a^r of a PSD operator through its eigenbasis.

    Eigenvalues in [-clamp, 0) are flushed to zero before powering, with
    clamp = EIG_CLAMP_REL * max(1, ||a||); spectrum below -clamp means the
    input is not PSD and is rejected.
    """
    r = float(r)
    if not r > 0:
        raise ValueError(f"power must be positive, got {r}")
    w, u = hermitian_eig(a)
    clamp = _eig_clamp(w)
    if w[0] < -clamp:
        raise ValueError(
            f"operator is not PSD: min eigenvalue {w[0]:.3e} below -{clamp:.3e}"
        )
    s = np.clip(w, 0.0, None) ** r
    return herm((u * s) @ u.conj().T)


def is_psd(x) -> bool:
    """True when x is Hermitian and its spectrum clears the clamp threshold."""
    return bool(_psd_flags(as_operator(x)[None])[0])


def _psd_flags(xs: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """is_psd for every operator of a trusted stack xs[n, d, d] with spectra w of herm(xs)."""
    if w is None:
        w = np.linalg.eigvalsh(herm(xs))
    psd = w[:, 0] >= -EIG_CLAMP_REL * np.maximum(1.0, np.maximum(abs(w[:, 0]), abs(w[:, -1])))
    for k in np.flatnonzero(~np.all(xs == xs.conj().swapaxes(1, 2), axis=(1, 2))):
        psd[k] &= op_norm(xs[k] - xs[k].conj().T) <= HERMITIAN_TOL * max(1.0, op_norm(xs[k]))
    return psd


def _p_mean(s: np.ndarray, p: float, top: int = -1) -> np.ndarray:
    """(mean of s^p over the last axis)^(1/p) of nonnegative spectra sorted along it,
    with the largest entry at index `top` (-1 for eigvalsh, 0 for svd): the max at
    p = inf, 0 for a zero spectrum. Scaled by the largest entry, so s^p cannot overflow."""
    if p == INF:
        return s[..., top]
    scale = np.maximum(s[..., top], _TINY)
    return scale * (((s / scale[..., None]) ** p).sum(axis=-1) / s.shape[-1]) ** (1 / p)


def schatten_norm(x, p) -> float:
    """Schatten p-norm under the normalized trace.

    For finite p this is (mean of sigma_k^p)^(1/p) over the singular values;
    p = inf gives the operator norm. Nondecreasing in p since ntrace(1) = 1.
    """
    a = as_operator(x)
    p = check_exponent(p)
    return float(_p_mean(np.linalg.svd(a, compute_uv=False), p, top=0))


def conjugate_exponent(p) -> float:
    """Dual exponent p' with 1/p + 1/p' = 1; 1 and inf are swapped."""
    p = check_exponent(p)
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# Seeded generators. All randomness flows through explicit seeds; a fixed
# (kind, dim, seed, params) tuple always reproduces the same output.
# ---------------------------------------------------------------------------


def _complex_gaussians(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """(count, dim, dim) standard complex Gaussians; one draw at a time gives the same stream."""
    g = rng.standard_normal((count, 2, dim, dim))
    return (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2)


def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _complex_gaussians(rng, 1, dim)[0]


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    # QR of a Ginibre matrix with the R-diagonal phase fix.
    q, r = np.linalg.qr(_complex_gaussian(rng, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_hermitian(dim: int, seed: int) -> np.ndarray:
    """Random Hermitian (G + G*)/2 with standard complex Gaussian entries."""
    rng = np.random.default_rng(seed)
    return herm(_complex_gaussian(rng, dim))


def sample_psd(dim: int, seed: int) -> np.ndarray:
    """Random PSD operator z* z with z a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    z = _complex_gaussian(rng, dim)
    return herm(z.conj().T @ z)


def sample_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR orthonormalization."""
    rng = np.random.default_rng(seed)
    return _haar_unitary(rng, dim)


def sample_projection_family(dim: int, count: int, seed: int) -> list[np.ndarray]:
    """Pairwise-orthogonal projections r_1..r_count summing to the identity.

    A Haar unitary's columns are split into count nonempty groups; each
    group spans one projection's range.
    """
    if not 1 <= count <= dim:
        raise ValueError(f"need 1 <= count <= dim, got count={count}, dim={dim}")
    rng = np.random.default_rng(seed)
    u = _haar_unitary(rng, dim)
    inner = sorted(rng.choice(np.arange(1, dim), size=count - 1, replace=False).tolist())
    cuts = [0] + inner + [dim]
    family = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        cols = u[:, lo:hi]
        family.append(herm(cols @ cols.conj().T))
    return family

