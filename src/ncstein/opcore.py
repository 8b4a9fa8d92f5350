"""Dense complex-matrix kernel for a finite tracial probability space.

Everything here works with the normalized trace ntrace(x) = tr(x) / d, so
the identity has trace one and norm one for every exponent. To convert a
Schatten norm to the unnormalized convention multiply by d**(1/p).

Exponents live in [1, inf]; math.inf selects the operator-norm branch and
is treated as a first-class value, never as a large float.
"""

from __future__ import annotations

import math
import numbers
from contextlib import suppress

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
    """Validate a nonempty sequence of equal-size operators as one new trusted (n, d, d) stack
    in one pass; input that fails it goes term by term through as_operator for its error."""
    with suppress(TypeError, ValueError, OverflowError):  # ragged, mixed sizes, not numbers
        xs = np.array(seq, dtype=np.complex128)
        if xs.ndim == 3 and xs.size and xs.shape[1] == xs.shape[2] and np.isfinite(xs).all():
            return xs
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


def as_exponent(value, name: str = "p") -> float:
    """An exponent in [1, inf] as a float, from a real number or "inf"; ValueError otherwise."""
    if isinstance(value, str) and value == "inf":
        return INF
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f'exponent {name} must be a number or "inf", got {value!r}')
    try:
        p = float(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"exponent {name} must lie within floating-point range") from None
    if not p >= 1:
        raise ValueError(f"exponent {name} must satisfy {name} >= 1, got {p}")
    return p


def as_count(value, name: str, minimum: int | None = 1) -> int:
    """value as an int: a Python or numpy integer, not a bool, >= minimum unless that is None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


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


def abs_op(x) -> np.ndarray:
    """Absolute value |x| = (x* x)^(1/2); always PSD."""
    a = as_operator(x)
    return _abs_q_stack(a.conj().T @ a, 0.5)[0]


def _abs_q_stack(xs: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray | float]:
    """(|x| / t)^q for every operator of a trusted stack xs[..., d, d], and the scales t:
    for q > 2 one per sequence xs[..., n, d, d], the top of its spectra, so that no power
    overflows and the top's is 1; 1 otherwise. For q != 2 the terms must pass is_psd, so
    that |x| = x: callers validate them at their boundary or build them as z* z."""
    if q == 2:
        return xs.conj().swapaxes(-1, -2) @ xs, 1.0
    if q == 1:
        return herm(xs), 1.0
    w, u = np.linalg.eigh(herm(xs))
    w, scale = np.maximum(w, 0.0), 1.0
    if q > 2:
        scale = np.maximum(w.max(axis=(-2, -1)), _TINY)
        w /= scale[..., None, None]
    return herm((u * w[..., None, :] ** q) @ u.conj().swapaxes(-1, -2)), scale


def psd_power(a, r) -> np.ndarray:
    """Fractional power a^r of a PSD operator through its eigenbasis.

    The input must pass is_psd; eigenvalues in its clamp band below 0 are
    flushed to zero before powering.
    """
    r = float(r)
    if not r > 0:
        raise ValueError(f"power must be positive, got {r}")
    a = as_operator(a)
    w, u = np.linalg.eigh(herm(a))
    if not _psd_flags(a[None], w[None])[0]:
        raise ValueError(f"operator is not PSD: not Hermitian within tolerance, or min "
                         f"eigenvalue {w[0]:.3e} below the clamp")
    s = np.maximum(w, 0.0) ** r
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


def _norms_above(diffs: np.ndarray, tol: float) -> np.ndarray:
    """The operator norm of each term of a new stack diffs[n, d, d] that may exceed tol,
    else 0, and inf, with no SVD, for a term with a non-finite entry; a gate refuses a
    term whose norm is `not <= tol`, so a NaN norm too. ||a|| <= sqrt(2) d max(|Re a_ij|,
    |Im a_ij|), which cannot overflow, and the margin 1e-9 covers the rounding of both
    norms for d <= 1,000: no norm above tol is lost. At tol 0 each norm is exact."""
    norms, top = np.zeros(len(diffs)), abs(diffs.view(float)).max(axis=(1, 2))
    if not (below := top <= tol * (1 - 1e-9) / (2**0.5 * diffs.shape[-1])).all():
        norms[~below] = INF
        if (svd := ~below & np.isfinite(top)).any():
            norms[svd] = np.linalg.norm(diffs[svd], 2, axis=(1, 2))
    return norms


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
    p = as_exponent(p)
    return float(_p_mean(np.linalg.svd(a, compute_uv=False), p, top=0))


def conjugate_exponent(p) -> float:
    """Dual exponent p' with 1/p + 1/p' = 1; 1 and inf are swapped."""
    p = as_exponent(p)
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# Seeded generators. All randomness flows through explicit seeds; a fixed
# (kind, dim, seed, params) tuple always reproduces the same output.
# ---------------------------------------------------------------------------

NOISE_ENTRIES = 1 << 18  # complex entries (4 MB) a caller draws, or stacks, at once


def _complex_gaussians(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """(count, dim, dim) standard complex Gaussians. The stream does not depend on how
    it is cut: one draw of count * m reshaped to (count, m, dim, dim) equals count
    successive draws of m, which lets a search restart and the axioms trials draw in
    chunks of at most NOISE_ENTRIES entries. Each part is written in one pass, with the bytes
    of (g0 + 1j g1) / sqrt(2), which numpy computes as (g0 + g1 * 0) * (1 / sqrt(2))."""
    g, out = rng.standard_normal((count, 2, dim, dim)), np.empty((count, dim, dim), complex)
    np.multiply(g[:, 0], 1 / np.sqrt(2), out=out.real)
    np.multiply(g[:, 1], 1 / np.sqrt(2), out=out.imag)
    return out


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


def _gram(z: np.ndarray) -> np.ndarray:
    """The PSD operators herm(z* z) of a stack z[..., d, d]."""
    return herm(z.conj().swapaxes(-1, -2) @ z)


def _psd_draws(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """count PSD operators g* g, g standard complex Gaussian, from one draw."""
    return _gram(_complex_gaussians(rng, count, dim))


def sample_psd(dim: int, seed: int) -> np.ndarray:
    """Random PSD operator z* z with z a complex Ginibre matrix."""
    return _psd_draws(np.random.default_rng(seed), 1, dim)[0]


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

