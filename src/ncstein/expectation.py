"""Subalgebras of a matrix tracial space and their conditional expectations.

Every subalgebra has one form, a direct sum of blocks M_r (x) 1_s: block j is
an (s_j, r_j) index array, rows[a, i] the index of e_i (x) f_a, and the blocks
cover 0..d-1 once. The trace-preserving conditional expectation averages each
orbit {(rows[a, i], rows[a, k]) : a} and zeroes every other entry. Pinching,
TensorFactor and CellAverage only name their blocks. A filtration is any
increasing chain of subalgebras over one space, mixed families included; a
level contains the one below it when its E fixes that level's unit-label
matrix. Sequences pair with filtration levels through ``level_index``: term n
conditions on level max(n - lag, 0), so lag 1 reproduces the one-step-behind
convention with the first term conditioned on the coarsest level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .opcore import (
    INF,
    NOISE_ENTRIES,
    as_count,
    as_operator,
    as_stack,
    herm,
    _complex_gaussians,
    _gram,
    _norms_above,
    _p_mean,
    _psd_draws,
)

ADAPTED_TOL = 1e-10
FILTRATION_KINDS = ("dyadic", "tensor", "classical")  # the stock families build_filtration builds
_AXIOM_EXPONENTS = (1.0, 2.0, 3.0, INF)  # the contractivity exponents of AxiomResiduals


@dataclass(frozen=True)
class Subalgebra:
    """A subalgebra in the one form: its family names its blocks (`_rows`), held as `rows` of
    total size `dim` once they cover 0..d-1 once (else `cover_error`); E's index data is lazy."""

    cover_error: ClassVar[str] = "subalgebra blocks must disjointly cover 0..d-1"

    def __post_init__(self):
        rows = tuple(map(_frozen, self._rows()))
        index = sorted(i for r in rows for row in r.tolist() for i in row)
        if index != list(range(len(index))):
            raise ValueError(self.cover_error)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dim", len(index))

    @cached_property
    def _orbits(self) -> list[np.ndarray]:
        """Per block, the flat indices rows[a, i] d + rows[a, k] of its orbits as an (s, r^2)
        array: column i r + k holds orbit (i, k), copy a in row a."""
        return [_frozen((rows[:, :, None] * self.dim + rows[:, None, :]).reshape(len(rows), -1))
                for rows in self.rows]

    def _labels(self) -> np.ndarray:
        """A new unit-label matrix: j + 1 on each entry of orbit j, 0 elsewhere, an orbit's
        number j being the flat index of its first entry. No level keeps one."""
        labels = np.zeros(self.dim**2)
        for orbits in self._orbits:
            labels[orbits] = orbits[0] + 1
        return labels.reshape(self.dim, self.dim)

    @cached_property
    def _mask(self) -> np.ndarray | None:
        """E's (d, d) mask where every orbit is one entry, which E keeps as it is; else None."""
        return None if any(len(rows) > 1 for rows in self.rows) else _frozen(self._labels() > 0)


@dataclass(frozen=True)
class Pinching(Subalgebra):
    """Block-diagonal subalgebra over contiguous index blocks covering 0..d-1."""

    blocks: tuple[tuple[int, ...], ...]
    cover_error: ClassVar[str] = "pinching blocks must disjointly cover 0..d-1"

    def __post_init__(self):
        blocks = tuple(tuple(as_count(i, "blocks entry", 0) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("pinching needs at least one block")
        for b in blocks:
            if not b:
                raise ValueError("pinching blocks must be nonempty")
            if list(b) != list(range(b[0], b[-1] + 1)):
                raise ValueError(f"pinching block {b} is not a contiguous index range")
        super().__post_init__()

    def _rows(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array([b]) for b in self.blocks)  # one copy each


def pinching_from_sizes(sizes: Sequence[int]) -> Pinching:
    """Pinching whose consecutive blocks have the given sizes."""
    ends = list(accumulate(sizes, initial=0))
    return Pinching(tuple(tuple(range(lo, hi)) for lo, hi in zip(ends, ends[1:])))


@dataclass(frozen=True)
class TensorFactor(Subalgebra):
    """Subalgebra of operators acting on the leading `retained` tensor factors."""

    local_dims: tuple[int, ...]
    retained: int

    def __post_init__(self):
        dims = _as_dims(self.local_dims)
        object.__setattr__(self, "local_dims", dims)
        if not 0 <= as_count(self.retained, "retained", None) <= len(dims):
            raise ValueError(f"retained must lie in [0, {len(dims)}], got {self.retained}")
        super().__post_init__()

    def _rows(self) -> tuple[np.ndarray, ...]:
        # one block M_keep (x) 1_drop: index i drop + a is e_i (x) f_a
        keep = math.prod(self.local_dims[: self.retained])
        return (np.arange(math.prod(self.local_dims)).reshape(keep, -1).T,)


@dataclass(frozen=True)
class CellAverage(Subalgebra):
    """Block functions over a finite atom set, constant on each cell: the space is
    C^m (x) C^d, the atoms indexing block_dim-sized diagonal blocks."""

    cells: tuple[tuple[int, ...], ...]
    block_dim: int
    cover_error: ClassVar[str] = "cells must disjointly cover the atom indices"

    def __post_init__(self):
        cells = tuple(tuple(as_count(i, "cells entry", 0) for i in c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "block_dim", as_count(self.block_dim, "block_dim"))
        if not cells or any(not c for c in cells):
            raise ValueError("cells must be nonempty")
        super().__post_init__()

    @property
    def atoms(self) -> int:
        return sum(len(c) for c in self.cells)

    def _rows(self) -> tuple[np.ndarray, ...]:
        # one block M_b (x) 1_k per cell of k atoms: copy a is atom c[a]'s diagonal block
        b = self.block_dim
        return tuple(np.array(c)[:, None] * b + np.arange(b) for c in self.cells)


def cond_exp(x, spec: Subalgebra) -> np.ndarray:
    """Trace-preserving conditional expectation of x onto the subalgebra.

    Linear, positive, unital, and a bimodule map over the subalgebra; the
    normalized trace of the output equals that of the input.
    """
    a = as_operator(x)
    if a.shape[0] != spec.dim:
        raise ValueError(f"operator dimension {a.shape[0]} does not match subalgebra "
                         f"dimension {spec.dim}")
    return _cond_exp_stack(a[None], spec)[0]


def _cond_exp_stack(xs: np.ndarray, spec: Subalgebra) -> np.ndarray:
    """cond_exp of each operator of a trusted (..., d, d) stack: on each orbit its mean, added
    in copy order from the first, +0.0 off the orbits; where orbits are single entries, a mask."""
    if spec._mask is not None:
        return np.where(spec._mask, xs, 0)
    flat = xs.reshape(-1, spec.dim**2)
    out = np.zeros(flat.shape, flat.dtype)
    for orbits in spec._orbits:
        total = np.add.accumulate(flat.take(orbits, axis=1), axis=1)[:, -1:]  # in copy order
        out[:, orbits] = total / len(orbits) if len(orbits) > 1 else total  # one entry: as is
    return out.reshape(xs.shape)


def _contains(outer: Subalgebra, inner: Subalgebra) -> bool:
    """Whether inner lies in outer: one level contains itself, and else E_outer fixes inner's
    unit-label matrix byte for byte (its means are exact and never -0.0)."""
    if outer is inner:
        return True
    labels = inner._labels()
    return _cond_exp_stack(labels, outer).tobytes() == labels.tobytes()


@dataclass(frozen=True)
class Filtration:
    """Increasing chain of subalgebras, of any families, over a common space."""

    levels: tuple[Subalgebra, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("filtration needs at least one level")
        if len({spec.dim for spec in levels}) != 1:
            raise ValueError("all filtration levels must share one dimension")
        for lower, upper in zip(levels[:-1], levels[1:]):
            if not _contains(upper, lower):
                raise ValueError("filtration levels must be increasing")
        object.__setattr__(self, "_plans", {})  # see _term_plan

    @cached_property
    def dim(self) -> int:
        return self.levels[0].dim

    @cached_property
    def block_dim(self) -> int | None:
        """The row length b < d of the top level's blocks when each row is b consecutive
        indices from a multiple of b: its operators are zero off the diagonal b x b blocks."""
        rows = self.levels[-1].rows
        b = rows[0].shape[1]
        aligned = b < self.dim and all(
            r.shape[1] == b and (r == r[:, :1] // b * b + np.arange(b)).all() for r in rows)
        return b if aligned else None

    def __len__(self) -> int:
        return len(self.levels)

    def _term_plan(self, length: int, lag: int) -> tuple[list, np.ndarray | None]:
        """The runs (level, lo, hi) of `length` terms under the lag, term n on level
        max(n - lag, 0) for lo <= n < hi, and on a chain of masks (see Subalgebra._mask)
        their (length, d, d) masks; built once per (length, lag), after level_index."""
        lag = as_lag(lag)  # on every call: True == 1 as a key
        if (length, lag) not in self._plans:
            level_index(length - 1, lag, len(self))
            levels = [max(n - lag, 0) for n in range(length)]
            runs = [(k, levels.index(k), levels.index(k) + levels.count(k)) for k in set(levels)]
            masked = levels and all(s._mask is not None for s in self.levels)
            masks = _frozen(np.stack([self.levels[k]._mask for k in levels])) if masked else None
            self._plans[length, lag] = (runs, masks)
        return self._plans[length, lag]


def build_filtration(kind: str, dim: int | None = None, local_dims: Sequence[int] | None = None,
                     *, probabilities: Sequence | None = None, depth: int = 1) -> Filtration:
    """Build one of the stock filtration families; the one place that knows their shapes.
    dim, depth and each entry of local_dims are integers >= 1; given local_dims, dim defaults
    to, and must equal, their product.

    dyadic: dim = 2^N and no local_dims; level n pinches onto blocks of size 2^n, so level 0
    is the diagonal algebra and level N the full algebra.
    tensor: level n retains the n leading factors of local_dims, from the scalars (n = 0) up
    to the full algebra; local_dims defaults to (2,) * N when dim = 2^N.
    classical: L_inf of a finite probability space with the atom weights `probabilities`
    (positive rationals summing to 1), tensored with M_dim. An atom of weight k/m becomes k
    slots of weight 1/m, one dim x dim diagonal block each, so the normalized trace is the
    weighted expectation; level n averages over the cells {0}, ..., {n - 1}, {n, ...} of
    atoms, and the finest level, one object, repeats until there are `depth` levels. The
    space's (m dim)^2 entries, over all m slots, may not exceed NOISE_ENTRIES. Every call runs
    every check, and then equal shapes share one read-only chain (see _chain), which keeps
    each level's index arrays and masks but no label matrix.
    """
    local_dims = None if local_dims is None else _as_dims(local_dims)
    dim = as_count(math.prod(local_dims) if dim is None and local_dims else dim, "dim")
    if local_dims and math.prod(local_dims) != dim:
        raise ValueError(f"product of local_dims {local_dims} must equal dim {dim}")
    depth = as_count(depth, "depth")
    if kind not in FILTRATION_KINDS:
        raise ValueError(f"unknown filtration kind {kind!r}")
    power_of_2, weights = not dim & (dim - 1), ()
    if kind == "dyadic" and local_dims:
        raise ValueError(f"dyadic pinching takes no local_dims, got {local_dims}")
    if kind == "dyadic" and not power_of_2:
        raise ValueError(f"dyadic pinching needs dim a power of 2, got {dim}")
    if kind == "tensor" and local_dims is None:
        if not power_of_2:
            raise ValueError("tensor filtration needs local_dims when dim is not a power of 2")
        local_dims = (2,) * (dim.bit_length() - 1)
    if kind == "classical":
        weights = tuple(Fraction(w) for w in probabilities or ())
        if not weights or min(weights) <= 0 or sum(weights) != 1:
            raise ValueError("classical probabilities must be positive and sum to 1, got "
                             f"{[str(w) for w in weights]}")
        den = math.lcm(*(w.denominator for w in weights))  # the slot count
        if (den * dim) ** 2 > NOISE_ENTRIES:
            raise ValueError(f"classical probabilities need {den} slots of dimension {dim}, "
                             f"more than an operator of at most {NOISE_ENTRIES} entries holds")
    return _chain(kind, dim, local_dims if kind == "tensor" else None, weights,
                  depth if kind == "classical" else 1)


@lru_cache(maxsize=32)  # the chains a process keeps, one per shape
def _chain(kind, dim, local_dims, weights, depth) -> Filtration:
    """The chain of a shape build_filtration checked and keyed by ints and tuples."""
    if kind == "dyadic":
        levels = [pinching_from_sizes([2**n] * (dim // 2**n)) for n in range(dim.bit_length())]
    elif kind == "tensor":
        levels = [TensorFactor(local_dims, r) for r in range(len(local_dims) + 1)]
    else:
        den = math.lcm(*(w.denominator for w in weights))
        ends = list(accumulate((w.numerator * den // w.denominator for w in weights), initial=0))
        slots = [tuple(range(lo, hi)) for lo, hi in zip(ends, ends[1:])]
        levels = [CellAverage((*slots[:n], sum(slots[n:], ())), dim) for n in range(len(slots))]
        levels += levels[-1:] * (depth - len(levels))
    return Filtration(tuple(levels))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _as_dims(local_dims) -> tuple[int, ...]:
    """A nonempty list or tuple of integers >= 1 as a tuple of ints; ValueError otherwise."""
    if not isinstance(local_dims, (list, tuple)) or not local_dims:
        raise ValueError(f"local_dims must be a nonempty list of integers, got {local_dims!r}")
    return tuple(as_count(d, f"local_dims[{i}]") for i, d in enumerate(local_dims))


def as_lag(lag) -> int:
    """lag, which must be the integer 0 or 1 (not a bool or a float); ValueError
    otherwise."""
    if isinstance(lag, bool) or not isinstance(lag, (int, np.integer)) or lag not in (0, 1):
        raise ValueError(f"lag must be the integer 0 or 1, got {lag!r}")
    return int(lag)


def level_index(n: int, lag: int, n_levels: int) -> int:
    """Filtration level paired with sequence term n under the lag convention."""
    lag = as_lag(lag)
    lvl = max(n - lag, 0)
    if lvl >= n_levels:
        raise ValueError(
            f"sequence term {n} needs filtration level {lvl} but only "
            f"{n_levels} levels exist (lag {lag})"
        )
    return lvl


class AdaptedCheck(NamedTuple):
    adapted: bool
    residual: float


def _condition(xs: np.ndarray, filt: Filtration, lag: int) -> np.ndarray:
    """E_{level(n)}(x_n) for every term of trusted stacks xs[..., n, d, d]: one masking
    call on a pinching chain, else one stacked cond_exp per level run, on a slice of xs."""
    if xs.shape[-1] != filt.dim:
        raise ValueError(f"operator dimension {xs.shape[-1]} does not match {filt.dim}")
    runs, masks = filt._term_plan(xs.shape[-3], lag)
    if masks is not None:
        return np.where(masks, xs, 0)
    out = np.empty_like(xs)
    for lvl, lo, hi in runs:
        out[..., lo:hi, :, :] = _cond_exp_stack(xs[..., lo:hi, :, :], filt.levels[lvl])
    return out


def is_adapted(seq: Sequence[np.ndarray], filt: Filtration, lag: int = 0) -> AdaptedCheck:
    """Whether every term is fixed by its own level's conditional expectation.

    Term n is tested against level max(n - lag, 0); the residual is the
    largest operator-norm deviation ||E(x_n) - x_n|| over the sequence.
    """
    xs = as_stack(seq)
    residual = float(_norms_above(_condition(xs, filt, lag) - xs, 0.0).max())
    return AdaptedCheck(residual <= ADAPTED_TOL, residual)


def sample_adapted_positive(filt: Filtration, length: int, seed: int,
                            lag: int = 0) -> list[np.ndarray]:
    """Seeded positive sequence adapted to the filtration: x_n = E_n(z* z)."""
    return list(_condition(_psd_draws(np.random.default_rng(seed), length, filt.dim), filt, lag))


@dataclass(frozen=True)
class AxiomResiduals:
    """Worst-case deviations from the conditional-expectation axioms."""

    projection: float
    bimodule: float
    trace: float
    positivity: float
    adjoint: float
    contractivity: dict[float, float] = field(default_factory=dict)

    def max_residual(self) -> float:
        return max(
            self.projection,
            self.bimodule,
            self.trace,
            self.positivity,
            self.adjoint,
            max(self.contractivity.values(), default=0.0),
        )


def axiom_residuals(spec: Subalgebra, trials: int, seed: int) -> AxiomResiduals:
    """The axiom residuals of one subalgebra over `trials` draws; see _axiom_levels."""
    return _axiom_levels((spec,), trials, seed)[0]


def _axiom_levels(specs: Sequence[Subalgebra], trials: int, seed: int) -> list:
    """Sample-based verification of the conditional-expectation axioms on each
    subalgebra of `specs` (one dimension d), specs[i] on its own stream seed + i.

    Over `trials` seeded draws this reports the maxima of the residuals
    ||E(E(x)) - E(x)|| (projection), ||E(axb) - a E(x) b|| for a, b in the subalgebra
    (bimodule), |tr E(x) - tr x| / d (trace), max(0, -min eig E(psd)) (positivity),
    ||E(x*) - E(x)*|| (adjoint) and the contractivity excess max(0, ||E(x)||_p - ||x||_p)
    for p in {1, 2, 3, inf}. The trials are drawn in chunks; see _axiom_chunk. Each field
    is a max over the trials, so it is the float of one trial alone.
    """
    trials, seed = as_count(trials, "trials"), as_count(seed, "seed", 0)
    rngs = [np.random.default_rng(seed + i) for i in range(len(specs))]
    worst = np.zeros((len(specs), 9))  # the fields of AxiomResiduals in order, one excess per p
    # a chunk of k trials holds at most (11 L + 21) k d^2 entries: per subalgebra its share
    # of m and of the gathered m[factor] (5 each) and psd (1), and the working set of the
    # one being conditioned (21: its draws, 8 while drawn, stacks and products); in all,
    # at most four NOISE_ENTRIES
    chunk = max(1, 4 * NOISE_ENTRIES // ((11 * len(specs) + 21) * specs[0].dim ** 2))
    for first in range(0, trials, chunk):
        worst = np.maximum(worst, _axiom_chunk(specs, rngs, min(chunk, trials - first)))
    return [AxiomResiduals(*w[:5], dict(zip(_AXIOM_EXPONENTS, w[5:]))) for w in worst.tolist()]


def _axiom_chunk(specs: Sequence[Subalgebra], rngs: list, k: int) -> np.ndarray:
    """The (L, 9) maxima over k trials of the L subalgebras' residual fields. Two stacked
    calls of the trusted core condition each one's draws into one (L, 5, k, d, d) array
    m = [E(E(x)) - E(x), E(axb) - a E(x) b, E(x*) - E(x)*, E(x), x]. One SVD gives every
    spectrum and one eigvalsh every positivity: the residuals are the tops of the first
    three spectra, and the excesses compare the p-means of the last two, as op_norm and
    schatten_norm would. The SVD skips, exactly, every zero matrix (its singular values
    are 0) and both E(x) and x wherever their bytes agree, as on a chain's top level:
    equal bytes have equal spectra, so every excess there is 0 either way."""
    d, n = specs[0].dim, len(specs)
    m, psd = np.empty((n, 5, k, d, d), complex), np.empty((n, k, d, d), complex)
    for i, (spec, rng) in enumerate(zip(specs, rngs)):
        x, g_a, g_b, z = _complex_gaussians(rng, 4 * k, d).reshape(k, 4, d, d).swapaxes(0, 1)
        ex, a, b, eadj, psd[i] = _cond_exp_stack(np.stack(
            [x, g_a, g_b, x.conj().swapaxes(1, 2), _gram(z)]), spec)
        eex, eaxb = _cond_exp_stack(np.stack([ex, a @ x @ b]), spec)
        np.stack([eex - ex, eaxb - a @ ex @ b, eadj - ex.conj().swapaxes(1, 2), ex, x],
                 out=m[i])
        del x, g_a, g_b, z, ex, a, b, eadj, eex, eaxb  # freed before the next draws
    same = (m[:, 3].view(np.uint64) == m[:, 4].view(np.uint64)).all(axis=(-2, -1))
    factor = m.any(axis=(-2, -1))
    factor[:, 3:] &= ~same[:, None]
    s = np.zeros((n, 5, k, d))
    s[factor] = np.linalg.svd(m[factor], compute_uv=False)
    tr = np.trace(m[:, 3:], axis1=-2, axis2=-1)  # of E(x) and x
    re, im = tr.real / d, tr.imag / d  # ntrace's parts, each divided as complex / int does
    excess = [_p_mean(s[:, 3], p, top=0) - _p_mean(s[:, 4], p, top=0) for p in _AXIOM_EXPONENTS]
    rows = [s[:, 0, :, 0], s[:, 1, :, 0], np.hypot(re[:, 0] - re[:, 1], im[:, 0] - im[:, 1]),
            -np.linalg.eigvalsh(herm(psd))[..., 0], s[:, 2, :, 0], *excess]
    return np.stack(rows, axis=1).max(axis=2)


def tower_residual(filt: Filtration, trials: int, seed: int) -> float:
    """Max deviation of E_m E_n from E_min(m,n) over sampled inputs and all pairs; the
    trials are drawn in chunks whose (L, L, k, d, d) differences fit NOISE_ENTRIES."""
    trials, seed = as_count(trials, "trials"), as_count(seed, "seed", 0)
    rng, n, worst = np.random.default_rng(seed), np.arange(len(filt)), 0.0
    chunk = max(1, NOISE_ENTRIES // (n.size * filt.dim) ** 2)
    for first in range(0, trials, chunk):
        x = _complex_gaussians(rng, min(chunk, trials - first), filt.dim)
        projected = np.stack([_cond_exp_stack(x, spec) for spec in filt.levels])
        diff = np.empty((n.size, *projected.shape), complex)  # E_m E_n(x) - E_min(m,n)(x)
        for m, spec in enumerate(filt.levels):
            diff[m] = _cond_exp_stack(projected, spec) - projected[np.minimum(n, m)]
        nonzero = diff[diff.any(axis=(-2, -1))]  # an exact zero has norm exactly 0
        worst = max(worst, float(np.linalg.norm(nonzero, 2, axis=(-2, -1)).max(initial=0.0)))
    return worst
