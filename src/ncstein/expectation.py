"""Subalgebras of a matrix tracial space and their conditional expectations.

Three concrete subalgebra families are supported, each inducing the unique
trace-preserving conditional expectation onto it:

  * Pinching -- block-diagonal compression onto contiguous index blocks;
    the non-commutative analogue of revealing a coarse partition.
  * TensorFactor -- identity on a group of leading tensor factors composed
    with the normalized partial trace over the rest.
  * CellAverage -- block functions over a finite atom set, averaged over
    cells of a partition; this realizes a classical conditional expectation
    (uniform atom weights) tensored with a matrix block.

Filtrations are increasing chains of one family. Sequences pair with
filtration levels through ``level_index``: term n conditions on level
max(n - lag, 0), so lag 1 reproduces the one-step-behind convention with
the first term conditioned on the coarsest level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Sequence, Union

import numpy as np

from .opcore import (
    INF,
    NOISE_ENTRIES,
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
_AXIOM_EXPONENTS = (1.0, 2.0, 3.0, INF)  # the contractivity exponents of AxiomResiduals


@dataclass(frozen=True)
class Pinching:
    """Block-diagonal subalgebra over contiguous index blocks covering 0..d-1."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("pinching needs at least one block")
        seen: list[int] = []
        for b in blocks:
            if not b:
                raise ValueError("pinching blocks must be nonempty")
            if list(b) != list(range(b[0], b[-1] + 1)):
                raise ValueError(f"pinching block {b} is not a contiguous index range")
            seen.extend(b)
        if sorted(seen) != list(range(len(seen))) or len(seen) != len(set(seen)):
            raise ValueError("pinching blocks must disjointly cover 0..d-1")

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
    def _mask(self) -> np.ndarray:
        """(d, d) block-diagonal support that cond_exp keeps."""
        # blocks are contiguous, so an index's block is the count of starts at or before it
        owner = np.searchsorted(sorted(b[0] for b in self.blocks), np.arange(self.dim), "right")
        return owner[:, None] == owner[None, :]


def pinching_from_sizes(sizes: Sequence[int]) -> Pinching:
    """Pinching whose consecutive blocks have the given sizes."""
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    return Pinching(tuple(blocks))


@dataclass(frozen=True)
class TensorFactor:
    """Subalgebra of operators acting on the leading `retained` tensor factors."""

    local_dims: tuple[int, ...]
    retained: int

    def __post_init__(self):
        dims = tuple(int(d) for d in self.local_dims)
        object.__setattr__(self, "local_dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("local_dims must be positive integers")
        if not 0 <= self.retained <= len(dims):
            raise ValueError(
                f"retained must lie in [0, {len(dims)}], got {self.retained}"
            )

    @property
    def dim(self) -> int:
        return math.prod(self.local_dims)


@dataclass(frozen=True)
class CellAverage:
    """Block functions over a finite atom set, constant on each cell.

    The space is C^m (x) C^d with the atoms indexing d-sized diagonal
    blocks; conditional expectation pinches off-block entries and averages
    the diagonal blocks within each cell.
    """

    cells: tuple[tuple[int, ...], ...]
    block_dim: int

    def __post_init__(self):
        cells = tuple(tuple(int(i) for i in c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        if self.block_dim < 1:
            raise ValueError("block_dim must be >= 1")
        atoms = sorted(i for c in cells for i in c)
        if not cells or any(not c for c in cells):
            raise ValueError("cells must be nonempty")
        if atoms != list(range(len(atoms))):
            raise ValueError("cells must disjointly cover the atom indices")

    @property
    def atoms(self) -> int:
        return sum(len(c) for c in self.cells)

    @property
    def dim(self) -> int:
        return self.atoms * self.block_dim


SubalgebraSpec = Union[Pinching, TensorFactor, CellAverage]


def cond_exp(x, spec: SubalgebraSpec) -> np.ndarray:
    """Trace-preserving conditional expectation of x onto the subalgebra.

    Linear, positive, unital, and a bimodule map over the subalgebra; the
    normalized trace of the output equals that of the input.
    """
    a = as_operator(x)
    if a.shape[0] != spec.dim:
        raise ValueError(
            f"operator dimension {a.shape[0]} does not match subalgebra dimension {spec.dim}"
        )
    return _cond_exp_stack(a[None], spec)[0]


def _cond_exp_stack(xs: np.ndarray, spec: SubalgebraSpec) -> np.ndarray:
    """cond_exp of every operator in a trusted (..., d, d) stack, in one operation."""
    if isinstance(spec, Pinching):
        return np.where(spec._mask, xs, 0)
    d = xs.shape[-1]
    n = xs.size // (d * d)  # the leading axes, flattened
    if isinstance(spec, TensorFactor):
        keep = math.prod(spec.local_dims[: spec.retained])
        drop = d // keep
        if drop == 1:  # the full algebra, where E is the identity: the einsum's bytes
            return xs + 0.0  # (-0.0 becomes +0.0 in both), in a new array
        partial = np.einsum("nibjb->nij", xs.reshape(n, keep, drop, keep, drop)) / drop
        out = partial[:, :, None, :, None] * np.eye(drop)[:, None, :]
    elif isinstance(spec, CellAverage):
        m, b = spec.atoms, spec.block_dim
        blocks = np.einsum("nwiwj->nwij", xs.reshape(n, m, b, m, b))
        out = np.zeros((n, m, b, m, b), dtype=xs.dtype)
        for c in spec.cells:  # every diagonal block of a cell gets the cell's mean block
            out[:, c, :, c, :] = blocks[:, list(c)].mean(axis=1)
    else:
        raise TypeError(f"unknown subalgebra spec {type(spec).__name__}")
    return out.reshape(xs.shape)


def _contains(outer: SubalgebraSpec, inner: SubalgebraSpec) -> bool:
    """Structural check that the inner subalgebra sits inside the outer one."""
    if isinstance(inner, Pinching) and isinstance(outer, Pinching):
        # outer blocks must be coarser: every inner block inside an outer one
        spans = [(b[0], b[-1]) for b in outer.blocks]
        return all(
            any(lo <= b[0] and b[-1] <= hi for lo, hi in spans) for b in inner.blocks
        )
    if isinstance(inner, TensorFactor) and isinstance(outer, TensorFactor):
        return inner.local_dims == outer.local_dims and inner.retained <= outer.retained
    if isinstance(inner, CellAverage) and isinstance(outer, CellAverage):
        if inner.block_dim != outer.block_dim or inner.atoms != outer.atoms:
            return False
        # finer partitions upward: every outer cell inside an inner cell
        inner_sets = [set(c) for c in inner.cells]
        return all(any(set(c) <= s for s in inner_sets) for c in outer.cells)
    return False


@dataclass(frozen=True)
class Filtration:
    """Increasing chain of subalgebras of one family over a common space."""

    levels: tuple[SubalgebraSpec, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("filtration needs at least one level")
        dims = {spec.dim for spec in levels}
        if len(dims) != 1:
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
        """The block size b of a classical chain whose top level has two or more slots,
        outside whose diagonal b x b blocks every operator of that level is zero; None
        on the other chains."""
        top = self.levels[-1]
        return top.block_dim if isinstance(top, CellAverage) and top.atoms > 1 else None

    def __len__(self) -> int:
        return len(self.levels)

    def _term_plan(self, length: int, lag: int) -> tuple[list, np.ndarray | None]:
        """The runs (level, lo, hi) of the `length` terms under `lag`, terms lo..hi-1 on one
        level (contiguous, as level_index is monotone in n), and on a pinching chain the
        terms' gathered (length, d, d) masks; built once per (length, lag)."""
        if (length, lag) not in self._plans:
            levels = [level_index(n, lag, len(self)) for n in range(length)]
            runs = [(k, levels.index(k), levels.index(k) + levels.count(k)) for k in set(levels)]
            pinching = levels and all(isinstance(s, Pinching) for s in self.levels)
            masks = np.stack([self.levels[k]._mask for k in levels]) if pinching else None
            self._plans[length, lag] = (runs, masks)
        return self._plans[length, lag]


def build_filtration(kind: str, dim: int | None = None, local_dims: Sequence[int] | None = None,
                     *, probabilities: Sequence | None = None, depth: int = 1) -> Filtration:
    """Build one of the stock filtration families; the one place that knows
    their shapes.

    dyadic: dim = 2^N; level n pinches onto blocks of size 2^n, so level 0 is
    the diagonal algebra and level N the full algebra.
    tensor: level n retains the n leading factors of local_dims, from the
    scalars (n = 0) up to the full algebra; local_dims defaults to (2,) * N
    when dim = 2^N. Given both, dim must be the product of local_dims.
    classical: L_inf of a finite probability space with the atom weights
    `probabilities` (positive rationals summing to 1), tensored with M_dim.
    An atom of weight k/m becomes k slots of weight 1/m, one dim x dim
    diagonal block each, so the normalized trace is the weighted expectation;
    level n averages over the cells {0}, ..., {n - 1}, {n, ...} of atoms, and
    the finest level repeats until there are `depth` levels. The space's
    (m dim)^2 entries, over all m slots, may not exceed NOISE_ENTRIES.
    """
    if local_dims is not None:
        local_dims = tuple(int(d) for d in local_dims)
        if dim is None:
            dim = math.prod(local_dims)
        elif math.prod(local_dims) != dim:
            raise ValueError(f"product of local_dims {local_dims} must equal dim {dim}")
    power_of_2 = dim is not None and dim >= 1 and not dim & (dim - 1)
    if kind == "dyadic":
        if not power_of_2:
            raise ValueError(f"dyadic pinching needs dim a power of 2, got {dim}")
        levels = [pinching_from_sizes([2**n] * (dim // 2**n)) for n in range(dim.bit_length())]
    elif kind == "tensor":
        if local_dims is None:
            if not power_of_2:
                raise ValueError("tensor filtration needs local_dims when dim is not a power of 2")
            local_dims = (2,) * (dim.bit_length() - 1)
        levels = [TensorFactor(local_dims, r) for r in range(len(local_dims) + 1)]
    elif kind == "classical":
        weights = [Fraction(w) for w in probabilities or ()]
        if not weights or min(weights) <= 0 or sum(weights) != 1:
            raise ValueError("classical probabilities must be positive and sum to 1, got "
                             f"{[str(w) for w in weights]}")
        den = math.lcm(*(w.denominator for w in weights))  # the slot count
        if (den * dim) ** 2 > NOISE_ENTRIES:
            raise ValueError(f"classical probabilities need {den} slots of dimension {dim}, "
                             f"more than an operator of at most {NOISE_ENTRIES} entries holds")
        ends = list(accumulate((w.numerator * den // w.denominator for w in weights), initial=0))
        slots = [tuple(range(lo, hi)) for lo, hi in zip(ends, ends[1:])]
        levels = [CellAverage((*slots[:n], sum(slots[n:], ())), dim) for n in range(len(slots))]
        levels += levels[-1:] * (depth - len(levels))
    else:
        raise ValueError(f"unknown filtration kind {kind!r}")
    return Filtration(tuple(levels))


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


def axiom_residuals(spec: SubalgebraSpec, trials: int, seed: int) -> AxiomResiduals:
    """The axiom residuals of one subalgebra over `trials` draws; see _axiom_levels."""
    return _axiom_levels((spec,), trials, seed)[0]


def _axiom_levels(specs: Sequence[SubalgebraSpec], trials: int, seed: int) -> list:
    """Sample-based verification of the conditional-expectation axioms on each
    subalgebra of `specs` (one dimension d), specs[i] on its own stream seed + i.

    Over `trials` seeded draws this reports the maxima of the residuals
    ||E(E(x)) - E(x)|| (projection), ||E(axb) - a E(x) b|| for a, b in the subalgebra
    (bimodule), |tr E(x) - tr x| / d (trace), max(0, -min eig E(psd)) (positivity),
    ||E(x*) - E(x)*|| (adjoint) and the contractivity excess max(0, ||E(x)||_p - ||x||_p)
    for p in {1, 2, 3, inf}. The trials are drawn in chunks; see _axiom_chunk. Each field
    is a max over the trials, so it is the float of one trial alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
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


def _axiom_chunk(specs: Sequence[SubalgebraSpec], rngs: list, k: int) -> np.ndarray:
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
