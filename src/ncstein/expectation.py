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
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .opcore import (
    INF,
    as_operator,
    as_stack,
    herm,
    ntrace,
    _complex_gaussian,
    _complex_gaussians,
    _p_mean,
)

ADAPTED_TOL = 1e-10


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

    def __len__(self) -> int:
        return len(self.levels)

    def _term_plan(self, length: int, lag: int) -> tuple[list[int], np.ndarray | None]:
        """Level of each of `length` terms under `lag` and, on a pinching chain,
        their gathered (length, d, d) masks; built once per (length, lag)."""
        if (length, lag) not in self._plans:
            levels = [level_index(n, lag, len(self)) for n in range(length)]
            pinching = levels and all(isinstance(s, Pinching) for s in self.levels)
            masks = np.stack([self.levels[k]._mask for k in levels]) if pinching else None
            self._plans[length, lag] = (levels, masks)
        return self._plans[length, lag]


FILTRATION_KINDS = ("dyadic", "tensor")  # the stock families build_filtration builds


def build_filtration(kind: str, dim: int | None = None,
                     local_dims: Sequence[int] | None = None) -> Filtration:
    """Build one of the two stock filtration families; the one place that
    knows their shapes.

    dyadic: dim = 2^N; level n pinches onto blocks of size 2^n, so level 0 is
    the diagonal algebra and level N the full algebra.
    tensor: level n retains the n leading factors of local_dims, from the
    scalars (n = 0) up to the full algebra; local_dims defaults to (2,) * N
    when dim = 2^N. Given both, dim must be the product of local_dims.
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
    call on a pinching chain, else one stacked cond_exp per distinct level."""
    if xs.shape[-1] != filt.dim:
        raise ValueError(f"operator dimension {xs.shape[-1]} does not match {filt.dim}")
    levels, masks = filt._term_plan(xs.shape[-3], lag)
    if masks is not None:
        return np.where(masks, xs, 0)
    out = np.empty_like(xs)
    for lvl in set(levels):
        at = [n for n, k in enumerate(levels) if k == lvl]
        out[..., at, :, :] = _cond_exp_stack(xs[..., at, :, :], filt.levels[lvl])
    return out


def _adapted_residual(xs: np.ndarray, filt: Filtration, lag: int) -> float:
    """max_n ||E(x_n) - x_n|| of a trusted stack; 0 with no SVD when nothing is off-level."""
    diff = _condition(xs, filt, lag) - xs
    return float(np.linalg.norm(diff, 2, axis=(1, 2)).max()) if diff.any() else 0.0


def is_adapted(seq: Sequence[np.ndarray], filt: Filtration, lag: int = 0) -> AdaptedCheck:
    """Whether every term is fixed by its own level's conditional expectation.

    Term n is tested against level max(n - lag, 0); the residual is the
    largest operator-norm deviation ||E(x_n) - x_n|| over the sequence.
    """
    residual = _adapted_residual(as_stack(seq), filt, lag)
    return AdaptedCheck(residual <= ADAPTED_TOL, residual)


def sample_adapted_positive(filt: Filtration, length: int, seed: int,
                            lag: int = 0) -> list[np.ndarray]:
    """Seeded positive sequence adapted to the filtration: x_n = E_n(z* z)."""
    z = _complex_gaussians(np.random.default_rng(seed), length, filt.dim)
    return list(_condition(herm(z.conj().swapaxes(1, 2) @ z), filt, lag))


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
    """Sample-based verification of the conditional-expectation axioms.

    Over `trials` seeded draws this reports the maxima of: the projection
    residual ||E(E(x)) - E(x)||, the bimodule residual ||E(axb) - a E(x) b||
    for a, b in the subalgebra, the trace residual |tr E(x) - tr x| / d, the
    positivity violation max(0, -min eig E(psd)), the adjoint residual
    ||E(x*) - E(x)*||, and the contractivity excess max(0, ||E(x)||_p -
    ||x||_p) for p in {1, 2, 3, inf}. A trial conditions its draws with two
    stacked calls of the trusted core and takes every norm from one SVD of the
    five matrices [E(E(x)) - E(x), E(axb) - a E(x) b, E(x*) - E(x)*, E(x), x]:
    the three residuals are the tops of the first three spectra, and the
    excesses compare the p-means of the last two, the values op_norm and
    schatten_norm would give.
    """
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
        x, g_a, g_b, z = _complex_gaussians(rng, 4, d)
        ex, a, b, ex_adj, e_psd = _cond_exp_stack(
            np.stack([x, g_a, g_b, x.conj().T, herm(z.conj().T @ z)]), spec)
        eex, eaxb = _cond_exp_stack(np.stack([ex, a @ x @ b]), spec)
        s = np.linalg.svd(np.stack([eex - ex, eaxb - a @ ex @ b, ex_adj - ex.conj().T, ex, x]),
                          compute_uv=False)
        for key, top in zip(("projection", "bimodule", "adjoint"), s[:3, 0]):
            out[key] = max(out[key], float(top))
        out["trace"] = max(out["trace"], abs(ntrace(ex) - ntrace(x)))
        w = np.linalg.eigvalsh(herm(e_psd))
        out["positivity"] = max(out["positivity"], max(0.0, -float(w[0])))
        for p in exponents:
            excess = float(_p_mean(s[3], p, top=0)) - float(_p_mean(s[4], p, top=0))
            contract[p] = max(contract[p], max(0.0, excess))
    return AxiomResiduals(contractivity=contract, **out)


def tower_residual(filt: Filtration, trials: int, seed: int) -> float:
    """Max deviation of E_m E_n from E_min(m,n) over sampled inputs and all pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = _complex_gaussian(rng, filt.dim)
        projected = np.stack([_cond_exp_stack(x, spec) for spec in filt.levels])
        for m, spec_m in enumerate(filt.levels):  # E_m of every E_n(x) against E_min(m,n)(x)
            diff = _cond_exp_stack(projected, spec_m) - projected[np.minimum(range(len(filt)), m)]
            worst = max(worst, float(np.linalg.norm(diff, 2, axis=(1, 2)).max()))
    return worst
