"""Derivative-free search for extremal inequality ratios.

The search hill-climbs over sequences parametrized as x_n = z_n* z_n, which
keeps every iterate exactly positive; adapted instances are reached by
projecting term n onto its filtration level. Ratios found this way are
empirical lower bounds on best constants, never upper-bound claims: the only
asserted ceilings are the proved ones held by the inequality registry.

Restarts are independent given (seed, restart index), so results do not
depend on evaluation order; one restart starts inside the coarsest
subalgebra, where the equality regime of the ratio-1 instances lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .expectation import Filtration, build_filtration, _cond_exp_stack, _condition
from .inequality import ClassicalSpace, RatioReport, get_inequality, run_inequality
from .opcore import (as_stack, herm, sample_projection_family, sample_unitary,
                     _complex_gaussian, _complex_gaussians)
from .seqnorm import _abs_q_stack

MIN_STEP = 1e-6
MAX_INITIAL_DRAWS = 100


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one extremal-ratio search.

    Construction checks each field on its own and fills in the default lag;
    `filt` is the filtration the config names, built once on first use;
    `resolve` checks the fields against each other.
    """

    inequality_id: str
    p: float
    q: float | None = None
    dim: int = 4
    seq_len: int = 4
    filtration: str = "dyadic"  # 'dyadic' | 'tensor'
    local_dims: tuple[int, ...] | None = None
    lag: int | None = None  # None -> the inequality's printed form
    budget: int = 5000
    restarts: int = 8
    step_scale: float = 0.25
    seed: int = 0
    adapted_only: bool = False

    def __post_init__(self):
        if not self.budget >= self.restarts >= 1:
            raise ValueError(
                f"search requires budget >= restarts >= 1, got budget={self.budget}, "
                f"restarts={self.restarts}"
            )
        if self.dim < 1 or self.seq_len < 1:
            raise ValueError("dim and seq_len must be >= 1")
        if not self.step_scale > 0:
            raise ValueError("step_scale must be positive")
        if self.lag is None and self.inequality_id is not None:
            object.__setattr__(self, "lag", get_inequality(self.inequality_id).default_lag)

    @cached_property
    def filt(self) -> Filtration:
        try:
            return build_filtration(self.filtration, self.dim, self.local_dims)
        except ValueError as exc:
            raise ValueError(f"invalid filtration: {exc}") from exc

    def resolve(self, p=None, q=None) -> tuple[float, float | None]:
        """The exponents (p, q), default the config's, as floats (q None unless
        the inequality takes it); ValueError unless they lie in the exponent
        domain, the filtration is deep enough for seq_len terms at the
        effective lag (lag 0 for adapted inputs, which are projected onto their
        own level) and a projection family fits in dim."""
        ineq = get_inequality(self.inequality_id)
        if p is None:
            p, q = self.p, self.q
        p, q = ineq.validate(p, q)
        kind = ineq.input_kind
        if kind in ("operator", "process"):
            return p, q
        at_lag = 0 if kind == "adapted-seq" or self.adapted_only else self.lag
        depth = len(self.filt)
        if self.seq_len - 1 - at_lag >= depth:
            raise ValueError(
                f"seq_len = {self.seq_len} exceeds the filtration depth {depth} at lag "
                f"{at_lag}: sequence term {self.seq_len - 1} needs filtration level "
                f"{self.seq_len - 1 - at_lag}"
            )
        if kind == "projections" and self.seq_len > self.filt.dim:
            raise ValueError("seq_len cannot exceed dim for projection families")
        return p, q


@dataclass(frozen=True)
class SearchResult:
    """Best ratio found, its witness sequence, and the search trace."""

    best_ratio: float
    witness: tuple[np.ndarray, ...]
    evaluations_used: int
    trajectory: tuple[tuple[int, float], ...]
    report: RatioReport


@dataclass(frozen=True)
class SweepRow:
    p: float
    q: float | None
    result: SearchResult | None = None
    error: str | None = None


def project_adapted(seq, filt: Filtration, lag: int = 0) -> list[np.ndarray]:
    """Feasibility projection onto adapted sequences: y_n = E_n(x_n).

    Idempotent, positivity preserving, and the output passes is_adapted
    under the same lag convention.
    """
    return list(_condition(as_stack(seq), filt, lag))


def isometry_family(dim: int, seq_len: int, seed: int) -> list[np.ndarray]:
    """The deterministic unitary family paired with a (dim, seed) instance."""
    return [sample_unitary(dim, seed + 7_000_000 + n) for n in range(seq_len)]


def seeded_inputs(inequality_id: str, dim: int, seq_len: int, filt: Filtration,
                  seed: int, probabilities: tuple[Fraction, ...] | None = None) -> dict:
    """Deterministic checker inputs for one inequality instance; a `process`
    instance takes its atom weights from `probabilities`."""
    kind = get_inequality(inequality_id).input_kind
    if kind == "process":
        if probabilities is None:
            raise ValueError(f"{inequality_id} inputs need the atom probabilities")
        # default classical chain: split atoms off one at a time, repeat the
        # finest level until the sequence fits
        atoms = len(probabilities)
        levels = [tuple((i,) for i in range(split)) + (tuple(range(split, atoms)),)
                  for split in range(atoms)]
        while len(levels) < seq_len:
            levels.append(levels[-1])
        rng = np.random.default_rng([int(seed), 0xC1A55])
        process = [
            [herm(g.conj().T @ g) for g in (_complex_gaussian(rng, dim) for _ in range(seq_len))]
            for _ in range(atoms)
        ]
        return {"process": process, "space": ClassicalSpace(probabilities, tuple(levels))}
    rng = np.random.default_rng([int(seed), 0x5EED])
    if kind == "operator":
        z = _complex_gaussian(rng, dim)
        return {"x": herm(z.conj().T @ z)}
    if kind == "projections":
        return {"projections": sample_projection_family(dim, min(seq_len, dim), seed)}
    seq = [herm(g.conj().T @ g) for g in (_complex_gaussian(rng, dim) for _ in range(seq_len))]
    if kind == "adapted-seq":
        seq = project_adapted(seq, filt, 0)
    inputs: dict = {"seq": seq}
    if kind == "isometry-seq":
        inputs["isometries"] = isometry_family(dim, seq_len, seed)
    return inputs


def estimate_constant(cfg: SearchConfig) -> SearchResult:
    """Hill-climb the ratio functional of one inequality.

    Runs cfg.restarts independent climbs with additive Gaussian proposals on
    the z parameters and an adaptive step (halved after 20 consecutive
    rejections, restart abandoned below 1e-6). The returned witness is
    rescaled so its rhs equals 1, and best_ratio is the ratio of the checker
    replayed on that stored witness.
    """
    return _climb(cfg, cfg.p, cfg.q)


def _climb(cfg: SearchConfig, p, q) -> SearchResult:
    """estimate_constant at the exponents (p, q) in place of the config's."""
    ineq = get_inequality(cfg.inequality_id)
    if not ineq.searchable:
        raise ValueError(f"{cfg.inequality_id} is not a searchable inequality")
    p, q = cfg.resolve(p, q)
    filt, lag = cfg.filt, cfg.lag
    kind = ineq.input_kind
    adapted = kind == "adapted-seq" or cfg.adapted_only
    n_mats = 1 if kind == "operator" else cfg.seq_len
    isometries = None
    if kind == "isometry-seq":
        isometries = as_stack(isometry_family(cfg.dim, n_mats, cfg.seed))

    def evaluate(zs):
        xs = herm(zs.conj().swapaxes(1, 2) @ zs)
        if not np.isfinite(xs).all():
            raise ValueError("proposal has non-finite entries")
        if adapted:
            xs = _condition(xs, filt, 0)
        lhs, rhs = ineq.kernel(xs, filt, p, q, lag, isometries)[:2]
        return (lhs.value / rhs.value if rhs.value > 0 else None), xs

    def replay(xs):
        inputs = {"x": xs[0]} if kind == "operator" else {"seq": list(xs)}
        if isometries is not None:
            inputs["isometries"] = isometries
        return run_inequality(cfg.inequality_id, inputs, filt, p, q, lag)

    evaluations = 0
    per_restart = cfg.budget // cfg.restarts
    best_ratio = -np.inf
    best_xs = None
    trajectory: list[tuple[int, float]] = []

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
                # equality-regime start inside the coarsest subalgebra: (E_0(z* z))^(1/2)
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

    # store the witness normalized to rhs = 1 and replay it
    report = replay(best_xs)
    scale = report.rhs.value
    if scale > 0:
        best_xs = (1.0 / scale) * best_xs
        report = replay(best_xs)
    if report.ratio is None:
        raise RuntimeError(f"the best {cfg.inequality_id} witness at p={p:g} replays with no "
                           f"ratio: its rhs is {scale:g}, which cannot be normalized to 1")
    return SearchResult(
        best_ratio=float(report.ratio),
        witness=tuple(best_xs),
        evaluations_used=evaluations,
        trajectory=tuple(trajectory),
        report=report,
    )


def sweep(points, base_cfg: SearchConfig) -> list[SweepRow]:
    """Run estimate_constant over a grid of (p, q) pairs.

    Per-point failures are recorded in the row instead of aborting the
    remaining grid. Total evaluations stay below len(points) * budget. Every
    point searches on the base config's one filtration.
    """
    rows = []
    for p, q in points:
        try:
            rows.append(SweepRow(p=float(p), q=None if q is None else float(q),
                                 result=_climb(base_cfg, p, q)))
        except (ValueError, RuntimeError) as exc:
            rows.append(SweepRow(p=float(p), q=None if q is None else float(q),
                                 error=str(exc)))
    return rows
