"""Derivative-free search for extremal inequality ratios.

The search hill-climbs over sequences parametrized as x_n = z_n* z_n, which
keeps every iterate exactly positive; adapted instances are reached by
projecting term n onto its filtration level. Ratios found this way are
empirical lower bounds on best constants, never upper-bound claims: the only
asserted ceilings are the proved ones held by the inequality registry.

Each restart is one sequential climb, a generator that owns its stream
(seed, restart index), point, step, rejection count and stop rule: it yields
its proposals and is sent their scores. The driver scores one proposal from
every running restart with one batched kernel call, so the result is bit for
bit that of running the restarts one after another, and trajectory indices
count evaluations in restart order. Restart 0 starts inside the coarsest
subalgebra, where the equality regime of the ratio-1 instances lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expectation import Filtration, as_lag, level_index, _cond_exp_stack, _condition
from .inequality import RatioReport, get_inequality, run_inequality, _conjugate
from .opcore import (NOISE_ENTRIES, as_stack, sample_projection_family, sample_unitary,
                     _abs_q_stack, _complex_gaussians, _gram, _psd_draws)

MIN_STEP = 1e-6
MAX_INITIAL_DRAWS = 100


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one extremal-ratio search, checked once, when built.

    filt is the filtration the instance lives on, as in run_inequality.
    Construction checks the fields, fills in the default lag, stores p and q as
    floats in the inequality's exponent domain (q None unless it takes one),
    and checks that filt is deep enough for seq_len terms at the effective lag
    (lag 0 for adapted inputs, which are projected onto their own level) and
    that a projection family fits in its dim.
    """

    inequality_id: str
    p: float
    q: float | None = None
    filt: Filtration | None = None  # required unless inequality_id is None
    seq_len: int = 4
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
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {self.seq_len}")
        if not self.step_scale > 0:
            raise ValueError("step_scale must be positive")
        if self.inequality_id is None:  # a CLI command that runs no instance
            return
        ineq = get_inequality(self.inequality_id)
        lag = ineq.default_lag if self.lag is None else as_lag(self.lag)
        p, q = ineq.validate(self.p, self.q)
        for name, value in (("lag", lag), ("p", p), ("q", q)):
            object.__setattr__(self, name, value)
        kind = ineq.input_kind
        if self.filt is None:
            raise ValueError(f"{self.inequality_id} needs a filtration")
        if kind == "operator":
            return
        level_index(self.seq_len - 1, 0 if kind == "adapted-seq" or self.adapted_only else lag,
                    len(self.filt))
        if kind == "projections" and self.seq_len > self.filt.dim:
            raise ValueError("seq_len cannot exceed dim for projection families")


@dataclass(frozen=True)
class SearchResult:
    """Best ratio found, its witness sequence, and the search trace: (evaluation,
    best ratio) at each improvement, evaluations counted in restart order."""

    best_ratio: float
    witness: tuple[np.ndarray, ...]
    evaluations_used: int
    trajectory: tuple[tuple[int, float], ...]
    report: RatioReport


def project_adapted(seq, filt: Filtration, lag: int = 0) -> list[np.ndarray]:
    """Feasibility projection onto adapted sequences: y_n = E_n(x_n).

    Idempotent, positivity preserving, and the output passes is_adapted
    under the same lag convention.
    """
    return list(_condition(as_stack(seq), filt, lag))


def isometry_family(inequality_id: str, dim: int, seq_len: int, seed: int) -> np.ndarray | None:
    """The deterministic unitary stack an instance of `inequality_id` at (dim, seed)
    pairs with its sequence, or None when the id takes no isometries."""
    if get_inequality(inequality_id).input_kind != "isometry-seq":
        return None
    return np.stack([sample_unitary(dim, seed + 7_000_000 + n) for n in range(seq_len)])


def seeded_inputs(inequality_id: str, filt: Filtration, seq_len: int, seed: int) -> tuple:
    """The run_inequality arguments (seq, isometries) of one deterministic instance on
    filt, whose dimension it takes. A `process` instance draws one block per atom and
    term, of the size of the top level's blocks, and copies it into the atom's slots,
    the cells of that level."""
    kind = get_inequality(inequality_id).input_kind
    if kind == "process":
        top = filt.levels[-1]
        b, rng = top.block_dim, np.random.default_rng([int(seed), 0xC1A55])
        blocks = _psd_draws(rng, len(top.cells) * seq_len, b).reshape(-1, seq_len, b, b)
        seq = np.zeros((seq_len, top.atoms, b, top.atoms, b), complex)
        for block, cell in zip(blocks, top.cells):
            seq[:, cell, :, cell, :] = block
        return seq.reshape(seq_len, filt.dim, filt.dim), None
    rng, dim = np.random.default_rng([int(seed), 0x5EED]), filt.dim
    if kind == "operator":
        seq = _psd_draws(rng, 1, dim)
    elif kind == "projections":
        seq = sample_projection_family(dim, seq_len, seed)
    else:
        seq = _psd_draws(rng, seq_len, dim)
        if kind == "adapted-seq":
            seq = _condition(seq, filt, 0)
    return seq, isometry_family(inequality_id, dim, seq_len, seed)


def estimate_constant(cfg: SearchConfig) -> SearchResult:
    """Hill-climb the ratio functional of one inequality.

    Runs cfg.restarts climbs with additive Gaussian proposals on the z
    parameters and an adaptive step (halved after 20 consecutive rejections,
    restart abandoned below 1e-6). Each climb is a generator on its own
    stream; every step stacks the running climbs' proposals into one kernel
    call and sends each its score. Trajectory indices count evaluations in
    restart order. The returned witness is rescaled by the rhs its kernel
    scored, so that its rhs equals 1, and best_ratio is the ratio of the
    checker replayed once on that stored witness.
    """
    ineq = get_inequality(cfg.inequality_id)
    if not ineq.searchable:
        raise ValueError(f"{cfg.inequality_id} is not a searchable inequality")
    p, q, filt, lag = cfg.p, cfg.q, cfg.filt, cfg.lag
    kind = ineq.input_kind
    adapted = kind == "adapted-seq" or cfg.adapted_only
    n_mats = 1 if kind == "operator" else cfg.seq_len
    isometries = isometry_family(cfg.inequality_id, filt.dim, n_mats, cfg.seed)

    def score(xs):
        """The proposals xs[k, n, d, d], projected when the search is adapted, and
        the lhs and rhs values of their conjugates by the isometries (if any). A
        proposal gets (0, 0), which the search rejects as it rejects any vanishing
        rhs, when it has non-finite entries (it never reaches the kernel) or the
        kernel raises ValueError on it: a batch with either is scored again one
        proposal at a time."""
        if np.isfinite(xs).all():
            ys = _condition(xs, filt, 0) if adapted else xs
            try:
                return ys, *np.asarray(
                    ineq.kernel(_conjugate(ys, isometries), filt, p, q, lag)[:2], float)
            except ValueError:
                pass
        if len(xs) == 1:
            return xs, np.zeros(1), np.zeros(1)
        return tuple(map(np.concatenate, zip(*map(score, xs[:, None]))))

    per_restart, d = cfg.budget // cfg.restarts, filt.dim
    chunk = max(1, NOISE_ENTRIES // (n_mats * d * d))

    def climb(r):
        """Restart r on its own stream [seed, r]: yields each proposal z, is sent the
        scored (x, lhs, rhs) of herm(z* z), and returns its accepts (evaluation in
        the restart, ratio), its last accepted (x, rhs) and its evaluations used."""
        rng = np.random.default_rng([cfg.seed, r])
        # one (n, d, d) draw per evaluation, at most NOISE_ENTRIES entries drawn at once
        noise = (draw for first in range(0, per_restart, chunk)
                 for draw in _complex_gaussians(rng, min(chunk, per_restart - first) * n_mats, d)
                 .reshape(-1, n_mats, d, d))
        current = ratio = last = None
        step, rejections, accepts = cfg.step_scale, 0, []
        for t, draw in enumerate(noise, 1):
            if current is not None:
                z = current + step * draw
            elif r == 0:  # equality-regime start inside the coarsest subalgebra: (E_0(z* z))^(1/2)
                coarse = _cond_exp_stack(_gram(draw), filt.levels[0])
                z = _abs_q_stack(coarse, 0.5)[0]
            else:
                z = draw
            x, num, den = yield z
            if den > 0 and (current is None or num / den > ratio):
                current, ratio, rejections = z, num / den, 0
                accepts.append((t, ratio))
                last = x, den
            elif current is not None:
                rejections += 1
                if rejections >= 20:
                    step, rejections = step / 2, 0
            elif MAX_INITIAL_DRAWS == t < per_restart:
                raise RuntimeError(f"checker rejected {MAX_INITIAL_DRAWS} initial draws for "
                                   f"{cfg.inequality_id} (restart {r})")
            if current is not None and step < MIN_STEP:
                return accepts, last, t
        return accepts, last, per_restart

    # every running restart spends one evaluation per step: one kernel call scores
    # all their proposals, and a restart that returns leaves the batch
    climbs = [climb(r) for r in range(cfg.restarts)]
    proposals = {r: next(c) for r, c in enumerate(climbs)}
    ends = [None] * cfg.restarts
    while proposals:
        zs = np.array(list(proposals.values()))
        xs, lhs, rhs = score(_gram(zs))
        for r, x, num, den in zip(list(proposals), xs, lhs.tolist(), rhs.tolist()):
            try:
                proposals[r] = climbs[r].send((x, num, den))
            except StopIteration as stop:
                del proposals[r]
                ends[r] = stop.value

    # merge the restarts' accepts in restart order; a restart's accepted ratios
    # increase, so its last accepted sequence is its best
    best_ratio, best, trajectory, start = -np.inf, None, [], 0
    for accepts, last, used in ends:
        for evaluation, ratio in accepts:
            if ratio > best_ratio:
                best_ratio, best = ratio, last
                trajectory.append((start + evaluation, ratio))
        start += used
    if best is None:
        raise RuntimeError("search produced no accepted evaluation")

    # store the witness normalized by its scored rhs (> 0, as every accept's) and
    # replay it once: the kernels are batch-invariant, so that rhs is the checker's
    best_xs, scale = best
    best_xs = (1.0 / scale) * best_xs
    report = run_inequality(cfg.inequality_id, best_xs, filt, p, q, lag, isometries)
    if report.ratio is None:
        raise RuntimeError(f"the best {cfg.inequality_id} witness at p={p:g} replays with no "
                           f"ratio: its rhs is {scale:g}, which cannot be normalized to 1")
    return SearchResult(
        best_ratio=float(report.ratio),
        witness=tuple(best_xs),
        evaluations_used=start,
        trajectory=tuple(trajectory),
        report=report,
    )

