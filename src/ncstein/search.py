"""Derivative-free search for extremal inequality ratios.

The search hill-climbs over sequences parametrized as x_n = z_n* z_n, which
keeps every iterate exactly positive; adapted instances are reached by
projecting term n onto its filtration level. Ratios found this way are
empirical lower bounds on best constants, never upper-bound claims: the only
asserted ceilings are the proved ones held by the inequality registry.

Restarts step in lockstep: each step scores one proposal from every running
restart with one batched kernel call. Each restart keeps its own stream
(seed, restart index), step, rejection count and stop rule, so the result is
bit for bit that of running the restarts one after another, and trajectory
indices count evaluations in restart order. Restart 0 starts inside the
coarsest subalgebra, where the equality regime of the ratio-1 instances lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .expectation import (FILTRATION_KINDS, Filtration, build_filtration, _cond_exp_stack,
                          _condition)
from .inequality import (ClassicalSpace, RatioReport, embed_process, get_inequality,
                         run_inequality)
from .opcore import (as_stack, herm, sample_projection_family, sample_unitary,
                     _complex_gaussian, _complex_gaussians)
from .seqnorm import _abs_q_stack

MIN_STEP = 1e-6
MAX_INITIAL_DRAWS = 100
NOISE_ENTRIES = 1 << 18  # complex entries (4 MB) of noise a restart draws at once


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one extremal-ratio search.

    Construction checks each field on its own and fills in the default lag;
    `filt` is the filtration the config names, built once on first use (None
    for a `process` instance, whose inputs bring their classical chain, but
    whose local_dims must still multiply to dim); `resolve` checks the fields
    against each other.
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
        if self.filtration not in FILTRATION_KINDS:
            raise ValueError(f"invalid filtration: unknown filtration kind {self.filtration!r}")

    @cached_property
    def filt(self) -> Filtration | None:
        process = (self.inequality_id is not None
                   and get_inequality(self.inequality_id).input_kind == "process")
        try:
            if not process:
                return build_filtration(self.filtration, self.dim, self.local_dims)
            if self.local_dims is not None:
                build_filtration("tensor", self.dim, self.local_dims)
            return None
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
    """Best ratio found, its witness sequence, and the search trace: (evaluation,
    best ratio) at each improvement, evaluations counted in restart order."""

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


def isometry_family(inequality_id: str, dim: int, seq_len: int, seed: int) -> np.ndarray | None:
    """The deterministic unitary stack an instance of `inequality_id` at (dim, seed)
    pairs with its sequence, or None when the id takes no isometries."""
    if get_inequality(inequality_id).input_kind != "isometry-seq":
        return None
    return np.stack([sample_unitary(dim, seed + 7_000_000 + n) for n in range(seq_len)])


def seeded_inputs(inequality_id: str, dim: int, seq_len: int, filt: Filtration | None,
                  seed: int, probabilities: tuple[Fraction, ...] | None = None) -> tuple:
    """The run_inequality arguments (seq, filt, isometries) of one deterministic
    instance. A `process` instance takes its atom weights from `probabilities`
    and returns its embedded stack and classical chain in place of `filt`."""
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
        return *embed_process(process, ClassicalSpace(probabilities, tuple(levels))), None
    rng = np.random.default_rng([int(seed), 0x5EED])
    if kind == "operator":
        z = _complex_gaussian(rng, dim)
        seq = [herm(z.conj().T @ z)]
    elif kind == "projections":
        seq = sample_projection_family(dim, min(seq_len, dim), seed)
    else:
        seq = [herm(g.conj().T @ g) for g in (_complex_gaussian(rng, dim) for _ in range(seq_len))]
        if kind == "adapted-seq":
            seq = project_adapted(seq, filt, 0)
    return seq, filt, isometry_family(inequality_id, dim, seq_len, seed)


def estimate_constant(cfg: SearchConfig) -> SearchResult:
    """Hill-climb the ratio functional of one inequality.

    Runs cfg.restarts climbs with additive Gaussian proposals on the z
    parameters and an adaptive step (halved after 20 consecutive rejections,
    restart abandoned below 1e-6). The restarts step in lockstep, each on its
    own stream; trajectory indices count evaluations in restart order. The
    returned witness is rescaled so its rhs equals 1, and best_ratio is the
    ratio of the checker replayed on that stored witness.
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
    isometries = isometry_family(cfg.inequality_id, cfg.dim, n_mats, cfg.seed)

    def score(xs):
        """The proposals xs[k, n, d, d], projected when the search is adapted, and
        their lhs and rhs values. A proposal gets (0, 0), which the search rejects
        as it rejects any vanishing rhs, when it has non-finite entries (it never
        reaches the kernel) or the kernel raises ValueError on it: a batch with
        either is scored again one proposal at a time."""
        if np.isfinite(xs).all():
            ys = _condition(xs, filt, 0) if adapted else xs
            try:
                return ys, *np.asarray(ineq.kernel(ys, filt, p, q, lag, isometries)[:2], float)
            except ValueError:
                pass
        if len(xs) == 1:
            return xs, np.zeros(1), np.zeros(1)
        return tuple(map(np.concatenate, zip(*map(score, xs[:, None]))))

    def replay(xs):
        return run_inequality(cfg.inequality_id, xs, filt, p, q, lag, isometries)

    restarts, per_restart, d = cfg.restarts, cfg.budget // cfg.restarts, cfg.dim
    # Restart r draws from its own stream [seed, r], one (n, d, d) draw per
    # evaluation, so its budget is drawn at once (in chunks when it exceeds
    # NOISE_ENTRIES). Every running restart spends one evaluation per step:
    # after t steps each has used t.
    live = list(range(restarts))  # the running restarts; row j of the arrays is live[j]'s
    rngs = [np.random.default_rng([cfg.seed, r]) for r in live]
    chunk = max(1, NOISE_ENTRIES // (n_mats * d * d))
    current = np.zeros((restarts, n_mats, d, d), complex)
    step = np.full(restarts, cfg.step_scale)
    current_ratio = [None] * restarts  # None until a restart's first scored draw
    rejections = [0] * restarts
    used = [0] * restarts
    accepts = [[] for _ in live]  # (evaluation in the restart, ratio) of each accept
    last_xs = [None] * restarts  # the last accepted sequence
    t = 0
    while live:
        if t % chunk == 0:
            count = min(chunk, per_restart - t)
            noise = np.stack([_complex_gaussians(rngs[r], count * n_mats, d)
                              .reshape(count, n_mats, d, d) for r in live])
        draws = noise[:, t % chunk]
        zs = current + step[:, None, None, None] * draws
        t += 1
        for j, r in enumerate(live):
            if current_ratio[r] is None:  # an initial draw
                zs[j] = draws[j]
                if r == 0:
                    # equality-regime start inside the coarsest subalgebra: (E_0(z* z))^(1/2)
                    coarse = _cond_exp_stack(herm(zs[j].conj().swapaxes(1, 2) @ zs[j]),
                                             filt.levels[0])
                    zs[j] = _abs_q_stack(coarse, 0.5)
        xs, lhs, rhs = score(herm(zs.conj().swapaxes(-1, -2) @ zs))

        done = []
        for j, (r, num, den) in enumerate(zip(live, lhs.tolist(), rhs.tolist())):
            ratio = num / den if den > 0 else None
            climbing = current_ratio[r] is not None
            if ratio is not None and (not climbing or ratio > current_ratio[r]):
                current[j], current_ratio[r], rejections[r] = zs[j], ratio, 0
                accepts[r].append((t, ratio))
                last_xs[r] = xs[j]
            elif climbing:
                rejections[r] += 1
                if rejections[r] >= 20:
                    step[j] /= 2
                    rejections[r] = 0
            elif MAX_INITIAL_DRAWS == t < per_restart:
                raise RuntimeError(f"checker rejected {MAX_INITIAL_DRAWS} initial draws for "
                                   f"{cfg.inequality_id} (restart {r})")
            if t == per_restart or current_ratio[r] is not None and step[j] < MIN_STEP:
                done.append(j)
                used[r] = t
        if done:
            keep = [j for j in range(len(live)) if j not in done]
            live = [live[j] for j in keep]
            noise, current, step = noise[keep], current[keep], step[keep]

    # merge the restarts' accepts in restart order; a restart's accepted ratios
    # increase, so its last accepted sequence is its best
    best_ratio, best_xs, trajectory = -np.inf, None, []
    start = 0
    for r in range(restarts):
        for evaluation, ratio in accepts[r]:
            if ratio > best_ratio:
                best_ratio, best_xs = ratio, last_xs[r]
                trajectory.append((start + evaluation, ratio))
        start += used[r]
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
        evaluations_used=sum(used),
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
