"""Span tracing for the benchmark's traced run, from outside the package.

`Tracer.install` rebinds every public function of the six ncstein modules,
in every ncstein module that holds a binding to it (so names imported with
`from .opcore import ...` are covered too), to a wrapper that records a span:
name, start, end and parent. It also counts the LAPACK-backed numpy calls
the package makes (`eigh`, `eigvalsh`, `svd` and the matrix 2-norm) and
attributes them to the open spans. Nothing under `src/` is edited;
`uninstall` restores every binding.

Spans stay in memory as flat arrays and are written to one `.npz` trace file
when the run ends. `derive` computes every per-layer metric from that file,
so a later change can re-derive them:

    python3 bench/spans.py .bench_run/trace-search_adapted_d8.npz
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("opcore", "expectation", "seqnorm", "inequality", "search", "cli")
LAPACK = ("eigh", "eigvalsh", "svd", "norm")
_COND_EXP_FAMILY = {"Pinching": "pinching", "TensorFactor": "tensor", "CellAverage": "cell"}


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.lapack = array("i")  # LAPACK-backed calls inside the span
        self.raised = array("b")  # 1 when the call raised ValueError
        self.counts: Counter = Counter()
        self.lapack_calls = 0
        self.svd_calls = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.lapack.append(self.lapack_calls)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.lapack[idx] = self.lapack_calls - self.lapack[idx]
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block; used for the benchmark glue."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "expectation.cond_exp":
            def span_name(args, kwargs):
                spec = args[1] if len(args) > 1 else kwargs["spec"]
                return f"{name}.{_COND_EXP_FAMILY.get(type(spec).__name__, 'other')}"
        else:
            def span_name(args, kwargs):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(span_name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if name == "search.estimate_constant":
                tracer.counts["search.improvements"] += len(result.trajectory)
                tracer.counts["search.evaluations"] += result.evaluations_used
            return result

        return wrapper

    def _count_lapack(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "norm":
                # only the matrix 2-norm runs a decomposition
                order = args[1] if len(args) > 1 else kwargs.get("ord")
                if order != 2:
                    return fn(*args, **kwargs)
            tracer.lapack_calls += 1
            if name == "svd":
                tracer.svd_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ncstein.{layer}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "ncstein" and not modname.startswith("ncstein."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module, attr, wrappers[id(value)])
        for attr in LAPACK:
            self._rebind(np.linalg, attr, self._count_lapack(attr, getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def save(self, path: Path, meta: dict) -> None:
        """Write spans, counts and run metadata to one .npz file."""
        meta = dict(meta, names=self.names, counts=dict(self.counts),
                    lapack_calls=self.lapack_calls, svd_calls=self.svd_calls)
        np.savez_compressed(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            lapack=np.frombuffer(self.lapack, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            meta=np.array(json.dumps(meta)),
        )


# Per-layer metrics derived from a trace file, with their units.
PER_LAYER = {
    "opcore.as_operator.calls_per_eval": "calls/eval",
    "opcore.lapack_calls_per_eval": "calls/eval",
    "opcore.svd_calls_per_eval": "calls/eval",
    "opcore.self_s_share": "share",
    "expectation.cond_exp.calls_per_eval": "calls/eval",
    "expectation.cond_exp.us_mean.pinching": "us",
    "expectation.cond_exp.us_mean.tensor": "us",
    "expectation.cond_exp.us_mean.cell": "us",
    "expectation.is_adapted.self_s_share": "share",
    "seqnorm.linf_norm_positive.ms_mean": "ms",
    "seqnorm.linf.lapack_calls_per_bracket": "calls/bracket",
    "seqnorm.linf_norm_positive.self_s_share": "share",
    "seqnorm.column_q_norm.us_mean": "us",
    "seqnorm.crp_norm.us_mean": "us",
    "inequality.run_inequality.self_s_share": "share",
    "inequality.raised_share": "share",
    "search.estimate_constant.self_s_share": "share",
    "search.improvements_per_1k_evals": "count/1k-eval",
    "cli.parse_config.ms": "ms",
    "cli.render_report.ms": "ms",
    "cli.run_command.self_s_share": "share",
    "bench.glue_share": "share",
    "bench.trace_overhead_share": "share",
}


def derive(path: Path) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and a self-time breakdown from one trace file.

    Self time is a span's duration minus the durations of its direct
    children (spans are properly nested on one thread). A mean over spans
    that never occurred reads 0, meaning the workload does not reach that
    function. Returns (metrics, breakdown) where breakdown holds the summed
    self time of each layer and of the benchmark glue, next to the traced
    pass wall time they must add up to.
    """
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    names = meta["names"]
    name_id, parent = arrays["name_id"], arrays["parent"]
    dur = arrays["end"] - arrays["start"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    self_s = dur - child
    by_name = np.bincount(name_id, weights=self_s, minlength=len(names))
    dur_by_name = np.bincount(name_id, weights=dur, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    wall = sum(meta["traced_pass_s"])
    evals = max(meta["evaluations"], 1)

    def ids(prefix: str) -> list[int]:
        return [i for i, n in enumerate(names) if n == prefix or n.startswith(prefix + ".")]

    def total(values, prefix: str) -> float:
        return float(sum(values[i] for i in ids(prefix)))

    def mean(prefix: str, scale: float) -> float:
        n = total(calls, prefix)
        return scale * total(dur_by_name, prefix) / n if n else 0.0

    runs = ids("inequality.run_inequality")
    run_mask = np.isin(name_id, runs)
    linf_mask = np.isin(name_id, ids("seqnorm.linf_norm_positive"))
    counts = meta["counts"]
    metrics = {
        "opcore.as_operator.calls_per_eval": total(calls, "opcore.as_operator") / evals,
        "opcore.lapack_calls_per_eval": meta["lapack_calls"] / evals,
        "opcore.svd_calls_per_eval": meta["svd_calls"] / evals,
        "opcore.self_s_share": total(by_name, "opcore") / wall,
        "expectation.cond_exp.calls_per_eval": total(calls, "expectation.cond_exp") / evals,
        "expectation.cond_exp.us_mean.pinching": mean("expectation.cond_exp.pinching", 1e6),
        "expectation.cond_exp.us_mean.tensor": mean("expectation.cond_exp.tensor", 1e6),
        "expectation.cond_exp.us_mean.cell": mean("expectation.cond_exp.cell", 1e6),
        "expectation.is_adapted.self_s_share": total(by_name, "expectation.is_adapted") / wall,
        "seqnorm.linf_norm_positive.ms_mean": mean("seqnorm.linf_norm_positive", 1e3),
        "seqnorm.linf.lapack_calls_per_bracket":
            float(arrays["lapack"][linf_mask].sum() / linf_mask.sum()) if linf_mask.any() else 0.0,
        "seqnorm.linf_norm_positive.self_s_share":
            total(by_name, "seqnorm.linf_norm_positive") / wall,
        "seqnorm.column_q_norm.us_mean": mean("seqnorm.column_q_norm", 1e6),
        "seqnorm.crp_norm.us_mean": mean("seqnorm.crp_norm", 1e6),
        "inequality.run_inequality.self_s_share": total(by_name, "inequality.run_inequality") / wall,
        "inequality.raised_share":
            float(arrays["raised"][run_mask].mean()) if run_mask.any() else 0.0,
        "search.estimate_constant.self_s_share": total(by_name, "search.estimate_constant") / wall,
        "search.improvements_per_1k_evals":
            1e3 * counts.get("search.improvements", 0) / max(counts.get("search.evaluations", 0), 1),
        "cli.parse_config.ms": mean("cli.parse_config", 1e3),
        "cli.render_report.ms": mean("cli.render_report", 1e3),
        "cli.run_command.self_s_share": total(by_name, "cli.run_command") / wall,
        "bench.glue_share": total(by_name, "bench") / wall,
        "bench.trace_overhead_share":
            float(np.median(meta["traced_pass_s"]) / np.median(meta["untraced_pass_s"]) - 1.0),
    }
    breakdown = {layer: total(by_name, layer) for layer in LAYERS + ("bench",)}
    breakdown["traced_pass_s"] = wall
    breakdown["min_self_s"] = float(self_s.min()) if len(self_s) else 0.0
    return metrics, breakdown


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/spans.py TRACE.npz", file=sys.stderr)
        return 2
    metrics, breakdown = derive(Path(argv[0]))
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {PER_LAYER[name]}")
    print(json.dumps({"self_s": breakdown}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
