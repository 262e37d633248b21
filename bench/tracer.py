"""Outside-in layer tracer for the benchmark.

``Tracer.install`` replaces every public function (every function a module
defines whose name has no leading underscore) of qrel's subspace, qset,
logic, structures, frontend and cli modules, and
``numpy.linalg.svd``, by a wrapper that records one span per call: name,
start, end, parent span and op id.  Calls made through module attributes,
which is how qrel's modules call each other, therefore nest correctly.
Spans stay in memory until ``save``.  Nothing under ``src/`` changes.

Some counters need to look at a call's arguments or result (the formula's
nodes, the span input's orthonormality, the SVD's shape).  Those probes run
on a paused clock: their time is subtracted from every span, so they do not
inflate the self time of the layer that made the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter_ns

import numpy as np

TRACED_MODULES = ("subspace", "qset", "logic", "structures", "frontend", "cli")
SVD = "subspace.svd"
OP = "op"

# Functions whose calls and self time are reported one by one.
SUBSPACE_REPORTED = (
    "span", "join", "meet", "complement", "compare", "tensor", "mul_span",
    "star_image", "residual_factor",
)
QSET_REPORTED = (
    "compose", "cross", "permute", "neg", "meet", "join", "sasaki", "product",
    "identity", "leq_margin",
)
LOGIC_REPORTED = ("interpret", "truth")
NODE_KINDS = ("atomic", "quantifier", "diag_quantifier", "connective")


def svd_gflop(shape: tuple[int, ...], full_matrices: bool, compute_uv: bool) -> float:
    """Computed from the input shape, not measured: the Golub-Reinsch SVD
    flop counts of Golub and Van Loan (Matrix Computations, table 5.4.1)
    for an m x n input with m >= n, times 4 for complex arithmetic."""
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    if not compute_uv:
        real = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        real = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        real = 14 * m * n * n + 8 * n**3
    return 4.0 * batch * real / 1e9


def _is_orthonormal_full_rank(mats) -> bool:
    vecs = np.asarray(mats, dtype=complex)
    if vecs.ndim < 2 or vecs.shape[0] == 0:
        return False
    vecs = vecs.reshape(vecs.shape[0], -1)
    if vecs.shape[0] > vecs.shape[1]:
        return False
    gram = vecs.conj() @ vecs.T
    return bool(np.allclose(gram, np.eye(vecs.shape[0]), rtol=0.0, atol=1e-12))


def count_nodes(formula, lg) -> Counter:
    """Formula nodes by kind, counted from outside the interpreter."""
    counts: Counter = Counter()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, lg.Atomic):
            counts["atomic"] += 1
        elif isinstance(f, (lg.Forall, lg.Exists)):
            counts["quantifier"] += 1
            stack.append(f.body)
        elif isinstance(f, (lg.ForallDiag, lg.ExistsDiag)):
            counts["diag_quantifier"] += 1
            stack.append(f.body)
        elif isinstance(f, lg.Not):
            counts["connective"] += 1
            stack.append(f.body)
        else:
            counts["connective"] += 1
            stack.extend((f.left, f.right))
    return counts


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack = [-1]
        self._op_id = -1
        self._paused_ns = 0
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- clock and spans -------------------------------------------------

    def _clock(self) -> int:
        return perf_counter_ns() - self._paused_ns

    def _index(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def _open(self, ix: int) -> int:
        sid = len(self.start)
        self.span_name.append(ix)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(self._clock())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self._clock()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span named ``op``."""
        self._op_id = op_id
        sid = self._open(self._index(OP))
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def _paused(self, fn, *args):
        """Run a probe with the span clock stopped."""
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._paused_ns += perf_counter_ns() - t0

    # -- probes ------------------------------------------------------------

    def _after_subspace(self, out) -> None:
        if hasattr(out, "ambient_dim") and hasattr(out, "rank"):
            self.maxima["subspace.max_ambient_dim"] = max(
                self.maxima["subspace.max_ambient_dim"], out.ambient_dim
            )
            self.maxima["subspace.max_rank"] = max(self.maxima["subspace.max_rank"], out.rank)

    def _after_qset(self, out) -> None:
        blocks = getattr(out, "blocks", None)
        if isinstance(blocks, dict):
            self.counts["qset.blocks_out"] += len(blocks)
            self.maxima["qset.max_blocks"] = max(self.maxima["qset.max_blocks"], len(blocks))

    def _before_span(self, args: tuple, kwargs: dict) -> tuple:
        mats = args[0] if args else None
        if mats is not None and not isinstance(mats, np.ndarray):
            mats = list(mats)
            args = (mats,) + tuple(args[1:])
        self.counts["subspace.span.inputs"] += 1
        if mats is not None and len(mats) and _is_orthonormal_full_rank(mats):
            self.counts["subspace.span.already_orthonormal"] += 1
        return args

    def _before_svd(self, args: tuple, kwargs: dict) -> None:
        shape = np.shape(args[0])
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        self.counts["subspace.svd.calls"] += 1
        if full and uv and shape[-1] != shape[-2]:
            self.counts["subspace.svd.full_tall_calls"] += 1
        self.counts["subspace.svd.gflop"] += svd_gflop(shape, bool(full), bool(uv))

    # -- installing ----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        ix = self._index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = tracer._paused(before, args, kwargs) or args
            sid = tracer._open(ix)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                tracer._paused(after, out)
            return out

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        lg = importlib.import_module("qrel.logic")
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"qrel.{short}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                before = after = None
                if short == "subspace":
                    after = self._after_subspace
                    if attr == "span":
                        before = self._before_span
                elif short == "qset":
                    after = self._after_qset
                elif short == "logic" and attr == "interpret":
                    before = lambda a, k: self.counts.update(
                        {f"logic.nodes.{kind}": n for kind, n in count_nodes(a[0], lg).items()}
                    )
                elif short == "frontend" and attr == "parse_workspace":
                    before = lambda a, k: self.counts.update(
                        {"frontend.bytes": len(a[0].encode("utf-8"))}
                    )
                self._patch(mod, attr, self._wrap(f"{short}.{attr}", fn, before, after))
        self._patch(np.linalg, "svd", self._wrap(SVD, np.linalg.svd, before=self._before_svd))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def layer_metrics(self, directives: int) -> dict[str, float]:
        """Per-layer calls, self time and counters, as reported by the bench."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ms = (dur - child) / 1e6
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_by = np.bincount(a["name"], weights=self_ms, minlength=len(self.names))
        dur_by = np.bincount(a["name"], weights=dur / 1e6, minlength=len(self.names))

        def by(name: str, table) -> float:
            ix = self._name_ix.get(name)
            return float(table[ix]) if ix is not None else 0.0

        def layer_self(prefix: str) -> float:
            return float(sum(self_by[i] for i, n in enumerate(self.names) if n.startswith(prefix)))

        m: dict[str, float] = {}
        for fn in SUBSPACE_REPORTED:
            m[f"subspace.{fn}.calls"] = by(f"subspace.{fn}", calls)
            m[f"subspace.{fn}.self_ms"] = by(f"subspace.{fn}", self_by)
        m["subspace.max_ambient_dim"] = float(self.maxima["subspace.max_ambient_dim"])
        m["subspace.max_rank"] = float(self.maxima["subspace.max_rank"])
        m["subspace.svd.calls"] = float(self.counts["subspace.svd.calls"])
        m["subspace.svd.ms"] = by(SVD, dur_by)
        m["subspace.svd.full_tall_calls"] = float(self.counts["subspace.svd.full_tall_calls"])
        m["subspace.svd.gflop"] = float(self.counts["subspace.svd.gflop"])
        inputs = self.counts["subspace.span.inputs"]
        m["subspace.span.already_orthonormal_ratio"] = (
            self.counts["subspace.span.already_orthonormal"] / inputs if inputs else 0.0
        )
        m["subspace.self_ms"] = layer_self("subspace.") - by(SVD, self_by)
        for fn in QSET_REPORTED:
            m[f"qset.{fn}.calls"] = by(f"qset.{fn}", calls)
            m[f"qset.{fn}.self_ms"] = by(f"qset.{fn}", self_by)
        m["qset.blocks_out"] = float(self.counts["qset.blocks_out"])
        m["qset.max_blocks"] = float(self.maxima["qset.max_blocks"])
        m["qset.self_ms"] = layer_self("qset.")
        for fn in LOGIC_REPORTED:
            m[f"logic.{fn}.calls"] = by(f"logic.{fn}", calls)
            m[f"logic.{fn}.self_ms"] = by(f"logic.{fn}", self_by)
        for kind in NODE_KINDS:
            m[f"logic.nodes.{kind}"] = float(self.counts[f"logic.nodes.{kind}"])
        m["logic.self_ms"] = layer_self("logic.")
        # A verification that runs inside another (check_quantum_group calls
        # check_function) is part of its caller, not a second run.
        st_ix = {i for i, n in enumerate(self.names) if n.startswith("structures.")}
        outermost = 0
        for sid, ix in enumerate(self.span_name):
            if ix in st_ix:
                p = self.parent[sid]
                while p >= 0 and self.span_name[p] not in st_ix:
                    p = self.parent[p]
                outermost += p < 0
        m["structures.calls"] = float(outermost)
        m["structures.self_ms"] = layer_self("structures.")
        m["structures.calls_per_directive"] = outermost / directives if directives else 0.0
        m["frontend.parse_workspace.self_ms"] = by("frontend.parse_workspace", self_by)
        m["frontend.bytes"] = float(self.counts["frontend.bytes"])
        m["cli.run.self_ms"] = by("cli.run", self_by)
        m["trace.op_ms"] = by(OP, dur_by)
        return m
