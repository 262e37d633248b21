"""Command-line entry point: check, eval, verify, selftest.

Exit codes: 0 all passed; 1 an assertion or verification failed; 2 an
unreadable file, a parse, resolution, or sort error, a problem too large
for memory, an input nested too deeply, or a standard output closed by its
reader; 3 only warn-band failures.  Every verdict is a margin compared
with the tolerance.  A failed verification is in the warn band when each
failed condition's margin is at most ``config.WARN_TOL``; a failed assertion
is when it expects true and the sentence's margin is at most
``config.WARN_TOL``.  Such failures suggest numeric instability rather than
a structural failure.  A sentence's margin is the distance of its 1x1 truth
block from top, 0 or 1 up to rounding, so a failed assertion never lands in
the warn band, and a condition whose sentence route fails has margin 1;
only direct-route margins are graded until sentence margins measure the
distance to passing (ROADMAP.md, "Margins that measure the distance to
passing").

The tolerance comes from ``--tol``, else ``QREL_TOL``, else the default, and
holds for one ``run`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextvars import Token
from dataclasses import dataclass, field

import numpy as np

from . import config
from . import frontend as fe
from . import generators as gen
from . import logic as lg
from . import qset as q
from . import structures as st
from . import subspace as sp
from .errors import QrelError

__all__ = ["main", "run", "RunConfig"]


@dataclass
class RunConfig:
    command: str
    paths: list[str] = field(default_factory=list)
    formula: str | None = None
    context: str | None = None
    kind: str | None = None
    names: list[str] = field(default_factory=list)
    tolerance: float | None = None
    seed: int = 0
    output: str = "human"


def _apply_tolerance(cfg: RunConfig) -> Token:
    tol = config.DEFAULT_TOL
    env = os.environ.get("QREL_TOL")
    if env:
        tol = float(env)
    if cfg.tolerance is not None:
        tol = cfg.tolerance
    return config.set_tolerance(tol)


def _report_condition(c: st.ConditionReport) -> dict:
    return {
        "id": c.id,
        "formula": c.formula,
        "passed": c.passed,
        "margin": float(c.margin),
        "paths": dict(sorted(c.paths.items())),
    }


def _emit(cfg: RunConfig, payload: dict) -> None:
    if cfg.output == "json":
        print(json.dumps(payload, indent=2))
        return
    for item in payload.get("items", []):
        status = "PASS" if item.get("passed") else "FAIL"
        name = item.get("name", "")
        kind = item.get("kind", "")
        line = f"[{status}] {kind} {name}".rstrip()
        if "value" in item:
            line += f" = {item['value']}"
        print(line)
        for c in item.get("conditions", []):
            cstat = "pass" if c["passed"] else "FAIL"
            print(f"    {c['id']}: {cstat} (margin {c['margin']:.3e})")
    for d in payload.get("diagnostics", []):
        print(d, end="")


def _exit_code(items: list[dict]) -> int:
    hard = any(not i.get("passed") and not i.get("warn_band") for i in items)
    warn = any(not i.get("passed") and i.get("warn_band") for i in items)
    if hard:
        return 1
    if warn:
        return 3
    return 0


def _load(path: str) -> tuple[fe.Workspace | None, str]:
    """The workspace in ``path`` (``None`` when the file cannot be read or
    has an error) and its diagnostics, formatted."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as e:
        return None, f"{path}: error: cannot read the file: {e.strerror}\n"
    except UnicodeDecodeError as e:
        return None, f"{path}: error: not UTF-8 text ({e.reason} at byte {e.start})\n"
    ws, diags = fe.parse_workspace(text)
    return ws, fe.format_diagnostics(diags, path)


def _cmd_check(cfg: RunConfig) -> int:
    items = []
    diag_lines = []
    for path in cfg.paths:
        ws, diags = _load(path)
        items.append({"name": path, "kind": "check", "passed": ws is not None})
        if diags:
            diag_lines.append(diags)
    _emit(cfg, _payload(cfg, "check", items, diag_lines))
    return 0 if all(i["passed"] for i in items) else 2


def _cmd_verify(cfg: RunConfig) -> int:
    items = []
    for path in cfg.paths:
        ws, diags = _load(path)
        if ws is None:  # the items of the files before it stay in the report
            _emit(cfg, _payload(cfg, "verify", items, [diags]))
            return 2
        directives = list(ws.verifies)
        if cfg.kind:
            directives = [fe.DVerify(cfg.kind, tuple(cfg.names), fe.Span(0, 0, 0, 0))]
        for d in directives:
            check = fe.bind_verify(ws, d.kind, d.names)
            t0 = time.perf_counter()
            item = {"name": " ".join(d.names), "kind": d.kind}
            try:
                report = check()
            except QrelError as e:
                item.update(passed=False, error=str(e), conditions=[])
            else:
                item["passed"] = report.passed
                item["conditions"] = [_report_condition(c) for c in report.conditions]
            item["timings_ms"] = (time.perf_counter() - t0) * 1e3
            if not item["passed"] and "error" not in item:
                item["warn_band"] = all(
                    c["margin"] <= config.WARN_TOL
                    for c in item["conditions"]
                    if not c["passed"]
                )
            items.append(item)
        for a in ws.asserts:
            t0 = time.perf_counter()
            margin = lg.truth_margin(ws.formulas[a.name])
            value = margin <= config.tolerance()
            item = {
                "name": a.name,
                "kind": "assert",
                "passed": value == a.expect,
                "value": value,
                "expected": a.expect,
                "timings_ms": (time.perf_counter() - t0) * 1e3,
            }
            if not item["passed"]:
                item["warn_band"] = a.expect and margin <= config.WARN_TOL
            items.append(item)
    _emit(cfg, _payload(cfg, "verify", items))
    return _exit_code(items)


def _parse_context(ws: fe.Workspace, spec: str) -> tuple[lg.Variable, ...]:
    ctx = []
    if not spec:
        return ()
    for part in spec.split(","):
        name, _, sort_text = part.partition(":")
        name, sort_text = name.strip(), sort_text.strip()
        if not name or not sort_text:
            raise QrelError(f"bad context entry {part!r}; use name:Sort")
        try:
            sort = fe.parse_sort(ws, sort_text)
        except QrelError as e:
            raise QrelError(f"bad sort in context entry {part!r}: {e}") from None
        ctx.append(lg.Variable(name, sort))
    return tuple(ctx)


def _cmd_eval(cfg: RunConfig) -> int:
    if len(cfg.paths) != 1 or not cfg.formula:
        print("eval needs one file and --formula NAME", file=sys.stderr)
        return 2
    ws, diags = _load(cfg.paths[0])
    if ws is None:
        _emit(cfg, _payload(cfg, "eval", [], [diags]))
        return 2
    if cfg.formula not in ws.formulas:
        print(f"unknown formula {cfg.formula!r}", file=sys.stderr)
        return 2
    formula = ws.formulas[cfg.formula]
    try:
        ctx = _parse_context(ws, cfg.context or "")
        free = lg.free_variables(formula)
        if not ctx and free:
            print(
                f"formula has free variables {[v.name for v in free]}; "
                "pass --context",
                file=sys.stderr,
            )
            return 2
        t0 = time.perf_counter()
        rel = lg.interpret(formula, ctx)
    except QrelError as e:
        print(str(e), file=sys.stderr)
        return 2
    item: dict = {
        "name": cfg.formula,
        "kind": "eval",
        "passed": True,
        "block_ranks": {
            f"{i},{j}": r for (i, j), r in sorted(rel.block_ranks().items())
        },
        "timings_ms": (time.perf_counter() - t0) * 1e3,
    }
    if not ctx:
        item["value"] = lg.sentence_margin(rel) <= config.tolerance()
    _emit(cfg, _payload(cfg, "eval", [item]))
    if cfg.output == "human" and "value" in item:
        print("true" if item["value"] else "false")
    return 0


def _selftest_items(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    items = []

    def record(name: str, passed: bool, detail: str = ""):
        items.append(
            {"name": name, "kind": "selftest", "passed": bool(passed), "detail": detail}
        )

    t0 = time.perf_counter()
    ok = True
    for k in range(20):
        shape = (2, 3)
        s = gen.random_subspace(shape, int(rng.integers(0, 7)), seed * 101 + k)
        t = gen.random_subspace(shape, int(rng.integers(0, 7)), seed * 103 + k)
        full = sp.full(shape)
        ok &= sp.compare(sp.join(s, sp.complement(s)), full).equal
        ok &= sp.meet(s, sp.complement(s)).rank == 0
        if sp.compare(s, t).leq:
            omod = sp.join(s, sp.meet(t, sp.complement(s)))
            ok &= sp.compare(omod, t).equal
    record("subspace-laws", ok)

    ok = True
    X = q.atoms([2], ["x"])
    Y = q.atoms([1, 2], ["y0", "y1"])
    for k in range(8):
        r = gen.random_endo_relation(X, seed * 31 + k)
        f = gen.random_relation(X, Y, seed * 37 + k)
        ok &= q.rel_equal(q.unbend(q.bend(f)), f)
        ok &= q.rel_equal(q.dagger(q.dagger(r)), r)
    record("dagger-compact", ok)

    cs = gen.ClassicalStructure(
        sets={"A": ("a", "b"), "B": ("x", "y", "z")},
        relations={
            "r": (("A", "B"), frozenset({("a", "x"), ("b", "y")})),
            "s": (("A",), frozenset({("a",)})),
        },
        functions={"f": (("A",), "B", {("a",): "x", ("b",): "z"})},
    )
    ls = gen.lift(cs)
    ok = True
    for k in range(30):
        f = gen.random_formula(ls, depth=3, seed=seed * 1000 + k)
        ok &= lg.truth(f) == gen.fol_eval(ls, f)
    record("classical-soundness", ok)

    fam = gen.quantum_hamming(2)
    record("hamming-metric", st.check_metric(fam, "metric").passed)

    record(
        "equality-bruteforce",
        q.rel_equal(q.delta_bruteforce(X, seed=seed), q.equality(X)),
    )
    for item in items:
        item["timings_ms"] = (time.perf_counter() - t0) * 1e3
    return items


def _cmd_selftest(cfg: RunConfig) -> int:
    items = _selftest_items(cfg.seed)
    _emit(cfg, _payload(cfg, "selftest", items))
    return 0 if all(i["passed"] for i in items) else 1


def _payload(
    cfg: RunConfig, command: str, items: list[dict], diagnostics: list[str] | None = None
) -> dict:
    payload = {
        "version": "1",
        "command": command,
        "tolerance": config.tolerance(),
        "seed": cfg.seed,
        "items": items,
    }
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    return payload


def run(cfg: RunConfig) -> int:
    try:
        token = _apply_tolerance(cfg)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    try:
        if cfg.command == "check":
            return _cmd_check(cfg)
        if cfg.command == "eval":
            return _cmd_eval(cfg)
        if cfg.command == "verify":
            return _cmd_verify(cfg)
        if cfg.command == "selftest":
            return _cmd_selftest(cfg)
    except QrelError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as e:
        reason = ("the problem is too large for the available memory"
                  if isinstance(e, MemoryError) else "the input is nested too deeply")
        print(f"qrel {' '.join([cfg.command, *cfg.paths])}: {reason}", file=sys.stderr)
        return 2
    finally:
        config.reset_tolerance(token)
    print(f"unknown command {cfg.command!r}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrel",
        description="check, evaluate, and verify quantum-relation workspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_files: bool = True):
        if with_files:
            p.add_argument("files", nargs="*", metavar="FILE")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override (wins over QREL_TOL)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", choices=("human", "json"), default="human")

    common(sub.add_parser("check", help="parse and sort-check workspaces"))
    pe = sub.add_parser("eval", help="interpret a named formula")
    common(pe)
    pe.add_argument("--formula", required=True)
    pe.add_argument("--context", default=None, metavar="SPEC",
                    help='context variables, e.g. "x:X,y:Y"')
    pv = sub.add_parser("verify", help="run verify directives and asserts")
    common(pv)
    pv.add_argument("--kind", choices=fe.VERIFY_KINDS, default=None)
    pv.add_argument("--names", nargs="*", default=[])
    ps = sub.add_parser("selftest", help="run the embedded property suites")
    common(ps, with_files=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        paths=getattr(args, "files", []),
        formula=getattr(args, "formula", None),
        context=getattr(args, "context", None),
        kind=getattr(args, "kind", None),
        names=getattr(args, "names", []),
        tolerance=args.tol,
        seed=args.seed,
        output=args.output,
    )
    try:
        code = run(cfg)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the flush
        # at interpreter exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
