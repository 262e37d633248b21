"""The benchmark's four seeded workloads.

Each workload builds its inputs from the seed alone and hands qrel only
those inputs.  ``op(k)`` runs the k-th op of an endless sequence through
qrel's public API; ``check(k, result)`` compares the verdict with an answer
found without qrel's interpreter and returns ``None`` or the reason for the
mismatch.  Checks run after the timed phase, never inside it.

``block`` is the number of ops in one round of the sequence.  A round holds
one op of every kind the workload mixes, so a timed phase made of whole
rounds does the same mix of work for every seed.  ``round_s`` is the time
one round took when the benchmark was defined (2 cores, Python 3.11, numpy
2.4, OpenBLAS 0.3.31); it fixes how many rounds one run of ``--seconds``
holds, so the number of ops does not move with the machine's speed.  The
constructor builds ``inputs`` distinct inputs; op k uses input k mod inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

from qrel import cli, generators as gen, logic as lg, qset as q, structures as st
from qrel import subspace as sp


class Workload:
    name: str
    block: int  # ops in one round
    round_s: float  # nominal seconds per round
    warmup: int  # untimed ops run during set-up
    trace_ops: int  # ops replayed by a traced run

    def verifications(self, k: int) -> int:
        """Structure verifications op k asks for (0 when it asks for none)."""
        return 0

    def warn_band_items(self, result) -> int:
        """Report items in ``result`` that qrel verified a second time."""
        return 0


class CorpusVerify(Workload):
    """``qrel verify`` of one corpus file per op, in process, JSON output.

    The files are cycled in name order, and the seed changes nothing: the
    corpus is the input.  A small file's latency depends on the file
    verified before it (up to twice as slow after a large one), so a seeded
    order would move the median from seed to seed.
    """

    name = "corpus-verify"
    block = 9
    round_s = 0.75
    warmup = 9
    trace_ops = 18
    FAILING = "surjectivity_gap.qrel"
    # Conditions of the failing file's one directive, from the file's own
    # comment: the generator is invertible but not unitary.
    FAILING_CONDITIONS = {
        "total": True,
        "univalent": False,
        "adjoint-total": False,
        "surjective": False,
        "image-spanning": True,
    }

    def __init__(self, seed: int, root: Path, inputs: int):
        files = sorted((root / "corpus").glob("*.qrel"))
        if len(files) != self.block:
            raise FileNotFoundError(f"expected {self.block} corpus files, found {len(files)}")
        self.paths = files

    def op(self, k: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(
                cli.RunConfig("verify", [str(self.paths[k % len(self.paths)])], output="json")
            )
        return code, buf.getvalue()

    def _directives(self, k: int, kinds: tuple[str, ...]) -> int:
        text = self.paths[k % len(self.paths)].read_text(encoding="utf-8")
        return sum(line.split(maxsplit=1)[0] in kinds for line in text.splitlines() if line.strip())

    def verifications(self, k: int) -> int:
        return self._directives(k, ("verify",))

    def warn_band_items(self, result) -> int:
        return sum("warn_band" in item for item in json.loads(result[1])["items"])

    def check(self, k: int, result) -> str | None:
        code, text = result
        path = self.paths[k % len(self.paths)]
        items = json.loads(text)["items"]
        # Every verify and assert directive yields one report item.
        if len(items) != self._directives(k, ("verify", "assert")):
            return f"{path.name}: {len(items)} report items"
        if path.name != self.FAILING:
            if code != 0 or not all(i["passed"] for i in items):
                return f"{path.name}: exit {code}"
            return None
        if code != 1:
            return f"{path.name}: exit {code}, expected 1"
        got = {c["id"]: c["passed"] for c in items[0]["conditions"]}
        if got != self.FAILING_CONDITIONS:
            return f"{path.name}: conditions {got}"
        return None


def _classical_structure(rng: np.random.Generator, n_a: int, n_b: int):
    """The random two-sorted structure of acceptance criterion 1, with the
    set sizes given instead of drawn."""
    a = tuple(f"a{i}" for i in range(n_a))
    b = tuple(f"b{i}" for i in range(n_b))
    rel_ab = frozenset(t for t in itertools.product(a, b) if rng.random() < 0.4)
    rel_aa = frozenset(t for t in itertools.product(a, a) if rng.random() < 0.4)
    fmap = {(x,): a[int(rng.integers(n_a))] for x in b}
    return gen.ClassicalStructure(
        sets={"A": a, "B": b},
        relations={"r": (("A", "B"), rel_ab), "e": (("A", "A"), rel_aa)},
        functions={"f": (("B",), "A", fmap)},
    )


def context_atoms(f, width: int = 1) -> int:
    """Atoms in the largest context product the interpreter builds for f."""
    if isinstance(f, lg.Atomic):
        return width
    if isinstance(f, lg.Not):
        return context_atoms(f.body, width)
    if isinstance(f, (lg.Forall, lg.Exists)):
        return context_atoms(f.body, width * len(f.var.sort.atoms))
    if isinstance(f, (lg.ForallDiag, lg.ExistsDiag)):
        return context_atoms(f.body, width * len(f.var.sort.atoms) ** 2)
    return max(context_atoms(f.left, width), context_atoms(f.right, width))


class ClassicalSentences(Workload):
    """``logic.truth`` of one random depth-4 sentence per op."""

    name = "classical-sentences"
    # One round holds one sentence for every pair of set sizes in 1..4.
    SIZES = tuple(itertools.product(range(1, 5), repeat=2))
    block = len(SIZES)
    round_s = 0.12
    warmup = block
    trace_ops = 4 * block
    REPLICAS = 4  # structures per size pair
    # The stated input size: sentences whose largest context product has at
    # most 4**4 atoms.  Of wider sentences (about 7% of those drawn) a single
    # one can cost more than a whole run; the large working set is what
    # classical-preorder measures.
    MAX_CONTEXT_ATOMS = 256

    def __init__(self, seed: int, root: Path, inputs: int):
        rng = np.random.default_rng(seed)
        structures = [
            [gen.lift(_classical_structure(rng, n_a, n_b)) for n_a, n_b in self.SIZES]
            for _ in range(self.REPLICAS)
        ]
        self.items = []
        for k in range(inputs):
            lifted = structures[(k // self.block) % self.REPLICAS][k % self.block]
            while True:
                f = gen.random_formula(lifted, depth=4, seed=int(rng.integers(2**31)))
                if context_atoms(f) <= self.MAX_CONTEXT_ATOMS:
                    break
            self.items.append((lifted, f))

    def op(self, k: int):
        return lg.truth(self.items[k % len(self.items)][1])

    def check(self, k: int, result) -> str | None:
        lifted, f = self.items[k % len(self.items)]
        expected = gen.fol_eval(lifted, f)
        return None if result == expected else f"truth {result}, first-order {expected}"


def _preorder_conditions(report, expected: dict[str, bool]) -> str | None:
    """Both routes of every condition agree, and match ``expected``."""
    for c in report.conditions:
        if set(c.paths) != {"direct", "formula"} or len(set(c.paths.values())) != 1:
            return f"{c.id}: routes disagree {c.paths}"
        if c.id in expected and c.passed != expected[c.id]:
            return f"{c.id}: {c.passed}, expected {expected[c.id]}"
    missing = set(expected) - {c.id for c in report.conditions}
    return f"missing conditions {sorted(missing)}" if missing else None


def _closure(pairs: set, n: int) -> set:
    out = set(pairs) | {(i, i) for i in range(n)}
    while True:
        extra = {(a, d) for a, b in out for c, d in out if b == c} - out
        if not extra:
            return out
        out |= extra


class ClassicalPreorder(Workload):
    """``structures.check_preorder`` on a lifted relation over 5 elements."""

    name = "classical-preorder"
    N = 5
    # (kind, number of pairs).  The cost grows with the pairs, and a run
    # holds only a few ops, so every op has the same size: then no order
    # statistic of a run depends on which kind of op falls where.  Closures
    # are preorders; random relations of this size almost never are.
    PLAN = (("closure", 9), ("random", 9)) * 3
    block = len(PLAN)
    round_s = 8.5
    warmup = 1
    trace_ops = block

    def __init__(self, seed: int, root: Path, inputs: int):
        rng = np.random.default_rng(seed)
        x = q.classical([f"e{i}" for i in range(self.N)])
        one = sp.span([np.ones((1, 1), dtype=complex)], (1, 1))
        cells = list(itertools.product(range(self.N), repeat=2))
        self.items = []
        for k in range(inputs):
            kind, size = self.PLAN[k % self.block]
            if kind == "closure":
                while True:
                    density = rng.uniform(0.05, 0.35)
                    base = {c for c in cells if rng.random() < density}
                    pairs = _closure(base, self.N)
                    if len(pairs) == size:
                        break
            else:
                picks = rng.choice(len(cells), size=size, replace=False)
                pairs = {cells[i] for i in picks}
            rel = q.Relation(x, x, {pair: one for pair in pairs})
            self.items.append((frozenset(pairs), rel))

    def op(self, k: int):
        return st.check_preorder(self.items[k % len(self.items)][1])

    def verifications(self, k: int) -> int:
        return 1

    def check(self, k: int, result) -> str | None:
        pairs = self.items[k % len(self.items)][0]
        n = self.N
        expected = {
            "reflexivity": all((i, i) in pairs for i in range(n)),
            "transitivity": all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c),
        }
        return _preorder_conditions(result, expected)


class QuantumPreorder(Workload):
    """``structures.check_preorder`` on one atom of dimension 3."""

    name = "quantum-preorder"
    D = 3
    # Unital algebras are preorders.  Adding random matrices to the identity
    # breaks closure under products; dropping the identity breaks
    # reflexivity.  For "random" only reflexivity is known by construction.
    PLAN = ("identity", "diagonal", "upper", "full", "unit+random", "random")
    EXPECTED = {
        "identity": {"reflexivity": True, "transitivity": True},
        "diagonal": {"reflexivity": True, "transitivity": True},
        "upper": {"reflexivity": True, "transitivity": True},
        "full": {"reflexivity": True, "transitivity": True},
        "unit+random": {"reflexivity": True, "transitivity": False},
        "random": {"reflexivity": False},
    }
    block = len(PLAN)
    round_s = 9.0
    warmup = 1
    trace_ops = block

    def __init__(self, seed: int, root: Path, inputs: int):
        rng = np.random.default_rng(seed)
        d = self.D
        x = q.atoms([d], ["x"])

        def gaussian():
            return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

        unit = np.eye(d, dtype=complex)
        units = [np.outer(unit[i], unit[j]) for i in range(d) for j in range(d)]
        self.items = []
        for k in range(inputs):
            kind = self.PLAN[k % self.block]
            u, _ = np.linalg.qr(gaussian())  # a seeded change of basis
            conj = lambda m: u @ m @ u.conj().T
            if kind == "identity":
                mats = [unit]
            elif kind == "diagonal":
                mats = [conj(units[i * d + i]) for i in range(d)]
            elif kind == "upper":
                mats = [conj(units[i * d + j]) for i in range(d) for j in range(i, d)]
            elif kind == "full":
                mats = units
            elif kind == "unit+random":
                mats = [unit, gaussian(), gaussian()]
            else:
                mats = [gaussian() for _ in range(3)]
            self.items.append((kind, q.Relation(x, x, {(0, 0): sp.span(mats, (d, d))})))

    def op(self, k: int):
        return st.check_preorder(self.items[k % len(self.items)][1])

    def verifications(self, k: int) -> int:
        return 1

    def check(self, k: int, result) -> str | None:
        kind = self.items[k % len(self.items)][0]
        return _preorder_conditions(result, self.EXPECTED[kind])


WORKLOADS = {w.name: w for w in (CorpusVerify, ClassicalSentences, ClassicalPreorder, QuantumPreorder)}
