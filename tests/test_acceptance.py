"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from qrel import generators as gen
from qrel import logic as lg
from qrel import qset as q
from qrel import structures as st
from qrel import subspace as sp

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class Criterion:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s
        self.start = time.perf_counter()

    def finish(self, passed, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if passed and elapsed < self.budget else "FAIL"
        extra = f" {detail}" if detail else ""
        print(f"[{status}] {self.name}: {elapsed:.1f}s / {self.budget:.0f}s{extra}")
        assert passed, f"{self.name}: {detail}"
        assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"


def rand_structure(seed):
    rng = np.random.default_rng(seed)
    n_a = int(rng.integers(1, 5))
    n_b = int(rng.integers(1, 5))
    a = tuple(f"a{i}" for i in range(n_a))
    b = tuple(f"b{i}" for i in range(n_b))
    all_ab = [(x, y) for x in a for y in b]
    all_aa = [(x, y) for x in a for y in a]
    rel_ab = frozenset(
        t for t in all_ab if rng.random() < 0.4
    )
    rel_aa = frozenset(t for t in all_aa if rng.random() < 0.4)
    fmap = {(x,): a[int(rng.integers(n_a))] for x in b}
    return gen.ClassicalStructure(
        sets={"A": a, "B": b},
        relations={"r": (("A", "B"), rel_ab), "e": (("A", "A"), rel_aa)},
        functions={"f": (("B",), "A", fmap)},
    )


def test_criterion_1_classical_soundness():
    crit = Criterion("1 classical soundness (500 sentences)", 60)
    count, mismatches = 0, 0
    for s_seed in range(5):
        lifted = gen.lift(rand_structure(1000 + s_seed))
        for k in range(100):
            f = gen.random_formula(lifted, depth=4, seed=s_seed * 10_000 + k)
            if lg.truth(f) != gen.fol_eval(lifted, f):
                mismatches += 1
            count += 1
    crit.finish(count == 500 and mismatches == 0, f"{mismatches} mismatches")


def test_criterion_2_orthomodular_lattice():
    crit = Criterion("2 orthomodular lattice suite (200 cases)", 10)
    rng = np.random.default_rng(2)
    worst = 0.0
    cases = 0
    shapes = [(2, 3), (1, 6), (6, 1), (2, 2), (3, 2)]
    for k in range(200):
        shape = shapes[k % len(shapes)]
        d = shape[0] * shape[1]
        s = gen.random_subspace(shape, int(rng.integers(0, d + 1)), 10 * k)
        t = gen.random_subspace(shape, int(rng.integers(1, d + 1)), 10 * k + 1)
        full = sp.full(shape)
        worst = max(worst, sp.compare(sp.join(s, sp.complement(s)), full).margins["leq"])
        worst = max(worst, sp.compare(full, sp.join(s, sp.complement(s))).margins["leq"])
        worst = max(worst, float(sp.meet(s, sp.complement(s)).rank))
        # orthomodularity for a pair below/above
        sub_coeffs = rng.normal(size=(min(2, t.rank), t.rank))
        if t.rank:
            mats = [sum(c * b for c, b in zip(row, t.basis)) for row in sub_coeffs]
            s2 = sp.span(mats, shape)
            rebuilt = sp.join(s2, sp.meet(t, sp.complement(s2)))
            cmp = sp.compare(rebuilt, t)
            worst = max(worst, cmp.margins["leq"], cmp.margins["geq"])
        # residual adjunction on factored ambients
        v = gen.random_subspace((1, 2), int(rng.integers(1, 3)), 10 * k + 2)
        w = gen.random_subspace((1, 6), int(rng.integers(0, 7)), 10 * k + 3)
        resid = sp.residual_factor(v, w)
        probe = gen.random_subspace((1, 3), int(rng.integers(0, 4)), 10 * k + 4)
        if sp.compare(sp.tensor(v, probe), w).leq != sp.compare(probe, resid).leq:
            worst = max(worst, 1.0)
        cases += 1
    crit.finish(cases == 200 and worst <= 1e-7, f"worst margin {worst:.2e}")


def rand_rel(a, b, seed):
    rng = np.random.default_rng(seed)
    blocks = {}
    for i, at in enumerate(a.atoms):
        for j, bt in enumerate(b.atoms):
            kk = int(rng.integers(0, at.dim * bt.dim + 1))
            blocks[(i, j)] = sp.span(
                [rng.normal(size=(bt.dim, at.dim)) + 1j * rng.normal(size=(bt.dim, at.dim))
                 for _ in range(kk)],
                (bt.dim, at.dim),
            )
    return q.Relation(a, b, blocks)


def test_criterion_3_dagger_compact():
    crit = Criterion("3 dagger-compact suite (100 relations)", 30)
    x = q.atoms([2], ["x"])
    y = q.atoms([1, 2], ["y0", "y1"])
    a = q.classical(["a", "b"])
    ok = True
    rng = np.random.default_rng(3)
    for k in range(100):
        f = rand_rel(x, y, 30_000 + k)
        ok &= q.rel_equal(q.unbend(q.bend(f)), f)
        g = q.bend(rand_rel(y, a, 31_000 + k))
        ok &= q.rel_equal(q.bend(q.unbend(g)), g)
        r, s = rand_rel(x, y, 32_000 + k), rand_rel(y, a, 33_000 + k)
        ok &= q.rel_equal(q.dagger(q.compose(s, r)), q.compose(q.dagger(r), q.dagger(s)))
        r2, s2 = rand_rel(a, x, 34_000 + k), rand_rel(x, a, 35_000 + k)
        ok &= q.rel_equal(
            q.compose(q.cross(s, s2), q.cross(r, r2)),
            q.cross(q.compose(s, r), q.compose(s2, r2)),
        )
        sorts = [x, y, a]
        pi = list(rng.permutation(3))
        src = [sorts[pi[i]] for i in range(3)]
        rel = rand_rel(q.product_all(src), q.unit(), 36_000 + k)
        direct = q.permute(rel, pi, sorts)
        ok &= q.rel_equal(direct, q.compose(rel, q.permutation_relation(sorts, pi)))
        ok &= q.rel_equal(direct, q.compose(rel, q.canonical_shuffle(sorts, pi)))
    crit.finish(ok)


def rand_pred(sorts, seed):
    rng = np.random.default_rng(seed)
    blocks = {}
    for flat, _idx, dims in q.atom_tuples(list(sorts)):
        d = 1
        for v in dims:
            d *= v
        kk = int(rng.integers(0, d + 1))
        blocks[(flat, 0)] = sp.span(
            [rng.normal(size=(1, d)) + 1j * rng.normal(size=(1, d)) for _ in range(kk)],
            (1, d),
        )
    return q.Relation(q.product_all(list(sorts)), q.unit(), blocks)


def test_criterion_4_quantifier_theorems():
    crit = Criterion("4 quantifier theorem suite (100 instances)", 60)
    x = q.atoms([2], ["x"])
    a = q.classical(["a", "b"])
    ok = True
    checked = 0
    for k in range(25):
        # diagonal-quantifier bridge and translate agreement
        phi = rand_pred([x, x.dual(), a], 40_000 + k)
        v, vs, z = (
            lg.Variable("v", x),
            lg.Variable("vs", x.dual()),
            lg.Variable("z", a),
        )
        fphi = lg.Atomic(phi, (lg.Var(v), lg.Var(vs), lg.Var(z)))
        for wrapper in (lg.ExistsDiag, lg.ForallDiag):
            f = wrapper(v, vs, fphi)
            direct = lg.interpret(f, (z,))
            expanded = lg.interpret(lg.translate(f), (z,))
            ok &= q.rel_equal(direct, expanded)
            checked += 1
        # residual path against the double-negation path
        s = rand_pred([x, a], 41_000 + k)
        res = lg.forall_residual(s, 1, [x, a])
        u, w = lg.Variable("u", x), lg.Variable("w", a)
        f = lg.Forall(u, lg.Atomic(s, (lg.Var(u), lg.Var(w))))
        ok &= q.rel_equal(res, lg.interpret(f, (w,)))
        checked += 1
        # implication-order equivalence
        p, r = rand_pred([x], 42_000 + k), rand_pred([x], 43_000 + k)
        u2 = lg.Variable("u2", x)
        sent = lg.Forall(
            u2,
            lg.Implies(lg.Atomic(p, (lg.Var(u2),)), lg.Atomic(r, (lg.Var(u2),))),
        )
        ok &= lg.truth(sent) == q.leq(p, r)
        checked += 1
    # quantifier laws (distribution, commutation, vacuous case, exclusion)
    for k in range(25):
        phi = rand_pred([x, x.dual(), a], 44_000 + k)
        psi = rand_pred([x, x.dual(), a], 45_000 + k)
        chi = rand_pred([a], 46_000 + k)
        v, vs, z = (
            lg.Variable("v", x),
            lg.Variable("vs", x.dual()),
            lg.Variable("z", a),
        )
        fphi = lg.Atomic(phi, (lg.Var(v), lg.Var(vs), lg.Var(z)))
        fpsi = lg.Atomic(psi, (lg.Var(v), lg.Var(vs), lg.Var(z)))
        fchi = lg.Atomic(chi, (lg.Var(z),))
        lhs = lg.interpret(lg.ExistsDiag(v, vs, lg.Or(fphi, fpsi)), (z,))
        rhs = q.join(
            lg.interpret(lg.ExistsDiag(v, vs, fphi), (z,)),
            lg.interpret(lg.ExistsDiag(v, vs, fpsi), (z,)),
        )
        ok &= q.rel_equal(lhs, rhs)
        lhs = lg.interpret(lg.ExistsDiag(v, vs, lg.And(fphi, fchi)), (z,))
        rhs = q.meet(
            lg.interpret(lg.ExistsDiag(v, vs, fphi), (z,)),
            lg.interpret(fchi, (z,)),
        )
        ok &= q.rel_equal(lhs, rhs)
        vac = lg.interpret(lg.ExistsDiag(v, vs, fchi), (z,))
        ok &= q.rel_equal(vac, lg.interpret(fchi, (z,)))
        lhs = lg.interpret(lg.ExistsDiag(v, vs, lg.Or(fphi, fchi)), (z,))
        rhs = q.join(
            lg.interpret(lg.ExistsDiag(v, vs, fphi), (z,)),
            lg.interpret(fchi, (z,)),
        )
        ok &= q.rel_equal(lhs, rhs)
        checked += 4
    # the empty-sort exclusion
    nothing = q.empty()
    z = lg.Variable("z", a)
    fchi = lg.Atomic(q.top_pred(a), (lg.Var(z),))
    ve, vse = lg.Variable("ve", nothing), lg.Variable("vse", nothing.dual())
    vac = lg.interpret(lg.ExistsDiag(ve, vse, fchi), (z,))
    ok &= q.rel_equal(vac, q.bottom(a, q.unit()))
    ok &= not q.rel_equal(vac, lg.interpret(fchi, (z,)))
    checked += 1
    crit.finish(ok and checked >= 100, f"{checked} instances")


def test_criterion_5_equality_delta():
    crit = Criterion("5 equality via projection sampling", 20)
    ok = True
    for carrier in (
        q.atoms([2], ["x"]),
        q.classical(["a", "b", "c"]),
        q.atoms([1, 2], ["u", "v"]),
    ):
        ok &= q.rel_equal(q.delta_bruteforce(carrier, seed=5), q.equality(carrier))
    dim2 = q.atoms([2], ["x"])
    ok &= len(q.delta_bruteforce(dim2, seed=5, pair_with_dual=False).blocks) == 0
    classical = q.classical(["a", "b", "c"])
    diag = q.delta_bruteforce(classical, seed=5, pair_with_dual=False)
    expected = {(i * 3 + i, 0) for i in range(3)}
    ok &= set(diag.blocks) == expected
    crit.finish(ok)


def test_criterion_6_correspondences():
    crit = Criterion("6 structure correspondences", 30)
    rng = np.random.default_rng(6)
    h = q.atoms([3], ["h"])
    mismatches = 0
    for k in range(16):
        rank = int(rng.integers(1, 9))
        mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                for _ in range(rank)]
        if k % 2:
            mats = mats[:2] + [m.conj().T for m in mats[:2]] + [np.eye(3)]
        blk = sp.span(mats, (3, 3))
        r = q.Relation(h, h, {(0, 0): blk})
        is_op_system = blk.contains(np.eye(3)) and sp.compare(
            sp.star_image(blk, "dagger"), blk
        ).equal
        if st.check_graph(r).passed != is_op_system:
            mismatches += 1
    # unital *-subalgebras match graph + transitivity through the global image
    def unit_mat(i):
        m = np.zeros((3, 3), complex)
        m[divmod(i, 3)] = 1
        return m

    candidates = [
        [np.eye(3)],
        [unit_mat(0), unit_mat(4), unit_mat(8)],
        [unit_mat(i) for i in range(9)],
        [np.eye(3), unit_mat(1)],
        [unit_mat(1)],
        [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)],
    ]
    for mats in candidates:
        blk = sp.span(mats, (3, 3))
        r = q.Relation(h, h, {(0, 0): blk})
        v = q.weaver_to_global(r)
        is_algebra = (
            v.contains(np.eye(3))
            and sp.compare(sp.star_image(v, "dagger"), v).equal
            and sp.compare(sp.mul_span(v, v), v).leq
        )
        holds = (
            st.check_graph(r).passed
            and st.check_preorder(r).condition("transitivity").passed
        )
        if holds != is_algebra:
            mismatches += 1
    # nilpotent decomposition on strictly upper triangular M3
    strict = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        m = np.zeros((3, 3), complex)
        m[i, j] = 1
        strict.append(m)
    r = q.Relation(h, h, {(0, 0): sp.span([np.eye(3)] + strict, (3, 3))})
    rep = st.check_poset(r, "nilpotent")
    if not rep.passed:
        mismatches += 1
    # the surjectivity counterexample
    x = q.atoms([2], ["x"])
    d = q.Relation(x, x, {(0, 0): sp.span([np.diag([1.0, 2.0]).astype(complex)], (2, 2))})
    repd = st.check_function(d, "surjective")
    if not (
        repd.condition("image-spanning").passed
        and repd.condition("surjective").paths["formula"]
        and not repd.condition("surjective").paths["direct"]
        and not repd.passed
    ):
        mismatches += 1
    crit.finish(mismatches == 0, f"{mismatches} mismatches")


def test_criterion_7_quantum_hamming():
    crit = Criterion("7 quantum Hamming metrics", 30)
    from math import comb

    ok = True
    for n in (2, 3):
        fam = gen.quantum_hamming(n)
        ok &= st.check_metric(fam, "metric").passed
        ok &= fam.relations[1.0].block(0, 0).rank == comb(n, 1) * 3
    ok &= gen.quantum_hamming(2).relations[1.0].block(0, 0).rank == 6
    ok &= gen.quantum_hamming(3).relations[1.0].block(0, 0).rank == 9
    crit.finish(ok)


def perm_family(labels_a, labels_b, mapping):
    return st.ProjectionFamily(
        1, tuple(labels_a), tuple(labels_b),
        {(a, b): (np.ones((1, 1), complex) if mapping[a] == b
                  else np.zeros((1, 1), complex))
         for a in labels_a for b in labels_b},
    )


def test_criterion_8_game_witnesses():
    crit = Criterion("8 game-witness suite", 10)
    ok = True
    c4, k4 = gen.cycle_graph(4), gen.complete_graph(4)
    # valid instances
    rot = {f"v{k}": f"v{(k + 1) % 4}" for k in range(4)}
    ok &= st.check_iso_witness(perm_family(c4[0], c4[0], rot), c4, c4).passed
    ident = {l: l for l in k4[0]}
    ok &= st.check_iso_witness(perm_family(k4[0], k4[0], ident), k4, k4).passed
    ok &= st.check_hom_witness(perm_family(c4[0], c4[0], rot), c4, c4).passed
    p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    e = np.eye(2, dtype=complex)
    rotated = st.ProjectionFamily(
        2, ("a", "b"), ("x", "y"),
        {("a", "x"): p, ("a", "y"): e - p, ("b", "x"): e - p, ("b", "y"): p},
    )
    ok &= st.check_magic_unitary(rotated).passed
    # mutants broken one condition at a time, rejected with the right id
    row_broken = st.ProjectionFamily(
        2, ("a", "b"), ("x", "y"),
        {("a", "x"): p, ("a", "y"): np.zeros((2, 2), complex),
         ("b", "x"): e - p, ("b", "y"): e},
    )
    rep = st.check_magic_unitary(row_broken)
    ok &= not rep.condition("row-sums").passed
    ok &= rep.condition("col-sums").passed
    ok &= not rep.passed
    col_broken = st.ProjectionFamily(
        2, ("a", "b"), ("x", "y"),
        {("a", "x"): p, ("a", "y"): e - p,
         ("b", "x"): p, ("b", "y"): e - p},
    )
    rep = st.check_magic_unitary(col_broken)
    ok &= rep.condition("row-sums").passed
    ok &= not rep.condition("col-sums").passed
    collapse = perm_family(c4[0], c4[0], {l: "v0" for l in c4[0]})
    rep = st.check_hom_witness(collapse, c4, c4)
    ok &= rep.condition("row-sums").passed
    ok &= not rep.condition("adjacency-orthogonality").passed
    ok &= not rep.condition("adjacency-formula").passed
    rep = st.check_iso_witness(perm_family(c4[0], k4[0], ident), c4, k4)
    ok &= rep.condition("adjacency-forward").passed
    ok &= not rep.condition("adjacency-reverse").passed
    ok &= not rep.passed
    crit.finish(ok)


def test_criterion_9_quantum_groups():
    crit = Criterion("9 quantum group suite", 60)
    ok = True

    def lifted_group(labels, mult):
        cs = gen.ClassicalStructure(
            sets={"G": labels},
            functions={
                "mul": (("G", "G"), "G", mult),
                "one": ((), "G", {(): labels[0]}),
            },
        )
        ls = gen.lift(cs)
        return ls.functions["mul"], ls.functions["one"]

    for n in (2, 3):
        labels = tuple(f"g{k}" for k in range(n))
        mult = {(labels[i], labels[j]): labels[(i + j) % n]
                for i in range(n) for j in range(n)}
        f, c = lifted_group(labels, mult)
        ok &= st.check_quantum_group(f, c).passed
    s3 = gen.symmetric_group_s3_irreps()
    labels = s3.elements
    mult = {(labels[g], labels[h]): labels[s3.mult[g][h]]
            for g in range(6) for h in range(6)}
    f, c = lifted_group(labels, mult)
    ok &= st.check_quantum_group(f, c).passed
    _, fd, cd = gen.dual_group(s3)
    ok &= st.check_quantum_group(fd, cd).passed
    mx = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"}
    f, c = lifted_group(("0", "1"), mx)
    rep = st.check_quantum_group(f, c)
    outcome = {cond.id: cond.passed for cond in rep.conditions}
    ok &= outcome == {
        "associativity": True,
        "right-unit": True,
        "left-unit": True,
        "right-inverse": False,
        "left-inverse": False,
    }
    crit.finish(ok)


def test_criterion_10_weaver_correspondence():
    crit = Criterion("10 global-subspace correspondence (50 cases)", 20)
    a = q.atoms([1, 2], ["a1", "a2"])
    b = q.atoms([2, 1], ["b1", "b2"])
    c = q.atoms([2, 2], ["c1", "c2"])
    ok = True
    for k in range(50):
        rv = rand_rel(a, b, 100_000 + k)
        rw = rand_rel(b, c, 101_000 + k)
        gv, gw = q.weaver_to_global(rv), q.weaver_to_global(rw)
        ok &= q.rel_equal(q.weaver_to_blocks(gv, a, b), rv)
        ok &= sp.compare(q.weaver_to_global(q.weaver_to_blocks(gv, a, b)), gv).equal
        ok &= q.rel_equal(
            q.weaver_to_blocks(sp.mul_span(gw, gv), a, c), q.compose(rw, rv)
        )
    crit.finish(ok)


def _qrel(*args):
    return subprocess.run(
        [sys.executable, "-m", "qrel.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )


def test_criterion_11_cli_contract():
    crit = Criterion("11 CLI contract over the corpus", 120)
    files = sorted(CORPUS.glob("*.qrel"))
    ok = len(files) >= 6
    for path in files:
        ok &= _qrel("check", str(path)).returncode == 0
        expected = 1 if path.name == "surjectivity_gap.qrel" else 0
        ok &= _qrel("verify", str(path)).returncode == expected
    runs = []
    for _ in range(2):
        r = _qrel("verify", str(CORPUS / "isogame.qrel"), "--output", "json",
                  "--seed", "3", "--tol", "1e-8")
        payload = json.loads(r.stdout)
        for item in payload["items"]:
            item.pop("timings_ms", None)
        runs.append(json.dumps(payload, sort_keys=True))
    ok &= runs[0] == runs[1]
    crit.finish(ok)


def test_preorder_on_a_four_dimensional_atom():
    # The transitivity sentence's innermost context is a 4096-dimensional
    # ambient; the Sasaki connectives never complement it.
    crit = Criterion("preorder check of the identity on one atom of dimension 4", 5)
    report = st.check_preorder(q.identity(q.atoms([4], ["x"])))
    crit.finish(report.passed)
