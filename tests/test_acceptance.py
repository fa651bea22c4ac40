"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass lines.
"""

import itertools
import random
import time

from covtt import kleene as K
from covtt.covers import (
    FiniteAxiomSet, QuotientData, REmpty, RMember, RSplit, RWellCover,
    RWiden, check_eqcov_isomorphism, check_induction_minimality,
    joyal_check_derivation, saturate, well_founded_part,
)
from covtt.kernel import check_judgment, whnf
from covtt.kleene import (
    apply, code, dec_list, enc_list, eval_kterm, kapp, ksubst, lambda_abstract,
    list_component, list_length, pair, unpair,
)
from covtt.realizability import (
    Model, N0_CODE, N1_CODE, N_CODE, cov_code, ct_validate, realize,
    validate_judgment,
)
from covtt.syntax import (
    CovHat, Ind, Rf, TermEq, TermOf, Tr, TypeWF, alpha_eq, parse_file,
    parse_judgment, parse_term,
)
from fractions import Fraction as F


def _report(name: str):
    print(f"ACCEPTANCE {name}: pass")


# ---------------------------------------------------------------------------
# 1. kernel corpus
# ---------------------------------------------------------------------------

ILLTYPED_RULES = [
    "N-I", "T-F", "N-I", "Ap", "Sigma-I", "Id-F", "List-E",
    "rf-cov", "rf-cov", "tr-cov", "xi", "eq-term", "Sum-I", "ind-cov",
]


def _contains(term, cls) -> bool:
    stack = [term]
    from covtt.syntax import _SIG
    while stack:
        t = stack.pop()
        if isinstance(t, cls):
            return True
        if type(t) in _SIG:
            stack.extend(getattr(t, f) for f, _ in _SIG[type(t)])
    return False


def test_kernel_corpus(corpus_dir):
    start = time.time()
    golden = parse_file((corpus_dir / "golden.judg").read_text())
    assert len(golden) >= 40
    for lineno, j in golden:
        r = check_judgment(j)
        assert r.accepted, (lineno, r.rule, r.reason)

    # at least one instance of each cover rule and of repl
    terms = [j for _, j in golden if isinstance(j, TermOf)]
    eqs = [j for _, j in golden if isinstance(j, TermEq)]
    assert any(isinstance(j.term, CovHat) for j in terms)               # F-cov
    assert any(_contains(j.ty, CovHat) for _, j in golden
               if isinstance(j, TypeWF))                                # F-cov
    assert any(isinstance(j.term, Rf) for j in terms)                   # rf-cov
    assert any(isinstance(j.term, Tr) for j in terms)                   # tr-cov
    assert any(isinstance(j.term, Ind) for j in terms)                  # ind-cov
    assert any(isinstance(j.lhs, Ind) and isinstance(j.lhs.scrut, Rf)
               for j in eqs)                                            # C1
    assert any(isinstance(j.lhs, Ind) and isinstance(j.lhs.scrut, Tr)
               for j in eqs)                                            # C2
    repl_instance = parse_judgment(
        "termeq [] |- succ(Ap(lam x . x, 0)) == 1 : N")
    assert any(j == repl_instance for j in eqs)                         # repl

    illtyped = parse_file((corpus_dir / "illtyped.judg").read_text())
    assert len(illtyped) >= 10
    assert len(illtyped) == len(ILLTYPED_RULES)
    for (lineno, j), want in zip(illtyped, ILLTYPED_RULES):
        r = check_judgment(j)
        assert not r.accepted and r.rule == want, (lineno, r.rule, want)

    elapsed = time.time() - start
    assert elapsed < 5.0, elapsed
    _report(f"kernel corpus ({len(golden)} accepted, "
            f"{len(illtyped)} rejected, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. xi refutation
# ---------------------------------------------------------------------------

def test_xi_refutation():
    j = parse_judgment(
        "termeq [] |- lam x . Ap(lam y . y, x) == lam x . x : N -> N")
    r = check_judgment(j)
    assert not r.accepted and r.rule == "xi"
    n1 = realize(parse_term("lam x . Ap(lam y . y, x)"))
    n2 = realize(parse_term("lam x . x"))
    assert isinstance(n1, int) and isinstance(n2, int) and n1 != n2
    _report(f"xi refutation (kernel rejects; numerals {n1} != {n2})")


# ---------------------------------------------------------------------------
# 3. cover computation rules
# ---------------------------------------------------------------------------

def test_cover_computation_rules():
    rng = random.Random(20240818)
    a_pool = ["0", "1", "inl(star)", "pair(0, 1)", "star"]
    r_pool = ["0", "2", "star", "pair(1, 1)"]
    q1_pool = ["0", "pair(x, w)", "succ(1)", "w"]
    q2_pool = ["0", "pair(h, 1)", "f", "pair(x, k)", "Ap(Ap(f, 0), 1)"]
    checked = 0
    for _ in range(10):
        a, r = rng.choice(a_pool), rng.choice(r_pool)
        b1, b2 = rng.choice(q1_pool), rng.choice(q2_pool)
        lhs = parse_term(f"ind(rf({a}, {r}); x w . {b1}; x h k f . {b2})")
        want = parse_term(f"Ap(Ap(lam x . lam w . {b1}, {a}), {r})")
        got = whnf(lhs)
        assert alpha_eq(got, whnf(want))
        assert realize(lhs) == realize(want)
        checked += 1
    for _ in range(10):
        a, j = rng.choice(a_pool), rng.choice(r_pool)
        rf_arg = rng.choice(["rf(z, 0)", "1", "rf(u2, u2)"])
        r_fn = f"lam z . lam u2 . {rf_arg}"
        b1, b2 = rng.choice(q1_pool), rng.choice(q2_pool)
        lhs = parse_term(f"ind(tr({a}, {j}, {r_fn}); x w . {b1}; x h k f . {b2})")
        contractum = parse_term(
            f"Ap(Ap(Ap(Ap(lam x . lam h . lam k . lam f . {b2}, {a}), {j}), "
            f"{r_fn}), lam z . lam u . ind(Ap(Ap({r_fn}, z), u); "
            f"x w . {b1}; x h k f . {b2}))")
        assert alpha_eq(whnf(lhs), whnf(contractum))
        assert realize(lhs) == realize(contractum)
        checked += 1
    assert checked == 20
    _report("cover computation rules (20 closed instances, whnf + numerals)")


# ---------------------------------------------------------------------------
# 4. pairing and list coding laws
# ---------------------------------------------------------------------------

def _dec_list_oracle(x: int) -> list[int]:
    # independent decode straight from the documented equations
    if x == 0:
        return []
    front, last = unpair(x - 1)
    return _dec_list_oracle(front) + [last]


def test_pairing_and_list_laws():
    start = time.time()
    assert pair(0, 0) == 0
    for k in range(1 << 16):
        n, m = unpair(k)
        assert pair(n, m) == k
        items = _dec_list_oracle(k)
        assert list_length(k) == len(items)
        assert enc_list(items) == k
    rng = random.Random(4242)
    for _ in range(100_000):
        n = rng.getrandbits(rng.randrange(1, 128))
        m = rng.getrandbits(rng.randrange(1, 128))
        p = pair(n, m)
        assert unpair(p) == (n, m)
    for _ in range(2000):
        items = [rng.randrange(1 << 16) for _ in range(rng.randrange(6))]
        e = enc_list(items)
        assert _dec_list_oracle(e) == items == dec_list(e)
        for jj, it in enumerate(items):
            assert list_component(e, jj) == it
    elapsed = time.time() - start
    assert elapsed < 30.0, elapsed
    _report(f"pairing and list laws (2^16 exhaustive + 1e5 random, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. lambda substitution property
# ---------------------------------------------------------------------------

def test_lambda_substitution_property():
    rng = random.Random(515)
    leaves = [code(K.SUCC), code(K.I), code(K.PAIR),
              code(K.P0), code(K.K), 0, 2, "x"]

    def gen(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(leaves)
        return kapp(gen(depth - 1), gen(depth - 1))

    def run(t):
        try:
            return eval_kterm(t, {}, 50_000)
        except K.Diverged:
            return None

    failures = 0
    for _ in range(1000):
        t = gen(3)
        n = rng.randrange(7)
        lam_code = run(lambda_abstract(t, "x"))
        rhs = run(ksubst(t, "x", n))
        if lam_code is None:
            lhs = None
        else:
            try:
                lhs = apply(lam_code, n, 50_000)
            except K.Diverged:
                lhs = None
        if lhs != rhs:
            failures += 1
    assert failures == 0
    _report("lambda substitution property (1000 samples, zero failures)")


# ---------------------------------------------------------------------------
# 6. persistence of the stage-indexed universe
# ---------------------------------------------------------------------------

def _gen_set_code(rng, rank: int) -> int:
    if rank == 0:
        return rng.choice([N1_CODE, N1_CODE, N0_CODE, N_CODE])
    kind = rng.choice(["sigma", "pi", "plus", "list", "id", "cov"])
    sub = _gen_set_code(rng, rank - 1)
    if kind in ("sigma", "pi"):
        fam = code(K.K, [_gen_set_code(rng, rank - 1)])
        return pair(1 if kind == "sigma" else 2, pair(sub, fam))
    if kind == "plus":
        return pair(3, pair(sub, _gen_set_code(rng, rank - 1)))
    if kind == "list":
        return pair(4, sub)
    if kind == "id":
        m = rng.randrange(3)
        return pair(5, pair(pair(sub, m), m if rng.random() < 0.8
                            else rng.randrange(3)))
    v = code(K.K, [_gen_set_code(rng, rank - 1)])
    i = code(K.K, [rng.choice([N0_CODE, N1_CODE])])
    c = eval_kterm(K.lambda_abstract_many(
        code(K.K, [rng.choice([N0_CODE, N1_CODE])]), ["x", "y"]))
    return cov_code(rng.randrange(2), v, sub, i, c)


def test_persistence_of_stages():
    start = time.time()
    rng = random.Random(60606)
    codes = [_gen_set_code(rng, rng.randrange(0, 6)) for _ in range(500)]
    violations = 0
    comparisons = 0
    fuel_skips = 0
    for m in codes:
        # one budget per code: an exhausted budget reports unknown(fuel),
        # which is a skip, never a violation
        model = Model(fuel=10 ** 6)
        first = None
        for k in range(7):
            if model.set_at(m, k).kind == "yes":
                first = k
                break
        if first is None:
            continue                      # never a set at desk stages: skip
        for k in (first + 1, first + 2, 8):
            r = model.set_at(m, k)
            comparisons += 1
            if r.kind == "yes":
                continue
            if r.reason in ("fuel", "cycle"):
                fuel_skips += 1
            else:
                violations += 1
        for i in range(65):
            base = model.mem_at(i, m, first)
            later = model.mem_at(i, m, 8)
            comparisons += 1
            if base.reason in ("fuel", "cycle") or later.reason in ("fuel", "cycle"):
                fuel_skips += 1
                continue
            if base.kind != later.kind:
                violations += 1
    assert violations == 0
    assert comparisons > 10_000
    assert fuel_skips < comparisons // 20        # at least 95% settle exactly
    elapsed = time.time() - start
    assert elapsed < 60.0, elapsed
    _report(f"stage persistence (500 codes, rank <= 5, "
            f"{comparisons - fuel_skips} exact comparisons, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. soundness sampling over the golden corpus
# ---------------------------------------------------------------------------

def test_soundness_sampling(corpus_dir):
    golden = parse_file((corpus_dir / "golden.judg").read_text())
    for lineno, j in golden:
        t = validate_judgment(j, stage=8, fuel=10 ** 6)
        assert t.kind in ("yes", "unknown"), (lineno, t)
    _report(f"soundness sampling ({len(golden)} judgments, never 'no')")


# ---------------------------------------------------------------------------
# 8. the Church's-thesis realizer
# ---------------------------------------------------------------------------

def test_ct_realizer(corpus_dir):
    fns = [j.fn for _, j in parse_file((corpus_dir / "ct.judg").read_text())]
    assert len(fns) == 5
    expected = [
        lambda x: x,                       # identity
        lambda x: x + 1,                   # successor
        lambda x: 2 * x,                   # doubling
        lambda x: x + 2,                   # two-step composition
        lambda x: x * (x + 1) // 2,        # primitive recursive sum
    ]
    n = K.ct_realizer()
    for fn_term, fn in zip(fns, expected):
        assert ct_validate(fn_term).kind == "yes"
        e_prime = realize(fn_term)
        ew = apply(n, e_prime, 10 ** 6)
        e, w = unpair(ew)
        for x in range(21):
            z, r = unpair(apply(w, x, 10 ** 6))
            assert K.kleene_T(e, x, z)
            assert K.kleene_U(z) == fn(x) == r      # exact equality
    _report("CT realizer (5 function terms, x <= 20, exact)")


# ---------------------------------------------------------------------------
# 9. cover engine against the derivation-search oracle
# ---------------------------------------------------------------------------

def _derivable(ax, a, v, depth):
    if a in v:
        return True
    if depth == 0:
        return False
    return any(all(_derivable(ax, y, v, depth - 1) for y in ax.cover[(a, j)])
               for j in ax.index[a])


def _oracle_set(ax, v):
    d = len(ax.carrier) + 1
    return frozenset(a for a in ax.carrier if _derivable(ax, a, v, d))


def _enumerate_family(n):
    """All axiom sets over range(n) with at most two indices per element and
    arbitrary covering subsets — the documented enumeration family."""
    elems = list(range(n))
    subsets = [frozenset(s) for r in range(n + 1)
               for s in itertools.combinations(elems, r)]
    per_elem = [()]
    per_elem += [(c0,) for c0 in subsets]
    per_elem += [(c0, c1) for c0 in subsets for c1 in subsets]
    for combo in itertools.product(per_elem, repeat=n):
        index = {a: frozenset(range(len(combo[a]))) for a in elems}
        cover = {(a, j): combo[a][j] for a in elems for j in range(len(combo[a]))}
        yield FiniteAxiomSet(frozenset(elems), index, cover)


def test_cover_engine_vs_oracle():
    instances = 0
    for n in (1, 2):
        for ax in _enumerate_family(n):
            for bits in itertools.product((0, 1), repeat=n):
                v = frozenset(e for e, b in zip(range(n), bits) if b)
                assert saturate(ax, v) == _oracle_set(ax, v)
            instances += 1
    rng = random.Random(909)
    for _ in range(60):
        n = rng.randrange(3, 6)
        elems = list(range(n))
        index = {}
        cover = {}
        for a in elems:
            js = rng.randrange(0, 3)
            index[a] = frozenset(range(js))
            for j in range(js):
                cover[(a, j)] = frozenset(
                    rng.sample(elems, rng.randrange(0, n + 1)))
        ax = FiniteAxiomSet(frozenset(elems), index, cover)
        for _ in range(8):
            v = frozenset(rng.sample(elems, rng.randrange(0, n + 1)))
            assert saturate(ax, v) == _oracle_set(ax, v)
        instances += 1
    assert instances >= 200
    _report(f"cover engine vs derivation search ({instances} instances)")


# ---------------------------------------------------------------------------
# 10. induction minimality
# ---------------------------------------------------------------------------

def test_induction_minimality_exhaustive():
    rng = random.Random(1001)
    for _ in range(100):
        n = rng.randrange(1, 5)
        elems = list(range(n))
        index = {}
        cover = {}
        for a in elems:
            js = rng.randrange(0, 3)
            index[a] = frozenset(range(js))
            for j in range(js):
                cover[(a, j)] = frozenset(
                    rng.sample(elems, rng.randrange(0, n + 1)))
        ax = FiniteAxiomSet(frozenset(elems), index, cover)
        v = frozenset(rng.sample(elems, rng.randrange(0, n + 1)))
        assert check_induction_minimality(ax, v)
    _report("induction minimality (100 instances, all P enumerated)")


# ---------------------------------------------------------------------------
# 11. the fixpoint-lattice isomorphism
# ---------------------------------------------------------------------------

def test_eqcov_isomorphism():
    rng = random.Random(111)
    done = 0
    while done < 20:
        n = rng.randrange(1, 5)
        elems = list(range(n))
        labels = {e: rng.randrange(1, n + 1) for e in elems}
        rel = frozenset((a, b) for a in elems for b in elems
                        if labels[a] == labels[b])
        qd = QuotientData(frozenset(elems), rel)
        classes = sorted(qd.classes(), key=sorted)
        index = {}
        cover = {}
        for cl in classes:
            js = rng.randrange(0, 3)
            index[cl] = frozenset(range(js))
            for j in range(js):
                cover[(cl, j)] = frozenset(
                    rng.sample(classes, rng.randrange(0, len(classes) + 1)))
        ax = FiniteAxiomSet(frozenset(classes), index, cover)
        assert check_eqcov_isomorphism(qd, ax)
        done += 1
    _report("fixpoint-lattice isomorphism (20 quotient instances)")


# ---------------------------------------------------------------------------
# 12. well-founded parts
# ---------------------------------------------------------------------------

def _wf_oracle(rel, carrier):
    preds = {x: [z for z, x2 in rel if x2 == x] for x in carrier}

    def has_chain(a, k):
        if k == 0:
            return True
        return any(has_chain(z, k - 1) for z in preds[a])

    n = len(carrier) + 1
    return frozenset(a for a in carrier if not has_chain(a, n))


def test_well_founded_parts():
    rng = random.Random(121212)
    for _ in range(100):
        n = rng.randrange(1, 9)
        s = frozenset(range(n))
        rel = frozenset((rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randrange(0, 2 * n)))
        assert well_founded_part(rel, s) == _wf_oracle(rel, s)
    _report("well-founded parts (100 digraphs vs chain oracle)")


# ---------------------------------------------------------------------------
# 13. real-line derivations
# ---------------------------------------------------------------------------

def test_joyal_derivations():
    # three valid derivations, including the degenerate-interval axiom
    assert joyal_check_derivation(REmpty(), (F(1), F(0)), frozenset())
    assert joyal_check_derivation(
        RWiden(F(-1), F(3), RMember()), (F(0), F(2)),
        frozenset({(F(-1), F(3))}))
    u = frozenset({(F(0), F(2)), (F(3, 2), F(3))})
    assert joyal_check_derivation(
        RSplit(F(3, 2), F(2), RMember(), RMember()), (F(0), F(3)), u)
    # three side-condition violations
    assert not joyal_check_derivation(
        RSplit(F(5), F(4), RMember(), RMember()), (F(0), F(10)),
        frozenset({(F(0), F(4)), (F(5), F(10))}))
    assert not joyal_check_derivation(
        RWiden(F(1, 2), F(3), RMember()), (F(0), F(2)),
        frozenset({(F(1, 2), F(3))}))
    assert not joyal_check_derivation(
        RWellCover(F(1), F(4), RMember()), (F(0), F(3)),
        frozenset({(F(1), F(4))}))
    _report("real-line derivation checker (3 valid, 3 violations, exact)")
