import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from covtt import covers
from covtt.covers import (
    FiniteAxiomSet, QuotientData, REmpty, RMember, RSplit, RWellCover,
    RWiden, SchemaError, check_eqcov_isomorphism, check_induction_minimality,
    cont, eq_relation_transform, es, es_inv, is_covered,
    joyal_check_derivation, parse_axiom_file, parse_relation_file,
    quotient_transform, saturate, tree_topology, well_founded_part,
    wp_axiom_set,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def derivable(ax: FiniteAxiomSet, a, v: frozenset, depth: int) -> bool:
    """Exhaustive search for a finite rf/tr derivation of a <| v."""
    if a in v:
        return True
    if depth == 0:
        return False
    return any(all(derivable(ax, y, v, depth - 1) for y in ax.cover[(a, j)])
               for j in ax.index[a])


def derivation_set(ax: FiniteAxiomSet, v: frozenset) -> frozenset:
    depth = len(ax.carrier) + 1
    return frozenset(a for a in ax.carrier if derivable(ax, a, v, depth))


def wf_oracle(rel: frozenset, carrier: frozenset) -> frozenset:
    """Chain enumeration: well-founded iff no descending chain of length |S|+1."""
    preds = {x: [z for z, x2 in rel if x2 == x] for x in carrier}

    def has_chain(a, k):
        if k == 0:
            return True
        return any(has_chain(z, k - 1) for z in preds[a])

    n = len(carrier) + 1
    return frozenset(a for a in carrier if not has_chain(a, n))


def random_axiom_set(rng, elems, max_indices=2) -> FiniteAxiomSet:
    index = {}
    cover = {}
    for a in elems:
        js = rng.randrange(0, max_indices + 1)
        index[a] = frozenset(range(js))
        for j in range(js):
            size = rng.randrange(0, len(elems) + 1)
            cover[(a, j)] = frozenset(rng.sample(list(elems), size))
    return FiniteAxiomSet(frozenset(elems), index, cover)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def test_saturate_trivial_cases():
    ax = FiniteAxiomSet(frozenset("x"), {"x": frozenset("j")},
                        {("x", "j"): frozenset("x")})
    assert saturate(ax, frozenset()) == frozenset()
    assert saturate(ax, frozenset("x")) == frozenset("x")
    # a nullary axiom fires with no support
    ax2 = FiniteAxiomSet({"a", "b"}, {"a": {"j"}}, {("a", "j"): frozenset()})
    assert saturate(ax2, frozenset()) == frozenset({"a"})


def test_saturate_is_a_closure_operator():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randrange(1, 6)
        ax = random_axiom_set(rng, range(n))
        v = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
        w = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
        sat = saturate(ax, v)
        assert v <= sat
        assert saturate(ax, sat) == sat
        if v <= w:
            assert sat <= saturate(ax, w)


def test_saturate_agrees_with_derivation_search():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randrange(1, 6)
        ax = random_axiom_set(rng, range(n))
        for _ in range(4):
            v = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
            assert saturate(ax, v) == derivation_set(ax, v)


def test_one_axiom_set_answers_many_queries():
    # one compiled set serves queries in any order, as a fresh copy would
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randrange(2, 6)
        elems = range(n)
        ax = random_axiom_set(rng, elems)
        index = {a: set(js) for a, js in ax.index.items()}
        cover = dict(ax.cover)
        free, loop, twice = (rng.randrange(n) for _ in range(3))
        # an empty body; an element in its own body; one body, two indices
        index[free].add("nil")
        cover[(free, "nil")] = frozenset()
        index[loop].add("loop")
        cover[(loop, "loop")] = frozenset(rng.sample(elems, rng.randrange(n))) | {loop}
        body = frozenset(rng.sample(elems, rng.randrange(1, n + 1))) | {free}
        for j in ("dup0", "dup1"):
            index[twice].add(j)
            cover[(twice, j)] = body
        ax = FiniteAxiomSet(frozenset(elems), index, cover)
        queries = [frozenset(rng.sample(elems, rng.randrange(n + 1)))
                   for _ in range(28)] + [frozenset({free}), frozenset(elems)]
        rng.shuffle(queries)
        for v in queries:
            fresh = FiniteAxiomSet(ax.carrier, ax.index, ax.cover)
            assert saturate(ax, v) == derivation_set(ax, v) == saturate(fresh, v)


def test_is_covered_errors_outside_carrier():
    ax = random_axiom_set(random.Random(1), range(3))
    with pytest.raises(ValueError):
        is_covered(ax, 99, frozenset())


# ---------------------------------------------------------------------------
# induction minimality
# ---------------------------------------------------------------------------

def test_induction_minimality_and_cont():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randrange(1, 5)
        ax = random_axiom_set(rng, range(n))
        v = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
        assert check_induction_minimality(ax, v)
        assert cont(ax, v, saturate(ax, v))
        assert cont(ax, v, ax.carrier)
    with pytest.raises(ValueError):
        check_induction_minimality(random_axiom_set(rng, range(4)),
                                   frozenset(), bound=3)


def minimality_oracle(ax: FiniteAxiomSet, v: frozenset) -> bool:
    """Every one of the 2^n subsets P: cont(V, P) forces saturate(V) <= P."""
    elems = sorted(ax.carrier)
    sat = saturate(ax, v)
    for bits in itertools.product((False, True), repeat=len(elems)):
        p = frozenset(e for e, b in zip(elems, bits) if b)
        if cont(ax, v, p) and not sat <= p:
            return False
    return True


def test_induction_minimality_matches_full_enumeration(monkeypatch):
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randrange(1, 11)
        ax = random_axiom_set(rng, range(n))
        for v in (frozenset(), ax.carrier,
                  frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))):
            assert check_induction_minimality(ax, v) == minimality_oracle(ax, v)
    # with saturation broken to answer the whole carrier, the check must
    # object wherever V does not cover the carrier (the oracle keeps the
    # real saturate)
    ax = FiniteAxiomSet(range(3), {0: {"j"}}, {(0, "j"): frozenset({1})})
    monkeypatch.setattr(covers, "saturate", lambda ax, v: ax.carrier)
    for v in (frozenset(), frozenset({1})):
        assert minimality_oracle(ax, v)
        assert check_induction_minimality(ax, v) is False
    assert check_induction_minimality(ax, ax.carrier)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def random_equivalence(rng, elems) -> frozenset:
    blocks = {}
    labels = {}
    for e in elems:
        labels[e] = rng.randrange(1, len(elems) + 1)
        blocks.setdefault(labels[e], []).append(e)
    return frozenset((a, b) for block in blocks.values()
                     for a in block for b in block)


def test_quotient_data_validates():
    with pytest.raises(ValueError):
        QuotientData(frozenset({0, 1}), frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        QuotientData(frozenset({0, 1}), frozenset({(0, 0), (1, 1), (0, 1)}))


def test_es_roundtrip_and_eqcov_random():
    rng = random.Random(53)
    done = 0
    while done < 20:
        n = rng.randrange(1, 5)
        elems = list(range(n))
        qd = QuotientData(frozenset(elems), random_equivalence(rng, elems))
        classes = sorted(qd.classes(), key=sorted)
        ax = random_axiom_set(rng, classes)
        for bits in itertools.product((0, 1), repeat=len(classes)):
            w = frozenset(c for c, b in zip(classes, bits) if b)
            assert es_inv(qd, es(qd, w)) == w
        assert check_eqcov_isomorphism(qd, ax)
        done += 1


def test_quotient_identity_relation_adds_singletons():
    b = frozenset({0, 1})
    qd = QuotientData(b, frozenset({(0, 0), (1, 1)}))
    ax = FiniteAxiomSet(qd.classes(), {c: frozenset() for c in qd.classes()}, {})
    axr = quotient_transform(qd, ax)
    for x in b:
        assert axr.cover[(x, ("eq", x))] == frozenset({x})
    assert check_eqcov_isomorphism(qd, ax)


def test_eq_relation_transform():
    ax = FiniteAxiomSet({0, 1}, {0: frozenset(), 1: frozenset()}, {})
    total = frozenset({(0, 0), (1, 1), (0, 1), (1, 0)})
    axt = eq_relation_transform(ax, total)
    assert is_covered(axt, 0, frozenset({1}))       # a <| {b} when a = b
    assert saturate(axt, frozenset({0})) == frozenset({0, 1})
    # syntactic identity leaves saturations unchanged
    ident = frozenset({(0, 0), (1, 1)})
    ax2 = random_axiom_set(random.Random(3), [0, 1])
    ax2t = eq_relation_transform(ax2, ident)
    for bits in itertools.product((0, 1), repeat=2):
        v = frozenset(e for e, b in zip([0, 1], bits) if b)
        assert saturate(ax2t, v) == saturate(ax2, v)
    # saturations of the transform are closed under the equivalence
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randrange(1, 5)
        ax3 = random_axiom_set(rng, range(n))
        eq = random_equivalence(rng, list(range(n)))
        ax3t = eq_relation_transform(ax3, eq)
        v = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
        sat = saturate(ax3t, v)
        assert all(y in sat for x in sat for (x2, y) in eq if x2 == x)


# ---------------------------------------------------------------------------
# well-founded parts
# ---------------------------------------------------------------------------

def test_wp_examples():
    s = frozenset({0, 1, 2})
    assert well_founded_part(frozenset({(2, 2), (2, 1)}), s) == frozenset({0})
    assert well_founded_part(frozenset(), s) == s
    lin = frozenset({(i, i + 1) for i in range(4)})
    assert well_founded_part(lin, frozenset(range(5))) == frozenset(range(5))


def test_wp_encoding_shape():
    s = frozenset({0, 1})
    rel = frozenset({(0, 1)})
    ax = wp_axiom_set(rel, s)
    # indices are dummy: every index of x covers it by x's predecessors
    for y in s:
        assert ax.cover[(1, y)] == frozenset({0})
        assert ax.cover[(0, y)] == frozenset()
    for x in s:
        assert ax.index[x] == s
    for key in ((0, 2), (2, 0), (2, 2)):
        with pytest.raises(KeyError):
            ax.cover[key]
    assert cont(ax, frozenset(), well_founded_part(rel, s))


def test_wp_encoding_stays_linear():
    # a chain of 600 nodes: 600 instances, never 600^2 cover entries
    n = 600
    rel = frozenset((i, i + 1) for i in range(n - 1))
    tracemalloc.start()
    try:
        wp = well_founded_part(rel, frozenset(range(n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wp == frozenset(range(n))
    assert peak < 5 * 2 ** 20


def test_wp_matches_chain_oracle():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randrange(1, 9)
        s = frozenset(range(n))
        rel = frozenset((rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randrange(0, 2 * n)))
        assert well_founded_part(rel, s) == wf_oracle(rel, s)


# ---------------------------------------------------------------------------
# tree topologies
# ---------------------------------------------------------------------------

def test_cantor_truncation():
    tt = tree_topology(frozenset({0, 1}), 2)
    assert is_covered(tt, (), frozenset({(0,), (1,)}))
    assert is_covered(tt, (0, 1), frozenset({(0, 1)}))      # rf
    assert is_covered(tt, (0, 0), frozenset({(0,)}))        # prefix
    assert not is_covered(tt, (), frozenset({(0,)}))
    assert not is_covered(tt, (), frozenset())


def test_baire_truncations():
    for k in range(1, 6):
        tb = tree_topology(frozenset(range(k + 1)), 1)
        assert is_covered(tb, (), frozenset((x,) for x in range(k + 1)))


# ---------------------------------------------------------------------------
# the real-line derivation checker
# ---------------------------------------------------------------------------

def test_joyal_valid_derivations():
    assert joyal_check_derivation(REmpty(), (F(1), F(0)), frozenset())
    u = frozenset({(F(-1), F(3))})
    assert joyal_check_derivation(RWiden(F(-1), F(3), RMember()), (F(0), F(2)), u)
    u2 = frozenset({(F(0), F(2)), (F(1), F(3))})
    d = RSplit(F(1), F(2), RMember(), RMember())
    assert joyal_check_derivation(d, (F(0), F(3)), u2)
    u3 = frozenset({(F(-1, 2), F(7, 2))})
    assert joyal_check_derivation(RWellCover(F(-1, 2), F(7, 2), RMember()),
                                  (F(0), F(3)), u3)


def test_joyal_side_condition_violations():
    assert not joyal_check_derivation(RSplit(F(5), F(4), RMember(), RMember()),
                                      (F(0), F(10)),
                                      frozenset({(F(0), F(4)), (F(5), F(10))}))
    assert not joyal_check_derivation(RWiden(F(1), F(3), RMember()),
                                      (F(0), F(2)), frozenset({(F(1), F(3))}))
    assert not joyal_check_derivation(RWellCover(F(1), F(4), RMember()),
                                      (F(0), F(3)), frozenset({(F(1), F(4))}))
    assert not joyal_check_derivation(RMember(), (F(0), F(1)), frozenset())
    assert not joyal_check_derivation(REmpty(), (F(0), F(1)), frozenset())


def test_joyal_exact_rationals():
    # denominators that float arithmetic would mangle
    lo, hi = F(1, 3), F(2, 3)
    u = frozenset({(lo - F(1, 10 ** 20), hi + F(1, 10 ** 20))})
    d = RWiden(lo - F(1, 10 ** 20), hi + F(1, 10 ** 20), RMember())
    assert joyal_check_derivation(d, (lo, hi), u)
    assert not joyal_check_derivation(RWiden(lo + F(1, 10 ** 30), hi, RMember()),
                                      (lo, hi), u)


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

def test_axiom_schema_roundtrip():
    ax, queries = parse_axiom_file(
        "carrier a b\nindex a : j\ncover a j : b\nquery a <| b\n")
    assert saturate(ax, frozenset({"b"})) == frozenset({"a", "b"})
    assert queries == [("a", frozenset({"b"}))]


def test_axiom_schema_errors():
    with pytest.raises(SchemaError):
        parse_axiom_file("index a : j\n")
    with pytest.raises(SchemaError):
        parse_axiom_file("carrier a\nindex a : j\n")     # missing cover line
    with pytest.raises(SchemaError):
        parse_axiom_file("carrier a\ncover a j : a\n")
    with pytest.raises(SchemaError):
        parse_axiom_file("carrier a\nquery b <| a\n")
    with pytest.raises(SchemaError, match="line 4: repeated cover line"):
        parse_axiom_file("carrier a b\nindex a : j\ncover a j : b\ncover a j : a\n")


def test_relation_schema():
    rel, carrier = parse_relation_file("carrier x y\nrel x y\n")
    assert rel == frozenset({("x", "y")})
    with pytest.raises(SchemaError):
        parse_relation_file("carrier x\nrel x z\n")
