import io

import pytest

from covtt import cli
from covtt.kernel import (
    CheckResult, check_context, check_eq_term, check_eq_type,
    check_judgment, check_term, whnf, whnf_step,
)
from covtt.syntax import (
    Context, TermOf, alpha_eq, parse_file, parse_judgment, parse_term,
    parse_type, to_src,
)
from covtt.kleene import Diverged


def ok(src: str) -> CheckResult:
    r = check_judgment(parse_judgment(src))
    assert r.accepted, (src, r)
    return r


def bad(src: str, rule: str) -> CheckResult:
    r = check_judgment(parse_judgment(src))
    assert not r.accepted and r.rule == rule, (src, r)
    return r


# ---------------------------------------------------------------------------
# whnf
# ---------------------------------------------------------------------------

def test_whnf_beta():
    assert alpha_eq(whnf(parse_term("Ap(lam x . x, 0)")), parse_term("0"))


def test_whnf_cover_contractions():
    got = whnf(parse_term("ind(rf(a, r); x w . Ap(Ap(q1, x), w); x h k f . 0)"))
    assert alpha_eq(got, parse_term("Ap(Ap(q1, a), r)"))
    got = whnf(parse_term(
        "ind(tr(a, j, r); x w . 0; x h k f . pair(Ap(h, 0), f))"))
    want = parse_term(
        "pair(Ap(j, 0), lam z . lam u . ind(Ap(Ap(r, z), u); x w . 0; "
        "x h k f . pair(Ap(h, 0), f)))")
    assert alpha_eq(got, want)


def test_whnf_does_not_reduce_under_binders():
    t = parse_term("lam x . Ap(lam y . y, x)")
    assert alpha_eq(whnf(t), t)


def test_whnf_recursors():
    # whnf stops at the first canonical head; deeper redexes stay
    cases = [
        ("natrec(2; 0; k r . succ(succ(r)))",
         "succ(succ(natrec(1; 0; k r . succ(succ(r)))))"),
        ("unitrec(star; 9)", "9"),
        ("split(pair(1, 2); a b . pair(b, a))", "pair(2, 1)"),
        ("when(inl(5); a . a; b . 0)", "5"),
        ("when(inr(5); a . 0; b . b)", "5"),
        ("listrec(cons(cons(nil, 7), 8); 0; t a r . succ(r))",
         "succ(listrec(cons(nil, 7); 0; t a r . succ(r)))"),
        ("idpeel(refl(4); x . succ(x))", "5"),
    ]
    for src, want in cases:
        assert alpha_eq(whnf(parse_term(src)), parse_term(want)), src
    # full evaluation is the equality checker's job
    from covtt.syntax import Context
    for src, value in [("natrec(2; 0; k r . succ(succ(r)))", "4"),
                       ("listrec(cons(cons(nil, 7), 8); 0; t a r . succ(r))", "2")]:
        r = check_eq_term(Context(), parse_term(src), parse_term(value),
                          parse_type("N"))
        assert r.accepted, src


def test_whnf_deterministic_and_stuck():
    t = parse_term("natrec(n; 0; k r . succ(r))")
    assert whnf(t) == whnf(t) == t
    stuck = parse_term("Ap(f, Ap(lam x . x, 0))")
    assert alpha_eq(whnf(stuck), stuck)       # argument position is not head


def test_whnf_fuel_exhaustion():
    omega = parse_term("Ap(lam x . Ap(x, x), lam x . Ap(x, x))")
    with pytest.raises(Diverged):
        whnf(omega, fuel=1000)


def test_whnf_step_single():
    t = parse_term("natrec(1; 0; k r . succ(r))")
    t1 = whnf_step(t)
    assert alpha_eq(t1, parse_term("succ(natrec(0; 0; k r . succ(r)))"))
    assert whnf_step(parse_term("lam x . x")) is None
    assert whnf_step(parse_term("natrec(n; 0; k r . r)")) is None


# ---------------------------------------------------------------------------
# Tarski decodings and type equality
# ---------------------------------------------------------------------------

def test_decoding_equations():
    pairs = [
        ("T(n0hat)", "N0"),
        ("T(n1hat)", "N1"),
        ("T(nhat)", "N"),
        ("T(sigmahat(nhat, lam x . idhat(nhat, x, x)))", "Sigma y : N . T(idhat(nhat, y, y))"),
        ("T(pihat(nhat, lam x . nhat))", "N -> N"),
        ("T(plushat(n0hat, n1hat))", "Sum(N0, N1)"),
        ("T(listhat(nhat))", "List(N)"),
        ("T(idhat(nhat, 2, 2))", "Id(N, 2, 2)"),
        ("T(Ap(lam x . nhat, 0))", "N"),
    ]
    for a, b in pairs:
        r = check_eq_type(Context(), parse_type(a), parse_type(b))
        assert r.accepted, (a, b, r)


def test_type_mismatches():
    r = check_eq_type(Context(), parse_type("N"), parse_type("N1"))
    assert not r.accepted and r.rule == "eq-type"
    r = check_eq_type(Context(), parse_type("T(nhat)"), parse_type("U0"))
    assert not r.accepted


# ---------------------------------------------------------------------------
# judgment checking
# ---------------------------------------------------------------------------

def test_spec_rule_examples():
    ok("type [] |- N")
    bad("type [x : N] |- T(x)", "T-F")
    ok("term [] |- lam x : N . x : N -> N")
    ok("termeq [] |- succ(0) == succ(0) : N")
    bad("termeq [] |- lam x . Ap(lam y . y, x) == lam x . x : N -> N", "xi")
    ok("termeq [] |- ind(rf(inl(star), star); x w . 0; x h k f . 0) == 0 : N")


def test_motive_synthesis_dependent():
    # the goal mentions the scrutinee; abstraction recovers the motive
    ok("term [n : N] |- refl(n) : Id(N, n, n)")
    ok("term [p : Sigma x : N . N] |- split(p; a b . pair(b, a)) : Sigma x : N . N")
    ok("term [n : N] |- natrec(n; refl(0); k r . refl(succ(k))) "
       ": Id(N, n, n)")
    # a refl scrutinee's type is inferred from its term, here star : N1
    ok("term [] |- idpeel(refl(star); x . x) : N1")


def test_eliminators_need_inferable_scrutinee():
    bad("term [] |- listrec(cons(nil, 0); 0; t a r . succ(r)) : N", "List-E")
    bad("term [m : N] |- ind(m; x w . 0; x h k f . 0) : N", "ind-cov")


def test_context_checking():
    assert check_context(Context((("x", parse_type("N")),))).accepted
    r = check_context(Context((("x", parse_type("T(0)")),)))
    assert not r.accepted


def test_subject_reduction_at_head():
    sources = [
        ("natrec(2; 0; k r . succ(r))", "N"),
        ("unitrec(star; 5)", "N"),
        ("idpeel(refl(0); x . x)", "N"),
        ("natrec(1; refl(0); k r . refl(succ(k)))", "Id(N, 1, 1)"),
    ]
    for src, ty in sources:
        t = parse_term(src)
        goal = parse_type(ty)
        assert check_term(Context(), t, goal).accepted, src
        while (t2 := whnf_step(t)) is not None:
            assert check_term(Context(), t2, goal).accepted, (src, to_src(t2))
            t = t2


def test_repl_admissibility_on_corpus():
    # pairs already accepted as equal, pushed through congruence positions
    pairs = [
        ("Ap(lam x . x, 0)", "0", "N"),
        ("natrec(1; 0; k r . k)", "0", "N"),
        ("split(pair(0, 1); a b . b)", "1", "N"),
        ("succ(Ap(lam x . x, 1))", "2", "N"),
    ]
    contexts = ["succ({})", "pair({}, 0)", "Ap(f, {})", "inl({})",
                "cons(nil, {})", "rf({}, star)", "natrec({}; 0; k r . succ(r))",
                "Id(N, {}, 0)"]
    ctx = Context((("f", parse_type("N -> N")),))
    for a_src, b_src, ty in pairs:
        a, b = parse_term(a_src), parse_term(b_src)
        assert check_eq_term(ctx, a, b, parse_type(ty)).accepted
        for holed in contexts:
            ca = parse_term(holed.format(a_src), declared={"f"}) \
                if not holed.startswith("Id") else None
            if ca is None:
                continue
            cb = parse_term(holed.format(b_src), declared={"f"})
            r = check_eq_term(ctx, ca, cb, parse_type("N"))
            assert r.accepted, (holed, a_src, r)


def test_termination_on_corpus(corpus_dir):
    for _, j in parse_file((corpus_dir / "golden.judg").read_text()):
        if isinstance(j, TermOf) and check_judgment(j).accepted:
            whnf(j.term)                     # must not raise


def test_equality_reports_fuel_exhaustion():
    ctx = Context()
    omega = parse_term("Ap(lam x . Ap(x, x), lam x . Ap(x, x))")
    r = check_eq_term(ctx, omega, parse_term("0"), parse_type("N"), fuel=500)
    assert not r.accepted and r.rule == "fuel"


def test_termeq_sides_are_not_type_checked():
    """docs/grammar.md: that both sides of a termeq line inhabit the type is
    the file author's obligation.  So an accepted termeq can be false in the
    model: here the sides are not even members of N0."""
    from covtt.realizability import validate
    for src in ("termeq [y : U0] |- y == y : N0",
                "termeq [] |- nhat == nhat : N0"):
        j = parse_judgment(src)
        assert check_judgment(j).accepted
        for side in (j.lhs, j.rhs):
            r = check_term(j.ctx, side, j.ty)
            assert not r.accepted and r.rule == "conv", r
            assert "U0 and N0 differ" in r.reason
        got = validate(j)
        assert (got.kind, got.reason) == ("no", "the empty type has no realizers")


_C = "T(cov(nhat; x . n1hat; x y . lam z . n0hat; 0; lam z . n1hat))"
_UNIFY = "inferred type does not match the goal: "

# One rejected judgment per premise of every formation rule, every
# code-formation rule, F-cov, the rf/tr guards and premises, and every guard,
# premise and motive of the introduction and elimination rules; then the
# order of check_judgment (context, types, the judgment's own check) and
# premises nested inside premises.  Each with its full "[rule] reason".
PREMISE_REPORTS = [
    ("type [] |- Sigma x : T(star) . N",
     "[Sigma-F] domain: code is not an element of U0: star against U0"),
    ("type [] |- Sigma x : N . T(x)",
     "[Sigma-F] codomain: code is not an element of U0: " + _UNIFY
     + "N and U0 differ"),
    ("type [] |- Pi x : T(star) . N",
     "[Pi-F] domain: code is not an element of U0: star against U0"),
    ("type [] |- Pi x : N . T(x)",
     "[Pi-F] codomain: code is not an element of U0: " + _UNIFY
     + "N and U0 differ"),
    # a part under its binder: the fresh variable prints by its source name
    ("type [] |- Pi x : N . Id(Id(N, x, x), refl(0), refl(0))",
     "[Pi-F] codomain: endpoint: equation: 0 and x differ"),
    ("type [] |- Sum(T(star), N)",
     "[Sum-F] component: code is not an element of U0: star against U0"),
    ("type [] |- Sum(N, T(star))",
     "[Sum-F] component: code is not an element of U0: star against U0"),
    ("type [] |- List(T(star))",
     "[List-F] element type: code is not an element of U0: star against U0"),
    ("type [] |- Id(T(star), star, star)",
     "[Id-F] underlying type: code is not an element of U0: star against U0"),
    ("type [] |- Id(N, star, 0)", "[Id-F] endpoint: star against N"),
    ("type [] |- Id(N, 0, star)", "[Id-F] endpoint: star against N"),
    ("type [] |- T(star)", "[T-F] code is not an element of U0: star against U0"),
    ("term [] |- sigmahat(star, lam x . nhat) : U0",
     "[Sigma-hat] base code: star against U0"),
    ("term [] |- sigmahat(nhat, star) : U0",
     "[Sigma-hat] family: star against T(nhat) -> U0"),
    ("term [] |- pihat(star, lam x . nhat) : U0",
     "[Pi-hat] base code: star against U0"),
    ("term [] |- pihat(nhat, star) : U0",
     "[Pi-hat] family: star against T(nhat) -> U0"),
    ("term [] |- plushat(star, nhat) : U0",
     "[plus-hat] summand code: star against U0"),
    ("term [] |- plushat(nhat, star) : U0",
     "[plus-hat] summand code: star against U0"),
    ("term [] |- listhat(star) : U0", "[list-hat] element code: star against U0"),
    ("term [] |- idhat(star, 0, 0) : U0", "[id-hat] base code: star against U0"),
    ("term [] |- idhat(nhat, star, 0) : U0", "[id-hat] endpoint: star against N"),
    ("term [] |- idhat(nhat, 0, star) : U0", "[id-hat] endpoint: star against N"),
    ("term [] |- cov(star; x . n1hat; x y . lam z . n0hat; star; lam z . n0hat) : U0",
     "[F-cov] carrier code s: star against U0"),
    ("term [] |- cov(nhat; x . star; x y . lam z . n0hat; 0; lam z . n0hat) : U0",
     "[F-cov] index family i: star against U0"),
    ("term [] |- cov(nhat; x . n1hat; x y . star; 0; lam z . n0hat) : U0",
     "[F-cov] covering family c: star against T(nhat) -> U0"),
    ("term [] |- cov(nhat; x . n1hat; x y . lam z . n0hat; star; lam z . n0hat) : U0",
     "[F-cov] element a: star against N"),
    ("term [] |- cov(nhat; x . n1hat; x y . lam z . n0hat; 0; star) : U0",
     "[F-cov] subset v: star against T(nhat) -> U0"),
    ("term [] |- rf(0, star) : N", "[rf-cov] rf against N"),
    ("term [] |- rf(star, star) : " + _C, "[rf-cov] element a: star against N"),
    ("term [] |- rf(1, star) : " + _C,
     "[rf-cov] a is not the covered element: 1 and 0 differ"),
    ("term [] |- rf(0, 0) : " + _C,
     "[rf-cov] r does not check against a eps v: numeral against N1"),
    ("term [] |- tr(0, star, star) : N", "[tr-cov] tr against N"),
    ("term [] |- tr(star, star, lam z . lam u . star) : " + _C,
     "[tr-cov] element a: star against N"),
    ("term [] |- tr(1, star, lam z . lam u . star) : " + _C,
     "[tr-cov] a is not the covered element: 1 and 0 differ"),
    ("term [] |- tr(0, 0, lam z . lam u . star) : " + _C,
     "[tr-cov] index j: numeral against N1"),
    ("term [] |- tr(0, star, star) : " + _C,
     "[tr-cov] r does not check against (Pi z : T(s)) (z eps c(a,j) -> z cov v): "
     "star against Pi z : T(nhat) . T(Ap(lam z1 . n0hat, z)) -> "
     "T(cov(nhat; x . n1hat; x y . lam z1 . n0hat; z; lam z1 . n1hat))"),
    ("term [] |- tr(0, star, lam z . star) : " + _C,
     "[tr-cov] r does not check against (Pi z : T(s)) (z eps c(a,j) -> z cov v): "
     "star against T(Ap(lam z1 . n0hat, z)) -> "
     "T(cov(nhat; x . n1hat; x y . lam z1 . n0hat; z; lam z1 . n1hat))"),
    # introduction rules: each guard, then each premise in order
    ("term [] |- lam x . x : N", "[Pi-I] lambda against N"),
    ("term [] |- pair(0, 0) : N", "[Sigma-I] pair against N"),
    ("term [] |- pair(star, 0) : Sigma x : N . N",
     "[Sigma-I] first component: star against N"),
    ("term [] |- pair(0, star) : Sigma x : N . N",
     "[Sigma-I] second component: star against N"),
    ("term [] |- inl(0) : N", "[Sum-I] injection against N"),
    ("term [] |- inl(star) : Sum(N, N)", "[Sum-I] injected term: star against N"),
    ("term [] |- inr(0) : Sum(N, N1)", "[Sum-I] injected term: numeral against N1"),
    ("term [] |- nil : N", "[List-I] nil against N"),
    ("term [] |- cons(nil, 0) : N", "[List-I] cons against N"),
    ("term [] |- cons(0, 0) : List(N)", "[List-I] list part: numeral against List(N)"),
    ("term [] |- cons(nil, star) : List(N)", "[List-I] element part: star against N"),
    ("term [] |- 0 : N1", "[N-I] numeral against N1"),
    ("term [] |- succ(star) : N", "[N-I] argument of succ: star against N"),
    ("term [] |- star : N", "[N1-I] star against N"),
    ("term [] |- refl(0) : N", "[Id-I] refl against N"),
    ("term [] |- refl(star) : Id(N, 0, 0)", "[Id-I] reflected term: star against N"),
    ("term [] |- refl(0) : Id(N, 0, 1)", "[Id-I] equation: 0 and 1 differ"),
    ("term [] |- refl(0) : Id(N, 2, 1)", "[Id-I] equation: 0 and 2 differ"),
    ("term [] |- Ap(0, 0) : N",
     "[Ap] applied term has type N, which is not a Pi type"),
    ("term [f : N -> N] |- Ap(f, star) : N", "[Ap] argument: star against N"),
    ("term [] |- Ap(lam x . x, 0) : N", "[infer] no type can be inferred for lam x . x"),
    ("term [n : N] |- n : N1", "[conv] " + _UNIFY + "N and N1 differ"),
    # elimination rules: scrutinee, motive, then each branch in order.  A
    # motive fails where the goal converts only through the scrutinee itself.
    ("term [] |- natrec(star; 0; k r . r) : N", "[N-E] scrutinee: star against N"),
    ("term [] |- natrec(0; refl(5); k r . r) : "
     "Id(T(natrec(0; nhat; k r . n1hat)), 5, 5)",
     "[N-E] motive: endpoint: numeral against T(natrec(x; nhat; k r . n1hat))"),
    ("term [] |- natrec(0; star; k r . r) : N", "[N-E] base case: star against N"),
    ("term [] |- natrec(0; 0; k r . star) : N", "[N-E] step case: star against N"),
    ("term [] |- unitrec(0; 0) : N", "[N1-E] scrutinee: numeral against N1"),
    ("term [] |- unitrec(star; refl(0)) : Id(T(unitrec(star; nhat)), 0, 0)",
     "[N1-E] motive: endpoint: numeral against T(unitrec(x; nhat))"),
    ("term [] |- unitrec(star; star) : N", "[N1-E] base case: star against N"),
    ("term [] |- emptyrec(0) : N", "[N0-E] scrutinee: numeral against N0"),
    ("term [] |- split(0; a b . a) : N", "[Sigma-E] scrutinee has type N"),
    ("term [] |- split(lam x . x; a b . a) : N",
     "[Sigma-E] scrutinee type cannot be inferred: "
     "no type can be inferred for lam x . x"),
    ("term [f : N -> Sigma x : N . N, "
     "e : T(split(Ap(f, natrec(0; 0; k r . k)); a b . nhat))] |- "
     "split(Ap(f, 0); a b . refl(e)) : Id(T(split(Ap(f, 0); a b . nhat)), e, e)",
     "[Sigma-E] motive: endpoint: " + _UNIFY
     + "Ap(f, natrec(0; 0; k r . k)) and z differ"),
    ("term [p : Sigma x : N . N] |- split(p; a b . star) : N",
     "[Sigma-E] branch: star against N"),
    ("term [] |- when(0; a . a; b . b) : N", "[Sum-E] scrutinee has type N"),
    ("term [] |- when(lam x . x; a . a; b . b) : N",
     "[Sum-E] scrutinee type cannot be inferred: "
     "no type can be inferred for lam x . x"),
    ("term [f : N -> Sum(N, N), "
     "e : T(when(Ap(f, natrec(0; 0; k r . k)); a . nhat; b . nhat))] |- "
     "when(Ap(f, 0); a . refl(e); b . refl(e)) : "
     "Id(T(when(Ap(f, 0); a . nhat; b . nhat)), e, e)",
     "[Sum-E] motive: endpoint: " + _UNIFY
     + "Ap(f, natrec(0; 0; k r . k)) and z differ"),
    ("term [s : Sum(N, N1)] |- when(s; a . star; b . 0) : N",
     "[Sum-E] left branch: star against N"),
    ("term [s : Sum(N, N1)] |- when(s; a . a; b . b) : N",
     "[Sum-E] right branch: " + _UNIFY + "N1 and N differ"),
    ("term [] |- listrec(0; 0; a b c . c) : N", "[List-E] scrutinee has type N"),
    ("term [] |- listrec(lam x . x; 0; a b c . c) : N",
     "[List-E] scrutinee type cannot be inferred: "
     "no type can be inferred for lam x . x"),
    ("term [f : N -> List(N), "
     "e : T(listrec(Ap(f, natrec(0; 0; k r . k)); nhat; a b c . nhat))] |- "
     "listrec(Ap(f, 0); refl(e); a b c . refl(e)) : "
     "Id(T(listrec(Ap(f, 0); nhat; a b c . nhat)), e, e)",
     "[List-E] motive: endpoint: " + _UNIFY
     + "Ap(f, natrec(0; 0; k r . k)) and z differ"),
    ("term [l : List(N)] |- listrec(l; star; a b c . c) : N",
     "[List-E] nil case: star against N"),
    ("term [l : List(N)] |- listrec(l; 0; a b c . star) : N",
     "[List-E] cons case: star against N"),
    ("term [] |- idpeel(0; x . x) : N", "[Id-E] scrutinee has type N"),
    ("term [] |- idpeel(lam x . x; x . x) : N",
     "[Id-E] scrutinee type cannot be inferred: "
     "no type can be inferred for lam x . x"),
    # the motive abstracts both endpoints, so they must not be told apart
    ("term [] |- idpeel(refl(0); x . refl(refl(x))) : "
     "Id(Id(N, 0, 0), refl(0), refl(0))",
     "[Id-E] motive: endpoint: " + _UNIFY + "variables x and y differ"),
    ("term [e : Id(N, 0, 0)] |- idpeel(e; x . star) : N",
     "[Id-E] branch: star against N"),
    ("term [] |- ind(0; x w . 0; x h k f . 0) : N",
     "[ind-cov] scrutinee has type N, which is not a cover"),
    ("term [] |- ind(lam x . x; x w . 0; x h k f . 0) : N",
     "[ind-cov] scrutinee type cannot be inferred: "
     "no type can be inferred for lam x . x"),
    ("term [m : " + _C + "] |- ind(m; x w . refl(5); x h k f . refl(5)) : "
     "Id(T(natrec(0; nhat; k r . n1hat)), 5, 5)",
     "[ind-cov] motive: endpoint: numeral against T(natrec(x; nhat; k r . n1hat))"),
    ("term [m : " + _C + "] |- ind(m; x w . star; x h k f . 0) : N",
     "[ind-cov] rf branch q1: star against N"),
    ("term [m : " + _C + "] |- ind(m; x w . 0; x h k f . star) : N",
     "[ind-cov] tr branch q2: star against N"),
    ("term [m : " + _C + "] |- ind(m; x w . 0; x h k f . Ap(f, star)) : N",
     "[ind-cov] tr branch q2: argument: star against N"),
    ("termeq [n : N] |- natrec(n; 0; k r . k) == natrec(n; 0; k r . r) : N",
     "[eq-term] binder bodies at NatRec.step are not alpha-equal"),
    ("type [x : T(star)] |- N",
     "[T-F] context entry x: code is not an element of U0: star against U0"),
    ("typeeq [] |- T(star) == N",
     "[T-F] code is not an element of U0: star against U0"),
    ("typeeq [] |- N == T(star)",
     "[T-F] code is not an element of U0: star against U0"),
    ("term [] |- 0 : T(star)", "[T-F] code is not an element of U0: star against U0"),
    ("termeq [] |- 0 == 0 : T(star)",
     "[T-F] code is not an element of U0: star against U0"),
    ("type [] |- Pi x : N . T(sigmahat(nhat, x))",
     "[Pi-F] codomain: code is not an element of U0: family: " + _UNIFY
     + "N and T(nhat) -> U0 differ"),
    ("type [] |- Sigma x : N . Pi y : T(x) . N",
     "[Sigma-F] codomain: domain: code is not an element of U0: " + _UNIFY
     + "N and U0 differ"),
    ("type [] |- T(pihat(nhat, lam x . sigmahat(x, nhat)))",
     "[T-F] code is not an element of U0: family: base code: " + _UNIFY
     + "N and U0 differ"),
    ("type [] |- T(idhat(nhat, 0, lam x . x))",
     "[T-F] code is not an element of U0: endpoint: lambda against N"),
    ("term [] |- sigmahat(nhat, lam x . idhat(nhat, x, star)) : U0",
     "[Sigma-hat] family: endpoint: star against N"),
    # a variable the checker introduced prints by its source name
    ("typeeq [] |- Pi x : N . Id(N, x, x) == Pi y : N . Id(N, y, 0)",
     "[eq-term] x and 0 differ"),
    ("typeeq [] |- Pi x : N . Pi y : N . Id(N, x, x) == Pi x : N . Pi y : N . Id(N, y, x)",
     "[eq-term] variables x and y differ"),
    ("type [] |- Sigma v : N . T(ind(ind(v; x w . 0; x h k f . 0); x w . nhat; "
     "x h k f . nhat))",
     "[Sigma-F] codomain: code is not an element of U0: scrutinee type cannot be "
     "inferred: no type can be inferred for ind(v; x w . 0; x h k f . 0)"),
]


def test_error_reports_name_the_rule():
    r = check_judgment(parse_judgment(
        "term [] |- rf(inl(star), star) : "
        "T(cov(plushat(n1hat, n1hat); x . n1hat; x y . lam z . n0hat; "
        "inl(star); lam z . n0hat))"))
    assert r.rule == "rf-cov"
    assert "a eps v" in r.reason
    for src, want in PREMISE_REPORTS:
        r = check_judgment(parse_judgment(src))
        assert not r.accepted and f"[{r.rule}] {r.reason}" == want, (src, r)


def test_numerals_check_without_recursion():
    ok("term [] |- 25000 : N")
    ok("termeq [] |- 25000 == 25000 : N")
    r = bad("termeq [] |- 25000 == 24999 : N", "eq-term")
    assert r.reason == "1 and 0 differ"
    # a failing chain keeps one premise per level of succ
    r = bad("term [x : N1] |- succ(succ(succ(x))) : N", "N-I")
    assert r.reason == "argument of succ: " * 3 + _UNIFY + "N1 and N differ"
    r = bad("term [] |- refl(succ(star)) : Id(N, 1, 1)", "Id-I")
    assert r.reason == "reflected term: argument of succ: star against N"


def test_binder_bodies_compare_without_recursion(tmp_path):
    # a deep numeral under a binder: the bodies are compared in a loop
    f = tmp_path / "deep.judg"
    f.write_text("termeq [] |- lam x . 25000 == lam x . 25000 : N -> N\n")
    out = io.StringIO()
    assert cli.main(["check", str(f)], out=out) == 0
    assert out.getvalue() == "1: accepted\n"
    bad("termeq [] |- lam x . 25000 == lam x . 25001 : N -> N", "xi")


def test_motive_abstraction_without_recursion(tmp_path):
    # the eliminator's motive abstracts two deep endpoints out of its type
    f = tmp_path / "deep.judg"
    f.write_text("term [] |- idpeel(refl(25000); x . refl(x)) : Id(N, 25000, 25000)\n")
    out = io.StringIO()
    assert cli.main(["check", str(f)], out=out) == 0
    assert out.getvalue() == "1: accepted\n"


def _grammar_doc_premise_tables():
    """The rows (rule, former keyword, labels) of each premise-label table
    in the Reports section of docs/grammar.md."""
    import re
    from pathlib import Path
    doc = (Path(__file__).resolve().parent.parent / "docs" / "grammar.md").read_text()
    reports = doc.split("## Reports", 1)[1]
    row = re.compile(r"^\|\s*([\w-]+)\s*\|\s*`(\w+)[^|]*\|([^|]*)\|$", re.M)
    return [[(rule, kw, [w.strip() for w in labels.split(", ")])
             for rule, kw, labels in row.findall(table)]
            for table in re.findall(r"(?:^\|.*\|\n)+", reports, re.M)]


def test_grammar_doc_lists_the_formation_premises():
    from covtt.kernel import _FORMATION
    from covtt.syntax import _FORMS, _TYPE_FORMS, TPi, TSigma
    former = {"Sigma": TSigma, "Pi": TPi,
              **{kw: cls for kw, (cls, _) in {**_FORMS, **_TYPE_FORMS}.items()}}
    rows = _grammar_doc_premise_tables()[0]
    assert {former[kw]: (rule, *labels) for rule, kw, labels in rows} == _FORMATION


def test_grammar_doc_premise_labels_are_the_reported_ones():
    # every label the second table lists is a report pinned in PREMISE_REPORTS
    rows = _grammar_doc_premise_tables()[1]
    assert len(rows) == 17
    reported = [want for _, want in PREMISE_REPORTS]
    for rule, _, labels in rows:
        for label in labels:
            assert any(w.startswith(f"[{rule}] {label}: ") for w in reported), (rule, label)
