import hashlib
import random

import pytest

from covtt.syntax import (
    FVar, Succ, SyntaxError_, abstract_out, alpha_eq, free_vars, judgment_to_src,
    numeral, parse, parse_judgment, parse_term, parse_type, substitute, to_src,
)

SAMPLES = [
    "x",
    "0",
    "7",
    "succ(succ(0))",
    "star",
    "nil",
    "lam x . x",
    "lam x . lam y . Ap(x, y)",
    "Ap(lam x . x, 0)",
    "pair(0, star)",
    "split(p; a b . pair(b, a))",
    "natrec(n; 0; k r . succ(r))",
    "unitrec(c; 0)",
    "emptyrec(c)",
    "when(c; a . inl(a); b . inr(b))",
    "cons(cons(nil, 0), 1)",
    "listrec(l; nil; t a r . cons(r, a))",
    "refl(x)",
    "idpeel(p; x . refl(x))",
    "rf(a, r)",
    "tr(a, j, r)",
    "ind(m; x w . Ap(Ap(q1, x), w); x h k f . Ap(f, x))",
    "n0hat",
    "n1hat",
    "nhat",
    "sigmahat(nhat, lam x . nhat)",
    "pihat(n1hat, lam x . n0hat)",
    "plushat(n0hat, n1hat)",
    "listhat(nhat)",
    "idhat(nhat, 0, succ(0))",
    "cov(nhat; x . n1hat; x y . lam z . n0hat; 0; lam z . n1hat)",
]

TYPE_SAMPLES = [
    "N",
    "N0",
    "N1",
    "U0",
    "N -> N",
    "(N -> N) -> N1",
    "Pi x : N . Id(N, x, x)",
    "Sigma x : N . List(Id(N, x, 0))",
    "Sum(N1, Sum(N0, N))",
    "List(N -> N)",
    "Id(N -> N, lam x . x, lam y . y)",
    "T(nhat)",
    "T(Ap(v, x))",
    "Pi z : N . (N0 -> Id(N, z, z))",
    "T(cov(nhat; x . n1hat; x y . lam z . n0hat; 0; lam z . n1hat))",
]


@pytest.mark.parametrize("src", SAMPLES)
def test_term_round_trip(src):
    t = parse_term(src)
    assert alpha_eq(parse_term(to_src(t)), t)


@pytest.mark.parametrize("src", TYPE_SAMPLES)
def test_type_round_trip(src):
    t = parse_type(src)
    assert alpha_eq(parse_type(to_src(t)), t)


def _gen_term(rng, scope, depth):
    """Random source text for a term, all identifiers scoped."""
    atoms = ["0", "1", "star", "nil", "nhat", "n0hat", "n1hat"] + scope
    if depth == 0:
        return rng.choice(atoms)

    def sub(extra=()):
        return _gen_term(rng, scope + list(extra), depth - 1)

    v = rng.randrange(12)
    if v == 0:
        return rng.choice(atoms)
    if v == 1:
        return f"succ({sub()})"
    if v == 2:
        x = f"v{rng.randrange(100)}"
        return f"lam {x} . {_gen_term(rng, scope + [x], depth - 1)}"
    if v == 3:
        return f"Ap({sub()}, {sub()})"
    if v == 4:
        return f"pair({sub()}, {sub()})"
    if v == 5:
        return f"natrec({sub()}; {sub()}; k r . {sub(('k', 'r'))})"
    if v == 6:
        return f"when({sub()}; a . {sub(('a',))}; b . {sub(('b',))})"
    if v == 7:
        return f"rf({sub()}, {sub()})"
    if v == 8:
        return f"tr({sub()}, {sub()}, {sub()})"
    if v == 9:
        return (f"ind({sub()}; x w . {sub(('x', 'w'))}; "
                f"x h k f . {sub(('x', 'h', 'k', 'f'))})")
    if v == 10:
        return (f"cov({sub()}; x . {sub(('x',))}; x y . {sub(('x', 'y'))}; "
                f"{sub()}; {sub()})")
    return f"split({sub()}; a b . {sub(('a', 'b'))})"


def test_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(300):
        src = _gen_term(rng, ["u0", "u1"], rng.randrange(1, 4))
        t = parse_term(src)
        printed = to_src(t)
        assert alpha_eq(parse_term(printed), t), (src, printed)


def test_alpha_eq_renaming():
    assert alpha_eq(parse_term("lam x . x"), parse_term("lam y . y"))
    assert not alpha_eq(parse_term("lam x . 0"), parse_term("lam x . succ(0)"))
    assert alpha_eq(parse_term("rf(a, r)"), parse_term("rf(a, r)"))
    # congruence: equal parts give equal wholes, in every former
    a = parse_term("lam x . Ap(x, u)")
    b = parse_term("lam y . Ap(y, u)")
    assert alpha_eq(a, b)
    for ctx in ["succ({})", "pair({}, 0)", "Ap(f, {})", "rf({}, r)",
                "ind(m; x w . {}; x h k f . 0)"]:
        ca = parse_term(ctx.format("lam x . Ap(x, u)"))
        cb = parse_term(ctx.format("lam y . Ap(y, u)"))
        assert alpha_eq(ca, cb), ctx
    # the walk answers as the dataclasses' == does, and keeps a stack, so
    # deep terms, where == would recurse past the limit, compare too
    terms = [parse_term(src) for src in (
        "lam x . x", "lam y . y", "lam x . u", "pair(u, 1)", "pair(v, 1)",
        "pair(u, succ(0))", "inl(u)", "inr(u)", "natrec(n; 0; k r . succ(r))",
        "natrec(n; 0; k r . succ(k))")]
    for a in terms:
        assert [alpha_eq(a, b) for b in terms] == [a == b for b in terms], a
    deep = parse_term("lam x . 25000")
    assert alpha_eq(deep, parse_term("lam y . 25000"))
    assert not alpha_eq(deep, parse_term("lam x . 25001"))


def test_substitute():
    x0 = parse_term("0")
    assert substitute(parse_term("x"), "x", x0) == x0
    # shadowing: the binder hides the free name
    assert alpha_eq(substitute(parse_term("lam x . x"), "x", x0),
                    parse_term("lam x . x"))
    assert alpha_eq(substitute(parse_term("Ap(f, x)"), "x", parse_term("succ(0)")),
                    parse_term("Ap(f, 1)"))
    # capture avoidance: u's free variable is not caught by the binder
    out = substitute(parse_term("lam y . pair(x, y)"), "x", parse_term("y"))
    assert alpha_eq(out, parse_term("lam w . pair(y, w)"))


def test_substitute_commutes_on_disjoint_vars():
    rng = random.Random(7)
    for _ in range(100):
        t = parse_term(_gen_term(rng, ["x", "y"], 3))
        u = parse_term(_gen_term(rng, [], 2))
        v = parse_term(_gen_term(rng, [], 2))
        assert "y" not in free_vars(u) and "x" not in free_vars(v)
        one = substitute(substitute(t, "x", u), "y", v)
        two = substitute(substitute(t, "y", v), "x", u)
        assert alpha_eq(one, two)


def test_numeral_sugar():
    assert to_src(parse_term("3")) == "3"
    assert alpha_eq(parse_term("3"), parse_term("succ(succ(succ(0)))"))


def test_parse_errors_have_positions():
    with pytest.raises(SyntaxError_) as e:
        parse("(x")
    assert e.value.line == 1
    with pytest.raises(SyntaxError_):
        parse_term("rf(a)")
    with pytest.raises(SyntaxError_):
        parse_term("lam . x")
    with pytest.raises(SyntaxError_) as e:
        parse_judgment("term [] |- y : N")
    assert "unbound" in str(e.value)
    with pytest.raises(SyntaxError_):
        parse_judgment("term [x : N, x : N] |- x : N")


def _gen_type(rng, scope, depth):
    """Random source text for a pretype over every type former."""
    atoms = ["N0", "N1", "N", "U0"] + [f"T({x})" for x in scope]
    if depth == 0:
        return rng.choice(atoms)

    def sub(extra=()):
        return _gen_type(rng, scope + list(extra), depth - 1)

    def term():
        return _gen_term(rng, scope, rng.randrange(3))

    v = rng.randrange(8)
    if v in (0, 1):
        x = f"v{rng.randrange(100)}"
        return f"{('Sigma', 'Pi')[v]} {x} : {sub()} . {sub((x,))}"
    if v == 2:
        return f"({sub()}) -> {sub()}"
    if v == 3:
        return f"Sum({sub()}, {sub()})"
    if v == 4:
        return f"List({sub()})"
    if v == 5:
        return f"Id({sub()}, {term()}, {term()})"
    if v == 6:
        return f"T({term()})"
    return rng.choice(atoms)


def _gen_judgment(rng):
    """Random source text for a judgment under zero to three context variables."""
    scope, entries = [], []
    for i in range(rng.randrange(4)):
        entries.append(f"c{i} : {_gen_type(rng, scope, rng.randrange(3))}")
        scope.append(f"c{i}")

    def ty():
        return _gen_type(rng, scope, rng.randrange(1, 5))

    def tm():
        return _gen_term(rng, scope, rng.randrange(3))

    kw = rng.choice(["type", "typeeq", "term", "termeq"])
    body = {"type": ty, "typeeq": lambda: f"{ty()} == {ty()}",
            "term": lambda: f"{tm()} : {ty()}",
            "termeq": lambda: f"{tm()} == {tm()} : {ty()}"}[kw]()
    return f"{kw} [{', '.join(entries)}] |- {body}"


# SHA-256 of the 400 printed judgments below, one per line: pins the text
# (the names picked, the arrows, the renaming apart), not just parse∘print = id
ROUND_TRIP_DIGEST = "a498ac6cd2c7695e242dc9f25bc47623a7e244e9bf0ac65071c9c833a5828c97"


def test_judgment_round_trip():
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for _ in range(400):
        j = parse_judgment(_gen_judgment(rng))
        printed = judgment_to_src(j)
        assert parse_judgment(printed) == j, printed
        digest.update(printed.encode() + b"\n")
    assert digest.hexdigest() == ROUND_TRIP_DIGEST


def test_abstract_out():
    five = numeral(5)
    assert abstract_out(five, numeral(3), "n") == Succ(Succ(FVar("n")))
    # an occurrence under a binder is found: sub is locally closed
    t = parse_term("lam x . pair(x, succ(0))")
    assert abstract_out(t, numeral(1), "n") == parse_term("lam x . pair(x, n)")
    # nothing matches: the very same object comes back
    assert abstract_out(t, numeral(2), "n") is t


def test_deep_types_parse():
    import covtt.kleene  # noqa: F401  (the CLI's recursion limit)
    t = parse_type("List(" * 9000 + "N" + ")" * 9000)
    for _ in range(9000):
        t = t.elem
    assert t == parse_type("N")


def test_a_run_of_succ_parses_in_a_loop():
    from covtt.syntax import as_numeral
    assert as_numeral(parse_term("succ(" * 30000 + "0" + ")" * 30000)) == 30000
    # the loop reports a malformed run where the bracketed former did
    for src, want in [("succ", "1:5: expected '(', found 'end of input'"),
                      ("succ(", "1:6: expected a term, found 'end of input'"),
                      ("succ(succ(0)", "1:13: expected ')', found 'end of input'"),
                      ("succ(succ(0)))", "1:14: trailing input ')'"),
                      ("succ(succ(x, 0))", "1:12: expected ')', found ','"),
                      ("succ succ(0)", "1:6: expected '(', found 'succ'")]:
        with pytest.raises(SyntaxError_) as e:
            parse_term(src)
        assert str(e.value) == want, src


def test_parse_dispatch():
    from covtt.syntax import TermOf, TPi
    assert isinstance(parse("term [] |- 0 : N"), TermOf)
    assert isinstance(parse("N -> N"), TPi)
    assert alpha_eq(parse("lam x : N . x"), parse_term("lam x . x"))


def test_grammar_doc_lists_the_bracketed_formers():
    import re
    from pathlib import Path
    from covtt.syntax import _FORMS, _JUDGMENTS, _TYPE_FORMS
    doc = (Path(__file__).resolve().parent.parent / "docs" / "grammar.md").read_text()
    term_grammar = doc.split("## Terms", 1)[1].split("```")[1]
    assert set(re.findall(r"\b(\w+)\(", term_grammar)) == set(_FORMS)
    type_grammar = doc.split("## Types", 1)[1].split("```")[1]
    assert set(re.findall(r"\b(\w+)\(", type_grammar)) == set(_TYPE_FORMS)
    judgments = doc.split("## Judgments", 1)[1].split("```")[1]
    lines = {ws[0]: ws for ws in map(str.split, judgments.splitlines()) if ws}
    assert set(lines) == {*_JUDGMENTS, "ct"}
    for kw, (_, marks) in _JUDGMENTS.items():
        parts = [w for token, is_type in marks
                 for w in (token, "TYPE" if is_type else "TERM")]
        assert lines[kw] == [kw, "CTX", *parts]


def _reference_lex(src):
    """The character-at-a-time lexer that syntax._lex replaced, kept as the
    reference that its tokens and errors are compared against."""
    toks = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        two = src[i:i + 2]
        if two in ("|-", "==", "->"):
            toks.append(("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in "()[],;:.+":
            toks.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(("num", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SyntaxError_(f"unexpected character {ch!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def _lex_outcome(lex, src):
    try:
        return [tuple(t) for t in lex(src)]
    except SyntaxError_ as e:
        return (e.msg, e.line, e.col)


def test_lexer_matches_the_reference():
    import string
    from covtt.syntax import _lex
    # superscript two (a digit, not decimal), roman twelve (numeric), Arabic
    # three (decimal), a combining accent, a vertical tab, a no-break space
    odd = ["\u00b2", "\u216b", "\u0663", "\u0301", "\x0b", "\xa0", "\u00e9"]
    alphabet = (list("ab_xZ019") + odd + ["\t", "\r", "\n", " ", "#"]
                + list(string.punctuation) + ["|-", "==", "->"])
    rng = random.Random(15)
    for _ in range(20000):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert _lex_outcome(_lex, src) == _lex_outcome(_reference_lex, src), src
    tok = _lex("a # b\n  9")[1]
    assert (tok.kind, tok.text, tok.line, tok.col) == ("num", "9", 2, 3)


def test_numerals_share_one_chain():
    assert numeral(7) is numeral(7)
    assert numeral(7).arg is numeral(6)
    assert parse_term("19000") == parse_term("19000")


def test_succ_runs_around_a_literal_share_the_chain():
    # equal to the literal without recursing: it is the literal's own chain
    deep = parse_term("succ(" * 19000 + "0" + ")" * 19000)
    assert deep == parse_term("19000")
    assert deep is numeral(19000)
    assert parse_term("succ(succ(3))") is numeral(5)
    # a run around anything else still builds its own nodes
    assert parse_term("succ((3))") == numeral(4)


def test_numerals_grow_under_a_lock():
    import sys
    import threading
    from covtt import syntax
    from covtt.syntax import as_numeral
    base = len(syntax._NUMERALS)
    wanted = [base + 3000 * (k + 1) + k for k in range(4)]
    got = {}
    start = threading.Barrier(len(wanted))

    def work(n):
        start.wait()
        got[n] = as_numeral(parse_term(str(n)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in wanted]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == {n: n for n in wanted}
    chain = syntax._NUMERALS
    assert len(chain) == max(wanted) + 1
    assert all(chain[k + 1].arg is chain[k] for k in range(len(chain) - 1))


def test_parse_lexes_once(monkeypatch):
    from covtt import syntax
    lexed = []
    lex = syntax._lex
    monkeypatch.setattr(syntax, "_lex", lambda src: lexed.append(src) or lex(src))
    for src in ["(0)", "(N)", "succ(0)", "term [] |- 0 : N"]:
        lexed.clear()
        parse(src)
        assert lexed == [src]
