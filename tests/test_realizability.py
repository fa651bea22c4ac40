import hashlib
import random

import pytest
from test_acceptance import _gen_set_code, ksubst

from covtt import kleene as K
from covtt import realizability as R
from covtt import syntax as S
from covtt.kernel import check_judgment
from covtt.kleene import (
    Diverged, apply, apply_many, code, eval_kterm, kop, pair,
)
from covtt.realizability import (
    CYCLE, Model, N0_CODE, N1_CODE, N_CODE, check_realizer, compile_type,
    cov_code, cover_fixpoint, ct_validate, decode_set, interpret_term,
    mem_at_stage, realize, rf_code, set_at_stage, tr_code, validate,
    validate_judgment,
)
from covtt.syntax import (
    SyntaxError_, parse_file, parse_judgment, parse_term, parse_type, substitute,
)


# ---------------------------------------------------------------------------
# term interpretation
# ---------------------------------------------------------------------------

def test_interpretation_clauses():
    assert realize(parse_term("0")) == 0
    assert realize(parse_term("star")) == 0
    assert realize(parse_term("rf(3, 9)")) == pair(7, pair(3, 9))
    assert realize(parse_term("tr(1, 2, 3)")) == pair(8, pair(pair(1, 2), 3))
    assert realize(parse_term("pair(3, 4)")) == pair(3, 4)
    assert realize(parse_term("inl(5)")) == pair(0, 5)
    assert realize(parse_term("inr(5)")) == pair(1, 5)
    assert realize(parse_term("n0hat")) == pair(0, 0)
    assert realize(parse_term("n1hat")) == pair(0, 1)
    assert realize(parse_term("nhat")) == pair(0, 2)
    assert realize(parse_term("cons(nil, 7)")) == K.enc_list([7])
    # the cover code packs (a, v, s, i, c) under tag 6
    got = realize(parse_term(
        "cov(n1hat; x . n1hat; x y . lam z . n0hat; 0; lam z . n1hat)"))
    dec = decode_set(got)
    assert dec[0] == "cov" and dec[1] == 0 and dec[3] == pair(0, 1)
    # the universe-code formers: pair(tag, left-nested tuple of the parts)
    assert realize(parse_term("sigmahat(3, 4)")) == pair(1, pair(3, 4)) == 916
    assert realize(parse_term("pihat(3, 4)")) == pair(2, pair(3, 4)) == 980
    assert realize(parse_term("plushat(3, 4)")) == pair(3, pair(3, 4)) == 2324
    assert realize(parse_term("listhat(3)")) == pair(4, 3) == 85
    assert realize(parse_term("idhat(3, 4, 5)")) == pair(5, pair(pair(3, 4), 5)) \
        == 120145
    # decode_set reads every tag 0..8 and nothing else
    assert decode_set(N0_CODE) == ("base", 0)
    assert decode_set(N_CODE) == ("base", 2)
    assert decode_set(pair(1, pair(3, 4))) == ("sigma", 3, 4)
    assert decode_set(pair(2, pair(3, 4))) == ("pi", 3, 4)
    assert decode_set(pair(3, pair(3, 4))) == ("plus", 3, 4)
    assert decode_set(pair(4, 3)) == ("list", 3)
    assert decode_set(pair(5, pair(pair(3, 4), 5))) == ("id", 3, 4, 5)
    assert decode_set(cov_code(1, 2, 3, 4, 5)) == ("cov", 1, 2, 3, 4, 5)
    assert cov_code(1, 2, 3, 4, 5) == pair(6, pair(pair(pair(pair(1, 2), 3), 4), 5))
    assert decode_set(rf_code(3, 9)) == ("rf", 3, 9)
    assert decode_set(tr_code(1, 2, 3)) == ("tr", 1, 2, 3)
    assert decode_set(pair(9, 0)) is None
    assert decode_set(pair(0, 3)) is None


def test_interpretation_computes():
    assert realize(parse_term("Ap(lam x . succ(x), 4)")) == 5
    assert realize(parse_term("natrec(3; 0; k r . succ(succ(r)))")) == 6
    assert realize(parse_term("split(pair(3, 4); a b . pair(b, a))")) == pair(4, 3)
    assert realize(parse_term("when(inl(7); a . succ(a); b . 0)")) == 8
    assert realize(parse_term("listrec(cons(cons(nil, 5), 6); 0; t a r . succ(r))")) == 2
    assert realize(parse_term("idpeel(refl(4); x . succ(x))")) == 5
    assert realize(parse_term("unitrec(star; 3)")) == 3
    assert realize(parse_term("emptyrec(0)")) == 0
    assert realize(parse_term("refl(2)")) == 2


def test_substitution_commutation_bulk():
    rng = random.Random(29)
    pool = [
        "succ(x)", "pair(x, y)", "Ap(lam z . pair(z, x), y)",
        "natrec(x; y; k r . pair(k, r))", "rf(x, y)", "tr(x, y, x)",
        "lam z . pair(x, z)", "when(inl(x); a . a; b . y)",
        "ind(x; a w . pair(a, w); a h k f . y)",
        "cov(x; z . y; z w . x; x; y)", "idhat(x, y, y)",
        "listrec(x; y; t a r . cons(t, a))",
    ]
    args = ["0", "succ(0)", "pair(1, 2)", "lam w . w", "star", "nil"]
    for _ in range(1000):
        t = parse_term(rng.choice(pool))
        u = parse_term(rng.choice(args))
        var = rng.choice(["x", "y"])
        lhs = interpret_term(substitute(t, var, u))
        rhs = ksubst(interpret_term(t), var, interpret_term(u))
        assert lhs == rhs, (t, var, u)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def test_base_clauses():
    assert set_at_stage(N_CODE, 1).kind == "yes"
    assert set_at_stage(N0_CODE, 0).kind == "yes"
    assert mem_at_stage(0, N1_CODE, 1).kind == "yes"
    assert mem_at_stage(1, N1_CODE, 1).kind == "no"
    assert mem_at_stage(0, N0_CODE, 1).kind == "no"
    for m in (0, 5, 64, 12345):
        assert mem_at_stage(m, N_CODE, 1).kind == "yes"


def test_sigma_pi_clauses_finite():
    e_n1 = code(K.K, [N1_CODE])             # constant family over anything
    sig = pair(1, pair(N1_CODE, e_n1))
    assert set_at_stage(sig, 0).kind == "no"     # needs an earlier stage
    assert set_at_stage(sig, 1).kind == "yes"
    assert set_at_stage(sig, 2).kind == "yes"
    assert mem_at_stage(pair(0, 0), sig, 2).kind == "yes"
    assert mem_at_stage(pair(1, 0), sig, 2).kind == "no"
    pi = pair(2, pair(N1_CODE, e_n1))
    assert set_at_stage(pi, 2).kind == "yes"
    # a function sending 0 to 0 realizes (Pi x in N1) N1: K 0 does
    assert mem_at_stage(code(K.K, [0]), pi, 2).kind == "yes"
    assert mem_at_stage(code(K.SUCC), pi, 2).kind == "no"


def test_plus_list_id_clauses():
    plus = pair(3, pair(N1_CODE, N1_CODE))
    assert mem_at_stage(pair(0, 0), plus, 2).kind == "yes"
    assert mem_at_stage(pair(1, 0), plus, 2).kind == "yes"
    assert mem_at_stage(pair(2, 0), plus, 2).kind == "no"
    lst = pair(4, N1_CODE)
    assert mem_at_stage(K.enc_list([]), lst, 2).kind == "yes"
    assert mem_at_stage(K.enc_list([0, 0]), lst, 2).kind == "yes"
    assert mem_at_stage(K.enc_list([1]), lst, 2).kind == "no"
    idc = pair(5, pair(pair(N_CODE, 5), 5))
    assert mem_at_stage(5, idc, 2).kind == "yes"
    assert mem_at_stage(4, idc, 2).kind == "no"
    bad = pair(5, pair(pair(N_CODE, 5), 6))
    assert mem_at_stage(5, bad, 2).kind == "no"


def test_persistence_small():
    e_n1 = code(K.K, [N1_CODE])
    codes = [N0_CODE, N1_CODE, N_CODE,
             pair(1, pair(N1_CODE, e_n1)),
             pair(2, pair(N1_CODE, e_n1)),
             pair(3, pair(N1_CODE, N0_CODE)),
             pair(4, N1_CODE),
             pair(5, pair(pair(N1_CODE, 0), 0))]
    model = Model(fuel=10 ** 7)
    for n in codes:
        first = next((k for k in range(6) if model.set_at(n, k).kind == "yes"),
                     None)
        assert first is not None
        for k in range(first, 7):
            assert model.set_at(n, k).kind == "yes"
        for i in range(10):
            kinds = {model.mem_at(i, n, k).kind for k in range(first, 7)}
            assert len(kinds) == 1, (n, i, kinds)


# ---------------------------------------------------------------------------
# covers in the model
# ---------------------------------------------------------------------------

def _two_point_cover(v_code):
    s = pair(3, pair(N1_CODE, N1_CODE))         # two-point carrier
    i = code(K.K, [N1_CODE])                    # one index per point
    c = eval_kterm(K.lambda_abstract_many(code(K.K, [N0_CODE]),
                                          ["x", "y"]))  # empty covering subsets
    return s, i, c, v_code


def test_cover_fixpoint_rf_rule():
    s, i, c, _ = _two_point_cover(None)
    v = code(K.K, [N1_CODE])                    # the full subset
    pairs, exact = cover_fixpoint(s, i, c, v, 4)
    assert exact
    for z in (pair(0, 0), pair(1, 0)):
        assert pair(z, rf_code(z, 0)) in pairs


def test_cover_fixpoint_tr_closure():
    s, i, c, _ = _two_point_cover(None)
    v = code(K.K, [N0_CODE])                    # the empty subset
    pairs, exact = cover_fixpoint(s, i, c, v, 4)
    assert exact
    # the covering subsets are empty, so tr fires vacuously at each point
    zs = {K.unpair0(p) for p in pairs}
    assert zs == {pair(0, 0), pair(1, 0)}
    for p in pairs:
        q = K.unpair1(p)
        assert decode_set(q)[0] == "tr"
    # and the demand-driven membership check accepts each saturated pair
    model = Model()
    for p in pairs:
        z, q = K.unpair(p)
        assert model.in_cover(s, i, c, v, 4, z, q, 32).kind == "yes"


def test_cover_fixpoint_empty_when_no_rule_applies():
    s = pair(3, pair(N1_CODE, N1_CODE))
    i = code(K.K, [N0_CODE])                    # no indices at all
    c = eval_kterm(K.lambda_abstract_many(code(K.K, [N0_CODE]),
                                          ["x", "y"]))
    v = code(K.K, [N0_CODE])
    pairs, exact = cover_fixpoint(s, i, c, v, 4)
    assert exact and pairs == set()


def test_cover_membership_via_types():
    ty = parse_type("T(cov(plushat(n1hat, n1hat); x . n1hat; "
                    "x y . lam z . n0hat; inl(star); lam z . n1hat))")
    q = rf_code(pair(0, 0), 0)
    assert check_realizer(q, ty).kind == "yes"
    assert check_realizer(rf_code(pair(1, 0), 0), ty).kind == "no"
    assert check_realizer(0, ty).kind == "no"


def _gen_style_cover():
    """A cover code's parts as the persistence test's generator builds them:
    every point has an rf proof and one index whose premise needs all points."""
    s = pair(3, pair(N1_CODE, N1_CODE))
    v = code(K.K, [N1_CODE])
    i = code(K.K, [N1_CODE])
    c = eval_kterm(K.lambda_abstract_many(code(K.K, [N1_CODE]),
                                          ["x", "y"]))
    return s, i, c, v


def _table_cost(table):
    """Steps of building the table code from scratch, straight from its
    definition: {r}(u, t) = table[u], 0 outside."""
    body = 0
    for key in sorted(table, reverse=True):
        body = kop(K.IFZ, kop(K.EQ, "u", key), table[key], body)
    budget = K.Budget(10 ** 6)
    r = eval_kterm(K.lambda_abstract_many(body, ["u", "t"]), {}, budget)
    return r, 10 ** 6 - budget.steps


def test_table_memo_charges_exact_steps(monkeypatch):
    builds = []
    real_abstract = R.lambda_abstract_many

    def counting(t, names):
        builds.append(names)
        return real_abstract(t, names)

    monkeypatch.setattr(R, "lambda_abstract_many", counting)
    s, i, c, v = _gen_style_cover()
    model = Model()
    got = model.cover_v(s, i, c, v, 4)
    assert builds and model._table_memo
    assert any(decode_set(q)[0] == "tr" for qs in got[0].values() for q in qs)
    first_builds, tables = len(builds), dict(model._table_memo)
    # a second key needing the same tables builds none, and is charged what
    # a Model that builds them pays
    before = model.budget.steps
    again = model.cover_v(s, i, c, v, 5)
    assert len(builds) == first_builds and model._table_memo == tables
    fresh = Model()
    assert fresh.cover_v(s, i, c, v, 5) == again
    assert len(builds) > first_builds
    assert before - model.budget.steps == 10 ** 6 - fresh.budget.steps
    # each stored table costs what building it from scratch costs
    for items, (r, steps) in tables.items():
        assert (r, steps) == _table_cost(dict(items))
        # a budget one step short fails the same way cold and warm: drained
        for memo in ({}, {items: (r, steps)}):
            short = Model()
            short._table_memo = dict(memo)
            short.budget.steps = steps - 1
            with pytest.raises(Diverged):
                short._table_code(dict(items))
            assert short.budget.steps == 0
            exact = Model()
            exact._table_memo = dict(memo)
            exact.budget.steps = steps
            assert exact._table_code(dict(items)) == r
            assert exact.budget.steps == 0


def test_a_query_cut_short_keeps_only_pending_answers(monkeypatch):
    """mem_at and members can reach their own key, so they store a pending
    answer before they run and keep it when a Diverged cuts the run short;
    set_at and cover_v recurse one stage down and store nothing early."""
    s, i, c, v = _gen_style_cover()
    cover = cov_code(pair(0, 0), v, s, i, c)
    sigma = K.tagged("sigma", cover, code(K.K, [N1_CODE]))
    model = Model()

    def cut(table):
        raise Diverged

    monkeypatch.setattr(model, "_table_code", cut)
    # mem_at -> set_at(sigma) -> members(cover) -> cover_v -> _table_code
    with pytest.raises(Diverged):
        model.mem_at(0, sigma, 6)
    assert model._mem_memo[(0, sigma, 6)] == CYCLE
    assert model.mem_at(0, sigma, 6) == CYCLE       # what a later query sees
    assert model._members_memo[(cover, 5)] == ([], False)
    assert (sigma, 6) not in model._set_memo
    assert model._cover_memo == {}


def test_fuel_sites_answer_unknown_and_keep_the_budget():
    """Each application that runs out inside the cover conditions or the
    demand-driven cover check makes the answer unknown(fuel); the steps
    left are pinned, so a rewrite of these loops must charge the same."""
    lam_n1 = eval_kterm(K.lambda_abstract(N1_CODE, "q"))    # {lam_n1}(q) = N1
    lam3_n1 = eval_kterm(K.lambda_abstract_many(N1_CODE, ["a", "b", "c"]))
    div = pair(999, 0)                                      # never halts
    cases = [
        # _star_conditions: the index family i, then the covering family c
        (lambda m: m.set_at(cov_code(0, lam_n1, N1_CODE, div, lam_n1), 2), 999_997),
        (lambda m: m.set_at(cov_code(0, lam_n1, N1_CODE, lam_n1, div), 2), 999_996),
        # in_cover: v on an rf proof; i, c and the proof's r on a tr proof
        (lambda m: m.mem_at(rf_code(0, 0), cov_code(0, div, N1_CODE, lam_n1, lam_n1),
                            2), 999_993),
        (lambda m: m.mem_at(tr_code(0, 0, 0), cov_code(0, lam_n1, N1_CODE, div, lam_n1),
                            2), 999_996),
        (lambda m: m.mem_at(tr_code(0, 0, 0), cov_code(0, lam_n1, N1_CODE, lam_n1, div),
                            2), 999_994),
        (lambda m: m.mem_at(tr_code(0, 0, div),
                            cov_code(0, lam_n1, N1_CODE, lam_n1, lam3_n1), 2), 999_989),
        # in_cover at depth 0 runs nothing
        (lambda m: m.in_cover(N1_CODE, lam_n1, lam_n1, lam_n1, 2, 0, rf_code(0, 0), 0),
         10 ** 6),
    ]
    for query, left in cases:
        model = Model()
        assert (str(query(model)), model.budget.steps) == ("unknown(fuel)", left)


def _persistence_replay(models):
    """test_persistence_of_stages' queries on its first 50 codes, in its
    order: one line per query with the verdict and the budget left after it.
    Each code's Model is appended to models."""
    rng = random.Random(60606)
    lines = []
    for _ in range(50):
        m = _gen_set_code(rng, rng.randrange(0, 6))
        model = Model(fuel=10 ** 6)
        models.append(model)

        def ask(query, *args):
            r = query(*args)
            lines.append(f"{query.__name__}{args} {r} {model.budget.steps}")
            return r

        first = next((k for k in range(7)
                      if ask(model.set_at, m, k).kind == "yes"), None)
        if first is None:
            continue
        for k in (first + 1, first + 2, 8):
            ask(model.set_at, m, k)
        for i in range(65):
            ask(model.mem_at, i, m, first)
            ask(model.mem_at, i, m, 8)
    return lines


# the replay's hash when every application and every search runs tick by tick:
# work skipped by a memo or a drain must leave each verdict and each budget as is
PERSISTENCE_50_SHA256 = (
    "d05287f2e4356d8efb6fb2c38a819854562f63c0b4c7e1cc77c597d25b8b99ec")


@pytest.mark.parametrize("cap", [R._APPLY_CAP, 0], ids=["memo", "no-memo"])
def test_persistence_replay_is_exact(monkeypatch, cap):
    monkeypatch.setattr(R, "_APPLY_CAP", cap)
    models = []
    lines = _persistence_replay(models)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PERSISTENCE_50_SHA256
    # speed is not bought with unbounded memory
    assert max(len(m._table_memo) for m in models) <= 1
    assert max(len(m._apply_memo) for m in models) <= cap


def test_persistence_verdicts_ignore_query_order_and_memo_state():
    """The first 20 codes of test_persistence_of_stages: its 65 membership
    probes, each at the first stage where the code is a set and at stage 8,
    answer alike in the test's order on one Model, shuffled on another, and
    each on a cold Model of its own; unknown(fuel) verdicts included."""
    rng = random.Random(60606)
    codes = [_gen_set_code(rng, rng.randrange(0, 6)) for _ in range(20)]
    shuffle = random.Random(2024)
    asked = 0
    for m in codes:
        model = Model(fuel=10 ** 6)
        first = next((k for k in range(7) if model.set_at(m, k).kind == "yes"), None)
        if first is None:
            continue
        for k in (first + 1, first + 2, 8):
            model.set_at(m, k)
        probes = [(i, k) for i in range(65) for k in (first, 8)]
        in_order = {probe: str(model.mem_at(probe[0], m, probe[1])) for probe in probes}
        shuffle.shuffle(probes)
        other = Model(fuel=10 ** 6)
        assert {probe: str(other.mem_at(probe[0], m, probe[1]))
                for probe in probes} == in_order, m
        for (i, k), verdict in in_order.items():
            assert str(Model(fuel=10 ** 6).mem_at(i, m, k)) == verdict, (m, i, k)
        asked += 1
    assert asked == 7


def _verify_lines(monkeypatch, paths, **flags):
    """Each judgment's verdict under the flags, one line per judgment with
    the budget left in each Model it made; files that do not parse are
    skipped."""
    models = []

    class Recording(Model):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    monkeypatch.setattr(R, "Model", Recording)
    lines = []
    for path in paths:
        try:
            judgments = parse_file(path.read_text(encoding="utf-8"))
        except SyntaxError_:
            continue
        for line, j in judgments:
            verdict = validate(j, **flags)
            lines.append(f"{path.parent.name}/{path.name}:{line} {verdict} "
                         f"{[m.budget.steps for m in models]}")
            models.clear()
    return lines


def test_apply_memo_changes_no_verdict_or_budget(corpus_dir, monkeypatch):
    # the application memo and the compiled-term memo, on and bypassed, at
    # the default flags and at every flag set of VERIFY_SHA256
    paths = [corpus_dir / name for name in ("golden.judg", "ct.judg", "xi.judg")]
    cap = R._APPLY_CAP
    for flags in [{}, *[dict(zip(("stage", "bound", "fuel"), key))
                        for key in sorted(VERIFY_SHA256)]]:
        monkeypatch.setattr(R, "_APPLY_CAP", cap)
        memo_on = _verify_lines(monkeypatch, paths, **flags)
        monkeypatch.setattr(R, "_APPLY_CAP", 0)
        assert _verify_lines(monkeypatch, paths, **flags) == memo_on, flags


def _count_runs(monkeypatch):
    """The argument tuples of every kleene.apply_many call from now on."""
    runs = []
    real_apply_many = K.apply_many

    def counting(*args, **kwargs):
        runs.append(args)
        return real_apply_many(*args, **kwargs)

    monkeypatch.setattr(K, "apply_many", counting)
    return runs


def test_apply_memo_charges_exact_steps(monkeypatch):
    runs = _count_runs(monkeypatch)
    e, args = K.MULT_CODE, (3, 4)
    first = Model()
    r = first.apply(e, *args)
    assert r == 12
    steps = 10 ** 6 - first.budget.steps
    for cap in (R._APPLY_CAP, 0):
        monkeypatch.setattr(R, "_APPLY_CAP", cap)
        model = Model()
        assert model.apply(e, *args) == r
        ran = len(runs)
        # exactly enough fuel: paid to 0; one step short: drained to 0
        model.budget.steps = steps
        assert model.apply(e, *args) == r and model.budget.steps == 0
        model.budget.steps = steps - 1
        assert model.apply(e, *args) is None and model.budget.steps == 0
        model.budget.steps = -3
        assert model.apply(e, *args) is None and model.budget.steps == -3
        assert len(runs) == ran + (0 if cap else 3)     # a hit runs nothing


def _k(a, times=1):
    """K a, times over: a code that drops `times` arguments and returns a."""
    for _ in range(times):
        a = code(K.K, [a])
    return a


def test_apply_charges_fixed_steps_without_running(monkeypatch):
    runs = _count_runs(monkeypatch)
    model = Model()
    # a K spine: one tick per argument; exactly enough fuel pays it to 0, one
    # step short drains to 0, and a spent budget stays where it is
    spine, args = _k(N1_CODE, 3), (5, 6, 7)
    assert model.apply(spine, *args) == N1_CODE
    assert model.budget.steps == 10 ** 6 - 3
    for left, result, after in ((3, N1_CODE, 0), (2, None, 0), (-3, None, -3)):
        model.budget.steps = left
        assert model.apply(spine, *args) == result
        assert model.budget.steps == after
    # a K prefix is paid, and what follows is run and kept under its own key
    model = Model()
    assert model.apply(_k(K.MULT_CODE), 9, 3, 4) == 12
    assert (K.MULT_CODE, 3, 4) in model._apply_memo
    ran, left = len(runs), model.budget.steps
    assert model.apply(_k(K.MULT_CODE), 9, 3, 4) == 12 and len(runs) == ran
    assert model.budget.steps == 2 * left - 10 ** 6
    # a diverger fails on its tick, behind the ticks of its K prefix
    runs.clear()
    diverger = pair(25, 0)
    assert K.decode(diverger) is None
    for prefix in range(3):
        model = Model()
        assert model.apply(_k(diverger, prefix), *range(prefix + 1)) is None
        assert model.budget.steps == 10 ** 6 - prefix - 1
        model.budget.steps = prefix
        assert model.apply(_k(diverger, prefix), *range(prefix + 1)) is None
        assert model.budget.steps == 0
    assert runs == []


@pytest.mark.parametrize("cap", [R._APPLY_CAP, 0], ids=["memo", "no-memo"])
def test_apply_agrees_with_the_machine(monkeypatch, cap):
    # Model.apply, with its charged steps and its memo, against a plain run of
    # the machine on a fresh budget of the same size: a budget of -2 to 12
    # steps, or that plus 60, so that PLUS and MULT runs halt and are kept
    monkeypatch.setattr(R, "_APPLY_CAP", cap)
    rng = random.Random(1717)
    heads = [K.PLUS_CODE, K.MULT_CODE, pair(25, 0), code(K.I, [5]),
             code(K.K), code(K.PAIR, [3]), code(K.S, [K.PLUS_CODE]),
             code(K.AP, [K.MULT_CODE]), *range(12)]
    model = Model()
    for _ in range(3000):
        e = _k(rng.choice(heads), rng.randrange(4))
        args = tuple(rng.randrange(4) for _ in range(rng.randint(1, 5)))
        fuel = rng.randint(-2, 12) + rng.choice((0, 60))
        budget = K.Budget(fuel)
        try:
            expected = apply_many(e, *args, budget=budget)
        except Diverged:
            expected = None
        model.budget.steps = fuel
        assert model.apply(e, *args) == expected, (e, args, fuel)
        assert model.budget.steps == budget.steps, (e, args, fuel)


def _finite(m):
    """A set code with exactly m members at stage m and above: N0, N1, then
    N1 + (N1 + ...)."""
    if m == 0:
        return N0_CODE
    n = N1_CODE
    for _ in range(m - 1):
        n = K.tagged("plus", N1_CODE, n)
    return n


def _runs(n):
    """A code the machine runs on n arguments: {e}(x1, ..., xn) is N1 when
    xn = 0 and N0 otherwise."""
    xs = [f"x{j}" for j in range(n)]
    return eval_kterm(K.lambda_abstract_many(kop(K.IFZ, xs[-1], N1_CODE, N0_CODE), xs))


def _families(n):
    """Family codes applied to n arguments: constant ones, K a with more
    heads than arguments, a K prefix whose tail runs, and divergers."""
    div = pair(25, 0)                       # decodes to nothing
    out = [_k(N0_CODE, n), _k(N1_CODE, n), _k(N1_CODE, n + 2), _runs(n), div,
           _k(div, n - 1) if n > 1 else _k(div)]
    if n > 1:
        out += [_k(N1_CODE), _k(_runs(n - 1))]
    return out


def _outcome(query, fuel):
    """What query does to a fresh Model with fuel steps: its answer, or that
    it raised Diverged, and the steps left."""
    model = Model()
    model.budget.steps = fuel
    try:
        got = query(model)
    except Diverged:
        got = "diverged"
    return got, model.budget.steps


def _batch_sites():
    """(site, query) for every loop over a family's members (the _each
    loops, the Pi clause and the _pairs loops): each family code in the place
    that loop reads, over carriers of 0, 1, 2 and 5 members."""
    k = 6
    n1 = _k(N1_CODE)
    # {r}(u, t) = rf(u, 0), computed by the machine
    r = eval_kterm(K.lambda_abstract_many(
        kop(K.PAIR, K.TAG["rf"], kop(K.PAIR, "u", 0)), ["u", "t"]))
    for m in (0, 1, 2, 5):
        s = _finite(m)
        for e in _families(1):
            yield "_fam", lambda md, e=e, s=s: md._fam(e, s, k)
            yield "_enum sigma", lambda md, e=e, s=s: md._enum((K.tagged("sigma", s, e), k))
            yield "_holds pi", lambda md, e=e, s=s: md._holds((K.tagged("pi", s, e), k),
                                                              _runs(1))
            yield "_cover_v v", lambda md, e=e, s=s: md.cover_v(s, n1, _k(N1_CODE, 3), e, k)
            yield "_cover_v i", lambda md, e=e, s=s: md.cover_v(s, e, _k(N1_CODE, 3), n1, k)
            yield "_star_conditions i", lambda md, e=e, s=s: md._star_conditions(
                0, n1, s, e, _k(N1_CODE, 2), k)
        for e in _families(2):
            yield "_star_conditions c", lambda md, e=e, s=s: md._star_conditions(
                0, n1, s, n1, e, k)
        for e in _families(3):
            yield "_cover_v c", lambda md, e=e, s=s: md.cover_v(s, n1, e, n1, k)
            yield "in_cover", lambda md, e=e, s=s: md.in_cover(
                s, n1, e, n1, k, 0, tr_code(0, 0, r), R.COVER_DEPTH)


def test_constant_family_batch_is_exact(monkeypatch):
    """Each batched loop answers, and leaves the budget, as the machine does
    (kleene.peel forced to read no K head, so that every application runs),
    at every budget from -2 to the loop's full cost + 1 and on families of
    0, 1, 2 and 5 members."""
    reader = K.peel
    sites = set()
    for site, query in _batch_sites():
        monkeypatch.setattr(K, "peel", lambda e, n: (e, 0))
        loop, left = _outcome(query, 10 ** 6)
        fuels = range(-2, 10 ** 6 - left + 2)
        loops = [_outcome(query, fuel) for fuel in fuels]
        monkeypatch.setattr(K, "peel", reader)
        assert _outcome(query, 10 ** 6) == (loop, left), site
        assert [_outcome(query, fuel) for fuel in fuels] == loops, site
        sites.add(site)
    assert len(sites) == 9
    # zero members left cost nothing, even where a charge of 0 would fail
    model = Model()
    for left, count, paid, after in ((-3, 0, 0, -3), (-3, 2, 0, -3), (5, 3, 2, 0),
                                     (6, 3, 3, 0), (0, 0, 0, 0)):
        model.budget.steps = left
        assert (model._pay(2, count), model.budget.steps) == (paid, after)


def test_open_memo_charges_exact_steps(monkeypatch):
    runs = []
    real_eval = R.eval_kterm

    def counting(*args, **kwargs):
        runs.append(args)
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(R, "eval_kterm", counting)
    x, y = S.FVar("x"), S.FVar("y")
    t = R.Open(interpret_term(S.Ap(S.Ap(x, y), y)))
    assert t.names == {"x", "y"}
    env = {"x": K.MULT_CODE, "y": 3}
    first = Model()
    r = first.value(t, env)
    assert r == 9
    steps = 10 ** 6 - first.budget.steps
    for cap in (0, R._APPLY_CAP):
        monkeypatch.setattr(R, "_APPLY_CAP", cap)
        model = Model()
        assert model.value(t, env) == r
        ran = len(runs)
        # exactly enough fuel: paid to 0; one step short: drained to 0
        model.budget.steps = steps
        assert model.value(t, env) == r and model.budget.steps == 0
        model.budget.steps = steps - 1
        assert model.value(t, env) is None and model.budget.steps == 0
        model.budget.steps = -3
        assert model.value(t, env) is None and model.budget.steps == -3
        assert len(runs) == ran + (0 if cap else 3)     # a hit runs nothing
    # the key is the term's own variables' values: others share the entry,
    # a new value runs anew, and an unbound variable fails as a plain run does
    model = Model()
    model.value(t, env)
    ran = len(runs)
    assert model.value(t, {**env, "z": 9}) == r and len(runs) == ran
    assert model.value(t, {**env, "y": 4}) == 16
    assert len(runs) == ran + 1
    with pytest.raises(ValueError, match="unbound applicative variable"):
        model.value(t, {"x": K.MULT_CODE})


def test_open_memo_keeps_each_compiled_term_apart():
    # _sample_envs rebinds one local name to each context entry's compiled
    # pretype in turn, so a freed tree's id() can come back on the next one
    model = Model()
    codes = {c: realize(parse_term(c)) for c in (
        "plushat(n1hat, n1hat)", "plushat(n0hat, nhat)", "listhat(n1hat)")}
    for c in list(codes) * 20:
        ty = compile_type(parse_type(f"T({c})"))
        assert type(ty[1]) is R.Open
        assert model.value(ty[1], {}) == codes[c]
        assert model.elements((ty, {})) == model.members(codes[c], 8)
        del ty


def test_compiled_terms_run_once_per_values(corpus_dir, monkeypatch):
    # validating golden line 72 ran 36,110 applications, nearly all of them
    # Id and T leaves over 29 distinct values of their variables (a numeral
    # or a variable is read in no steps); every run goes through eval_kterm
    golden = dict(parse_file((corpus_dir / "golden.judg").read_text()))
    runs = []
    real_eval = R.eval_kterm

    def counting(t, *args, **kwargs):
        if type(t) is tuple:
            runs.append(t)
        return real_eval(t, *args, **kwargs)

    monkeypatch.setattr(R, "eval_kterm", counting)
    assert str(validate(golden[72])) == "unknown(sampling)"
    assert 0 < len(runs) <= 100


# (stage, bound, fuel) -> the hash of every verdict, reason and budget left
# at non-default flags; the stages are high enough that no stage cut reaches
# a judgment verdict
VERIFY_SHA256 = {
    (3, 0, 200): (
        "2f012993fa618ec8d0cc3f9e38bbe802f2a28ea4b7930d375c4c536bee5cc3d8"),
    (3, 2, 200): (
        "a3f3dc5fb467c361af232af860157821b23d6f5daac5ee52f94d7d1c142d2d6d"),
    (4, 1, 200): (
        "f8906dd6eb25857d972556656e623d82966fa04710abc8eb49c603f42a5562cd"),
    (8, 3, 200): (
        "9018a773b37d47ae2b3ce5b5ec45f9eac3db0391d98d5c3e4781cdf224e43cbf"),
    (3, 1, 2000): (
        "2e41db7118fda6e00dcd1482f3a5fadb2ca787f4a44a32b924ff06dabb89304d"),
    (8, 2, 20000): (
        "61982d3f116bbbc20268f3072c7c6554a853d6b001568eba2c3afce8cccc3b95"),
}


@pytest.mark.parametrize("flags", sorted(VERIFY_SHA256), ids=str)
def test_verify_replay_is_exact(corpus_dir, monkeypatch, flags):
    stage, bound, fuel = flags
    contract = corpus_dir.parent / "tests" / "data" / "contract"
    paths = sorted([*corpus_dir.glob("*.judg"), *contract.glob("*.judg")])
    lines = _verify_lines(monkeypatch, paths, stage=stage, bound=bound, fuel=fuel)
    assert len(lines) == 136
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == VERIFY_SHA256[flags]


def test_members_cap_keeps_exact_enumerations(corpus_dir):
    # at bound 0 the cap is 0, yet exact finite carriers up to EXACT_CAP stay
    assert Model(bound=0).members(N1_CODE, 0) == ([0], True)
    assert Model(bound=0).members(pair(3, pair(N1_CODE, N1_CODE)), 1) == (
        [pair(0, 0), pair(1, 0)], True)
    golden = parse_file((corpus_dir / "golden.judg").read_text())
    at0 = [validate(j, bound=0) for _, j in golden]
    at1 = [validate(j, bound=1) for _, j in golden]
    assert at0 == at1
    assert sum(t.kind == "yes" for t in at0) == 47


def test_exact_enumerations_stop_at_exact_cap():
    # a balanced product of 32 copies of N1 + N1 has 2^32 members; at the
    # default stage and bound each level stops at EXACT_CAP and is inexact
    p = K.tagged("plus", N1_CODE, N1_CODE)
    for _ in range(5):
        p = K.tagged("sigma", p, code(K.K, [p]))
    for bound in (0, 1, R.DEFAULT_BOUND):
        m = Model(bound=bound)
        members, exact = m.members(p, R.DEFAULT_STAGE)
        assert len(members) <= R.EXACT_CAP and not exact
        assert m.set_at(K.tagged("sigma", p, code(K.K, [N_CODE])),
                        R.DEFAULT_STAGE).kind == "unknown"


def test_members_cap_never_reached_exactly_at_default_bound(corpus_dir,
                                                            monkeypatch):
    # so keeping exact enumerations whole changes nothing at the default
    over = []
    real_enum = Model._enum

    def spy(self, src):         # a code's enumeration before members cuts it
        got = real_enum(self, src)
        if type(src[0]) is int and got[1] and len(got[0]) > self.members_cap:
            over.append(src)
        return got

    monkeypatch.setattr(Model, "_enum", spy)
    for name in ("golden", "ct", "xi"):
        for _, j in parse_file((corpus_dir / f"{name}.judg").read_text()):
            validate(j)
    assert over == []


# ---------------------------------------------------------------------------
# the interpretation validates judgments
# ---------------------------------------------------------------------------

def test_check_realizer_clause_examples():
    assert check_realizer(0, parse_type("N1")).kind == "yes"
    assert check_realizer(1, parse_type("N1")).kind == "no"
    assert check_realizer(7, parse_type("N0")).kind == "no"
    for n in (0, 1, 63, 1000):
        assert check_realizer(n, parse_type("N")).kind == "yes"
    assert check_realizer(K.enc_list([2, 4]), parse_type("List(N)")).kind == "yes"
    assert check_realizer(pair(3, 3), parse_type("Sigma x : N . Id(N, x, x)")
                          ).kind == "yes"
    assert check_realizer(pair(3, 4), parse_type("Sigma x : N . Id(N, x, x)")
                          ).kind == "no"


# closed pretypes over every former, each beside the code it decodes from;
# families range over finite domains, since a family code over N is only a
# set up to sampling, which leaves its members unknown where the pretype's
# are yes
_TARSKI = [
    ("N0", "n0hat"), ("N1", "n1hat"), ("N", "nhat"),
    ("Sigma x : Sum(N1, N1) . Id(Sum(N1, N1), x, x)",
     "sigmahat(plushat(n1hat, n1hat), lam x . idhat(plushat(n1hat, n1hat), x, x))"),
    ("Sigma x : N1 . List(N0)", "sigmahat(n1hat, lam x . listhat(n0hat))"),
    ("Pi x : N1 . N", "pihat(n1hat, lam x . nhat)"),
    ("Pi x : Sum(N1, N1) . Id(Sum(N1, N1), x, x)",
     "pihat(plushat(n1hat, n1hat), lam x . idhat(plushat(n1hat, n1hat), x, x))"),
    # two compiled binders, the inner one read in the outer one's environment
    ("Pi x : Sum(N1, N1) . Sigma y : N1 . Id(Sum(N1, N1), x, x)",
     "pihat(plushat(n1hat, n1hat), lam x . sigmahat(n1hat, "
     "lam y . idhat(plushat(n1hat, n1hat), x, x)))"),
    ("Sum(N0, N1)", "plushat(n0hat, n1hat)"),
    ("List(N1)", "listhat(n1hat)"),
    ("List(Sum(N1, N))", "listhat(plushat(n1hat, nhat))"),
    ("Id(N, 1, 1)", "idhat(nhat, 1, 1)"),
    ("Id(N, 1, 2)", "idhat(nhat, 1, 2)"),
    ("Id(N1, 1, 1)", "idhat(n1hat, 1, 1)"),
]


@pytest.mark.parametrize("ty_src, code_src", _TARSKI, ids=[t for t, _ in _TARSKI])
def test_pretype_and_its_code_agree(ty_src, code_src):
    # T(a) is the set the code a stands for: both sources go through the same
    # clauses and must agree on every verdict (reason texts may differ)
    srcs = [(compile_type(parse_type(ty_src)), {}),
            (compile_type(parse_type(f"T({code_src})")), {})]
    xs = [*range(64), *(pair(a, b) for a in range(5) for b in range(5)),
          *(K.enc_list(xs) for xs in ([0], [1], [0, 0], [pair(1, 3)], [2, 0]))]
    for x in xs:
        kinds = [Model(fuel=10 ** 4).contains(src, x).kind for src in srcs]
        assert kinds[0] == kinds[1], (x, kinds)
    assert Model().elements(srcs[0]) == Model().elements(srcs[1])


def test_type_equality_reports_the_unknown_side():
    # one side refuses every candidate, the other is only sampled: the
    # verdict is the sampled side's, whichever side it is on
    for src in ("typeeq [] |- N0 == N -> N", "typeeq [] |- N -> N == N0"):
        assert str(validate(parse_judgment(src))) == "unknown(sampling)"


def test_no_accepted_golden_line_is_refuted_at_any_stage(corpus_dir):
    # the universe is the union of all stages: a code that is not yet a set
    # at --stage makes a judgment unknown(stage), never no
    golden = parse_file((corpus_dir / "golden.judg").read_text())
    assert all(check_judgment(j).accepted for _, j in golden)
    flags = [(stage, bound) for stage in range(9) for bound in (0, 8)]
    flags += [(0, R.DEFAULT_BOUND), (1, R.DEFAULT_BOUND)]
    for stage, bound in flags:
        refuted = [line for line, j in golden
                   if validate(j, stage=stage, bound=bound).kind == "no"]
        assert refuted == [], (stage, bound)
    at0 = {line: str(validate(j, stage=0)) for line, j in golden}
    assert list(at0.values()).count("unknown(stage)") == 13
    # m : T(cov(...)) has no members at stage 0, but some at stage 2: the
    # context is not vacuous
    assert at0[72] == at0[75] == "unknown(sampling)"


def test_validate_judgments():
    assert validate(parse_judgment("term [] |- 0 : N")).kind == "yes"
    assert validate(parse_judgment("termeq [] |- 0 == 1 : N")).kind == "no"
    assert validate(parse_judgment(
        "termeq [] |- Ap(lam x . x, 0) == 0 : N")).kind == "yes"
    assert validate(parse_judgment(
        "term [c : N0] |- emptyrec(c) : Id(N, 0, 1)")).kind == "yes"
    r = validate(parse_judgment("typeeq [] |- T(nhat) == N"))
    assert r.kind in ("yes", "unknown")
    r = validate(parse_judgment("typeeq [] |- T(n1hat) == N1"))
    assert r.kind == "yes"                      # finite carriers are exact
    assert validate(parse_judgment("typeeq [] |- N1 == N0")).kind == "no"


def test_each_pretype_is_compiled_once(corpus_dir, monkeypatch):
    # validation opens no binder and rebuilds no tree: a pretype is compiled
    # once per judgment, before any environment is sampled
    golden = dict(parse_file((corpus_dir / "golden.judg").read_text()))
    rebuilds = []
    real_map = S._map
    monkeypatch.setattr(S, "_map", lambda *a: rebuilds.append(a) or real_map(*a))
    for j in golden.values():
        validate(j)
    assert rebuilds == []
    # nor is a term interpreted once per environment or per candidate
    calls = []
    real_interpret = R.interpret_term
    monkeypatch.setattr(R, "interpret_term",
                        lambda *a: calls.append(a) or real_interpret(*a))
    counts = []
    for bound in (8, 64):
        calls.clear()
        validate(golden[72], bound=bound)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_deep_numerals_interpret_in_a_loop():
    # a succ chain far deeper than the recursion limit allows frames for
    assert interpret_term(parse_term("3")) == kop(K.SUCC, kop(K.SUCC, kop(K.SUCC, 0)))
    assert realize(parse_term("10000")) == 10000
    assert validate(parse_judgment("term [] |- 12000 : N")).kind == "yes"


def test_type_formation_judgments_hold_by_construction():
    # every interpreted pretype is a class of naturals, so formation holds
    for src in ["type [] |- N", "type [x : U0] |- T(x)",
                "type [] |- Pi x : N . Id(N, x, x)"]:
        assert validate(parse_judgment(src)).kind == "yes"


def test_c1_c2_same_numeral():
    lhs = parse_term("ind(rf(inl(star), star); x w . pair(x, w); x h k f . 0)")
    rhs = parse_term("pair(inl(star), star)")
    assert realize(lhs) == realize(rhs)
    lhs = parse_term("ind(tr(inl(star), star, lam z . lam h . emptyrec(h)); "
                     "x w . 0; x h k f . pair(h, 1))")
    rhs = parse_term("pair(star, 1)")
    assert realize(lhs) == realize(rhs)


def test_c2_passes_the_contraction_function():
    # q2 returns its fourth argument; both sides must build the same code
    base = "x w . 0"
    step = "x h k f . f"
    r_fn = "lam z . lam h2 . rf(z, star)"
    lhs = parse_term(f"ind(tr(inl(star), star, {r_fn}); {base}; {step})")
    rhs = parse_term(
        f"lam z . lam u . ind(Ap(Ap({r_fn}, z), u); {base}; {step})")
    assert realize(lhs) == realize(rhs)


def test_xi_instance_distinct_numerals():
    n1 = realize(parse_term("lam x . Ap(lam y . y, x)"))
    n2 = realize(parse_term("lam x . x"))
    assert n1 != n2
    for k in range(8):
        assert apply(n1, k, 10 ** 4) == apply(n2, k, 10 ** 4)


def test_ind_code_defining_clauses_via_terms():
    rng = random.Random(31)
    bodies1 = ["pair(x, w)", "succ(w)", "0"]
    bodies2 = ["f", "pair(h, k)", "x", "1"]
    for _ in range(20):
        b1, b2 = rng.choice(bodies1), rng.choice(bodies2)
        q1t = parse_term(f"lam x . lam w . {b1}")
        q2t = parse_term(f"lam x . lam h . lam k . lam f . {b2}")
        q1c = realize(q1t)
        q2c = realize(q2t)
        indq = apply_many(code(K.IND), q1c, q2c)
        z, r = rng.randrange(20), rng.randrange(20)
        assert apply(indq, rf_code(z, r), 10 ** 5) == apply_many(q1c, z, r)
        rfn = realize(parse_term(f"lam z . lam u . rf({z}, {r})"))
        got = apply(indq, tr_code(z, 3, rfn), 10 ** 6)
        aux = eval_kterm(K.c2_aux_term(q1c, q2c, rfn))
        assert got == apply_many(q2c, z, 3, rfn, aux)


def test_ct_validation():
    for src in ["lam x . x", "lam x . succ(x)",
                "lam x . natrec(x; 0; k r . succ(succ(r)))"]:
        assert ct_validate(parse_term(src)).kind == "yes"
    assert ct_validate(parse_term("lam x . Ap(x, x)")).kind != "yes"


def test_soundness_spot_checks(corpus_dir):
    from covtt.syntax import parse_file
    lines = [j for _, j in parse_file((corpus_dir / "golden.judg").read_text())]
    for j in lines[:12]:
        assert validate_judgment(j).kind in ("yes", "unknown")
