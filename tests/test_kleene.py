import random

import pytest

from covtt import kleene as K
from covtt.kleene import (
    Diverged, apply, apply_counted, apply_many, code, dec_list, enc_list,
    eval_kterm, fix_by_recursion_theorem, kapp, kfresh, kleene_T, kleene_U, kop, ksubst, lambda_abstract, lambda_abstract_many,
    list_component, list_length, pair, trace_of, unpair, unpair0, unpair1,
)


def test_pairing_laws_small_exhaustive():
    assert pair(0, 0) == 0
    for k in range(4096):
        n, m = unpair(k)
        assert pair(n, m) == k
    seen = set()
    for n in range(64):
        for m in range(64):
            p = pair(n, m)
            assert unpair0(p) == n and unpair1(p) == m
            assert p not in seen
            seen.add(p)


def test_pairing_random_large():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(10 ** rng.randrange(1, 40))
        m = rng.randrange(10 ** rng.randrange(1, 40))
        assert unpair(pair(n, m)) == (n, m)


def test_pairing_size_is_linear():
    # nested codes stay polynomial: a left spine of pairs adds O(log) bits
    # per level (Cantor-style pairing would double the bit length each time)
    x = 1
    for _ in range(200):
        x = pair(x, 0)
    assert x.bit_length() < 2600


def test_list_coding():
    assert enc_list([]) == 0
    assert list_length(0) == 0
    rng = random.Random(5)
    for _ in range(300):
        items = [rng.randrange(1000) for _ in range(rng.randrange(8))]
        e = enc_list(items)
        assert dec_list(e) == items
        assert list_length(e) == len(items)
        for j, it in enumerate(items):
            assert list_component(e, j) == it
        assert list_component(e, len(items)) == 0      # documented convention
    # bijectivity: every natural decodes to a list that re-encodes to it
    for e in range(2000):
        assert enc_list(dec_list(e)) == e


def test_code_decode_roundtrip():
    from covtt.kleene import ARITY, decode
    # every natural decodes; re-encoding a proper code is the identity
    for e in range(5000):
        dec = decode(e)
        if dec is not None:
            tag, args = dec
            assert code(tag, args) == e
    # divergers: unknown tag, or an argument list at/over the arity
    assert decode(pair(999, 0)) is None
    assert decode(pair(1, enc_list([7]))) is None       # I already has 1 arg


def test_machine_doc_lists_the_instruction_set():
    import re
    from pathlib import Path
    doc = (Path(__file__).resolve().parent.parent / "docs" / "machine.md").read_text()
    programs = doc.split("## Programs", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|\s*(\d+)\s*\|\s*(\w+)\s*\|\s*(\d+)\s*\|", programs, re.M)
    for tag, name, arity in rows:
        assert getattr(K, name) == int(tag), name
        assert K.ARITY[int(tag)] == int(arity), name
    assert {int(tag) for tag, _, _ in rows} == set(K.ARITY)


def test_apply_basics():
    assert apply(code(K.I), 9, 100) == 9
    assert apply_many(code(K.K), 2, 9) == 2
    s = code(K.SUCC)
    twice = eval_kterm(lambda_abstract(kapp(s, kapp(s, "x")), "x"))
    assert apply(twice, 3, 1000) == 5


def test_apply_monotone_and_stable():
    f = eval_kterm(lambda_abstract(kop(K.REC, 0,
                                       code(K.K, [code(K.SUCC)]),
                                       "x"), "x"))
    # find the minimal budget that lets the call halt, then grow it
    result, steps = apply_counted(f, 9, 10 ** 6)
    assert result == 9
    with pytest.raises(Diverged):
        apply(f, 9, steps - 1)
    for extra in (0, 1, 7, 1000):
        assert apply(f, 9, steps + extra) == result


def test_divergers():
    # unknown tag and overfull argument lists never halt
    bad = pair(999, 0)
    with pytest.raises(Diverged):
        apply(bad, 0, 10 ** 5)
    overfull = pair(K.I, enc_list([1, 2, 3]))
    with pytest.raises(Diverged):
        apply(overfull, 0, 10 ** 5)
    neverzero = code(K.K, [1])
    with pytest.raises(Diverged):
        apply(code(K.MU), neverzero, 10 ** 4)


def test_mu_finds_least_zero():
    eqv = kfresh("m")
    f = eval_kterm(lambda_abstract(kop(K.EQ, eqv, 3), eqv))
    assert apply(code(K.MU), f, 10 ** 5) == 3


def test_traces():
    idc = code(K.I)
    m = trace_of(idc, 4)
    assert kleene_T(idc, 4, m)
    assert kleene_U(m) == 4
    assert not kleene_T(idc, 4, m + 1)
    assert not kleene_T(idc, 5, m)
    assert not kleene_T(idc + 1, 4, m)


def test_trace_uniqueness_by_enumeration():
    idc = code(K.I)
    m = trace_of(idc, 0)
    hits = [c for c in range(max(m * 2, 2000)) if kleene_T(idc, 0, c)]
    assert hits == [m]


def _gen_kterm(rng, depth):
    leaves = [code(K.SUCC), code(K.I), code(K.PAIR),
              code(K.P0), 0, 3, "x"]
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(leaves)
    return kapp(_gen_kterm(rng, depth - 1), _gen_kterm(rng, depth - 1))


def _eval_or_none(t, env=None):
    try:
        return eval_kterm(t, env or {}, 50_000)
    except Diverged:
        return None


def test_lambda_substitution_property():
    rng = random.Random(13)
    for _ in range(300):
        t = _gen_kterm(rng, 3)
        n = rng.randrange(6)
        lhs_code = _eval_or_none(lambda_abstract(t, "x"))
        rhs = _eval_or_none(ksubst(t, "x", n))
        if lhs_code is None:
            # an x-free subterm diverges; then the substituted term does too
            assert rhs is None
            continue
        try:
            lhs = apply(lhs_code, n, 50_000)
        except Diverged:
            lhs = None
        assert lhs == rhs


def test_smn_coherence():
    # abstracting a two-variable term and applying stepwise agrees with
    # direct evaluation
    body = kop(K.PAIR, "a", kop(K.SUCC, "b"))
    e = eval_kterm(lambda_abstract_many(body, ["a", "b"]))
    for a in range(4):
        partial = apply(e, a, 10 ** 5)
        for b in range(4):
            direct = eval_kterm(ksubst(ksubst(body, "a", a), "b", b))
            assert apply(partial, b, 10 ** 5) == direct


def _factorial_transformer():
    ev, nv, mv = kfresh("e"), kfresh("n"), kfresh("m")
    else_code = lambda_abstract(
        K.kapp(K.MULT_CODE, mv,
               kapp(ev, kop(K.PRED, mv))), mv)
    sel = kop(K.IFZ, nv, code(K.K, [1]), else_code)
    return eval_kterm(lambda_abstract_many(kapp(sel, nv), [ev, nv]))


def test_recursion_theorem_factorial():
    F = _factorial_transformer()
    e = fix_by_recursion_theorem(F)
    assert apply(e, 4, 10 ** 6) == 24
    assert apply(e, 5, 10 ** 6) == 120
    # the defining property: {e} agrees with {{F}(e)} pointwise
    fe = apply(F, e, 10 ** 6)
    for n in range(5):
        assert apply(e, n, 10 ** 6) == apply(fe, n, 10 ** 6)


def test_recursion_theorem_constant():
    F = eval_kterm(lambda_abstract_many(42, [kfresh("e"), kfresh("x")]))
    e = fix_by_recursion_theorem(F)
    for n in (0, 3, 99):
        assert apply(e, n, 10 ** 5) == 42


def test_ind_instruction_clauses():
    rng = random.Random(17)
    for _ in range(30):
        q1 = eval_kterm(lambda_abstract_many(
            kop(K.PAIR, "z", kop(K.SUCC, "w")), ["z", "w"]))
        body = rng.choice(["f", "x", kop(K.PAIR, "h", "k")])
        q2 = eval_kterm(lambda_abstract_many(body, ["x", "h", "k", "f"]))
        indq = apply_many(code(K.IND), q1, q2)
        z, r = rng.randrange(50), rng.randrange(50)
        # clause (a)
        assert apply(indq, pair(7, pair(z, r)), 10 ** 5) == apply_many(q1, z, r)
        # clause (b): against the canonical contraction argument
        rfn = eval_kterm(lambda_abstract_many(pair(7, pair(z, r)),
                                              ["u", "t"]))
        j = rng.randrange(10)
        got = apply(indq, pair(8, pair(pair(z, j), rfn)), 10 ** 6)
        aux = eval_kterm(K.c2_aux_term(q1, q2, rfn))
        assert got == apply_many(q2, z, j, rfn, aux)
        # the contraction argument behaves like ind composed with r
        assert apply_many(aux, 4, 5) == apply(indq, apply_many(rfn, 4, 5), 10 ** 5)


def test_ct_realizer_fixed_and_pointwise():
    assert K.ct_realizer() == K.ct_realizer()
    idc = code(K.I)
    assert K.ct_check(idc)
    succ = eval_kterm(lambda_abstract(kop(K.SUCC, "x"), "x"))
    assert K.ct_check(succ)
    dbl = eval_kterm(lambda_abstract(
        K.kapp(K.PLUS_CODE, "x", "x"), "x"))
    assert K.ct_check(dbl)


# ---------------------------------------------------------------------------
# Pinned constants: a change to abstraction or pairing that moves a numeral
# fails here, by name
# ---------------------------------------------------------------------------

def test_machine_constants_pinned():
    assert K.PLUS_CODE == 160652790499302499172536887849365927117
    assert K.MULT_CODE == int(
        "58378100441343048783307192261028398882561820567959931923920806813"
        "61756604145332842131564967456989829997")
    assert K.CT_REALIZER == int(
        "27874704655050367609212222528739233273858060711068984704609620530"
        "930515767391")
    aux = eval_kterm(K.c2_aux_term(3, 5, 7))
    assert aux == 289623930061026890088626839973917594


# ---------------------------------------------------------------------------
# Differential test against a reference machine written straight from
# docs/machine.md: loop unpair, kvars-based abstraction, and a full decode
# and re-encode on every application, evaluated recursively
# ---------------------------------------------------------------------------

def _ref_unpair(r):
    total = r.bit_length()
    while K._pairs_below(total) > r:
        total -= 1
    rem = r - K._pairs_below(total)
    k = rem >> total
    rem -= k << total
    lt = total - k
    vs, vt = rem >> lt, rem & ((1 << lt) - 1)
    return (1 << k) + vs - 1, (1 << lt) + vt - 1


def _ref_dec_list(x):
    out = []
    while x:
        x, last = _ref_unpair(x - 1)
        out.append(last)
    return out[::-1]


def _ref_abstract(t, x):
    if t == x:
        return code(K.I)
    if x not in K.kvars(t):
        return kapp(code(K.K), t)
    return kapp(kapp(code(K.S), _ref_abstract(t[1], x)),
                _ref_abstract(t[2], x))


def _ref_abstract_many(t, names):
    for x in reversed(names):
        t = _ref_abstract(t, x)
    return t


class _RefMachine:
    """{f}(x) by the documented equations; records the tags it executes."""

    def __init__(self, fuel):
        self.budget = K.Budget(fuel)
        self.ran = set()
        self.partial = 0

    def eval(self, t):
        if isinstance(t, int):
            return t
        return self.ap(self.eval(t[1]), self.eval(t[2]))

    def ap(self, f, x):
        self.budget.tick()
        tag, payload = _ref_unpair(f)
        if tag not in K.ARITY:
            raise Diverged("unknown tag")
        args = _ref_dec_list(payload)
        if len(args) >= K.ARITY[tag]:
            raise Diverged("overfull")
        a = args + [x]
        if len(a) < K.ARITY[tag]:
            self.partial += 1
            return code(tag, a)
        self.ran.add(tag)
        ap = self.ap
        if tag in (K.K, K.I):
            return a[0]
        if tag == K.S:
            return ap(ap(a[0], a[2]), ap(a[1], a[2]))
        if tag == K.SUCC:
            return a[0] + 1
        if tag == K.PRED:
            return max(a[0] - 1, 0)
        if tag == K.PAIR:
            return pair(a[0], a[1])
        if tag in (K.P0, K.P1):
            return _ref_unpair(a[0])[tag - K.P0]
        if tag == K.IFZ:
            return a[1] if a[0] == 0 else a[2]
        if tag == K.EQ:
            return 0 if a[0] == a[1] else 1
        if tag == K.REC:
            z, s, n = a
            if n == 0:
                return z
            head = ap(s, n - 1)
            return ap(head, ap(ap(ap(code(K.REC), z), s), n - 1))
        if tag == K.LREC:
            d, e, l = a
            if l == 0:
                return d
            front, last = _ref_unpair(l - 1)
            head = ap(ap(e, front), last)
            return ap(head, ap(ap(ap(code(K.LREC), d), e), front))
        if tag == K.SNOC:
            return pair(a[0], a[1]) + 1
        if tag == K.LEN:
            return len(_ref_dec_list(a[0]))
        if tag == K.CPT:
            items = _ref_dec_list(a[0])
            return items[a[1]] if a[1] < len(items) else 0
        if tag == K.MU:
            m = 0
            while ap(a[0], m) != 0:
                self.budget.tick()
                m += 1
            return m
        if tag == K.AP:
            return ap(a[0], a[1])
        if tag == K.PAPP:
            return ap(ap(a[0], a[1]), a[2])
        if tag == K.IND:
            q1, q2, m = a
            kind, payload = _ref_unpair(m)
            if kind == 7:
                z, r = _ref_unpair(payload)
                return ap(ap(q1, z), r)
            if kind == 8:
                zj, r = _ref_unpair(payload)
                z, j = _ref_unpair(zj)
                head = ap(ap(ap(q2, z), j), r)
                body = kop(K.IND, q1, q2,
                           K.kapp(r, "z'", "u'"))
                return ap(head, self.eval(_ref_abstract_many(body, ["z'", "u'"])))
            return 0
        assert tag == K.TRACE
        steps0 = self.budget.steps
        r = ap(a[0], a[1])
        return pair(pair(a[0], a[1]), pair(steps0 - self.budget.steps, r))


def _ref_run(e, n, fuel, machine=None):
    """(result or None, steps left) of {e}(n) on the reference machine."""
    machine = machine or _RefMachine(fuel)
    try:
        return machine.ap(e, n), machine.budget.steps
    except Diverged:
        return None, machine.budget.steps


def _run(e, n, fuel):
    """(result or None, steps left) of {e}(n): a run that diverges must leave
    the budget exactly where the reference machine leaves it."""
    budget = K.Budget(fuel)
    try:
        return apply(e, n, budget), budget.steps
    except Diverged:
        return None, budget.steps


def _leaf_pool(rng):
    """Leaves for random programs: every instruction, some of them partially
    applied, small numerals, lists and cover-proof codes for IND."""
    pool = [code(tag) for tag in K.ARITY]
    pool += [code(tag, [rng.randrange(4)]) for tag in (K.K, K.EQ, K.PAIR)]
    pool += [code(K.K, [code(K.SUCC)]), K.PLUS_CODE]
    pool += [n for n in (0, 1, 2, 5)]
    pool += [enc_list([1, 0, 2]), enc_list([3])]
    q = code(K.K, [code(K.SUCC)])
    pool += [pair(7, pair(2, 1)), pair(8, pair(pair(1, 0), q)),
             pair(9, 4)]
    return pool


def _gen_program(rng, pool, depth, names):
    if depth == 0 or rng.random() < 0.3:
        if names and rng.random() < 0.35:
            return rng.choice(names)
        return rng.choice(pool)
    return kapp(_gen_program(rng, pool, depth - 1, names),
                _gen_program(rng, pool, depth - 1, names))


def _fixed_programs():
    """Programs known to run the long instructions: recursion, list
    recursion, search, traces, both IND clauses and the recursion theorem."""
    f, z, r, x = kfresh("f"), kfresh("z"), kfresh("r"), kfresh("x")
    dbl = eval_kterm(lambda_abstract(
        K.kapp(K.PLUS_CODE, x, x), x))
    summ = eval_kterm(lambda_abstract(kop(
        K.LREC, 0,
        lambda_abstract_many(K.kapp(K.PLUS_CODE, z, r),
                             [f, z, r]), x), x))
    eq3 = eval_kterm(lambda_abstract(kop(K.EQ, x, 3), x))
    q1 = eval_kterm(lambda_abstract_many(kop(K.PAIR, z, r), [z, r]))
    q2 = eval_kterm(lambda_abstract_many(
        kop(K.PAIR, kop(K.PAIR, "c", "f"),
            K.kapp("f", 1, 0)),
        ["a", "b", "c", "f"]))
    ind = apply_many(code(K.IND), q1, q2)
    rfn = eval_kterm(lambda_abstract_many(pair(7, pair(4, 2)), ["u", "t"]))
    fact = fix_by_recursion_theorem(_factorial_transformer())
    return [
        (K.MULT_CODE, 3), (code(K.PAPP, [K.MULT_CODE, 4]), 5),
        (dbl, 7), (summ, enc_list([1, 2, 3])), (code(K.MU), eq3),
        (code(K.TRACE, [dbl]), 2), (K.CT_REALIZER, dbl), (fact, 4),
        (ind, pair(7, pair(3, 9))), (ind, pair(8, pair(pair(2, 1), rfn))),
        (code(K.MU), code(K.K, [1])),                       # searches forever
        (code(K.S, [code(K.I), code(K.I)]),
         code(K.S, [code(K.I), code(K.I)])),                # omega
        (pair(999, 0), 0), (pair(K.I, enc_list([1, 2])), 0),   # by fiat
    ]


def _counted_term(t, fuel, env=None):
    budget = K.Budget(fuel)
    try:
        return eval_kterm(t, env, budget), budget.steps
    except Diverged:
        return None, budget.steps


def _ref_counted_term(t, fuel):
    machine = _RefMachine(fuel)
    try:
        return machine.eval(t), machine.budget.steps
    except Diverged:
        return None, machine.budget.steps


def test_machine_matches_reference():
    rng = random.Random(4242)
    pool = _leaf_pool(rng)
    programs = _fixed_programs()
    for _ in range(1500):
        names = rng.choice([["x"], ["y", "x"], ["x", "y"]])
        t = _gen_program(rng, pool, rng.randrange(1, 5), names)
        # building the program is itself a machine run
        built = _ref_counted_term(_ref_abstract_many(t, names), 2000)
        ours = _counted_term(lambda_abstract_many(t, names), 2000)
        assert ours == built, t
        if built[0] is not None:
            programs.append((built[0], rng.randrange(6)))
    ran, partial = set(), 0
    for e, n in programs:
        machine = _RefMachine(3000)
        want = _ref_run(e, n, 3000, machine)
        ran |= machine.ran
        partial += machine.partial
        assert _run(e, n, 3000) == want, (e, n)
        result, left = want
        if result is not None:
            # the same run halts exactly at its step count, not one below
            steps = 3000 - left
            assert apply_counted(e, n, 3000) == (result, steps)
            assert _run(e, n, steps) == (result, 0)
            assert _run(e, n, steps - 1) == (None, 0)
            assert _ref_run(e, n, steps - 1) == (None, 0)
    assert ran == set(K.ARITY)             # every instruction executed
    assert partial > 1000


def test_environment_matches_substitution():
    """A free variable is read from eval_kterm's env when the run reaches it:
    the same result, or divergence, with the same steps left as running the
    term with each variable substituted by its value."""
    rng = random.Random(2718)
    pool = _leaf_pool(rng)
    halted = 0
    for _ in range(1500):
        names = ["x", "y", "z"][:rng.randrange(1, 4)]
        t = _gen_program(rng, pool, rng.randrange(1, 6), names)
        env = {x: rng.choice(pool) for x in names}
        closed = t
        for x, v in env.items():
            closed = ksubst(closed, x, v)
        fuel = rng.choice([5, 50, 2000])
        got = _counted_term(t, fuel, env)
        assert got == _counted_term(closed, fuel), t
        if got[0] is not None and K.kvars(t):
            # a run that halts reaches every leaf, so it reaches a dropped one
            halted += 1
            dropped = rng.choice(sorted(K.kvars(t)))
            with pytest.raises(ValueError, match="unbound applicative variable"):
                eval_kterm(t, {x: v for x, v in env.items() if x != dropped}, fuel)
    assert halted > 100
    with pytest.raises(ValueError, match="unbound applicative variable 'w'"):
        eval_kterm(kapp(code(K.SUCC), "w"))


def _searches_over_partial_applications():
    """{MU}(f) for f every instruction with 0 to arity - 2 arguments collected:
    {f}(m) is then a code, never 0, so the search never halts.  Each search is
    also run nested under TRACE, PAPP and S, as (program, argument) pairs."""
    for tag, arity in K.ARITY.items():
        for n_args in range(arity - 1):
            f = code(tag, [tag + j for j in range(n_args)])
            yield code(K.MU), f
            yield code(K.TRACE, [code(K.MU)]), f
            yield code(K.PAPP, [code(K.MU), f]), 0
            yield code(K.S, [code(K.K, [code(K.MU)]), code(K.K, [f])]), 0


def test_divergent_searches_leave_the_reference_budget():
    runs = list(_searches_over_partial_applications())
    assert len(runs) == 4 * 19
    for e, n in runs:
        for fuel in (-1, 0, 1, 2, 3, 2000, 2001):
            got = _run(e, n, fuel)
            assert got == _ref_run(e, n, fuel), (e, n, fuel)
            assert got == (None, min(fuel, 0))


class _CountingBudget(K.Budget):
    __slots__ = ("ticks",)

    def __init__(self, steps):
        super().__init__(steps)
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        super().tick()


def test_divergent_search_drains_without_ticking():
    # a search over a partial application is closed in O(1), not run
    budget = _CountingBudget(10 ** 6)
    with pytest.raises(Diverged):
        apply(code(K.MU), code(K.K), budget)
    assert budget.steps == 0 and budget.ticks <= 3
    # a saturated application still runs: K 1 is 1 everywhere, tick by tick
    budget = _CountingBudget(10 ** 4)
    with pytest.raises(Diverged):
        apply(code(K.MU), code(K.K, [1]), budget)
    assert budget.steps == 0 and budget.ticks == 10 ** 4 + 1


def test_unpair_matches_reference():
    for r in range(1 << 16):
        assert unpair(r) == _ref_unpair(r)
    rng = random.Random(99)
    for _ in range(10_000):
        r = rng.getrandbits(rng.randrange(1, 5000))
        assert unpair(r) == _ref_unpair(r)


def test_lambda_abstract_matches_reference():
    rng = random.Random(31)
    pool = [0, 7, code(K.SUCC), "w"]
    for _ in range(2000):
        t = _gen_program(rng, pool, rng.randrange(0, 7), ["x", "y", "z"])
        for x in ("x", "y", "q"):
            assert lambda_abstract(t, x) == _ref_abstract(t, x)
        assert (lambda_abstract_many(t, ["x", "y", "z"])
                == _ref_abstract_many(t, ["x", "y", "z"]))
