"""Judgment checker: weak-head normalization, typing, and equality.

The checker is sound for the declarative theory and deliberately incomplete:

- algorithmic term equality reduces at the head only and compares binder
  bodies up to alpha.  In particular the xi rule (congruence of lambda under
  an open equation) is not admitted; the replacement rule is what the
  equality recursion implements at non-binding positions.
- eliminator motives are not part of the term syntax; the checker synthesizes
  them by abstracting the goal type over the scrutinee: Id-E abstracts both
  endpoints and the proof, and ind-cov the covered element and the proof.
  Eliminators whose scrutinee has no inferable type are rejected.

Rejections carry the name of the rule whose premise failed.
"""

from __future__ import annotations

from contextlib import contextmanager

from .kleene import DEFAULT_FUEL, Budget, Diverged
# field signatures drive the congruence recursion and the decoding of T(code)
from .syntax import _HINTS, _SIG, _TYPE_PARTS
from .syntax import (
    Ap, BVar, Context, Cons, CovHat, EmptyRec, FVar, IdHat, IdPeel, Ind, Inl,
    Inr, Judgment, Lam, ListHat, ListRec, N0Hat, N1Hat, NatRec, NHat, Nil,
    Pair, PiHat, PlusHat, PreTerm, Record, Refl, Rf, SigmaHat, Split, Star,
    Succ, TDec, TId, TList, TN, TN0, TN1, TPi, TSigma, TSum, TU0, Tr, TypeEq,
    TypeWF, TermEq, TermOf, UnitRec, When, Zero, _records, abstract_out,
    alpha_eq, arrow, fresh_name, instantiate, pi_, substitute, to_src,
)

Whnf = PreTerm


class CheckFailure(Exception):
    def __init__(self, rule: str, msg: str):
        super().__init__(f"[{rule}] {msg}")
        self.rule = rule
        self.msg = msg


class CheckResult(Record):
    __slots__ = ("accepted", "rule", "reason")     # a bool, then str or None
    _defaults = (None, None)


_records(CheckResult)


@contextmanager
def _premise(rule: str, what: str):
    """Attribute a failing premise to the rule being applied."""
    try:
        yield
    except CheckFailure as e:
        raise CheckFailure(rule, f"{what}: {e.msg}") from None


def _premise_check(rule: str, label: str, ctx: Context, t: PreTerm, goal: PreTerm,
                   budget: Budget, binders: tuple = ()) -> None:
    """One premise of rule: t, under the (name, type) binders in order, checks
    against goal; a failure is reported as rule: label."""
    if binders:
        xs = []
        for x, ty in binders:
            ctx = ctx.extend(x, ty)
            xs.append(FVar(x))
        t = instantiate(t, tuple(xs))
    try:                        # not _premise: its generator costs on every premise
        _check(ctx, t, goal, budget)
    except CheckFailure as e:
        raise CheckFailure(rule, f"{label}: {e.msg}") from None


# ---------------------------------------------------------------------------
# Weak-head normalization
# ---------------------------------------------------------------------------

_ELIM_SCRUT = {
    Ap: "fn", NatRec: "scrut", UnitRec: "scrut", Split: "scrut",
    When: "scrut", ListRec: "scrut", IdPeel: "scrut", Ind: "scrut",
}


def _contract(frame: PreTerm, head: PreTerm) -> PreTerm | None:
    """One computation step for an eliminator frame over a canonical head."""
    match frame, head:
        case Ap(), Lam(body):
            return instantiate(body, (frame.arg,))
        case NatRec(), Zero():
            return frame.base
        case NatRec(), Succ(n):
            prev = NatRec(n, frame.base, frame.step, frame.step_hints)
            return instantiate(frame.step, (n, prev))
        case UnitRec(), Star():
            return frame.base
        case Split(), Pair(a, b):
            return instantiate(frame.body, (a, b))
        case When(), Inl(a):
            return instantiate(frame.left, (a,))
        case When(), Inr(b):
            return instantiate(frame.right, (b,))
        case ListRec(), Nil():
            return frame.base
        case ListRec(), Cons(init, last):
            prev = ListRec(init, frame.base, frame.step, frame.step_hints)
            return instantiate(frame.step, (init, last, prev))
        case IdPeel(), Refl(a):
            return instantiate(frame.body, (a,))
        case Ind(), Rf(a, r):
            return instantiate(frame.base, (a, r))
        case Ind(), Tr(a, j, r):
            # q2(a, j, r, lam z . lam u . ind(Ap(Ap(r, z), u); q1; q2))
            inner = Ind(Ap(Ap(r, BVar(1)), BVar(0)), frame.base, frame.step,
                        frame.base_hints, frame.step_hints)
            fn = Lam(Lam(inner, "u"), "z")
            return instantiate(frame.step, (a, j, r, fn))
    return None


def whnf(t: PreTerm, fuel: int = DEFAULT_FUEL) -> Whnf:
    """Leftmost-outermost weak-head normal form; raises Diverged."""
    return _whnf(t, Budget(fuel))


def _unwind(t: PreTerm) -> tuple[list[PreTerm], PreTerm]:
    """t's eliminator frames, outermost first, and the head under them."""
    frames = []
    while type(t) in _ELIM_SCRUT:
        frames.append(t)
        t = getattr(t, _ELIM_SCRUT[type(t)])
    return frames, t


def _rewind(frames: list[PreTerm], head: PreTerm) -> PreTerm:
    for frame in reversed(frames):
        head = frame.replace(**{_ELIM_SCRUT[type(frame)]: head})
    return head


def _whnf(t: PreTerm, budget: Budget) -> PreTerm:
    if type(t) not in _ELIM_SCRUT:
        return t
    spine, head = _unwind(t)
    while spine:
        contracted = _contract(spine[-1], head)
        if contracted is None:
            return _rewind(spine, head)
        budget.tick()
        spine.pop()
        frames, head = _unwind(contracted)
        spine += frames
    return head


def whnf_step(t: PreTerm) -> PreTerm | None:
    """One leftmost-outermost head step, or None when t's head is stuck.
    Only the innermost frame can contract: outer scrutinees are eliminators."""
    spine, head = _unwind(t)
    contracted = _contract(spine.pop(), head) if spine else None
    return None if contracted is None else _rewind(spine, contracted)


# code former -> the type former T(code) decodes to, part for part
_DECODE = {N0Hat: TN0, N1Hat: TN1, NHat: TN, SigmaHat: TSigma, PiHat: TPi,
           PlusHat: TSum, ListHat: TList, IdHat: TId}


def whnf_type(a: PreTerm, budget: Budget) -> PreTerm:
    """Head normal form of a pretype; decodes T(code) one former at a time.
    A code part c becomes the type part T(c), or T(Ap(c, x)) under a binder;
    a term part is kept."""
    if not isinstance(a, TDec):
        return a
    code = _whnf(a.code, budget)
    cls = _DECODE.get(type(code))
    if cls is None:
        # CovHat is a canonical type head; anything else is stuck.
        return TDec(code)
    parts = []
    sig = zip(_SIG[type(code)], _SIG[cls], _TYPE_PARTS[cls])
    for (name, _), (_, arity), is_type in sig:
        part = getattr(code, name)
        parts.append(TDec(Ap(part, BVar(0)) if arity else part) if is_type else part)
    return cls(*parts)


# ---------------------------------------------------------------------------
# Algorithmic equality
# ---------------------------------------------------------------------------

def _eq_type(ctx: Context, a: PreTerm, b: PreTerm, budget: Budget) -> None:
    """Congruence over the parts of the head pretypes, as _eq_term_in: a type
    part compares here, under a binder with one fresh variable, and a term
    part compares with _eq_term_in."""
    wa = whnf_type(a, budget)
    wb = whnf_type(b, budget)
    cls = type(wa)
    if cls is not type(wb):
        raise CheckFailure("eq-type", f"{to_src(wa)} and {to_src(wb)} differ")
    hints = iter(_HINTS[cls])
    for (name, arity), is_type in zip(_SIG[cls], _TYPE_PARTS[cls]):
        pa, pb = getattr(wa, name), getattr(wb, name)
        if arity:
            x = FVar(fresh_name(getattr(wa, next(hints))))
            pa, pb = instantiate(pa, (x,)), instantiate(pb, (x,))
        (_eq_type if is_type else _eq_term_in)(ctx, pa, pb, budget)


def _eq_term_in(ctx: Context, a: PreTerm, b: PreTerm, budget: Budget) -> None:
    wa, wb = _whnf(a, budget), _whnf(b, budget)
    while isinstance(wa, Succ) and isinstance(wb, Succ):   # a numeral, in a loop
        wa, wb = _whnf(wa.arg, budget), _whnf(wb.arg, budget)
    if type(wa) is not type(wb):
        raise CheckFailure("eq-term", f"{to_src(wa)} and {to_src(wb)} differ")
    if isinstance(wa, FVar):
        if wa.name != wb.name:
            used = {wa.name, wb.name}
            raise CheckFailure("eq-term", f"variables {to_src(wa, used)} and "
                               f"{to_src(wb, used)} differ")
        return
    if isinstance(wa, BVar):
        if wa.k != wb.k:
            raise CheckFailure("eq-term", "bound variables differ")
        return
    for field, arity in _SIG[type(wa)]:
        fa, fb = getattr(wa, field), getattr(wb, field)
        if arity == 0:
            _eq_term_in(ctx, fa, fb, budget)
        elif not alpha_eq(fa, fb):
            # binder bodies compare up to alpha only; no reduction under binders
            if isinstance(wa, Lam):
                raise CheckFailure(
                    "xi", "lambda bodies are not alpha-equal "
                          "(the xi rule is not admitted)")
            raise CheckFailure(
                "eq-term", f"binder bodies at {type(wa).__name__}.{field} "
                           f"are not alpha-equal")


def _run(rule, fuel: int, *args) -> CheckResult:
    """Run one judgment rule on a fresh budget and report its verdict."""
    try:
        rule(*args, Budget(fuel))
        return CheckResult(True)
    except CheckFailure as e:
        return CheckResult(False, e.rule, e.msg)
    except Diverged:
        return CheckResult(False, "fuel", "weak-head step limit reached")


def check_eq_type(ctx: Context, a: PreTerm, b: PreTerm,
                  fuel: int = DEFAULT_FUEL) -> CheckResult:
    return _run(_eq_type, fuel, ctx, a, b)


def check_eq_term(ctx: Context, a: PreTerm, b: PreTerm, ty: PreTerm,
                  fuel: int = DEFAULT_FUEL) -> CheckResult:
    """Both terms are assumed to check against ty (the caller's obligation)."""
    return _run(_eq_term_in, fuel, ctx, a, b)


# ---------------------------------------------------------------------------
# Type formation
# ---------------------------------------------------------------------------

# former -> its rule and one premise label per part.  A code former has the
# parts of the pretype it decodes to (_DECODE) and premises read off them.
_FORMATION = {
    TSigma: ("Sigma-F", "domain", "codomain"), TPi: ("Pi-F", "domain", "codomain"),
    TSum: ("Sum-F", "component", "component"), TList: ("List-F", "element type"),
    TId: ("Id-F", "underlying type", "endpoint", "endpoint"),
    TDec: ("T-F", "code is not an element of U0"),
    SigmaHat: ("Sigma-hat", "base code", "family"),
    PiHat: ("Pi-hat", "base code", "family"),
    PlusHat: ("plus-hat", "summand code", "summand code"),
    ListHat: ("list-hat", "element code"),
    IdHat: ("id-hat", "base code", "endpoint", "endpoint"),
}


def _wf_type(ctx: Context, a: PreTerm, budget: Budget) -> None:
    """A type part must be a type, a binder part a type under a fresh variable
    of the first part, and a term part a term of the first part (of U0 in T)."""
    cls = type(a)
    if cls not in _TYPE_PARTS:
        raise CheckFailure("type", f"{to_src(a)} is not a pretype")
    rule, *labels = _FORMATION.get(cls, ("",))
    hints = iter(_HINTS[cls])
    parts = [getattr(a, name) for name, _ in _SIG[cls]]
    for part, (_, arity), is_type, label in zip(parts, _SIG[cls], _TYPE_PARTS[cls],
                                                labels):
        with _premise(rule, label):
            if arity:
                x = fresh_name(getattr(a, next(hints)))
                _wf_type(ctx.extend(x, parts[0]), instantiate(part, (FVar(x),)), budget)
            elif is_type:
                _wf_type(ctx, part, budget)
            else:
                _check(ctx, part, parts[0] if _TYPE_PARTS[cls][0] else TU0(), budget)


# ---------------------------------------------------------------------------
# Term checking and inference
# ---------------------------------------------------------------------------

def _infer(ctx: Context, t: PreTerm, budget: Budget) -> PreTerm:
    match t:
        case FVar(name):
            ty = ctx.lookup(name)
            if ty is None:
                raise CheckFailure("var", f"variable {name} is not in the context")
            return ty
        case Zero() | Succ():
            _check(ctx, t, TN(), budget)
            return TN()
        case Star():
            return TN1()
        case Ap(fn, arg):
            fty = whnf_type(_infer(ctx, fn, budget), budget)
            if not isinstance(fty, TPi):
                raise CheckFailure("Ap", f"applied term has type {to_src(fty)}, "
                                         f"which is not a Pi type")
            _premise_check("Ap", "argument", ctx, arg, fty.dom, budget)
            return instantiate(fty.cod, (arg,))
        case Refl(arg):
            return TId(_infer(ctx, arg, budget), arg, arg)
        case CovHat(s, i, c, a, v):
            # written out, as its binders are dependent: axcov(s, i, c), a, v
            _premise_check("F-cov", "carrier code s", ctx, s, TU0(), budget)
            x = fresh_name(t.idx_hint)
            _premise_check("F-cov", "index family i", ctx, i, TU0(), budget,
                           ((x, TDec(s)),))
            xc, y = map(fresh_name, t.cov_hints)
            _premise_check("F-cov", "covering family c", ctx, c, arrow(TDec(s), TU0()),
                           budget, ((xc, TDec(s)), (y, TDec(instantiate(i, (FVar(xc),))))))
            _premise_check("F-cov", "element a", ctx, a, TDec(s), budget)
            _premise_check("F-cov", "subset v", ctx, v, arrow(TDec(s), TU0()), budget)
            return TU0()
        case _ if type(t) in _DECODE:
            # the premises of the pretype t decodes to, one universe down: a
            # code for a type part, a family T(s) -> U0 for a binder part, and
            # a term of T(s) for a term part, where s is the first part
            rule, *labels = _FORMATION.get(type(t), ("",))
            parts = [getattr(t, name) for name, _ in _SIG[type(t)]]
            cls = _DECODE[type(t)]
            for part, (_, arity), is_type, label in zip(parts, _SIG[cls],
                                                        _TYPE_PARTS[cls], labels):
                _premise_check(rule, label, ctx, part, arrow(TDec(parts[0]), TU0()) if arity
                               else TU0() if is_type else TDec(parts[0]), budget)
            return TU0()
    raise CheckFailure("infer", f"no type can be inferred for {to_src(t)}")


def _cover_at(g: TDec, elem: PreTerm) -> TDec:
    cov = g.code
    assert isinstance(cov, CovHat)
    return TDec(CovHat(cov.base, cov.idx, cov.cov, elem, cov.sub,
                       cov.idx_hint, cov.cov_hints))


def _covering_fn(g: TDec, c: PreTerm) -> TPi:
    """(Pi z : T(s)) (z eps c -> z cov v), for the cover type g = T(cov(s; ..; v))."""
    z = fresh_name("z")
    return pi_(z, TDec(g.code.base), arrow(TDec(Ap(c, FVar(z))), _cover_at(g, FVar(z))))


def _check(ctx: Context, t: PreTerm, goal: PreTerm, budget: Budget) -> None:
    g = whnf_type(goal, budget)
    match t:
        case Lam(body):
            if not isinstance(g, TPi):
                raise CheckFailure("Pi-I", f"lambda against {to_src(g)}")
            x = fresh_name(t.hint)
            _check(ctx.extend(x, g.dom), instantiate(body, (FVar(x),)),
                   instantiate(g.cod, (FVar(x),)), budget)
        case Pair(a, b):
            if not isinstance(g, TSigma):
                raise CheckFailure("Sigma-I", f"pair against {to_src(g)}")
            _premise_check("Sigma-I", "first component", ctx, a, g.dom, budget)
            _premise_check("Sigma-I", "second component", ctx, b,
                           instantiate(g.cod, (a,)), budget)
        case Inl(a) | Inr(a):
            if not isinstance(g, TSum):
                raise CheckFailure("Sum-I", f"injection against {to_src(g)}")
            _premise_check("Sum-I", "injected term", ctx, a,
                           g.left if isinstance(t, Inl) else g.right, budget)
        case Nil():
            if not isinstance(g, TList):
                raise CheckFailure("List-I", f"nil against {to_src(g)}")
        case Cons(init, last):
            if not isinstance(g, TList):
                raise CheckFailure("List-I", f"cons against {to_src(g)}")
            _premise_check("List-I", "list part", ctx, init, g, budget)
            _premise_check("List-I", "element part", ctx, last, g.elem, budget)
        case Zero() | Succ():
            if not isinstance(g, TN):
                raise CheckFailure("N-I", f"numeral against {to_src(g)}")
            n = 0
            while isinstance(t, Succ):       # a numeral is peeled in a loop
                n, t = n + 1, t.arg
            if n:
                _premise_check("N-I", ": ".join(["argument of succ"] * n), ctx, t, TN(),
                               budget)
        case Star():
            if not isinstance(g, TN1):
                raise CheckFailure("N1-I", f"star against {to_src(g)}")
        case Refl(a):
            if not isinstance(g, TId):
                raise CheckFailure("Id-I", f"refl against {to_src(g)}")
            _premise_check("Id-I", "reflected term", ctx, a, g.ty, budget)
            with _premise("Id-I", "equation"):
                _eq_term_in(ctx, a, g.lhs, budget)
                _eq_term_in(ctx, a, g.rhs, budget)
        case Rf(a) | Tr(a):
            kw, rule = ("rf", "rf-cov") if isinstance(t, Rf) else ("tr", "tr-cov")
            cov = g.code if isinstance(g, TDec) else None
            if not isinstance(cov, CovHat):
                raise CheckFailure(rule, f"{kw} against {to_src(g)}")
            _premise_check(rule, "element a", ctx, a, TDec(cov.base), budget)
            with _premise(rule, "a is not the covered element"):
                _eq_term_in(ctx, a, cov.elem, budget)
            if isinstance(t, Rf):
                _premise_check(rule, "r does not check against a eps v", ctx, t.mem,
                               TDec(Ap(cov.sub, a)), budget)
                return
            _premise_check(rule, "index j", ctx, t.idx, TDec(instantiate(cov.idx, (a,))),
                           budget)
            _premise_check(rule, "r does not check against "
                                 "(Pi z : T(s)) (z eps c(a,j) -> z cov v)", ctx, t.fn,
                           _covering_fn(g, instantiate(cov.cov, (a, t.idx))), budget)
        case NatRec() | UnitRec() | EmptyRec() | Split() | When() | ListRec() \
                | IdPeel() | Ind():
            _check_elim(ctx, t, goal, budget)
        case _:
            inferred = _infer(ctx, t, budget)
            with _premise("conv", "inferred type does not match the goal"):
                _eq_type(ctx, inferred, goal, budget)


def _motive(ctx: Context, rule: str, goal: PreTerm, binders: tuple,
            budget: Budget) -> PreTerm:
    """The goal with each (name, subterm, type) binder's subterm abstracted out
    as that name, the last binder first, checked to be a type under them all."""
    for x, sub, _ in reversed(binders):
        goal = abstract_out(goal, sub, x)
    for x, _, ty in binders:
        ctx = ctx.extend(x, ty)
    with _premise(rule, "motive"):
        _wf_type(ctx, goal, budget)
    return goal


def _check_elim(ctx: Context, t: PreTerm, goal: PreTerm, budget: Budget) -> None:
    match t:
        case NatRec(n, z, s):
            _premise_check("N-E", "scrutinee", ctx, n, TN(), budget)
            x = fresh_name("x")
            p = _motive(ctx, "N-E", goal, ((x, n, TN()),), budget)
            _premise_check("N-E", "base case", ctx, z, substitute(p, x, Zero()), budget)
            k, r = map(fresh_name, t.step_hints)
            _premise_check("N-E", "step case", ctx, s, substitute(p, x, Succ(FVar(k))),
                           budget, ((k, TN()), (r, substitute(p, x, FVar(k)))))
        case UnitRec(c, d):
            _premise_check("N1-E", "scrutinee", ctx, c, TN1(), budget)
            x = fresh_name("x")
            p = _motive(ctx, "N1-E", goal, ((x, c, TN1()),), budget)
            _premise_check("N1-E", "base case", ctx, d, substitute(p, x, Star()), budget)
        case EmptyRec(c):
            _premise_check("N0-E", "scrutinee", ctx, c, TN0(), budget)
        case Split(c, d):
            tc = _infer_scrut(ctx, c, "Sigma-E", budget, TSigma)
            z = fresh_name("z")
            p = _motive(ctx, "Sigma-E", goal, ((z, c, tc),), budget)
            a, b = map(fresh_name, t.body_hints)
            _premise_check("Sigma-E", "branch", ctx, d,
                           substitute(p, z, Pair(FVar(a), FVar(b))), budget,
                           ((a, tc.dom), (b, instantiate(tc.cod, (FVar(a),)))))
        case When(c, l, r):
            tc = _infer_scrut(ctx, c, "Sum-E", budget, TSum)
            z = fresh_name("z")
            p = _motive(ctx, "Sum-E", goal, ((z, c, tc),), budget)
            a = fresh_name(t.left_hint)
            _premise_check("Sum-E", "left branch", ctx, l, substitute(p, z, Inl(FVar(a))),
                           budget, ((a, tc.left),))
            b = fresh_name(t.right_hint)
            _premise_check("Sum-E", "right branch", ctx, r, substitute(p, z, Inr(FVar(b))),
                           budget, ((b, tc.right),))
        case ListRec(c, d, e):
            tc = _infer_scrut(ctx, c, "List-E", budget, TList)
            z = fresh_name("z")
            p = _motive(ctx, "List-E", goal, ((z, c, tc),), budget)
            _premise_check("List-E", "nil case", ctx, d, substitute(p, z, Nil()), budget)
            tl, hd, pr = map(fresh_name, t.step_hints)
            _premise_check("List-E", "cons case", ctx, e,
                           substitute(p, z, Cons(FVar(tl), FVar(hd))), budget,
                           ((tl, tc), (hd, tc.elem), (pr, substitute(p, z, FVar(tl)))))
        case IdPeel(c, d):
            tc = _infer_scrut(ctx, c, "Id-E", budget, TId)
            u, y, x = fresh_name("u"), fresh_name("y"), fresh_name("x")
            p = _motive(ctx, "Id-E", goal, ((x, tc.lhs, tc.ty), (y, tc.rhs, tc.ty),
                                            (u, c, TId(tc.ty, FVar(x), FVar(y)))), budget)
            xd = fresh_name(t.body_hint)
            _premise_check("Id-E", "branch", ctx, d,
                           substitute(substitute(substitute(p, x, FVar(xd)), y, FVar(xd)),
                                      u, Refl(FVar(xd))), budget, ((xd, tc.ty),))
        case Ind(m, q1, q2):
            tm = _infer_scrut(ctx, m, "ind-cov", budget)
            cov = tm.code if isinstance(tm, TDec) else None
            if not isinstance(cov, CovHat):
                raise CheckFailure("ind-cov",
                                   f"scrutinee has type {to_src(tm)}, "
                                   f"which is not a cover")
            ts = TDec(cov.base)
            u, x = fresh_name("u"), fresh_name("x")
            p = _motive(ctx, "ind-cov", goal,
                        ((x, cov.elem, ts), (u, m, _cover_at(tm, FVar(x)))), budget)
            xq, w = map(fresh_name, t.base_hints)
            _premise_check("ind-cov", "rf branch q1", ctx, q1,
                           substitute(substitute(p, x, FVar(xq)), u, Rf(FVar(xq), FVar(w))),
                           budget, ((xq, ts), (w, TDec(Ap(cov.sub, FVar(xq))))))
            x2, h, k, f = map(fresh_name, t.step_hints)
            c_at = instantiate(cov.cov, (FVar(x2), FVar(h)))
            z, uu = fresh_name("z"), fresh_name("u")
            f_ty = pi_(z, ts, pi_(uu, TDec(Ap(c_at, FVar(z))), substitute(
                substitute(p, x, FVar(z)), u, Ap(Ap(FVar(k), FVar(z)), FVar(uu)))))
            _premise_check("ind-cov", "tr branch q2", ctx, q2,
                           substitute(substitute(p, x, FVar(x2)), u,
                                      Tr(FVar(x2), FVar(h), FVar(k))), budget,
                           ((x2, ts), (h, TDec(instantiate(cov.idx, (FVar(x2),)))),
                            (k, _covering_fn(tm, c_at)), (f, f_ty)))
        case _:
            raise AssertionError(type(t))


def _infer_scrut(ctx: Context, c: PreTerm, rule: str, budget: Budget,
                 former: type | None = None) -> PreTerm:
    """The head normal type of a scrutinee, which must have the given former."""
    try:
        tc = whnf_type(_infer(ctx, c, budget), budget)
    except CheckFailure as e:
        raise CheckFailure(rule, f"scrutinee type cannot be inferred: {e.msg}") \
            from None
    if former is not None and not isinstance(tc, former):
        raise CheckFailure(rule, f"scrutinee has type {to_src(tc)}")
    return tc


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def check_type(ctx: Context, a: PreTerm, fuel: int = DEFAULT_FUEL) -> CheckResult:
    return _run(_wf_type, fuel, ctx, a)


def check_term(ctx: Context, t: PreTerm, a: PreTerm,
               fuel: int = DEFAULT_FUEL) -> CheckResult:
    return _run(_check, fuel, ctx, t, a)


def check_context(ctx: Context, fuel: int = DEFAULT_FUEL) -> CheckResult:
    seen = Context()
    for name, ty in ctx.entries:
        r = check_type(seen, ty, fuel)
        if not r.accepted:
            return CheckResult(False, r.rule, f"context entry {name}: {r.reason}")
        seen = seen.extend(name, ty)
    return CheckResult(True)


def check_judgment(j: Judgment, fuel: int = DEFAULT_FUEL) -> CheckResult:
    """The context, then the judgment's types, then its own check; the first
    rejection is the verdict."""
    match j:
        case TypeWF(_, ty):
            types, own = (ty,), ()
        case TypeEq(ctx, a, b):
            types, own = (a, b), (_eq_type, ctx, a, b)
        case TermOf(ctx, t, ty):
            types, own = (ty,), (_check, ctx, t, ty)
        case TermEq(ctx, a, b, ty):
            # the equands' own typability is the file author's obligation
            types, own = (ty,), (_eq_term_in, ctx, a, b)
        case _:
            raise TypeError(f"not a judgment: {j!r}")
    r = check_context(j.ctx, fuel)
    for ty in types:
        r = check_type(j.ctx, ty, fuel) if r.accepted else r
    return _run(own[0], fuel, *own[1:]) if r.accepted and own else r
