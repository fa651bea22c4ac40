"""Realizability backend: terms to machine codes, types to classes of naturals.

Terms translate compositionally to applicative terms over the machine in
``kleene``; lambda goes through bracket abstraction, so the translation
commutes with substitution syntactically.  Types translate to predicates on
naturals; the universe is stage-indexed, with finite stages standing in for
the ordinals of the construction (every code built at desk scale has finite
rank, and persistence makes finite cofinal stages sufficient).

Answers are tri-valued: Yes and No are exact, Unknown records that a fuel
limit or a sampled infinite quantifier blocked an exact answer.  Whenever a
carrier is infinite, universally quantified conditions are checked on all
candidates below ``bound`` plus the documented sample points, and a passing
check is reported as Unknown(sampling), never Yes.
"""

from __future__ import annotations

from functools import lru_cache

from . import kleene as K
from .kleene import (
    DEFAULT_FUEL, TAG, Budget, Diverged, KTerm, dec_list, eval_kterm, kapp,
    kfresh, kop, lambda_abstract_many, pair, tagged, unpair, untagged,
)
from .syntax import (
    Ap, BVar, Cons, Context, CovHat, CtDirective, EmptyRec, FVar, IdHat,
    IdPeel, Ind, Inl, Inr, Judgment, Lam, ListHat, ListRec, N0Hat, N1Hat,
    NatRec, NHat, Nil, Pair, PiHat, PlusHat, PreTerm, Refl, Rf, SigmaHat,
    Split, Star, Succ, TDec, TId, TList, TN, TN0, TN1, TPi, TSigma, TSum,
    TU0, Tr, TypeEq, TypeWF, TermEq, TermOf, UnitRec, When, Zero, fresh_name,
    _SIG, Record, _records, to_src,
)

DEFAULT_STAGE = 8
DEFAULT_BOUND = 64
SAMPLE_POINTS = (100, 1000)     # extra probes beyond range(bound)
LIST_CAP = 64                   # list enumerations stop at this many codes
ENV_SAMPLES = 3                 # realizers tried per context entry
MAX_ENVS = 36                   # environments tried per judgment
COVER_DEPTH = 48                # proof depth of a demand-driven cover check
# candidate scans over non-enumerable carriers (Pi, U0) stop after this many
# hits; the results are marked inexact either way
SCAN_CAP = 8
# exact enumerations are kept whole up to this many members (or members_cap,
# if larger); past it they are truncated and marked inexact like any other
EXACT_CAP = 4 * DEFAULT_BOUND
# halted applications a Model keeps, and the largest result it keeps, in bits
_APPLY_CAP = 4096
_APPLY_BITS = 256


# ---------------------------------------------------------------------------
# Tri-valued answers
# ---------------------------------------------------------------------------

class Tri(Record):
    # kind is "yes" | "no" | "unknown"; staged marks a no that rests on a stage cut
    __slots__ = ("kind", "reason", "staged")
    _defaults = (None, False)

    def __bool__(self):
        raise TypeError("Tri is not a boolean; match on .kind")

    def __str__(self):
        return self.kind if self.kind != "unknown" else f"unknown({self.reason})"


_records(Tri)

YES = Tri("yes")
FUEL = Tri("unknown", "fuel")
CYCLE = Tri("unknown", "cycle")
SAMPLING = Tri("unknown", "sampling")
STAGE = Tri("unknown", "stage")


def no(reason: str) -> Tri:
    return Tri("no", reason)


def tri_all(parts) -> Tri:
    pending = None
    for p in parts:
        if p.kind == "no":
            return p
        if p.kind == "unknown" and pending is None:
            pending = p
    return YES if pending is None else pending


def sampled(parts: list[Tri], exact: bool) -> Tri:
    """Combine the parts of a quantifier checked on a sample.

    An inexact sample cannot make the answer yes; its unknown(sampling)
    comes last, so any earlier no or unknown is what gets reported.
    """
    if not exact:
        parts.append(SAMPLING)
    return tri_all(parts)


# ---------------------------------------------------------------------------
# Set codes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 12)     # the model decodes the same few codes often
def decode_set(n: int):
    """(kind, *parts) of a universe or proof code; None for a tag above 8
    and for a base code other than N0, N1 and N."""
    dec = untagged(n)
    return None if dec is None or dec[0] == "base" and dec[1] > 2 else dec


@lru_cache(maxsize=1 << 12)
def _code_view(n: int, k: int) -> tuple:
    """decode_set(n) read at stage k, for a code that is a set there: each
    part is a source one stage down, and the family e of a sigma or pi code
    is (e, k - 1), applied and then read one stage down."""
    kind, *parts = decode_set(n)
    if kind == "base":
        return kind, parts[0], "{} is not below " + str(parts[0])
    if kind == "id":
        return kind, (parts[0], k - 1), parts[1], parts[2]
    if kind == "cov":
        return kind, *parts, k - 1
    return kind, *[(p, k - 1) for p in parts]


def rf_code(z: int, r: int) -> int:
    return tagged("rf", z, r)


def tr_code(z: int, j: int, r: int) -> int:
    return tagged("tr", z, j, r)


def cov_code(a: int, v: int, s: int, i: int, c: int) -> int:
    return tagged("cov", a, v, s, i, c)


N0_CODE = tagged("base", 0)
N1_CODE = tagged("base", 1)
N_CODE = tagged("base", 2)
# the atomic pretypes' views; a base type's is (kind, j, why a non-member fails)
_ATOMIC_TYPES = {TN0: ("base", 0, "the empty type has no realizers"), TU0: ("U0",),
                 TN1: ("base", 1, "{} is not 0"), TN: ("base", 2, None)}


# ---------------------------------------------------------------------------
# Term interpretation
# ---------------------------------------------------------------------------

_CONSTANTS = {Zero: 0, Star: 0, Nil: 0, N0Hat: N0_CODE, N1Hat: N1_CODE,
              NHat: N_CODE}
# node class -> (instruction, the parts it takes in order)
_MACHINE = {
    NatRec: (K.REC, (1, 2, 0)), UnitRec: (K.K, (1, 0)), EmptyRec: (K.I, (0,)),
    Pair: (K.PAIR, (0, 1)), Cons: (K.SNOC, (0, 1)), ListRec: (K.LREC, (1, 2, 0)),
    Ind: (K.IND, (1, 2, 0)),
}
# node class -> (tag, the parts in tuple order): the code is pair(tag, tuple);
# the universe and proof codes take their tags from kleene.LAYOUT, and the
# injections share their shape under tags 0 and 1
_CODED = {Inl: (0, (0,)), Inr: (1, (0,)), CovHat: (TAG["cov"], (3, 4, 0, 1, 2)),
          **{cls: (TAG[kind], range(len(_SIG[cls]))) for cls, kind in (
              (SigmaHat, "sigma"), (PiHat, "pi"), (PlusHat, "plus"),
              (ListHat, "list"), (IdHat, "id"), (Rf, "rf"), (Tr, "tr"))}}
_TERMS = {*_MACHINE, *_CODED, Lam, Refl, Ap, IdPeel, Split, When}


def _parts(t: PreTerm, names: tuple[str, ...]) -> list[KTerm]:
    """The interpreted fields of t; a binder field is abstracted over new names."""
    out = []
    for name, arity in _SIG[type(t)]:
        part = getattr(t, name)
        if not arity:
            out.append(interpret_term(part, names))
        else:
            xs = [fresh_name() for _ in range(arity)]
            out.append(lambda_abstract_many(interpret_term(part, (*names, *xs)), xs))
    return out


def interpret_term(t: PreTerm, names: tuple[str, ...] = ()) -> KTerm:
    """Translate a preterm to an applicative term; free variables pass through.
    BVar(k) is the variable names[-1 - k], the binder names outermost first."""
    cls = type(t)
    if cls in _CONSTANTS:
        return _CONSTANTS[cls]
    if cls is FVar:
        return t.name
    if cls is Succ:                     # numerals nest deeply: loop, don't recurse
        depth = 0
        while type(t) is Succ:
            t, depth = t.arg, depth + 1
        kt = interpret_term(t, names)
        for _ in range(depth):
            kt = kop(K.SUCC, kt)
        return kt
    if cls is BVar:
        if t.k < len(names):
            return names[-1 - t.k]
        raise ValueError("cannot interpret a dangling bound variable")
    if cls not in _TERMS:
        raise ValueError(f"not a term: {to_src(t)}")
    p = _parts(t, names)
    if cls in _MACHINE:
        op, order = _MACHINE[cls]
        return kop(op, *[p[i] for i in order])
    if cls in _CODED:
        tag, order = _CODED[cls]
        payload = p[order[0]]
        for i in order[1:]:
            payload = kop(K.PAIR, payload, p[i])
        return kop(K.PAIR, tag, payload)
    if cls is Ap:
        return kapp(*p)
    if cls is IdPeel:
        return kapp(p[1], p[0])
    if cls is Split:
        return kapp(p[1], kop(K.P0, p[0]), kop(K.P1, p[0]))
    if cls is When:
        return kapp(kop(K.IFZ, kop(K.P0, p[0]), p[1], p[2]), kop(K.P1, p[0]))
    return p[0]                         # Lam and Refl


class Open:
    """A compiled application: its KTerm and free variables.  It hashes by
    identity, so a memo key holding it is cheap and keeps it alive."""
    __slots__ = ("kt", "names")

    def __init__(self, kt: tuple):
        self.kt, self.names = kt, K.kvars(kt)


def _compile_term(t: PreTerm, names: tuple[str, ...]) -> KTerm | Open:
    """An Id endpoint or T code; only an application takes steps to run."""
    kt = interpret_term(t, names)
    return Open(kt) if type(kt) is tuple else kt


def compile_type(ty: PreTerm, names: tuple[str, ...] = ()) -> tuple:
    """The pretype as the tree Model._view reads, made once per judgment: a
    sigma or pi is (kind, dom, cod, y), an Id endpoint or T code compiled."""
    cls = type(ty)
    if cls is TSigma or cls is TPi:
        y = fresh_name(ty.hint)
        return ("sigma" if cls is TSigma else "pi", compile_type(ty.dom, names),
                compile_type(ty.cod, (*names, y)), y)
    if cls is TSum:
        return "plus", compile_type(ty.left, names), compile_type(ty.right, names)
    if cls is TList:
        return "list", compile_type(ty.elem, names)
    if cls is TId:
        return ("Id", compile_type(ty.ty, names), _compile_term(ty.lhs, names),
                _compile_term(ty.rhs, names))
    if cls is TDec:
        return "T", _compile_term(ty.code, names)
    if cls in _ATOMIC_TYPES:
        return _ATOMIC_TYPES[cls]
    raise ValueError(f"not a pretype: {to_src(ty)}")


# ---------------------------------------------------------------------------
# The stage-indexed model
# ---------------------------------------------------------------------------

class Model:
    """Stage-indexed universe with shared fuel and memoized queries."""

    def __init__(self, stage: int = DEFAULT_STAGE, fuel: int = DEFAULT_FUEL,
                 bound: int = DEFAULT_BOUND):
        self.stage = stage
        self.budget = Budget(fuel)
        self.bound = bound
        # inexact enumerations are truncated here; exact ones at EXACT_CAP
        self.members_cap = 4 * bound
        self._set_memo: dict = {}
        self._mem_memo: dict = {}
        self._members_memo: dict = {}
        self._cover_memo: dict = {}
        self._apply_memo: dict = {}     # (e, *args) -> (result, steps)
        self._open_memo: dict = {}      # (Open, *its values) -> (result, steps)
        self._table_memo: dict = {}     # sorted table items -> (code, steps)

    # -- machine helpers ----------------------------------------------------

    def _run(self, memo: dict, key: tuple, run, args: tuple) -> int | None:
        """run(*args) on the budget, or None when it runs out.  A run this
        Model made before under key is charged its exact step count instead."""
        budget = self.budget
        try:
            hit = memo.get(key)
            if hit is not None:
                budget.charge(hit[1])
                return hit[0]
            before = budget.steps
            r = run(*args, budget=budget)
        except Diverged:
            return None
        if len(memo) < _APPLY_CAP and r.bit_length() <= _APPLY_BITS:
            memo[key] = (r, before - budget.steps)
        return r

    def apply(self, e: int, *args: int) -> int | None:
        """{e}(args), or None when the budget runs out.  Leading steps that
        e's decoding fixes are charged, not run: a K a head takes an argument
        to a in one tick, and a code that decodes to nothing diverges on its
        tick.  What is left runs once per key."""
        n = 0
        try:
            while n < len(args):
                dec = K._decoded(e)
                if dec is None:
                    self.budget.charge(n + 1)
                    return None
                if dec[0] != K.K or not dec[1]:
                    break
                e = dec[1][0]
                n += 1
            if n:
                self.budget.charge(n)
        except Diverged:
            return None
        if n == len(args):
            return e
        key = (e, *args[n:])
        return self._run(self._apply_memo, key, K.apply_many, key)

    def value(self, kt: KTerm | Open, env: dict[str, int]) -> int | None:
        """kt in env, or None when the budget runs out.  An Open runs once per
        values of its variables, which alone fix its value and steps; an
        unbound one keys as None, and its run fails before it can be kept."""
        if type(kt) is Open:
            key = (kt, *map(env.get, kt.names))
            return self._run(self._open_memo, key, eval_kterm, (kt.kt, env))
        try:
            return eval_kterm(kt, env, self.budget)
        except Diverged:
            return None

    def nat_candidates(self) -> list[int]:
        return list(range(self.bound)) + [s for s in SAMPLE_POINTS
                                          if s >= self.bound]

    def _memo(self, memo: dict, compute, key: tuple, pending=None):
        """compute(self, *key), run once per key; no answer is None.  A query
        that can reach its own key stores pending first, for that inner call."""
        r = memo.get(key)
        if r is None:
            if pending is not None:
                memo[key] = pending
            memo[key] = r = compute(self, *key)
        return r

    # -- Set_k --------------------------------------------------------------

    def set_at(self, n: int, k: int) -> Tri:
        return self._memo(self._set_memo, Model._set_at, (n, k))

    def _fam(self, e: int, kc: int, k: int) -> Tri:
        """Fam_k(e, kc): kc is a set and {e}(m) is a set for every member m."""
        parts = [self.set_at(kc, k)]
        if parts[0].kind == "no":
            return parts[0]
        ms, exact = self.members(kc, k)
        for m in ms:
            em = self.apply(e, m)
            if em is None:
                parts.append(FUEL)
                continue
            parts.append(self.set_at(em, k))
        return sampled(parts, exact)

    def _set_at(self, n: int, k: int) -> Tri:
        dec = decode_set(n)
        if dec is None:
            return no(f"{n} is not a set code")
        kind = dec[0]
        if kind == "base":
            return YES
        if kind in ("rf", "tr"):
            return no("proof codes are not set codes")
        if k <= 0:
            return Tri("no", f"{kind} codes require a positive stage", True)
        if kind in ("sigma", "pi"):
            _, kc, e = dec
            return self._fam(e, kc, k - 1)
        if kind == "plus":
            _, a, b = dec
            return tri_all([self.set_at(a, k - 1), self.set_at(b, k - 1)])
        if kind in ("list", "id"):          # the element set or the carrier
            return self.set_at(dec[1], k - 1)
        assert kind == "cov"
        return self._star_conditions(*dec[1:], k - 1)

    def _star_conditions(self, a, v, s, i, c, k: int) -> Tri:
        parts = [self.set_at(s, k)]
        if parts[0].kind == "no":
            return parts[0]
        parts.append(self.mem_at(a, s, k))
        parts.append(self._fam(v, s, k))
        parts.append(self._fam(i, s, k))
        xs, exact = self.members(s, k)
        for x in xs:
            ix = self.apply(i, x)
            if ix is None:
                parts.append(FUEL)
                continue
            ys, exact_y = self.members(ix, k)
            if not exact_y:
                exact = False
            for y in ys:
                cxy = self.apply(c, x, y)
                if cxy is None:
                    parts.append(FUEL)
                    continue
                parts.append(self._fam(cxy, s, k))
        return sampled(parts, exact)

    # -- membership ----------------------------------------------------------
    # A source is a set code at a stage, (n, k), or a compiled pretype in an
    # environment, (compile_type(ty), env); _view reads both for one set of clauses.

    def contains(self, src, x: int) -> Tri:
        """Whether x realizes the source."""
        return self.mem_at(x, *src) if type(src[0]) is int else self._holds(src, x)

    def elements(self, src) -> tuple[list[int], bool]:
        """Realizers of the source; the flag reports exhaustiveness."""
        return self.members(*src) if type(src[0]) is int else self._enum(src)

    def mem_at(self, m: int, n: int, k: int) -> Tri:
        return self._memo(self._mem_memo, Model._mem_at, (m, n, k), CYCLE)

    def _mem_at(self, m: int, n: int, k: int) -> Tri:
        gate = self.set_at(n, k)
        if gate.kind == "no":
            return Tri("no", f"{n} is not a set code at stage {k}: {gate.reason}",
                       gate.staged)
        result = self._holds((n, k), m)
        if gate.kind == "unknown" and result.kind == "yes":
            return gate
        return result

    def members(self, n: int, k: int) -> tuple[list[int], bool]:
        """Members of a set code at a stage; the flag reports exhaustiveness."""
        return self._memo(self._members_memo, Model._members, (n, k), ([], False))

    def _members(self, n: int, k: int) -> tuple[list[int], bool]:
        if self.set_at(n, k).kind == "no":
            return [], True
        xs, exact = self._enum((n, k))
        cap = max(self.members_cap, EXACT_CAP) if exact else self.members_cap
        return (xs, exact) if len(xs) <= cap else (xs[:cap], False)

    def _view(self, src) -> tuple:
        """The source as decode_set's (kind, *parts), each part a source or a
        family, (e, k) or (cod, env, y); a pretype's Id and T terms run here."""
        node, env = src
        if type(node) is int:
            return _code_view(node, env)
        kind = node[0]
        if kind == "sigma" or kind == "pi":
            return kind, (node[1], env), (node[2], env, node[3])
        if kind == "plus" or kind == "list":
            return kind, *[(part, env) for part in node[1:]]
        if kind == "Id":
            return kind, (node[1], env), *[self.value(t, env) for t in node[2:]]
        if kind == "T":
            return kind, self.value(node[1], env)
        return node                         # the atomic types

    def _at(self, fam, x: int):
        """The source a family gives at x; None when the budget runs out."""
        if len(fam) == 3:
            body, env, y = fam
            return body, {**env, y: x}
        e, k = fam
        ex = self.apply(e, x)
        return None if ex is None else (ex, k)

    def _elements_at(self, fam, x: int) -> tuple[list[int], bool]:
        """Elements of the source fam gives at x; ([], False) if it ran out."""
        src = self._at(fam, x)
        return ([], False) if src is None else self.elements(src)

    def _holds(self, src, x: int) -> Tri:
        """The membership clauses; a code source reaches them through mem_at."""
        view = self._view(src)
        kind = view[0]
        if kind == "sigma":
            x0, x1 = unpair(x)
            fam = self._at(view[2], x0)
            if fam is None:
                return FUEL
            return tri_all([self.contains(view[1], x0), self.contains(fam, x1)])
        if kind == "pi":
            parts = []
            ys, exact = self.elements(view[1])
            for y in ys:
                fam = self._at(view[2], y)
                xy = self.apply(x, y)
                if fam is None or xy is None:
                    parts.append(FUEL)
                    continue
                parts.append(self.contains(fam, xy))
            return sampled(parts, exact)
        if kind == "plus":
            tag, payload = unpair(x)
            if tag < 2:
                return self.contains(view[1 + tag], payload)
            return no(f"injection tag {tag} is neither 0 nor 1")
        if kind == "list":
            return tri_all(self.contains(view[1], y) for y in dec_list(x))
        if kind == "base":                 # j = 0, 1, 2 for N0, N1, N
            _, j, refusal = view
            return YES if j == 2 or x < j else no(refusal.format(x))
        if kind == "id":
            _, a, b, c = view
            if x == b == c:
                return self.contains(a, b)
            return no(f"{x}, {b}, {c} are not all equal")
        if kind == "cov":
            _, a, v, s, i, c, k = view
            return self.in_cover(s, i, c, v, k, a, x, COVER_DEPTH)
        if kind == "Id":
            _, base, va, vb = view
            if va is None or vb is None:
                return FUEL
            if x != va:
                return no(f"{x} is not the left endpoint value {va}")
            if va != vb:
                return no(f"endpoint values {va} and {vb} differ")
            return self.contains(base, va)
        # U0 and T(c) are read at the model's stage; a no that rests on a
        # stage cut says nothing about the universe, the union of all stages
        if kind == "U0":
            r = self.set_at(x, self.stage)
        elif view[1] is None:               # T(c) whose c ran out of fuel
            return FUEL
        else:
            r = self.mem_at(x, view[1], self.stage)
        return STAGE if r.staged else r

    def _enum(self, src) -> tuple[list[int], bool]:
        """The enumeration clauses; a code source reaches them through members."""
        view = self._view(src)
        kind = view[0]
        if kind == "sigma":
            out = []
            xs, exact = self.elements(view[1])
            for x0 in xs:
                x1s, ex1 = self._elements_at(view[2], x0)
                exact &= ex1
                out.extend(pair(x0, x1) for x1 in x1s)
            return out, exact
        if kind in ("pi", "U0"):
            return self.scan(lambda x: self.contains(src, x)), False
        if kind == "plus":
            la, ea = self.elements(view[1])
            lb, eb = self.elements(view[2])
            return ([pair(0, x) for x in la] + [pair(1, x) for x in lb],
                    ea and eb)
        if kind == "list":
            return self.lists_over(*self.elements(view[1]))
        if kind == "base":
            j = view[1]
            if j < 2:
                return list(range(j)), True
            return self.nat_candidates(), False
        if kind in ("id", "Id"):
            _, a, b, c = view
            if b is None or c is None:
                return [], False
            if b != c:
                return [], True
            t = self.contains(a, b)
            if t.kind == "yes":
                return [b], True
            return [], t.kind == "no"
        if kind == "cov":
            _, a, v, s, i, c, k = view
            cover, exact = self.cover_v(s, i, c, v, k)
            return sorted(cover.get(a, ())), exact
        if view[1] is None:
            return [], False
        got = self.members(view[1], self.stage)
        # members only answers ([], True) after set_at has, so the memo holds
        # whether that came from a stage cut
        if got == ([], True) and self._set_memo[(view[1], self.stage)].staged:
            return [], False
        return got

    def scan(self, test) -> list[int]:
        """Natural candidates that test says yes to, stopping at SCAN_CAP."""
        out = []
        for cand in self.nat_candidates():
            if test(cand).kind == "yes":
                out.append(cand)
                if len(out) >= SCAN_CAP:
                    break
        return out

    def lists_over(self, elems: list[int], exact: bool) -> tuple[list[int], bool]:
        """Codes of lists over a sample of elements, breadth first to LIST_CAP."""
        if not elems:
            return [0], exact
        out, frontier = [0], [0]
        while frontier and len(out) < LIST_CAP:
            nxt = []
            for l in frontier:
                for m in elems:
                    if len(out) >= LIST_CAP:
                        break
                    enc = K.snoc(l, m)
                    out.append(enc)
                    nxt.append(enc)
            frontier = nxt
        return out, False                   # nonempty element type: infinite

    # -- the least fixpoint of a cover ---------------------------------------

    def cover_v(self, s: int, i: int, c: int, v: int,
                k: int) -> tuple[dict[int, set[int]], bool]:
        """Saturated approximation of the proof-pair set of a cover code.

        Keys are carrier members z, values are proof codes q with
        pair(z, q) in the fixpoint.  The tr rule quantifies its function
        component over all naturals; the approximation adds one canonical
        table code per (z, index) whenever the rule's premise is satisfiable,
        which is enough to make the key set exact on finite carriers.
        """
        return self._memo(self._cover_memo, Model._cover_v, (s, i, c, v, k))

    def _cover_v(self, s, i, c, v, k) -> tuple[dict[int, set[int]], bool]:
        zs, exact = self.members(s, k)
        cover: dict[int, set[int]] = {z: set() for z in zs}
        # rf rule
        for z in zs:
            rs, exr = self._elements_at((v, k), z)
            exact &= exr
            for r in rs:
                cover[z].add(rf_code(z, r))
        # index and premise data
        idx: dict[int, list[int]] = {}
        for z in zs:
            idx[z], exj = self._elements_at((i, k), z)
            exact &= exj
        needs: dict[tuple[int, int], list[int] | None] = {}
        for z in zs:
            for j in idx[z]:
                needed = []
                ok = True
                for u in zs:
                    cu = self.apply(c, z, j, u)
                    if cu is None:
                        exact = False
                        ok = False
                        break
                    ts, ext = self.members(cu, k)
                    exact &= ext
                    if ts:
                        needed.append(u)
                needs[(z, j)] = needed if ok else None
        # saturate with canonical table witnesses, one per point and index
        witnessed: set[tuple[int, int]] = set()
        changed = True
        while changed:
            changed = False
            for (z, j), needed in needs.items():
                if needed is None or (z, j) in witnessed:
                    continue
                if not all(cover.get(u) for u in needed):
                    continue
                table = {u: min(cover[u]) for u in needed}
                witnessed.add((z, j))
                cover[z].add(tr_code(z, j, self._table_code(table)))
                changed = True
        return cover, exact

    def _table_code(self, table: dict[int, int]) -> int:
        """A code r with {r}(u, t) = table[u] (0 outside the table).

        Tables are kept per Model, with no cap: one this Model built before is
        reused at its first build's exact step cost, and a budget that cannot
        pay it drains as a rebuild would.
        """
        items = tuple(sorted(table.items()))
        budget = self.budget
        hit = self._table_memo.get(items)
        if hit is not None:
            budget.charge(hit[1])
            return hit[0]
        u, t = kfresh("u"), kfresh("t")
        body: KTerm = 0
        for key, value in reversed(items):
            body = kop(K.IFZ, kop(K.EQ, u, key), value, body)
        before = budget.steps
        r = eval_kterm(lambda_abstract_many(body, [u, t]), {}, budget)
        self._table_memo[items] = (r, before - budget.steps)
        return r

    def in_cover(self, s: int, i: int, c: int, v: int, k: int,
                 z: int, q: int, depth: int) -> Tri:
        """Demand-driven check that pair(z, q) lies in the cover fixpoint."""
        if depth <= 0:
            return FUEL
        dec = decode_set(q)
        if dec is None or dec[0] not in ("rf", "tr"):
            return no(f"{q} is not a cover proof code")
        if dec[1] != z:
            return no("the proof is about a different element")
        if dec[0] == "rf":
            _, _, r = dec
            vz = self.apply(v, z)
            if vz is None:
                return FUEL
            return tri_all([self.mem_at(z, s, k), self.mem_at(r, vz, k)])
        _, _, j, r = dec
        iz = self.apply(i, z)
        if iz is None:
            return FUEL
        parts = [self.mem_at(z, s, k), self.mem_at(j, iz, k)]
        us, exact = self.members(s, k)
        for u in us:
            cu = self.apply(c, z, j, u)
            if cu is None:
                parts.append(FUEL)
                continue
            ts, ext = self.members(cu, k)
            exact &= ext
            for t in ts:
                ru = self.apply(r, u, t)
                if ru is None:
                    parts.append(FUEL)
                    continue
                parts.append(self.in_cover(s, i, c, v, k, u, ru, depth - 1))
        return sampled(parts, exact)


# ---------------------------------------------------------------------------
# Judgment validity
# ---------------------------------------------------------------------------

def _sample_envs(model: Model, ctx: Context) -> tuple[list[dict[str, int]], bool] | None:
    """Environments of realizers for the context, plus an exactness flag;
    None when some hypothesis has exactly no realizers, so that every
    judgment under the context holds vacuously."""
    envs: list[dict[str, int]] = [{}]
    exact = True
    for name, ty in ctx.entries:
        ty = compile_type(ty)
        new_envs = []
        for env in envs:
            vals, ex = model.elements((ty, env))
            if not vals:
                if ex:
                    return None
                exact = False
                continue
            if len(vals) > ENV_SAMPLES:
                vals = vals[:ENV_SAMPLES]
                exact = False
            exact &= ex
            for v in vals:
                new_envs.append({**env, name: v})
        envs = new_envs[:MAX_ENVS]
        if len(new_envs) > MAX_ENVS:
            exact = False
    return envs, exact


def _validate_in_env(model: Model, j: Judgment, sides: tuple, env: dict) -> Tri:
    if isinstance(j, TypeEq):
        a, b = [(ty, env) for ty in sides]
        xs_a, ex_a = model.elements(a)
        xs_b, ex_b = model.elements(b)
        probes = set(xs_a) | set(xs_b) | set(range(min(model.bound, 16)))
        parts = []
        for x in sorted(probes):
            ta, tb = model.contains(a, x), model.contains(b, x)
            if "no" in (ta.kind, tb.kind) and "yes" in (ta.kind, tb.kind):
                return no(f"the classes differ at {x}")
            if "unknown" in (ta.kind, tb.kind):
                parts.append(ta if ta.kind == "unknown" else tb)
        return sampled(parts, ex_a and ex_b)
    *terms, ty = sides
    vals = [model.value(t, env) for t in terms]
    if None in vals:
        return FUEL
    if vals[0] != vals[-1]:
        return no(f"the sides evaluate to {vals[0]} and {vals[-1]}")
    return model.contains((ty, env), vals[0])


def validate_judgment(j: Judgment, stage: int = DEFAULT_STAGE,
                      fuel: int = DEFAULT_FUEL, bound: int = DEFAULT_BOUND) -> Tri:
    model = Model(stage=stage, fuel=fuel, bound=bound)
    if isinstance(j, TypeWF):
        # interpretations are predicates on the naturals in every
        # environment, so formation validity needs no sampling
        return YES
    try:
        got = _sample_envs(model, j.ctx)
    except Diverged:
        return FUEL
    if got is None:
        return YES
    envs, exact = got
    if not envs:
        return SAMPLING
    if isinstance(j, TypeEq):           # compiled once, not once per env
        sides = compile_type(j.lhs), compile_type(j.rhs)
    else:                               # the terms, then the type
        terms = [j.term] if isinstance(j, TermOf) else [j.lhs, j.rhs]
        sides = *map(interpret_term, terms), compile_type(j.ty)
    parts = []
    for env in envs:
        try:
            parts.append(_validate_in_env(model, j, sides, env))
        except Diverged:
            parts.append(FUEL)
    return sampled(parts, exact)


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------

def set_at_stage(n: int, k: int, fuel: int = DEFAULT_FUEL,
                 bound: int = DEFAULT_BOUND) -> Tri:
    return Model(stage=k, fuel=fuel, bound=bound).set_at(n, k)


def mem_at_stage(m: int, n: int, k: int, fuel: int = DEFAULT_FUEL,
                 bound: int = DEFAULT_BOUND) -> Tri:
    return Model(stage=k, fuel=fuel, bound=bound).mem_at(m, n, k)


def cover_fixpoint(s: int, i: int, c: int, v: int, k: int,
                   fuel: int = DEFAULT_FUEL,
                   bound: int = DEFAULT_BOUND) -> tuple[set[int], bool]:
    """The pairs pair(z, proofcode) of the saturated cover approximation."""
    cover, exact = Model(stage=k, fuel=fuel, bound=bound).cover_v(s, i, c, v, k)
    pairs = {pair(z, q) for z, qs in cover.items() for q in qs}
    return pairs, exact


def check_realizer(r: int, ty: PreTerm, k: int = DEFAULT_STAGE,
                   fuel: int = DEFAULT_FUEL, bound: int = DEFAULT_BOUND) -> Tri:
    return Model(stage=k, fuel=fuel, bound=bound).contains((compile_type(ty), {}), r)


def realize(t: PreTerm, fuel: int = DEFAULT_FUEL) -> int | KTerm:
    """Evaluate a closed term's interpretation; open terms stay applicative."""
    kt = interpret_term(t)
    if K.kvars(kt):
        return kt
    return eval_kterm(kt, {}, fuel)


def ct_validate(fn: PreTerm, fuel: int = DEFAULT_FUEL) -> Tri:
    """Check the Church's-thesis realizer against one closed function term."""
    kt = interpret_term(fn)
    if K.kvars(kt):
        return no("the function term must be closed")
    try:
        e = eval_kterm(kt, {}, fuel)
        ok = K.ct_check(e, fuel=fuel)
    except Diverged:
        return FUEL
    return YES if ok else no("a pointwise check failed")


def validate(j: Judgment | CtDirective, stage: int = DEFAULT_STAGE,
             fuel: int = DEFAULT_FUEL, bound: int = DEFAULT_BOUND) -> Tri:
    if isinstance(j, CtDirective):
        return ct_validate(j.fn, fuel=fuel)
    return validate_judgment(j, stage=stage, fuel=fuel, bound=bound)
