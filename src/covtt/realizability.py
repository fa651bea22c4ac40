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

from dataclasses import dataclass
from functools import lru_cache

from . import kleene as K
from .kleene import (
    DEFAULT_FUEL, TAG, Budget, Diverged, KApp, KNum, KTerm, KVar,
    dec_list, eval_kterm, kapp, kfresh, kop, lambda_abstract,
    lambda_abstract_many, pair, tagged, unpair, untagged,
)
from .syntax import (
    Ap, BVar, Cons, Context, CovHat, CtDirective, EmptyRec, FVar, IdHat,
    IdPeel, Ind, Inl, Inr, Judgment, Lam, ListHat, ListRec, N0Hat, N1Hat,
    NatRec, NHat, Nil, Pair, PiHat, PlusHat, PreTerm, Refl, Rf, SigmaHat,
    Split, Star, Succ, TDec, TId, TList, TN, TN0, TN1, TPi, TSigma, TSum,
    TU0, Tr, TypeEq, TypeWF, TermEq, TermOf, UnitRec, When, Zero, open_with,
    _HINTS, _SIG, to_src,
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
# table codes kept across Models, oldest dropped first
_TABLES_CAP = 256
_TABLES: dict[tuple, tuple[int, int]] = {}    # sorted items -> (code, steps)
# halted applications a Model keeps, and the largest result it keeps, in bits
_APPLY_CAP = 4096
_APPLY_BITS = 256


# ---------------------------------------------------------------------------
# Tri-valued answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tri:
    kind: str                   # "yes" | "no" | "unknown"
    reason: str | None = None

    def __bool__(self):
        raise TypeError("Tri is not a boolean; match on .kind")

    def __str__(self):
        return self.kind if self.kind != "unknown" else f"unknown({self.reason})"


YES = Tri("yes")


def no(reason: str) -> Tri:
    return Tri("no", reason)


def unknown(reason: str) -> Tri:
    return Tri("unknown", reason)


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
        parts.append(unknown("sampling"))
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


def rf_code(z: int, r: int) -> int:
    return tagged("rf", z, r)


def tr_code(z: int, j: int, r: int) -> int:
    return tagged("tr", z, j, r)


def cov_code(a: int, v: int, s: int, i: int, c: int) -> int:
    return tagged("cov", a, v, s, i, c)


N0_CODE = tagged("base", 0)
N1_CODE = tagged("base", 1)
N_CODE = tagged("base", 2)


# ---------------------------------------------------------------------------
# Term interpretation
# ---------------------------------------------------------------------------

_CONSTANTS = {Zero: KNum(0), Star: KNum(0), Nil: KNum(0), N0Hat: KNum(N0_CODE),
              N1Hat: KNum(N1_CODE), NHat: KNum(N_CODE)}
# node class -> (instruction, the parts it takes in order)
_MACHINE = {
    Succ: (K.SUCC, (0,)), NatRec: (K.REC, (1, 2, 0)), UnitRec: (K.K, (1, 0)),
    EmptyRec: (K.I, (0,)), Pair: (K.PAIR, (0, 1)), Cons: (K.SNOC, (0, 1)),
    ListRec: (K.LREC, (1, 2, 0)), Ind: (K.IND, (1, 2, 0)),
}
# node class -> (tag, the parts in tuple order): the code is pair(tag, tuple);
# the universe and proof codes take their tags from kleene.LAYOUT, and the
# injections share their shape under tags 0 and 1
_CODED = {Inl: (0, (0,)), Inr: (1, (0,)), CovHat: (TAG["cov"], (3, 4, 0, 1, 2)),
          **{cls: (TAG[kind], range(len(_SIG[cls]))) for cls, kind in (
              (SigmaHat, "sigma"), (PiHat, "pi"), (PlusHat, "plus"),
              (ListHat, "list"), (IdHat, "id"), (Rf, "rf"), (Tr, "tr"))}}
_TERMS = {*_MACHINE, *_CODED, Lam, Refl, Ap, IdPeel, Split, When}


def _parts(t: PreTerm) -> list[KTerm]:
    """The interpreted fields of t; a binder field is abstracted over its names."""
    hints = iter(_HINTS[type(t)])
    out = []
    for name, arity in _SIG[type(t)]:
        part = getattr(t, name)
        if not arity:
            out.append(interpret_term(part))
        elif arity == 1:
            (x,), body = open_with(part, (getattr(t, next(hints)),))
            out.append(lambda_abstract(interpret_term(body), x))
        else:
            names, body = open_with(part, getattr(t, next(hints)))
            out.append(lambda_abstract_many(interpret_term(body), list(names)))
    return out


def interpret_term(t: PreTerm) -> KTerm:
    """Translate a preterm to an applicative term; free variables pass through."""
    cls = type(t)
    if cls in _CONSTANTS:
        return _CONSTANTS[cls]
    if cls is FVar:
        return KVar(t.name)
    if cls is BVar:
        raise ValueError("cannot interpret a dangling bound variable")
    if cls not in _TERMS:
        raise ValueError(f"not a term: {to_src(t)}")
    p = _parts(t)
    if cls in _MACHINE:
        op, order = _MACHINE[cls]
        return kop(op, *[p[i] for i in order])
    if cls in _CODED:
        tag, order = _CODED[cls]
        payload = p[order[0]]
        for i in order[1:]:
            payload = kop(K.PAIR, payload, p[i])
        return kop(K.PAIR, KNum(tag), payload)
    if cls is Ap:
        return KApp(*p)
    if cls is IdPeel:
        return KApp(p[1], p[0])
    if cls is Split:
        return kapp(p[1], kop(K.P0, p[0]), kop(K.P1, p[0]))
    if cls is When:
        return KApp(kop(K.IFZ, kop(K.P0, p[0]), p[1], p[2]), kop(K.P1, p[0]))
    return p[0]                         # Lam and Refl


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

    # -- machine helpers ----------------------------------------------------

    def apply(self, e: int, *args: int) -> int | None:
        """{e}(args), or None when the budget runs out.  A run this Model
        made before is charged its exact step count instead of run again."""
        budget = self.budget
        key = (e, *args)
        try:
            hit = self._apply_memo.get(key)
            if hit is not None:
                budget.charge(hit[1])
                return hit[0]
            before = budget.steps
            r = K.apply_many(e, *args, budget=budget)
        except Diverged:
            return None
        if len(self._apply_memo) < _APPLY_CAP and r.bit_length() <= _APPLY_BITS:
            self._apply_memo[key] = (r, before - budget.steps)
        return r

    def eval_term(self, t: PreTerm, env: dict[str, int]) -> int | None:
        try:
            return eval_kterm(interpret_term(t), env, self.budget)
        except Diverged:
            return None

    def nat_candidates(self) -> list[int]:
        return list(range(self.bound)) + [s for s in SAMPLE_POINTS
                                          if s >= self.bound]

    # -- Set_k --------------------------------------------------------------

    def set_at(self, n: int, k: int) -> Tri:
        key = (n, k)
        if key in self._set_memo:
            return self._set_memo[key]
        r = self._set_at(n, k)
        self._set_memo[key] = r
        return r

    def _fam(self, e: int, kc: int, k: int) -> Tri:
        """Fam_k(e, kc): kc is a set and {e}(m) is a set for every member m."""
        parts = [self.set_at(kc, k)]
        if parts[0].kind == "no":
            return parts[0]
        ms, exact = self.members(kc, k)
        for m in ms:
            em = self.apply(e, m)
            if em is None:
                parts.append(unknown("fuel"))
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
            return no(f"{kind} codes require a positive stage")
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
                parts.append(unknown("fuel"))
                continue
            ys, exact_y = self.members(ix, k)
            if not exact_y:
                exact = False
            for y in ys:
                cxy = self.apply(c, x, y)
                if cxy is None:
                    parts.append(unknown("fuel"))
                    continue
                parts.append(self._fam(cxy, s, k))
        return sampled(parts, exact)

    # -- membership ----------------------------------------------------------

    def mem_at(self, m: int, n: int, k: int) -> Tri:
        key = (m, n, k)
        if key in self._mem_memo:
            return self._mem_memo[key]
        self._mem_memo[key] = unknown("cycle")    # provisional, cycles stay unknown
        r = self._mem_at(m, n, k)
        self._mem_memo[key] = r
        return r

    def _mem_at(self, m: int, n: int, k: int) -> Tri:
        gate = self.set_at(n, k)
        if gate.kind == "no":
            return no(f"{n} is not a set code at stage {k}: {gate.reason}")
        dec = decode_set(n)
        kind = dec[0]
        result: Tri
        if kind == "base":                 # j = 0, 1, 2 for N0, N1, N
            j = dec[1]
            result = YES if j == 2 or m < j else no(f"{m} is not below {j}")
        elif kind in ("sigma", "pi"):
            _, kc, e = dec
            if kind == "sigma":
                m0, m1 = unpair(m)
                em = self.apply(e, m0)
                if em is None:
                    result = unknown("fuel")
                else:
                    result = tri_all([self.mem_at(m0, kc, k - 1),
                                      self.mem_at(m1, em, k - 1)])
            else:
                parts = []
                ms, exact = self.members(kc, k - 1)
                for i in ms:
                    ei = self.apply(e, i)
                    mi = self.apply(m, i)
                    if ei is None or mi is None:
                        parts.append(unknown("fuel"))
                        continue
                    parts.append(self.mem_at(mi, ei, k - 1))
                result = sampled(parts, exact)
        elif kind == "plus":
            _, a, b = dec
            tag, payload = unpair(m)
            if tag == 0:
                result = self.mem_at(payload, a, k - 1)
            elif tag == 1:
                result = self.mem_at(payload, b, k - 1)
            else:
                result = no(f"injection tag {tag} is neither 0 nor 1")
        elif kind == "list":
            result = tri_all(self.mem_at(y, dec[1], k - 1) for y in dec_list(m))
        elif kind == "id":
            _, a, b, c = dec
            if m == b == c:
                result = self.mem_at(b, a, k - 1)
            else:
                result = no(f"{m}, {b}, {c} are not all equal")
        elif kind == "cov":
            _, a, v, s, i, c = dec
            result = self.in_cover(s, i, c, v, k - 1, a, m, COVER_DEPTH)
        else:
            result = no("proof codes are not set codes")
        if gate.kind == "unknown" and result.kind == "yes":
            return gate
        return result

    # -- member enumeration ---------------------------------------------------

    def members(self, n: int, k: int) -> tuple[list[int], bool]:
        """Members of a set code at a stage; the flag reports exhaustiveness."""
        key = (n, k)
        if key in self._members_memo:
            return self._members_memo[key]
        self._members_memo[key] = ([], False)     # provisional for cycles
        r = self._members(n, k)
        cap = max(self.members_cap, EXACT_CAP) if r[1] else self.members_cap
        if len(r[0]) > cap:
            r = (r[0][:cap], False)
        self._members_memo[key] = r
        return r

    def _members(self, n: int, k: int) -> tuple[list[int], bool]:
        if self.set_at(n, k).kind == "no":
            return [], True
        dec = decode_set(n)
        kind = dec[0]
        if kind == "base":
            j = dec[1]
            if j < 2:
                return list(range(j)), True
            return self.nat_candidates(), False
        if kind == "sigma":
            _, kc, e = dec
            out, exact = [], True
            ms, exm = self.members(kc, k - 1)
            exact &= exm
            for m0 in ms:
                em = self.apply(e, m0)
                if em is None:
                    exact = False
                    continue
                m1s, ex1 = self.members(em, k - 1)
                exact &= ex1
                out.extend(pair(m0, m1) for m1 in m1s)
            return out, exact
        if kind == "pi":
            return self.scan(lambda x: self.mem_at(x, n, k)), False
        if kind == "plus":
            _, a, b = dec
            la, ea = self.members(a, k - 1)
            lb, eb = self.members(b, k - 1)
            return ([pair(0, m) for m in la] + [pair(1, m) for m in lb],
                    ea and eb)
        if kind == "list":
            return self.lists_over(*self.members(dec[1], k - 1))
        if kind == "id":
            _, a, b, c = dec
            if b != c:
                return [], True
            t = self.mem_at(b, a, k - 1)
            if t.kind == "yes":
                return [b], True
            return [], t.kind == "no"
        if kind == "cov":
            _, a, v, s, i, c = dec
            cover, exact = self.cover_v(s, i, c, v, k - 1)
            return sorted(cover.get(a, ())), exact
        return [], True

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
        key = (s, i, c, v, k)
        if key in self._cover_memo:
            return self._cover_memo[key]
        zs, exact = self.members(s, k)
        cover: dict[int, set[int]] = {z: set() for z in zs}
        # rf rule
        for z in zs:
            vz = self.apply(v, z)
            if vz is None:
                exact = False
                continue
            rs, exr = self.members(vz, k)
            exact &= exr
            for r in rs:
                cover[z].add(rf_code(z, r))
        # index and premise data
        idx: dict[int, list[int]] = {}
        for z in zs:
            iz = self.apply(i, z)
            if iz is None:
                exact = False
                idx[z] = []
                continue
            js, exj = self.members(iz, k)
            exact &= exj
            idx[z] = js
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
        result = (cover, exact)
        self._cover_memo[key] = result
        return result

    def _table_code(self, table: dict[int, int]) -> int:
        """A code r with {r}(u, t) = table[u] (0 outside the table).

        A table built before, by any Model, is reused at its first build's
        exact step cost; a budget that cannot pay it drains as a rebuild would.
        """
        items = tuple(sorted(table.items()))
        budget = self.budget
        hit = _TABLES.get(items)
        if hit is not None:
            budget.charge(hit[1])
            return hit[0]
        u, t = kfresh("u"), kfresh("t")
        body: KTerm = KNum(0)
        for key, value in reversed(items):
            body = kop(K.IFZ, kop(K.EQ, KVar(u), KNum(key)), KNum(value), body)
        before = budget.steps
        r = eval_kterm(lambda_abstract_many(body, [u, t]), {}, budget)
        if len(_TABLES) >= _TABLES_CAP:
            del _TABLES[next(iter(_TABLES))]
        _TABLES[items] = (r, before - budget.steps)
        return r

    def in_cover(self, s: int, i: int, c: int, v: int, k: int,
                 z: int, q: int, depth: int) -> Tri:
        """Demand-driven check that pair(z, q) lies in the cover fixpoint."""
        if depth <= 0:
            return unknown("fuel")
        dec = decode_set(q)
        if dec is None or dec[0] not in ("rf", "tr"):
            return no(f"{q} is not a cover proof code")
        if dec[1] != z:
            return no("the proof is about a different element")
        if dec[0] == "rf":
            _, _, r = dec
            vz = self.apply(v, z)
            if vz is None:
                return unknown("fuel")
            return tri_all([self.mem_at(z, s, k), self.mem_at(r, vz, k)])
        _, _, j, r = dec
        iz = self.apply(i, z)
        if iz is None:
            return unknown("fuel")
        parts = [self.mem_at(z, s, k), self.mem_at(j, iz, k)]
        us, exact = self.members(s, k)
        for u in us:
            cu = self.apply(c, z, j, u)
            if cu is None:
                parts.append(unknown("fuel"))
                continue
            ts, ext = self.members(cu, k)
            exact &= ext
            for t in ts:
                ru = self.apply(r, u, t)
                if ru is None:
                    parts.append(unknown("fuel"))
                    continue
                parts.append(self.in_cover(s, i, c, v, k, u, ru, depth - 1))
        return sampled(parts, exact)


# ---------------------------------------------------------------------------
# Type interpretation
# ---------------------------------------------------------------------------

class ClassExpr:
    """Predicate-on-naturals view of a pretype under an environment."""

    def __init__(self, model: Model, ty: PreTerm, env: dict[str, int]):
        self.model = model
        self.ty = ty
        self.env = dict(env)

    def __repr__(self):
        return f"ClassExpr({to_src(self.ty)})"

    def _sub(self, ty: PreTerm, extra: dict[str, int] | None = None) -> "ClassExpr":
        env = self.env if extra is None else {**self.env, **extra}
        return ClassExpr(self.model, ty, env)

    def contains(self, x: int) -> Tri:
        m = self.model
        ty = self.ty
        match ty:
            case TN0():
                return no("the empty type has no realizers")
            case TN1():
                return YES if x == 0 else no(f"{x} is not 0")
            case TN():
                return YES
            case TSigma(dom, cod):
                x0, x1 = unpair(x)
                first = self._sub(dom).contains(x0)
                if first.kind == "no":
                    return first
                (y,), opened = open_with(cod, (ty.hint,))
                rest = self._sub(opened, {y: x0}).contains(x1)
                return tri_all([first, rest])
            case TPi(dom, cod):
                domc = self._sub(dom)
                ys, exact = domc.enumerate()
                (yn,), opened = open_with(cod, (ty.hint,))
                parts = []
                for y in ys:
                    xy = m.apply(x, y)
                    if xy is None:
                        parts.append(unknown("fuel"))
                        continue
                    parts.append(self._sub(opened, {yn: y}).contains(xy))
                return sampled(parts, exact)
            case TSum(l, r):
                tag, payload = unpair(x)
                if tag == 0:
                    return self._sub(l).contains(payload)
                if tag == 1:
                    return self._sub(r).contains(payload)
                return no(f"injection tag {tag} is neither 0 nor 1")
            case TList(el):
                elc = self._sub(el)
                return tri_all(elc.contains(y) for y in dec_list(x))
            case TId(base, lt, rt):
                va = self.model.eval_term(lt, self.env)
                vb = self.model.eval_term(rt, self.env)
                if va is None or vb is None:
                    return unknown("fuel")
                if x != va:
                    return no(f"{x} is not the left endpoint value {va}")
                if va != vb:
                    return no(f"endpoint values {va} and {vb} differ")
                return self._sub(base).contains(va)
            case TU0():
                return m.set_at(x, m.stage)
            case TDec(code):
                vc = self.model.eval_term(code, self.env)
                if vc is None:
                    return unknown("fuel")
                return m.mem_at(x, vc, m.stage)
        raise ValueError(f"not a pretype: {to_src(ty)}")

    def enumerate(self) -> tuple[list[int], bool]:
        m = self.model
        ty = self.ty
        match ty:
            case TN0():
                return [], True
            case TN1():
                return [0], True
            case TN():
                return m.nat_candidates(), False
            case TSigma(dom, cod):
                out, exact = [], True
                xs, ex0 = self._sub(dom).enumerate()
                exact &= ex0
                (y,), opened = open_with(cod, (ty.hint,))
                for x0 in xs:
                    x1s, ex1 = self._sub(opened, {y: x0}).enumerate()
                    exact &= ex1
                    out.extend(pair(x0, x1) for x1 in x1s)
                return out, exact
            case TPi():
                return m.scan(self.contains), False
            case TSum(l, r):
                ls, el = self._sub(l).enumerate()
                rs, er = self._sub(r).enumerate()
                return ([pair(0, x) for x in ls] + [pair(1, x) for x in rs],
                        el and er)
            case TList(el):
                return m.lists_over(*self._sub(el).enumerate())
            case TId():
                va = m.eval_term(ty.lhs, self.env)
                vb = m.eval_term(ty.rhs, self.env)
                if va is None or vb is None:
                    return [], False
                if va != vb:
                    return [], True
                t = self._sub(ty.ty).contains(va)
                if t.kind == "yes":
                    return [va], True
                return [], t.kind == "no"
            case TU0():
                return m.scan(lambda x: m.set_at(x, m.stage)), False
            case TDec(code):
                vc = m.eval_term(code, self.env)
                if vc is None:
                    return [], False
                return m.members(vc, m.stage)
        raise ValueError(f"not a pretype: {to_src(ty)}")


# ---------------------------------------------------------------------------
# Judgment validity
# ---------------------------------------------------------------------------

class _Vacuous(Exception):
    pass


def _sample_envs(model: Model, ctx: Context) -> tuple[list[dict[str, int]], bool]:
    """Environments of realizers for the context, plus an exactness flag.

    Raises _Vacuous when some hypothesis has exactly no realizers, in which
    case every judgment under the context holds vacuously.
    """
    envs: list[dict[str, int]] = [{}]
    exact = True
    for name, ty in ctx.entries:
        new_envs = []
        for env in envs:
            vals, ex = ClassExpr(model, ty, env).enumerate()
            if not vals:
                if ex:
                    raise _Vacuous
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


def _validate_in_env(model: Model, j: Judgment, env: dict[str, int]) -> Tri:
    if isinstance(j, TypeWF):
        # every interpreted pretype is a class of naturals by construction
        return YES
    if isinstance(j, TypeEq):
        ca = ClassExpr(model, j.lhs, env)
        cb = ClassExpr(model, j.rhs, env)
        xs_a, ex_a = ca.enumerate()
        xs_b, ex_b = cb.enumerate()
        probes = set(xs_a) | set(xs_b) | set(range(min(model.bound, 16)))
        parts = []
        for x in sorted(probes):
            ta, tb = ca.contains(x), cb.contains(x)
            if "no" in (ta.kind, tb.kind) and "yes" in (ta.kind, tb.kind):
                return no(f"the classes differ at {x}")
            if "unknown" in (ta.kind, tb.kind):
                parts.append(unknown(ta.reason or tb.reason))
        return sampled(parts, ex_a and ex_b)
    if isinstance(j, TermOf):
        v = model.eval_term(j.term, env)
        if v is None:
            return unknown("fuel")
        return ClassExpr(model, j.ty, env).contains(v)
    if isinstance(j, TermEq):
        va = model.eval_term(j.lhs, env)
        vb = model.eval_term(j.rhs, env)
        if va is None or vb is None:
            return unknown("fuel")
        if va != vb:
            return no(f"the sides evaluate to {va} and {vb}")
        return ClassExpr(model, j.ty, env).contains(va)
    raise TypeError(f"not a judgment: {j!r}")


def validate_judgment(j: Judgment, stage: int = DEFAULT_STAGE,
                      fuel: int = DEFAULT_FUEL, bound: int = DEFAULT_BOUND) -> Tri:
    model = Model(stage=stage, fuel=fuel, bound=bound)
    if isinstance(j, TypeWF):
        # interpretations are predicates on the naturals in every
        # environment, so formation validity needs no sampling
        return YES
    try:
        envs, exact = _sample_envs(model, j.ctx)
    except _Vacuous:
        return YES
    except Diverged:
        return unknown("fuel")
    if not envs:
        return unknown("sampling")
    parts = []
    for env in envs:
        try:
            parts.append(_validate_in_env(model, j, env))
        except Diverged:
            parts.append(unknown("fuel"))
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
    return ClassExpr(Model(stage=k, fuel=fuel, bound=bound), ty, {}).contains(r)


def realize(t: PreTerm, fuel: int = DEFAULT_FUEL) -> int | KTerm:
    """Evaluate a closed term's interpretation; open terms stay applicative."""
    kt = interpret_term(t)
    if K.kvars(kt):
        return kt
    return eval_kterm(kt, {}, fuel)


def ct_validate(fn: PreTerm, xmax: int = 20, fuel: int = DEFAULT_FUEL) -> Tri:
    """Check the Church's-thesis realizer against one closed function term."""
    kt = interpret_term(fn)
    if K.kvars(kt):
        return no("the function term must be closed")
    try:
        e = eval_kterm(kt, {}, fuel)
        ok = K.ct_check(e, xmax=xmax, fuel=fuel)
    except Diverged:
        return unknown("fuel")
    return YES if ok else no("a pointwise check failed")


def validate(j: Judgment | CtDirective, stage: int = DEFAULT_STAGE,
             fuel: int = DEFAULT_FUEL, bound: int = DEFAULT_BOUND) -> Tri:
    if isinstance(j, CtDirective):
        return ct_validate(j.fn, fuel=fuel)
    return validate_judgment(j, stage=stage, fuel=fuel, bound=bound)
