"""Finite engine for inductively generated basic covers.

An axiom set is a finite carrier A with, for each a in A, a finite index set
I(a) and, for each index j, a covering subset C(a, j) of A.  Saturation
computes the least subset containing V and closed under: a enters whenever
some C(a, j) is already contained.  An axiom set is compiled once, when it
is built, so each saturation costs time in proportion to the instances it
touches.  The exhaustive minimality check reads the declared axioms and
enumerates only the supersets of V.  On top of that sit the quotient and
equivalence-relation transforms, the well-founded-part encoding, bounded
tree topologies, and the exact-rational derivation checker for the
real-line cover.
"""

from __future__ import annotations

import itertools

from .syntax import Record, _records


class FiniteAxiomSet:
    """An axiom set is fixed once it is built: __init__ compiles it for
    saturate, so index and cover must not change afterwards."""

    def __init__(self, carrier, index: dict, cover):
        self.carrier = frozenset(carrier)
        # elem -> frozenset of index labels; (elem, index) -> frozenset of elems
        self.index = {a: frozenset(js) for a, js in index.items()}
        for a in self.carrier:
            self.index.setdefault(a, frozenset())
        view = isinstance(cover, _DummyIndexCover)
        self.cover = cover if view else {k: frozenset(v) for k, v in cover.items()}
        pairs = cover.pairs() if view else _pairs(self.carrier, self.index, self.cover)
        instances: dict = {}            # distinct (head, body) -> number
        for a, j, body in pairs:
            if not body <= self.carrier:
                raise ValueError(f"C({a!r}, {j!r}) leaves the carrier")
            instances.setdefault((a, body), len(instances))
        # per instance its head and member count; per member its watchers
        self._heads = [a for a, _ in instances]
        self._counts = [len(body) for _, body in instances]
        self._watchers: dict = {a: [] for a in self.carrier}
        for i, (_, body) in enumerate(instances):
            for y in body:
                self._watchers[y].append(i)
        self._free = frozenset(a for a, body in instances if not body)


def _pairs(carrier: frozenset, index: dict, cover: dict):
    """(a, j, C(a, j)) for every declared index j of every a."""
    for a, js in index.items():
        if a not in carrier:
            raise ValueError(f"index family mentions {a!r} outside the carrier")
        for j in js:
            if (a, j) not in cover:
                raise ValueError(f"no covering subset for ({a!r}, {j!r})")
            yield a, j, cover[(a, j)]


class _DummyIndexCover:
    """The read-only cover family C(x, y) = body[x] for every y in index[x]:
    never written out, it compiles to one instance per x."""

    __slots__ = ("index", "body")

    def __init__(self, index: dict, body: dict):
        self.index, self.body = index, body

    def __contains__(self, key) -> bool:
        return key[1] in self.index.get(key[0], ())

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        return self.body[key[0]]

    def pairs(self):
        return ((x, next(iter(js)), self.body[x]) for x, js in self.index.items() if js)


def saturate(ax: FiniteAxiomSet, v: frozenset) -> frozenset:
    """The closure Cov(V): least superset of V closed under the axioms.

    Each element is queued once and counts down the instances waiting on it."""
    v = frozenset(v)
    if not v <= ax.carrier:
        raise ValueError("V leaves the carrier")
    result = set(v | ax._free)
    queue = list(result)
    missing = ax._counts.copy()
    while queue:
        for i in ax._watchers[queue.pop()]:
            missing[i] -= 1
            if not missing[i] and ax._heads[i] not in result:
                result.add(ax._heads[i])
                queue.append(ax._heads[i])
    return frozenset(result)


def is_covered(ax: FiniteAxiomSet, a, v) -> bool:
    if a not in ax.carrier:
        raise ValueError(f"{a!r} is not in the carrier")
    return a in saturate(ax, frozenset(v))


def cont(ax: FiniteAxiomSet, v: frozenset, p: frozenset) -> bool:
    """P contains V and is closed under every axiom instance."""
    if not v <= p:
        return False
    for a in ax.carrier:
        for j in ax.index[a]:
            if ax.cover[(a, j)] <= p and a not in p:
                return False
    return True


def check_induction_minimality(ax: FiniteAxiomSet, v: frozenset,
                               bound: int = 16) -> bool:
    """saturate(V) is below every P satisfying cont(V, P), exhaustively.

    cont(V, P) fails unless P contains V, so only the supersets of V are
    enumerated."""
    if len(ax.carrier) > bound:
        raise ValueError(f"carrier size {len(ax.carrier)} exceeds the bound {bound}")
    v = frozenset(v)
    sat = saturate(ax, v)
    rest = sorted(ax.carrier - v, key=repr)
    for bits in itertools.product((False, True), repeat=len(rest)):
        p = v.union(e for e, b in zip(rest, bits) if b)
        if cont(ax, v, p) and not sat <= p:
            return False
    return True


# ---------------------------------------------------------------------------
# Quotients and equivalence relations
# ---------------------------------------------------------------------------

class QuotientData:
    def __init__(self, carrier, rel):
        self.carrier = frozenset(carrier)       # B
        self.rel = frozenset(rel)               # R, a set of pairs over B
        for b in self.carrier:
            if (b, b) not in self.rel:
                raise ValueError(f"R is not reflexive at {b!r}")
        for x, y in self.rel:
            if x not in self.carrier or y not in self.carrier:
                raise ValueError("R leaves the carrier")
            if (y, x) not in self.rel:
                raise ValueError(f"R is not symmetric at ({x!r}, {y!r})")
            for z, w in self.rel:
                if z == y and (x, w) not in self.rel:
                    raise ValueError(f"R is not transitive at ({x!r}, {w!r})")

    def class_of(self, b) -> frozenset:
        return frozenset(y for y in self.carrier if (b, y) in self.rel)

    def classes(self) -> frozenset:
        return frozenset(self.class_of(b) for b in self.carrier)


def es(qd: QuotientData, w) -> frozenset:
    """Pull a subset of B/R back to B: the b whose class lies in W."""
    w = frozenset(w)
    return frozenset(b for b in qd.carrier if qd.class_of(b) in w)


def es_inv(qd: QuotientData, v) -> frozenset:
    """Push a subset of B forward to B/R: the classes of its members."""
    return frozenset(qd.class_of(b) for b in frozenset(v))


def quotient_transform(qd: QuotientData, ax: FiniteAxiomSet) -> FiniteAxiomSet:
    """Transport an axiom set on B/R to one on B with extra equality axioms."""
    classes = qd.classes()
    if ax.carrier != classes:
        raise ValueError("the axiom set is not over the quotient's classes")
    # pull every axiom back along b |-> [b], then identify related points
    index = {}
    cover = {}
    for b in qd.carrier:
        cls = qd.class_of(b)
        index[b] = ax.index[cls]
        for j in ax.index[cls]:
            cover[(b, j)] = es(qd, ax.cover[(cls, j)])
    return eq_relation_transform(FiniteAxiomSet(qd.carrier, index, cover), qd.rel)


def _fixpoints(ax: FiniteAxiomSet) -> list[frozenset]:
    elems = sorted(ax.carrier, key=repr)
    out = []
    for bits in itertools.product((False, True), repeat=len(elems)):
        w = frozenset(e for e, b in zip(elems, bits) if b)
        if saturate(ax, w) == w:
            out.append(w)
    return out


def check_eqcov_isomorphism(qd: QuotientData, ax: FiniteAxiomSet) -> bool:
    """The fixpoint lattices of the cover and its transport are isomorphic."""
    axr = quotient_transform(qd, ax)
    fix_q = _fixpoints(ax)
    fix_b = _fixpoints(axr)
    image = {es(qd, w) for w in fix_q}
    if image != set(fix_b) or len(fix_q) != len(fix_b):
        return False
    for w in fix_q:
        if es_inv(qd, es(qd, w)) != w:
            return False
    for w1 in fix_q:
        for w2 in fix_q:
            join_q = saturate(ax, w1 | w2)
            join_b = saturate(axr, es(qd, w1) | es(qd, w2))
            if es(qd, join_q) != join_b:
                return False
            if (w1 <= w2) != (es(qd, w1) <= es(qd, w2)):
                return False
    return True


def eq_relation_transform(ax: FiniteAxiomSet, eq: frozenset) -> FiniteAxiomSet:
    """Enrich an axiom set over A with axioms identifying eq-related opens."""
    QuotientData(ax.carrier, eq)        # validates the equivalence
    index = {}
    cover = {}
    for a in ax.carrier:
        js = set()
        for j in ax.index[a]:
            js.add(("i", j))
            cover[(a, ("i", j))] = ax.cover[(a, j)]
        for y in ax.carrier:
            if (a, y) in eq:
                js.add(("eq", y))
                cover[(a, ("eq", y))] = frozenset((y,))
        index[a] = frozenset(js)
    return FiniteAxiomSet(ax.carrier, index, cover)


# ---------------------------------------------------------------------------
# Well-founded parts
# ---------------------------------------------------------------------------

def wp_axiom_set(rel: frozenset, carrier: frozenset) -> FiniteAxiomSet:
    """The cover encoding of the well-founded part: C(x, y) = predecessors of x.

    Every carrier element serves as a (dummy) index, and the covering subset
    ignores it, so x is covered by the empty subset exactly when all its
    predecessors already are.  The cover family is a view, not |carrier|^2
    entries, and compiles to one instance per element.
    """
    carrier = frozenset(carrier)
    preds: dict = {x: set() for x in carrier}
    for z, x in rel:
        if z not in carrier or x not in carrier:
            raise ValueError("the relation leaves the carrier")
        preds[x].add(z)
    preds = {x: frozenset(zs) for x, zs in preds.items()}
    index = {x: carrier for x in carrier}
    return FiniteAxiomSet(carrier, index, _DummyIndexCover(index, preds))


def well_founded_part(rel: frozenset, carrier: frozenset) -> frozenset:
    return saturate(wp_axiom_set(rel, carrier), frozenset())


# ---------------------------------------------------------------------------
# Tree topologies, truncated at a depth
# ---------------------------------------------------------------------------

def tree_topology(alphabet: frozenset, depth: int) -> FiniteAxiomSet:
    """Lists over the alphabet up to the depth, with prefix and branch axioms.

    A list is covered if some prefix is (longer lists name smaller opens),
    or if all its one-step extensions are; extensions are truncated at the
    depth bound, so maximal lists carry no branch axiom.
    """
    alphabet = frozenset(alphabet)
    carrier = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [l + (x,) for l in frontier for x in sorted(alphabet, key=repr)]
        carrier.extend(frontier)
    index = {}
    cover = {}
    for l in carrier:
        js = set()
        for cut in range(len(l)):
            pfx = l[:cut]
            js.add(("pre", pfx))
            cover[(l, ("pre", pfx))] = frozenset((pfx,))
        if len(l) < depth:
            js.add(("br",))
            cover[(l, ("br",))] = frozenset(l + (x,) for x in alphabet)
        index[l] = frozenset(js)
    return FiniteAxiomSet(frozenset(carrier), index, cover)


# ---------------------------------------------------------------------------
# The real-line cover: exact-rational derivation checking
# ---------------------------------------------------------------------------

# Derivation nodes; the bounds are anything Fraction accepts.

class RMember(Record):
    """Leaf: the goal pair is itself a member of U."""
    __slots__ = ()


class REmpty(Record):
    """Leaf: the goal pair (p, q) has q <= p."""
    __slots__ = ()


class RWiden(Record):
    """From a wider covered pair (lo, hi) with lo <= p < q <= hi."""
    __slots__ = ("lo", "hi", "child")


class RSplit(Record):
    """From overlapping covered pairs (p, s) and (r, q) with p <= r < s <= q."""
    __slots__ = ("r", "s", "left", "right")


class RWellCover(Record):
    """Finitary well-cover step: a covered dominator (lo, hi) with
    lo <= p and q <= hi widens onto every pair strictly inside (p, q)."""
    __slots__ = ("lo", "hi", "child")


_records(RMember, REmpty, RWiden, RSplit, RWellCover)


def _frac(x) -> Fraction:
    from fractions import Fraction      # only this checker needs exact rationals
    return x if isinstance(x, Fraction) else Fraction(x)


def joyal_check_derivation(d, goal: tuple, u) -> bool:
    """Exact check that d derives goal ◁ u under the real-line rules."""
    p, q = _frac(goal[0]), _frac(goal[1])
    u = frozenset((_frac(a), _frac(b)) for a, b in u)
    match d:
        case RMember():
            return (p, q) in u
        case REmpty():
            return q <= p
        case RWiden(lo, hi, child):
            lo, hi = _frac(lo), _frac(hi)
            return (lo <= p < q <= hi
                    and joyal_check_derivation(child, (lo, hi), u))
        case RSplit(r, s, left, right):
            r, s = _frac(r), _frac(s)
            return (p <= r < s <= q
                    and joyal_check_derivation(left, (p, s), u)
                    and joyal_check_derivation(right, (r, q), u))
        case RWellCover(lo, hi, child):
            lo, hi = _frac(lo), _frac(hi)
            return (lo <= p and q <= hi
                    and joyal_check_derivation(child, (lo, hi), u))
    raise TypeError(f"not a derivation node: {d!r}")


# ---------------------------------------------------------------------------
# Text schemas
# ---------------------------------------------------------------------------

class SchemaError(Exception):
    def __init__(self, msg: str, line: int = 0):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


def parse_axiom_file(text: str) -> tuple[FiniteAxiomSet, list[tuple]]:
    """Parse the cover schema: carrier, index, cover, and query lines."""
    carrier: set[str] = set()
    index: dict = {}
    cover: dict = {}
    queries: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        kind, rest = words[0], words[1:]
        if kind == "carrier":
            carrier.update(rest)
        elif kind == "index":
            if len(rest) < 2 or rest[1] != ":":
                raise SchemaError("expected 'index ELEM : J...'", lineno)
            elem = rest[0]
            if elem not in carrier:
                raise SchemaError(f"unknown element {elem!r}", lineno)
            index.setdefault(elem, set()).update(rest[2:])
        elif kind == "cover":
            if len(rest) < 3 or rest[2] != ":":
                raise SchemaError("expected 'cover ELEM J : MEMBERS...'", lineno)
            elem, j = rest[0], rest[1]
            members = rest[3:]
            for m in [elem] + members:
                if m not in carrier:
                    raise SchemaError(f"unknown element {m!r}", lineno)
            if j not in index.get(elem, set()):
                raise SchemaError(f"index {j!r} not declared for {elem!r}", lineno)
            if (elem, j) in cover:
                raise SchemaError(f"repeated cover line for ({elem!r}, {j!r})", lineno)
            cover[(elem, j)] = frozenset(members)
        elif kind == "query":
            queries.append(parse_query(rest, carrier, lineno))
        else:
            raise SchemaError(f"unknown directive {kind!r}", lineno)
    try:
        ax = FiniteAxiomSet(frozenset(carrier),
                            {a: frozenset(js) for a, js in index.items()},
                            cover)
    except ValueError as e:
        raise SchemaError(str(e)) from None
    return ax, queries


def parse_query(words: list[str], carrier, lineno: int = 0) -> tuple:
    """Parse the words of 'ELEM <| MEMBERS...' against a declared carrier."""
    if "<|" not in words:
        raise SchemaError("expected 'query ELEM <| MEMBERS...'", lineno)
    if words.index("<|") != 1:
        raise SchemaError("exactly one element before '<|'", lineno)
    elem, members = words[0], words[2:]
    for m in [elem] + members:
        if m not in carrier:
            raise SchemaError(f"unknown element {m!r}", lineno)
    return elem, frozenset(members)


def parse_relation_file(text: str) -> tuple[frozenset, frozenset]:
    """Parse the relation schema: carrier and 'rel Z X' lines (Z below X)."""
    carrier: set[str] = set()
    rel: set[tuple] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "carrier":
            carrier.update(words[1:])
        elif words[0] == "rel":
            if len(words) != 3:
                raise SchemaError("expected 'rel Z X'", lineno)
            z, x = words[1], words[2]
            if z not in carrier or x not in carrier:
                raise SchemaError(f"unknown element in {words[1:]!r}", lineno)
            rel.add((z, x))
        else:
            raise SchemaError(f"unknown directive {words[0]!r}", lineno)
    return frozenset(rel), frozenset(carrier)
