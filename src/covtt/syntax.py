"""Abstract syntax, binding, substitution, and concrete syntax.

Terms, universe codes, and pretypes share one tree type (``PreTerm``); the
kernel decides which occurrences are well formed.  Binding is locally
nameless: bound variables are de Bruijn indices (``BVar``), free variables
are named (``FVar``), so alpha-equivalence is plain structural equality and
substitution can never capture.  Binder nodes keep name hints for printing
only; hints never take part in equality.

The node classes are built from one table, _FORMERS and _PRETYPE_FORMERS:
adding a former is one row there (and, if it has concrete syntax, one entry
in _FORMS or _TYPE_FORMS).  Nodes and the other records are immutable
__slots__ objects made by _records, not dataclasses, so that importing this
module stays cheap.

The concrete grammar is documented in docs/grammar.md.
"""

from __future__ import annotations

import itertools
import re
import threading
from operator import attrgetter, itemgetter


class SyntaxError_(Exception):
    """Parse-time failure, carrying a source position."""

    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class Record:
    """An immutable record.  Its fields are its __slots__; the first ones,
    _fields (by default all), take part in ==, hash and repr, and _defaults
    fill the last ones.  _records gives a class its __init__."""

    __slots__ = ()
    _defaults: tuple = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        parts = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({parts})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(*[changes[f] if f in changes else getattr(self, f)
                            for f in self.__slots__])


def _records(*classes: type) -> None:
    """Give each Record class its __match_args__ (every field) and an
    __init__ that writes through the slot descriptors; all the __init__s are
    compiled in one exec.  Field j of class i is written by the global sI_J."""
    src, ns = [], {}
    for i, cls in enumerate(classes):
        fields = cls.__slots__
        src.append(f"def init{i}({', '.join(('self', *fields))}): pass")
        for j, f in enumerate(fields):
            src.append(f"; s{i}_{j}(self, {f})")
            ns[f"s{i}_{j}"] = vars(cls)[f].__set__
        src.append("\n")
    exec("".join(src), ns)
    for i, cls in enumerate(classes):
        cls.__init__ = init = ns[f"init{i}"]
        init.__qualname__, init.__defaults__ = f"{cls.__name__}.__init__", cls._defaults or None
        cls.__match_args__ = cls.__slots__
        cls._fields = fields = vars(cls).get("_fields", cls.__slots__)
        cls._key = attrgetter(*fields) if fields else (lambda _: ())


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class PreTerm(Record):
    """Base class for terms, universe codes, and pretypes.  == is alpha_eq
    and the hash reads the same nodes, so neither recurses on deep trees."""

    __slots__ = ()

    def __eq__(self, other):
        return alpha_eq(self, other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(s if s.__class__ in _LEAVES else s.__class__.__name__
                          for s, _ in _subterms(self)))

    def __str__(self) -> str:
        return to_src(self)


# The node classes, one per line: the class, its parts, and after "|" its
# hint fields with their defaults.  A part "body/2" binds two variables; the
# next hint field keeps their names, a name for one variable and a tuple
# "a,b" for more.  The name or index of a variable is a field, not a part.
# Cons: init is the shorter list, last the appended element.  CovHat is the
# code cov(s; x. i; x y. c; a; v).
_FORMERS = """
BVar k
FVar name
Zero
Succ arg
NatRec scrut base step/2 | step_hints=k,r
Star
UnitRec scrut base
EmptyRec scrut
Pair fst snd
Split scrut body/2 | body_hints=a,b
Lam body/1 | hint=x
Ap fn arg
Inl arg
Inr arg
When scrut left/1 right/1 | left_hint=a right_hint=b
Nil
Cons init last
ListRec scrut base step/3 | step_hints=t,a,r
Refl arg
IdPeel scrut body/1 | body_hint=x
Rf elem mem
Tr elem idx fn
Ind scrut base/2 step/4 | base_hints=x,w step_hints=x,h,k,f
N0Hat
N1Hat
NHat
SigmaHat base fam
PiHat base fam
PlusHat left right
ListHat base
IdHat base lhs rhs
CovHat base idx/1 cov/2 elem sub | idx_hint=x cov_hints=x,y
"""
# The pretype classes, read like _FORMERS; a part marked ":term" is a term,
# not a type.  TDec is T(a), the type the code a decodes to.
_PRETYPE_FORMERS = """
TN0
TN1
TN
TU0
TSigma dom cod/1 | hint=x
TPi dom cod/1 | hint=x
TSum left right
TList elem
TId ty lhs:term rhs:term
TDec code:term
"""
# Per node class: (part name, number of variables the part binds), and its
# hint fields, the n-th keeping the binder names of the n-th part that binds;
# per pretype class: whether each part is a type (else a term).
_SIG: dict[type, tuple[tuple[str, int], ...]] = {}
_HINTS: dict[type, list[str]] = {}
_TYPE_PARTS: dict[type, tuple[bool, ...]] = {}


def _former(line: str, pretype: bool) -> type:
    """The node class of one line of _FORMERS or _PRETYPE_FORMERS."""
    name, *parts = line.partition("|")[0].split()
    hints = [h.split("=") for h in line.partition("|")[2].split()]
    fields = tuple(p.split("/")[0].split(":")[0] for p in parts)
    arities = [int(p.partition("/")[2] or 0) for p in parts]
    defaults = tuple(d if arity == 1 else tuple(d.split(","))
                     for (_, d), arity in zip(hints, filter(None, arities)))
    cls = type(name, (PreTerm,), {"__slots__": fields + tuple(h for h, _ in hints),
                                  "_fields": fields, "_defaults": defaults})
    _SIG[cls] = () if name in ("BVar", "FVar") else tuple(zip(fields, arities))
    _HINTS[cls] = [h for h, _ in hints]
    if pretype:
        _TYPE_PARTS[cls] = tuple(not p.endswith(":term") for p in parts)
    return cls


globals().update({cls.__name__: cls for cls in (
    *(_former(line, False) for line in _FORMERS.strip().splitlines()),
    *(_former(line, True) for line in _PRETYPE_FORMERS.strip().splitlines()))})
_LEAVES = (BVar, FVar)
for _cls in _LEAVES:                    # == and hash read their one field
    _cls.__eq__, _cls.__hash__ = Record.__eq__, Record.__hash__
PRETYPES = frozenset(_TYPE_PARTS)

# The bracketed term formers: keyword -> (node class, separator).  Their
# parts are the class's _SIG fields in order; a field that binds n variables
# reads "x1 ... xn . body", and its names are kept in the class's next hint
# field (_HINTS).  Parser and printer both read this table.
_FORMS: dict[str, tuple[type, str]] = {
    "succ": (Succ, ","), "natrec": (NatRec, ";"), "unitrec": (UnitRec, ";"),
    "emptyrec": (EmptyRec, ","), "pair": (Pair, ","), "split": (Split, ";"),
    "Ap": (Ap, ","), "inl": (Inl, ","), "inr": (Inr, ","),
    "when": (When, ";"), "cons": (Cons, ","), "listrec": (ListRec, ";"),
    "refl": (Refl, ","), "idpeel": (IdPeel, ";"), "rf": (Rf, ","),
    "tr": (Tr, ","), "ind": (Ind, ";"), "sigmahat": (SigmaHat, ","),
    "pihat": (PiHat, ","), "plushat": (PlusHat, ","),
    "listhat": (ListHat, ","), "idhat": (IdHat, ","), "cov": (CovHat, ";"),
}
# The bracketed type formers, read like _FORMS; a part marked :term is a term.
_TYPE_FORMS = {"Sum": (TSum, ","), "List": (TList, ","), "Id": (TId, ","),
               "T": (TDec, ",")}
_ATOMS = {"star": Star, "nil": Nil, "n0hat": N0Hat, "n1hat": N1Hat, "nhat": NHat}
_TYPE_ATOMS = {"N0": TN0, "N1": TN1, "N": TN, "U0": TU0}


# ---------------------------------------------------------------------------
# Contexts and judgments
# ---------------------------------------------------------------------------

class Context(Record):
    __slots__ = ("entries",)            # ((name, type), ...)
    _defaults = ((),)

    def lookup(self, name: str) -> PreTerm | None:
        for n, ty in self.entries:
            if n == name:
                return ty
        return None

    def extend(self, name: str, ty: PreTerm) -> "Context":
        return Context(self.entries + ((name, ty),))


class TypeWF(Record):
    __slots__ = ("ctx", "ty")


class TypeEq(Record):
    __slots__ = ("ctx", "lhs", "rhs")


class TermOf(Record):
    __slots__ = ("ctx", "term", "ty")


class TermEq(Record):
    __slots__ = ("ctx", "lhs", "rhs", "ty")


Judgment = TypeWF | TypeEq | TermOf | TermEq

# The judgment forms: keyword -> (class, and for each part after the context
# the token before it and whether it is a type).  Parser and printer read this.
_JUDGMENTS: dict[str, tuple[type, tuple[tuple[str, bool], ...]]] = {
    "type": (TypeWF, (("|-", True),)),
    "typeeq": (TypeEq, (("|-", True), ("==", True))),
    "term": (TermOf, (("|-", False), (":", True))),
    "termeq": (TermEq, (("|-", False), ("==", False), (":", True))),
}


class CtDirective(Record):
    """A `ct f` line: check the Church's-thesis realizer against the term f."""

    __slots__ = ("fn",)


_records(*_SIG, Context, TypeWF, TypeEq, TermOf, TermEq, CtDirective)


# ---------------------------------------------------------------------------
# Binding operations
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count()


def fresh_name(hint: str = "x") -> str:
    """A name no source program can mention ('%' is not an identifier char)."""
    return f"{hint}%{next(_fresh_counter)}"


def _map(t: PreTerm, at, depth: int = 0) -> PreTerm:
    """Rebuild t: at(node, depth) gives a node's replacement, or None to keep
    the node and rebuild its parts; depth counts the binders above the node.
    A run of Succ is walked in a loop, at still seeing every node of it."""
    new = at(t, depth)
    if new is not None:
        return new
    if type(t) is Succ:
        run = [t]
        while type(t := t.arg) is Succ and (new := at(t, depth)) is None:
            run.append(t)
        new = _map(t, at, depth) if new is None else new
        for s in reversed(run):
            new = s if new is s.arg else Succ(new)
        return new
    changes = {}
    for name, arity in _SIG[type(t)]:
        old = getattr(t, name)
        new = _map(old, at, depth + arity)
        if new is not old:
            changes[name] = new
    return t.replace(**changes) if changes else t


def _subterms(t: PreTerm):
    """Every node of t in print order, with the number of binders above it."""
    todo = [(t, 0)]
    while todo:
        t, depth = todo.pop()
        yield t, depth
        todo += [(getattr(t, f), depth + arity) for f, arity in reversed(_SIG[type(t)])]


def instantiate(body: PreTerm, vals: tuple[PreTerm, ...]) -> PreTerm:
    """Fill a body binding len(vals) variables; vals are listed outermost first."""
    n = len(vals)

    def at(t: PreTerm, depth: int) -> PreTerm | None:
        if type(t) is BVar and t.k >= depth:
            if t.k - depth < n:
                return vals[n - 1 - t.k + depth]
            raise ValueError(f"dangling index {t.k} beyond binder arity {n}")

    return _map(body, at)


def close_over(t: PreTerm, names: tuple[str, ...]) -> PreTerm:
    """Turn the named free variables into bound ones, outermost first."""
    n = len(names)
    pos = {nm: i for i, nm in enumerate(names)}
    return _map(t, lambda s, depth: BVar(depth + n - 1 - pos[s.name])
                if type(s) is FVar and s.name in pos else None)


def substitute(t: PreTerm, name: str, u: PreTerm) -> PreTerm:
    """Capture-avoiding substitution of u for the free variable name in t."""
    return _map(t, lambda s, _: u if type(s) is FVar and s.name == name else None)


def free_vars(t: PreTerm) -> frozenset[str]:
    return frozenset(s.name for s, _ in _subterms(t) if type(s) is FVar)


def alpha_eq(t: PreTerm, u: PreTerm) -> bool:
    """Alpha-equivalence is structural equality in the locally nameless tree:
    t == u, compared with an explicit stack so that deep terms do not recurse."""
    todo = [(t, u)]
    while todo:
        a, b = todo.pop()
        if a is not b:
            if type(a) is not type(b) or type(a) in (FVar, BVar) and a != b:
                return False
            todo += [(getattr(a, f), getattr(b, f)) for f, _ in _SIG[type(a)]]
    return True


def abstract_out(t: PreTerm, sub: PreTerm, name: str) -> PreTerm:
    """Replace every occurrence alpha-equal to sub by the free variable name.

    sub must be locally closed; occurrences under binders are still found
    because indices inside them are self-contained.
    """
    return _map(t, lambda s, _: FVar(name) if type(s) is type(sub)
                and alpha_eq(s, sub) else None)


def pi_(name: str, dom: PreTerm, cod: PreTerm) -> TPi:
    return TPi(dom, close_over(cod, (name,)), name.split("%")[0])


def arrow(dom: PreTerm, cod: PreTerm) -> TPi:
    return TPi(dom, cod, "_")           # cod must not mention the variable


# _NUMERALS[n] is numeral n: one Succ chain, grown on demand under the lock
_NUMERALS: list[PreTerm] = [Zero()]
_NUMERALS_GROW = threading.Lock()


def numeral(n: int) -> PreTerm:
    """The numeral n >= 0.  Every numeral is a suffix of one shared chain, so
    equal numerals are one object and == on them stops at once."""
    if n >= len(_NUMERALS):
        with _NUMERALS_GROW:
            t = _NUMERALS[-1]
            for _ in range(len(_NUMERALS), n + 1):
                t = Succ(t)
                _NUMERALS.append(t)
    return _NUMERALS[n]


def as_numeral(t: PreTerm) -> int | None:
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in order; blanks and comments match
# no named group.  \d is str.isdecimal and \w is str.isalnum or "_".
_TOKEN = re.compile(r"(?P<nl>\n)|[ \t\r]+|#.*|(?P<punct>\|-|==|->|[()\[\],;:.+])"
                    r"|(?P<num>\d+)|(?P<ident>\w+)|(?P<bad>.)")


class _Tok(tuple):
    """(kind, text, line, col); kind is ident | num | punct | eof."""

    __slots__ = ()
    kind = property(itemgetter(0))
    text = property(itemgetter(1))
    line = property(itemgetter(2))
    col = property(itemgetter(3))


def _lex(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, bol = 1, 0                    # bol: where the current line begins
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line, bol = line + 1, m.end()
            continue
        text, col = m.group(), m.start() - bol + 1
        # an identifier starts with a letter or "_", not with a \w like "²"
        if kind == "bad" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            raise SyntaxError_(f"unexpected character {text[0]!r}", line, col)
        toks.append(_Tok((kind, text, line, col)))
    # a comment runs to the end of its line and does not advance the column
    end = src.find("#", bol)
    toks.append(_Tok(("eof", "", line, (len(src) if end < 0 else end) - bol + 1)))
    return toks


def _parse_spec(cls: type, sep: str) -> tuple:
    """The node class and, per part, its binder arity, whether it is a type,
    and its closing token."""
    arities = [arity for _, arity in _SIG[cls]]
    types = _TYPE_PARTS.get(cls, [False] * len(arities))
    closers = [sep] * (len(arities) - 1) + [")"]
    return cls, tuple(zip(arities, types, closers))


_PARSE_FORM = {kw: _parse_spec(cls, sep) for kw, (cls, sep) in _FORMS.items()}
_PARSE_TYPE_FORM = {kw: _parse_spec(cls, sep) for kw, (cls, sep) in _TYPE_FORMS.items()}

TYPE_KEYWORDS = {*_TYPE_ATOMS, *_TYPE_FORMS, "Sigma", "Pi"}
TERM_KEYWORDS = {*_FORMS, *_ATOMS, "lam"}
JUDGMENT_KEYWORDS = {*_JUDGMENTS, "ct"}
KEYWORDS = TYPE_KEYWORDS | TERM_KEYWORDS | JUDGMENT_KEYWORDS


class _Parser:
    def __init__(self, toks: list[_Tok], declared: set[str] | None):
        self.toks = toks
        self.pos = 0
        self.bound: list[str] = []
        # None: any identifier may occur free; a set: only those names may.
        self.declared = declared

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise SyntaxError_(f"expected {text!r}, found {t.text or 'end of input'!r}",
                               t.line, t.col)
        return t

    def fail(self, msg: str) -> SyntaxError_:
        t = self.peek()
        return SyntaxError_(msg, t.line, t.col)

    def ident(self) -> str:
        t = self.next()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise SyntaxError_(f"expected identifier, found {t.text!r}", t.line, t.col)
        return t.text

    # -- variables ----------------------------------------------------------

    def var(self, t: _Tok) -> PreTerm:
        for depth, nm in enumerate(reversed(self.bound)):
            if nm == t.text:
                return BVar(depth)
        if self.declared is not None and t.text not in self.declared:
            raise SyntaxError_(f"unbound identifier {t.text!r}", t.line, t.col)
        return FVar(t.text)

    def binder(self, names: list[str]):
        self.bound.extend(names)

    def unbind(self, n: int):
        del self.bound[-n:]

    # -- types ---------------------------------------------------------------

    def type_(self) -> PreTerm:
        # a bracketed former is read here, not in type_atom, so each level of
        # nesting costs two Python frames, as in term
        form = _PARSE_TYPE_FORM.get(self.peek().text)
        lhs = self.type_atom() if form is None else self.form(form)
        if self.peek().text == "->":
            self.next()
            # the codomain sits under one binder in the tree even though no
            # name is introduced; a dummy scope entry keeps indices aligned
            self.bound.append("%arrow%")
            rhs = self.type_()
            self.bound.pop()
            return TPi(lhs, rhs, "_")
        return lhs

    def type_atom(self) -> PreTerm:
        t = self.peek()
        if t.text == "(":
            self.next()
            ty = self.type_()
            self.expect(")")
            return ty
        if t.kind != "ident":
            raise self.fail(f"expected a type, found {t.text!r}")
        kw = t.text
        if kw in _TYPE_ATOMS:
            self.next()
            return _TYPE_ATOMS[kw]()
        if kw in ("Sigma", "Pi"):
            self.next()
            x = self.ident()
            self.expect(":")
            dom = self.type_()
            self.expect(".")
            self.binder([x])
            cod = self.type_()
            self.unbind(1)
            cls = TSigma if kw == "Sigma" else TPi
            return cls(dom, cod, x)
        raise self.fail(f"expected a type, found {kw!r}")

    # -- terms ---------------------------------------------------------------

    def term(self) -> PreTerm:
        n = 0                   # a run of "succ(" is read in a loop, not nested
        while self.peek().text == "succ" and self.toks[self.pos + 1].text == "(":
            self.pos, n = self.pos + 2, n + 1
        if n:
            lit, tm = self.peek(), self.term()
            for _ in range(n):
                self.expect(")")
            if lit.kind == "num":       # around a literal: the shared numeral
                return numeral(int(lit.text) + n)
            for _ in range(n):
                tm = Succ(tm)
            return tm
        t = self.peek()
        if t.text == "(":
            self.next()
            tm = self.term()
            self.expect(")")
            return tm
        if t.kind == "num":
            self.next()
            return numeral(int(t.text))
        if t.kind != "ident":
            raise self.fail(f"expected a term, found {t.text or 'end of input'!r}")
        kw = t.text
        if kw not in KEYWORDS:
            self.next()
            return self.var(t)
        form = _PARSE_FORM.get(kw)
        if form is not None:
            return self.form(form)
        if kw in _ATOMS:
            self.next()
            return _ATOMS[kw]()
        if kw == "lam":
            self.next()
            x = self.ident()
            if self.peek().text == ":":      # optional annotation, discarded
                self.next()
                self.type_()
            self.expect(".")
            self.binder([x])
            body = self.term()
            self.unbind(1)
            return Lam(body, x)
        raise self.fail(f"expected a term, found {kw!r}")

    def form(self, spec: tuple[type, tuple[tuple[int, bool, str], ...]]) -> PreTerm:
        """A bracketed former of _FORMS or _TYPE_FORMS.  Binder names are read
        here, not in a helper, so each level of nesting costs two Python
        frames; spec is passed whole because a starred call would also nest
        the C stack."""
        cls, fields = spec
        self.next()
        self.expect("(")
        parts, hints = [], ()
        for arity, is_type, close in fields:
            if arity:
                names = [self.ident() for _ in range(arity)]
                if len(set(names)) != arity:
                    raise self.fail("repeated binder name")
                self.expect(".")
                self.binder(names)
                parts.append(self.term())
                self.unbind(arity)
                hints += (names[0] if arity == 1 else tuple(names),)
            else:
                parts.append(self.type_() if is_type else self.term())
            self.expect(close)
        return cls(*parts, *hints)

    # -- judgments -------------------------------------------------------------

    def context(self) -> Context:
        self.expect("[")
        entries: list[tuple[str, PreTerm]] = []
        if self.peek().text != "]":
            while True:
                x = self.ident()
                if any(x == n for n, _ in entries):
                    raise self.fail(f"repeated context variable {x!r}")
                self.expect(":")
                ty = self.type_()
                entries.append((x, ty))
                if self.declared is not None:
                    self.declared.add(x)
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect("]")
        return Context(tuple(entries))

    def judgment(self) -> Judgment | CtDirective:
        kw = self.next()
        if kw.text == "ct":
            return CtDirective(self.term())
        if kw.text not in _JUDGMENTS:
            raise SyntaxError_(f"expected a judgment keyword, found {kw.text!r}",
                               kw.line, kw.col)
        if self.declared is None:
            self.declared = set()
        cls, marks = _JUDGMENTS[kw.text]
        parts = [self.context()]
        for token, is_type in marks:
            self.expect(token)
            parts.append(self.type_() if is_type else self.term())
        return cls(*parts)

    def done(self):
        t = self.peek()
        if t.kind != "eof":
            raise SyntaxError_(f"trailing input {t.text!r}", t.line, t.col)


def _parse(toks: list[_Tok], rule, declared: set[str] | None):
    p = _Parser(toks, declared)
    t = rule(p)
    p.done()
    return t


def parse_term(src: str, declared: set[str] | None = None) -> PreTerm:
    return _parse(_lex(src), _Parser.term, declared)


def parse_type(src: str, declared: set[str] | None = None) -> PreTerm:
    return _parse(_lex(src), _Parser.type_, declared)


def parse_judgment(src: str) -> Judgment | CtDirective:
    return _parse(_lex(src), _Parser.judgment, set())


def parse(src: str) -> PreTerm | Judgment | CtDirective:
    """Parse a judgment, a type, or a term, dispatching on the first token."""
    toks = _lex(src)
    head = toks[0]
    if head.kind == "ident" and head.text in JUDGMENT_KEYWORDS:
        return _parse(toks, _Parser.judgment, set())
    if head.kind == "ident" and head.text in TYPE_KEYWORDS:
        return _parse(toks, _Parser.type_, None)
    if head.text == "(":
        # parenthesized: try term first, then type
        try:
            return _parse(toks, _Parser.term, None)
        except SyntaxError_ as term_err:
            try:
                return _parse(toks, _Parser.type_, None)
            except SyntaxError_:
                raise term_err from None
    return _parse(toks, _Parser.term, None)


def parse_file(text: str) -> list[tuple[int, Judgment | CtDirective]]:
    """Parse a line-oriented judgment file; '#' comments and blank lines skipped."""
    out: list[tuple[int, Judgment | CtDirective]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = line.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        try:
            out.append((lineno, parse_judgment(stripped)))
        except SyntaxError_ as e:
            indent = len(code) - len(code.lstrip())
            raise SyntaxError_(e.msg, lineno, e.col + indent) from None
    return out


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def _pick(hint: str, used: set[str]) -> str:
    """A name for hint, renamed apart from used; it is added to used."""
    base = hint.split("%")[0] or "x"
    if base in KEYWORDS:
        base = base + "v"
    name = base
    for i in itertools.count(1):
        if name not in used:
            used.add(name)
            return name
        name = f"{base}{i}"


def to_src(t: PreTerm, used: set[str] | None = None) -> str:
    """The concrete syntax of t.  A variable the checker drew (its name holds
    '%') prints as its hint, renamed apart; the names so picked stay in used."""
    free = dict.fromkeys(s.name for s, _ in _subterms(t) if type(s) is FVar)
    if used is None:
        used = set(free)
    drawn = tuple(n for n in free if "%" in n)
    return _pr(close_over(t, drawn), used, [_pick(n, used) for n in drawn])


def _pr_binder(body: PreTerm, hints, used: set[str], names: list[str]) -> tuple[str, str]:
    xs = [_pick(h, used) for h in ((hints,) if isinstance(hints, str) else hints)]
    names += xs
    s = _pr(body, used, names)
    del names[-len(xs):]
    used.difference_update(xs)
    return " ".join(xs), s


# node class -> (keyword, separator) for each entry of _FORMS and _TYPE_FORMS
_FORM_OF = {cls: (kw, sep + " ") for kw, (cls, sep) in {**_FORMS, **_TYPE_FORMS}.items()}
_ATOM_OF = {cls: kw for kw, cls in {**_ATOMS, **_TYPE_ATOMS}.items()}
_JUDGMENT_OF = {cls: kw for kw, (cls, _) in _JUDGMENTS.items()}


def _pr(t: PreTerm, used: set[str], names: list[str]) -> str:
    """Print t; BVar(k) is names[-1 - k], the binder names outermost first."""
    match t:
        case FVar(name):
            return name
        case BVar(k):                   # ?k only on non-locally-closed trees
            return names[-1 - k] if k < len(names) else f"?{k}"
        case Zero() | Succ() if (n := as_numeral(t)) is not None:
            return str(n)
        case Lam(b):
            xs, body = _pr_binder(b, t.hint, used, names)
            return f"lam {xs} . {body}"
        case TPi(dom, cod) if not any(type(s) is BVar and s.k == depth
                                      for s, depth in _subterms(cod)):
            ds = _pr(dom, used, names)
            if isinstance(dom, (TPi, TSigma)):
                ds = f"({ds})"
            names.append("_")           # the codomain's unused variable
            cs = _pr(cod, used, names)
            names.pop()
            return f"{ds} -> {cs}"
        case TSigma(dom, _) | TPi(dom, _):
            kw = "Sigma" if isinstance(t, TSigma) else "Pi"
            xs, body = _pr_binder(t.cod, t.hint, used, names)
            return f"{kw} {xs} : {_pr(dom, used, names)} . {body}"
    cls = type(t)
    if cls in _ATOM_OF:
        return _ATOM_OF[cls]
    if cls not in _FORM_OF:
        raise AssertionError(f"unprintable node {t!r}")
    kw, sep = _FORM_OF[cls]
    hints = iter(_HINTS[cls])
    parts = []
    for name, arity in _SIG[cls]:
        if arity:
            xs, body = _pr_binder(getattr(t, name), getattr(t, next(hints)), used, names)
            parts.append(f"{xs} . {body}")
        else:
            parts.append(_pr(getattr(t, name), used, names))
    return f"{kw}({sep.join(parts)})"


def judgment_to_src(j: Judgment | CtDirective) -> str:
    if isinstance(j, CtDirective):
        return f"ct {to_src(j.fn)}"
    kw = _JUDGMENT_OF[type(j)]
    parts = [getattr(j, f) for f in j.__slots__[1:]]
    used = set()
    for _, ty in j.ctx.entries:
        used |= free_vars(ty)
    for part in parts:
        used |= free_vars(part)
    ctx = "[" + ", ".join(f"{n} : {to_src(ty, set(used))}" for n, ty in j.ctx.entries) + "]"
    return f"{kw} {ctx}" + "".join(f" {token} {to_src(part, set(used))}"
                                   for (token, _), part in zip(_JUDGMENTS[kw][1], parts))
