"""A concrete first Kleene algebra over the naturals.

Programs are naturals: a code is pair(tag, args) where args is the encoded
list of arguments collected so far.  Applying a code appends the argument;
once the tag's arity is reached the operation executes.  Partial application
is therefore pure arithmetic on codes, which is what makes the s-m-n tricks
(PAPP, the recursion theorem) cheap.

Every natural decodes: codes whose tag is unknown, or whose collected
argument list is already at or beyond the tag's arity, are the designated
diverging programs.

The instruction set is documented in docs/machine.md, together with the
trace format used by the T predicate and the U extractor.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

# The parser's nesting, the kernel, the printer and the syntax rebuild on
# nesting other than numerals still recurse; give them headroom.  Machine
# evaluation and bracket abstraction are iterative.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))

DEFAULT_FUEL = 10 ** 6


class Diverged(Exception):
    """Raised when evaluation exhausts its step budget or hits a diverger."""


class Budget:
    __slots__ = ("steps",)

    def __init__(self, steps: int = DEFAULT_FUEL):
        self.steps = steps

    def tick(self):
        if self.steps <= 0:
            raise Diverged("fuel exhausted")
        self.steps -= 1

    def charge(self, steps):
        """Pay for a run known to take this many ticks, exactly as running it
        would: a budget that cannot pay drains to min(steps left, 0), where
        the run's failing tick would leave it, and raises Diverged."""
        if self.steps < steps:
            self.steps = min(self.steps, 0)
            raise Diverged("fuel exhausted")
        self.steps -= steps


# ---------------------------------------------------------------------------
# Pairing and list coding
# ---------------------------------------------------------------------------
#
# The pairing function ranks pairs of bit strings (naturals in bijective
# shortlex form) by total length, then by left length, then lexically.
# It is a primitive recursive bijection with pair(0, 0) = 0, and the size of
# pair(n, m) is about bits(n) + bits(m), so deeply nested codes stay
# polynomial in the number of tree nodes.  (Cantor pairing, whose output has
# 2*max(bits) bits, makes nested program codes exponentially large.)
#
# Layout: a natural n corresponds to the bit string s with 2^|s| + val(s)
# = n + 1.  With k = |s|, L = k + |t|,
#   pair(n, m) = pairs_below(L) + k*2^L + val(s)*2^(L-k) + val(t)
# where pairs_below(L) = (L-1)*2^L + 1 counts the pairs of total length < L.


def _pairs_below(length: int) -> int:
    return (length - 1) * (1 << length) + 1 if length else 0


def pair(n: int, m: int) -> int:
    k = (n + 1).bit_length() - 1
    lt = (m + 1).bit_length() - 1
    total = k + lt
    vs = n + 1 - (1 << k)
    vt = m + 1 - (1 << lt)
    return _pairs_below(total) + (k << total) + (vs << lt) + vt


def unpair(r: int) -> tuple[int, int]:
    # start from a closed-form estimate of the total length: it is never
    # below the answer and at most 3 above it
    b = r.bit_length()
    total = b - b.bit_length() + 2
    while _pairs_below(total) > r:
        total -= 1
    rem = r - _pairs_below(total)
    k = rem >> total
    rem -= k << total
    lt = total - k
    vs, vt = rem >> lt, rem & ((1 << lt) - 1)
    return (1 << k) + vs - 1, (1 << lt) + vt - 1


def unpair0(k: int) -> int:
    return unpair(k)[0]


def unpair1(k: int) -> int:
    return unpair(k)[1]


def snoc(lst: int, a: int) -> int:
    return pair(lst, a) + 1


def enc_list(items: list[int]) -> int:
    acc = 0
    for a in items:
        acc = snoc(acc, a)
    return acc


def dec_list(x: int) -> list[int]:
    out: list[int] = []
    while x:
        front, last = unpair(x - 1)
        out.append(last)
        x = front
    out.reverse()
    return out


def list_length(x: int) -> int:
    n = 0
    while x:
        x = unpair0(x - 1)
        n += 1
    return n


def list_component(x: int, j: int) -> int:
    """The j-th element of the encoded list; 0 when j is out of range."""
    items = dec_list(x)
    return items[j] if j < len(items) else 0


def untuple(x: int, n: int) -> tuple[int, ...]:
    """The n parts of a left-nested tuple pair(...pair(p1, p2)..., pn)."""
    parts = []
    for _ in range(n - 1):
        x, last = unpair(x)
        parts.append(last)
    return (x, *reversed(parts))


# Universe and cover-proof codes are pair(tag, the left-nested tuple of the
# tag's parts).  This table gives, per tag, the kind and the part count.
LAYOUT = (("base", 1), ("sigma", 2), ("pi", 2), ("plus", 2), ("list", 1),
          ("id", 3), ("cov", 5), ("rf", 2), ("tr", 3))
TAG = {kind: tag for tag, (kind, _) in enumerate(LAYOUT)}


def tagged(kind: str, *parts: int) -> int:
    """The code of the given kind with the given parts."""
    assert len(parts) == LAYOUT[TAG[kind]][1]
    x = parts[0]
    for p in parts[1:]:
        x = pair(x, p)
    return pair(TAG[kind], x)


def untagged(n: int) -> tuple | None:
    """(kind, *parts) of a code, or None when its tag is not in LAYOUT."""
    tag, payload = unpair(n)
    if tag >= len(LAYOUT):
        return None
    kind, count = LAYOUT[tag]
    return (kind, *untuple(payload, count))


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

K = 0       # K a x        = a
I = 1       # I x          = x
S = 2       # S f g x      = {  {f}(x)  }(  {g}(x)  )
SUCC = 3    # SUCC n       = n + 1
PRED = 4    # PRED n       = n - 1  (0 at 0)
PAIR = 5    # PAIR a b     = pair(a, b)
P0 = 6      # P0 k         = unpair0(k)
P1 = 7      # P1 k         = unpair1(k)
IFZ = 8     # IFZ n a b    = a if n = 0 else b
EQ = 9      # EQ a b       = 0 if a = b else 1
REC = 10    # REC z s n    = z if n = 0 else {s}(n-1, REC z s (n-1))
LREC = 11   # LREC d e l   = d if l = [] else {e}(front l, last l, LREC d e (front l))
SNOC = 12   # SNOC l a     = pair(l, a) + 1
LEN = 13    # LEN l        = list length
CPT = 14    # CPT l j      = j-th component
MU = 15     # MU f         = least m with {f}(m) = 0
AP = 16     # AP e x       = {e}(x)
PAPP = 17   # PAPP e a x   = {e}(a, x)   -- total code-level partial application
IND = 18    # IND q1 q2 m  -- cover recursor, see docs/machine.md
TRACE = 19  # TRACE e x    = the halting trace of {e}(x)

# An applicative term, as the evaluator runs it: an int is a numeral, a str
# a free variable, and ("app", f, x) applies f to x.
KTerm = int | str | tuple


def kapp(f: KTerm, *xs: KTerm) -> KTerm:
    for x in xs:
        f = ("app", f, x)
    return f


def kop(tag: int, *args: KTerm) -> KTerm:
    return kapp(code(tag), *args)


def _lrec(d: int, e: int, l: int) -> KTerm:
    if l == 0:
        return d
    front, last = unpair(l - 1)
    return kapp(e, front, last, kapp(_LREC_CODE, d, e, front))


def _ind(q1: int, q2: int, m: int) -> KTerm:
    kind, *parts = untagged(m) or (None,)
    if kind == "rf":
        return kapp(q1, *parts)
    if kind == "tr":                            # parts are z, j, r
        return kapp(q2, *parts, c2_aux_term(q1, q2, parts[2]))
    return 0


# tag -> (arity, rule).  A rule takes the full argument list and returns the
# result, or an expression for the evaluator to run.  MU and TRACE read the
# step budget, so the evaluator runs them itself.
INSTRUCTIONS = {
    K: (2, lambda a, x: a),
    I: (1, lambda x: x),
    S: (3, lambda f, g, x: kapp(kapp(f, x), kapp(g, x))),
    SUCC: (1, lambda n: n + 1),
    PRED: (1, lambda n: n - 1 if n else 0),
    PAIR: (2, pair),
    P0: (1, unpair0),
    P1: (1, unpair1),
    IFZ: (3, lambda n, a, b: a if n == 0 else b),
    EQ: (2, lambda a, b: 0 if a == b else 1),
    REC: (3, lambda z, s, n: z if n == 0 else
          kapp(s, n - 1, kapp(_REC_CODE, z, s, n - 1))),
    LREC: (3, _lrec),
    SNOC: (2, snoc),
    LEN: (1, list_length),
    CPT: (2, list_component),
    MU: (1, None),
    AP: (2, kapp),
    PAPP: (3, kapp),
    IND: (3, _ind),
    TRACE: (2, None),
}
ARITY = {tag: arity for tag, (arity, _) in INSTRUCTIONS.items()}


def code(tag: int, args: list[int] | None = None) -> int:
    return pair(tag, enc_list(args or []))


@lru_cache(maxsize=1 << 12)     # the machine applies the same few codes often
def _decoded(e: int) -> tuple[int, tuple[int, ...], int] | None:
    """(tag, args, payload) of a code, payload being the encoded args; None
    means the designated diverging program."""
    tag, payload = unpair(e)
    arity = ARITY.get(tag)
    if arity is None:
        return None
    args = tuple(dec_list(payload))
    if len(args) >= arity:
        return None
    return tag, args, payload


def decode(e: int) -> tuple[int, list[int]] | None:
    """Decode a code; None means the designated diverging program."""
    dec = _decoded(e)
    return None if dec is None else (dec[0], list(dec[1]))


_REC_CODE, _LREC_CODE = code(REC), code(LREC)


def _eval_expr(expr: KTerm, budget: Budget | int, env: dict[str, int]) -> int:
    """Evaluate an applicative term without growing the Python stack.

    Control stack entries: an int is a value; a str is a variable, read
    from env; ("app", f, x) evaluates f, then x, then applies (at once when
    both are values already); ("ap",) applies the two topmost values;
    ("mu", f, m) resumes an unbounded search; ("tr", e, x, steps0) wraps a
    finished sub-run into a trace.  An int budget is a fresh step allowance.
    """
    if isinstance(budget, int):
        budget = Budget(budget)
    control: list = [expr]
    values: list[int] = []
    pop = control.pop
    while control:
        frame = pop()
        if type(frame) is int:
            values.append(frame)
            continue
        op = frame[0]
        if op == "app":
            _, f, x = frame
            if type(f) is not int or type(x) is not int:
                control += (("ap",), x, f)
                continue
        elif op == "ap":
            x, f = values.pop(), values.pop()
        elif op == "mu":
            r = values.pop()
            _, f, m = frame
            if r == 0:
                values.append(m)
            else:
                budget.tick()
                control += (("mu", f, m + 1), ("app", f, m + 1))
            continue
        elif type(frame) is str:
            # a variable (op is its first letter, never a tag), tested after
            # the frequent frames so that they pay nothing for it
            if frame not in env:
                raise ValueError(f"unbound applicative variable {frame!r}")
            values.append(env[frame])
            continue
        else:                                   # "tr"
            r = values.pop()
            _, e2, x2, steps0 = frame
            values.append(pair(pair(e2, x2), pair(steps0 - budget.steps, r)))
            continue
        budget.tick()
        dec = _decoded(f)
        if dec is None:
            raise Diverged(f"code {f} diverges by fiat")
        tag, args, payload = dec
        arity, rule = INSTRUCTIONS[tag]
        if len(args) + 1 < arity:
            # pair(tag, enc(args + [x])), without re-encoding args
            values.append(pair(tag, snoc(payload, x)))
        elif rule is not None:
            r = rule(*args, x)
            (values if type(r) is int else control).append(r)
        elif tag == MU:
            fd = _decoded(x)
            if fd is not None and len(fd[1]) + 1 < ARITY[fd[0]]:
                # {f}(m) is a partial-application code, never 0: the search
                # would tick twice per candidate until the budget ran out, so
                # drain it there at once
                budget.charge(math.inf)
            control += (("mu", x, 0), ("app", x, 0))
        else:                                   # TRACE
            control += (("tr", args[0], x, budget.steps), ("app", args[0], x))
    assert len(values) == 1
    return values[0]


def apply(e: int, n: int, budget: Budget | int = DEFAULT_FUEL) -> int:
    """Kleene application {e}(n); raises Diverged on fuel exhaustion."""
    return _eval_expr(("app", e, n), budget, {})


def apply_many(e: int, *ns: int, budget: Budget | int = DEFAULT_FUEL) -> int:
    return _eval_expr(kapp(e, *ns), budget, {})


def apply_counted(e: int, n: int, max_steps: int) -> tuple[int, int] | None:
    """Run {e}(n) from a fresh step counter; (result, steps) or None."""
    budget = Budget(max_steps)
    try:
        result = apply(e, n, budget)
    except Diverged:
        return None
    return result, max_steps - budget.steps


def trace_of(e: int, n: int, max_steps: int = DEFAULT_FUEL) -> int | None:
    got = apply_counted(e, n, max_steps)
    if got is None:
        return None
    result, steps = got
    return pair(pair(e, n), pair(steps, result))


def kleene_T(e: int, n: int, m: int) -> bool:
    """Decidable: m is the canonical halting trace of {e}(n)."""
    en, sr = unpair(m)
    if unpair(en) != (e, n):
        return False
    steps, result = unpair(sr)
    got = apply_counted(e, n, steps + 1)
    return got == (result, steps)


def kleene_U(m: int) -> int:
    return unpair1(unpair1(m))


# ---------------------------------------------------------------------------
# Applicative terms and bracket abstraction
# ---------------------------------------------------------------------------

_kfresh_counter = itertools.count()


def kfresh(hint: str = "k") -> str:
    return f"{hint}%{next(_kfresh_counter)}"


def kvars(t: KTerm) -> frozenset[str]:
    found, todo = set(), [t]
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            todo += t[1:]
        elif type(t) is str:
            found.add(t)
    return frozenset(found)


def ksubst(t: KTerm, name: str, u: KTerm) -> KTerm:
    if type(t) is tuple:
        return kapp(ksubst(t[1], name, u), ksubst(t[2], name, u))
    return u if t == name else t


def kterm_src(t: KTerm) -> str:
    """The printed form: {f}(a) over numerals and free variables.  The walk
    keeps an explicit stack, as kvars does; punctuation goes on it as text."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            todo += (")", t[2], "}(", t[1], "{")
        else:
            out.append(str(t))
    return "".join(out)


def eval_kterm(t: KTerm, env: dict[str, int] | None = None,
               budget: Budget | int = DEFAULT_FUEL) -> int:
    """Evaluate an applicative term; env supplies its free variables, each
    read when the run reaches it."""
    return _eval_expr(t, budget, env or {})


_I_LEAF, _K_LEAF, _S_LEAF = code(I), code(K), code(S)


def lambda_abstract(t: KTerm, x: str) -> KTerm:
    """Bracket abstraction: for all n, {eval(Λx.t)}(n) = eval(t[n/x]).

    The uniform S/K scheme (no eta shortcut) makes abstraction commute with
    substitution on the nose, which is what validates the replacement rule
    in the model: the value of Λx.t depends only on the values of the free
    subterms of t, never on their syntax.
    """
    body = _abs(t, x)
    return kapp(_K_LEAF, t) if body is None else body


def _abs(t: KTerm, x: str) -> KTerm | None:
    """Λx.t in one pass; None when x does not occur in t.  The walk keeps an
    explicit stack, as kvars does: an application is met once going down
    and once more, marked, to build it from its two parts' results."""
    done, todo = [], [(t, False)]
    while todo:
        t, built = todo.pop()
        if type(t) is not tuple:
            done.append(_I_LEAF if t == x else None)
        elif not built:
            todo += ((t, True), (t[2], False), (t[1], False))
        else:
            a, f = done.pop(), done.pop()
            done.append(None if f is None and a is None else kapp(
                _S_LEAF, kapp(_K_LEAF, t[1]) if f is None else f,
                kapp(_K_LEAF, t[2]) if a is None else a))
    return done[0]


def lambda_abstract_many(t: KTerm, names: list[str]) -> KTerm:
    for x in reversed(names):
        t = lambda_abstract(t, x)
    return t


# ---------------------------------------------------------------------------
# The cover recursor and its contraction shape
# ---------------------------------------------------------------------------

def c2_aux_term(q1: KTerm, q2: KTerm, r: KTerm) -> KTerm:
    """The argument fed to q2 by the tr-contraction: Λz.Λu. ind(q1, q2, {r}(z, u)).

    The IND instruction evaluates exactly this term at runtime, so the
    machine-built argument and the interpretation of the contractum's
    lambda coincide as numerals whenever the leaf values coincide.
    """
    z, u = kfresh("z"), kfresh("u")
    body = kop(IND, q1, q2, kapp(r, z, u))
    return lambda_abstract_many(body, [z, u])


# ---------------------------------------------------------------------------
# Recursion theorem
# ---------------------------------------------------------------------------

def fix_by_recursion_theorem(transformer: int, fuel: int = DEFAULT_FUEL) -> int:
    """A code e with {e}(x) = {{transformer}(e)}(x) for all x.

    Kleene's construction: d computes x from u via the transformed
    self-application code, and e is the PAPP code applying d to itself.
    PAPP makes s-m-n a total arithmetic operation on codes, so the diagonal
    never needs to run anything to build e.
    """
    u, x = kfresh("u"), kfresh("x")
    self_code = kop(PAIR, PAPP, kop(SNOC, kop(SNOC, 0, u), u))
    body = kapp(transformer, self_code, x)
    d = eval_kterm(lambda_abstract_many(body, [u, x]), {}, fuel)
    return code(PAPP, [d, d])


# ---------------------------------------------------------------------------
# Derived codes
# ---------------------------------------------------------------------------

def _build(term: KTerm) -> int:
    return eval_kterm(term, {}, 10 ** 7)


def _mk_plus() -> int:
    a, b, k, r = kfresh("a"), kfresh("b"), kfresh("k"), kfresh("r")
    step = lambda_abstract_many(kop(SUCC, r), [k, r])
    return _build(lambda_abstract_many(kop(REC, a, step, b), [a, b]))


def _mk_mult() -> int:
    a, b, k, r = kfresh("a"), kfresh("b"), kfresh("k"), kfresh("r")
    step = lambda_abstract_many(kapp(PLUS_CODE, a, r), [k, r])
    return _build(lambda_abstract_many(kop(REC, 0, step, b), [a, b]))


PLUS_CODE = _mk_plus()
MULT_CODE = _mk_mult()


# ---------------------------------------------------------------------------
# The realizer of the formal Church's thesis
# ---------------------------------------------------------------------------

def _mk_ct_realizer() -> int:
    # Given a function realizer a, return pair(a, w) where {w}(x) is
    # pair(z, U(z)) with z the halting trace of {a}(x).  The code itself is
    # a fixed numeral; it is close to the identity, dressed with the trace
    # search and the result extractor.
    a, x, z = kfresh("a"), kfresh("x"), kfresh("z")
    inner = lambda_abstract(kop(PAIR, z, kop(P1, kop(P1, z))), z)
    witness = lambda_abstract(kapp(inner, kop(TRACE, a, x)), x)
    return _build(lambda_abstract(kop(PAIR, a, witness), a))


CT_REALIZER = _mk_ct_realizer()


def ct_realizer() -> int:
    """The fixed numeral realizing the formal Church's thesis."""
    return CT_REALIZER


def ct_check(fn_code: int, xmax: int = 20, fuel: int = DEFAULT_FUEL) -> bool:
    """Pointwise check of the realizer against one function realizer.

    Extracts pair(e, w) = {CT_REALIZER}(fn_code) and verifies, for each
    x <= xmax, that {w}(x) = pair(z, r) with T(e, x, z), U(z) = {fn_code}(x),
    and r = U(z).
    """
    budget = Budget(fuel)
    ew = apply(CT_REALIZER, fn_code, budget)
    e, w = unpair(ew)
    for x in range(xmax + 1):
        zr = apply(w, x, budget)
        z, r = unpair(zr)
        if not kleene_T(e, x, z):
            return False
        expected = apply(fn_code, x, budget)
        if kleene_U(z) != expected or r != expected:
            return False
    return True
