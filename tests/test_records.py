"""The record protocol of syntax nodes and of the kernel's and the model's
answers: the positional fields, the repr, replace, equality and hashing
without hints, and immutability.  The pinned values are those the nodes had
as frozen dataclasses; the node classes are now built from a table."""

import pickle

import pytest

from covtt.kernel import CheckResult
from covtt.realizability import YES, Tri
from covtt.syntax import _HINTS, _SIG, BVar, FVar, Inl, Inr, Succ, Zero

# class name -> (__match_args__, the repr of the class's sample below)
PINNED = {
    "BVar": ("k", "BVar(k=3)"),
    "FVar": ("name", "FVar(name='v')"),
    "Zero": ("", "Zero()"),
    "Succ": ("arg", "Succ(arg=Zero())"),
    "NatRec": ("scrut base step step_hints", "NatRec(scrut=Zero(), base=Zero(), step=Zero())"),
    "Star": ("", "Star()"),
    "UnitRec": ("scrut base", "UnitRec(scrut=Zero(), base=Zero())"),
    "EmptyRec": ("scrut", "EmptyRec(scrut=Zero())"),
    "Pair": ("fst snd", "Pair(fst=Zero(), snd=Zero())"),
    "Split": ("scrut body body_hints", "Split(scrut=Zero(), body=Zero())"),
    "Lam": ("body hint", "Lam(body=Zero())"),
    "Ap": ("fn arg", "Ap(fn=Zero(), arg=Zero())"),
    "Inl": ("arg", "Inl(arg=Zero())"),
    "Inr": ("arg", "Inr(arg=Zero())"),
    "When": ("scrut left right left_hint right_hint",
             "When(scrut=Zero(), left=Zero(), right=Zero())"),
    "Nil": ("", "Nil()"),
    "Cons": ("init last", "Cons(init=Zero(), last=Zero())"),
    "ListRec": ("scrut base step step_hints", "ListRec(scrut=Zero(), base=Zero(), step=Zero())"),
    "Refl": ("arg", "Refl(arg=Zero())"),
    "IdPeel": ("scrut body body_hint", "IdPeel(scrut=Zero(), body=Zero())"),
    "Rf": ("elem mem", "Rf(elem=Zero(), mem=Zero())"),
    "Tr": ("elem idx fn", "Tr(elem=Zero(), idx=Zero(), fn=Zero())"),
    "Ind": ("scrut base step base_hints step_hints",
            "Ind(scrut=Zero(), base=Zero(), step=Zero())"),
    "N0Hat": ("", "N0Hat()"),
    "N1Hat": ("", "N1Hat()"),
    "NHat": ("", "NHat()"),
    "SigmaHat": ("base fam", "SigmaHat(base=Zero(), fam=Zero())"),
    "PiHat": ("base fam", "PiHat(base=Zero(), fam=Zero())"),
    "PlusHat": ("left right", "PlusHat(left=Zero(), right=Zero())"),
    "ListHat": ("base", "ListHat(base=Zero())"),
    "IdHat": ("base lhs rhs", "IdHat(base=Zero(), lhs=Zero(), rhs=Zero())"),
    "CovHat": ("base idx cov elem sub idx_hint cov_hints",
               "CovHat(base=Zero(), idx=Zero(), cov=Zero(), elem=Zero(), sub=Zero())"),
    "TN0": ("", "TN0()"),
    "TN1": ("", "TN1()"),
    "TN": ("", "TN()"),
    "TU0": ("", "TU0()"),
    "TSigma": ("dom cod hint", "TSigma(dom=Zero(), cod=Zero())"),
    "TPi": ("dom cod hint", "TPi(dom=Zero(), cod=Zero())"),
    "TSum": ("left right", "TSum(left=Zero(), right=Zero())"),
    "TList": ("elem", "TList(elem=Zero())"),
    "TId": ("ty lhs rhs", "TId(ty=Zero(), lhs=Zero(), rhs=Zero())"),
    "TDec": ("code", "TDec(code=Zero())"),
}


def _sample(cls, *hints):
    if cls is BVar:
        return BVar(3)
    if cls is FVar:
        return FVar("v")
    return cls(*[Zero() for _ in _SIG[cls]], *hints)


def _other_hints(cls) -> list:
    """Hint values other than the defaults, one per hint field."""
    arities = [arity for _, arity in _SIG[cls] if arity]
    return ["h" if n == 1 else ("h",) * n for n in arities]


def test_every_node_class_is_pinned():
    assert [cls.__name__ for cls in _SIG] == list(PINNED)


@pytest.mark.parametrize("cls", list(_SIG), ids=lambda cls: cls.__name__)
def test_node_protocol(cls):
    match_args, rep = PINNED[cls.__name__]
    assert cls.__match_args__ == tuple(match_args.split())
    s = _sample(cls)
    assert repr(s) == rep
    # hints take no part in == or hash, and replace keeps them
    hints = _other_hints(cls)
    t = _sample(cls, *hints)
    assert s == t and hash(s) == hash(t)
    assert [getattr(t, h) for h in _HINTS[cls]] == hints
    if _SIG[cls]:
        first = _SIG[cls][0][0]
        u = t.replace(**{first: Succ(Zero())})
        assert type(u) is cls and getattr(u, first) == Succ(Zero()) and u != t
        assert [getattr(u, h) for h in _HINTS[cls]] == hints
        assert all(getattr(u, f) is getattr(t, f) for f in cls.__match_args__ if f != first)
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and [getattr(copy, h) for h in _HINTS[cls]] == hints
    for f in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(s, f, Zero())
        with pytest.raises(AttributeError):
            delattr(s, f)
    assert s != object() and s != repr(s)


def test_formers_with_equal_parts_differ():
    x = FVar("x")
    assert Inl(x) != Inr(x) and Inl(x) == Inl(FVar("x"))
    assert BVar(0) != FVar("x") and BVar(0) == BVar(0) and BVar(0) != BVar(1)
    assert Zero() == Zero() and hash(Zero()) == hash(Zero())


def test_tri_protocol():
    assert Tri.__match_args__ == ("kind", "reason", "staged")
    assert repr(YES) == "Tri(kind='yes', reason=None, staged=False)"
    assert repr(Tri("no", "r", True)) == "Tri(kind='no', reason='r', staged=True)"
    assert Tri("yes") == YES and hash(Tri("yes")) == hash(YES)
    assert Tri("no", "r") != Tri("no", "r", True) and Tri("no", "r") != Tri("no", "s")
    assert Tri("no", "r").replace(staged=True) == Tri("no", "r", True)
    with pytest.raises(AttributeError):
        YES.kind = "no"
    with pytest.raises(TypeError):
        bool(YES)


def test_check_result_protocol():
    assert CheckResult.__match_args__ == ("accepted", "rule", "reason")
    assert repr(CheckResult(True)) == "CheckResult(accepted=True, rule=None, reason=None)"
    assert (repr(CheckResult(False, "x", "y"))
            == "CheckResult(accepted=False, rule='x', reason='y')")
    assert CheckResult(False, "x", "y") == CheckResult(accepted=False, rule="x", reason="y")
    assert CheckResult(True) != CheckResult(False)
    with pytest.raises(AttributeError):
        CheckResult(True).accepted = False
