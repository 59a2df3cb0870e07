"""The package's record classes are `namedtuple` subclasses (no
`dataclasses` import).  `SimpleType`, `SatakeDiagram` and `ParabolicData`
keep the contract they had as dataclasses: constructor signature,
immutability, repr, and value equality and hash on the same fields, which
for `SatakeDiagram` leave out `params` and `arrows` (so `==` and `!=`
both differ from tuple's, and no diagram equals a plain tuple).
`Conjugation` is immutable too.  The verdict document of
`concavity_verdict` is a plain dict with a fixed key order."""

import pytest

import chain_oracle as oracle
from minorbit.crflag import (ParabolicData, concavity_verdict, get_context,
                             parabolic, phi_mask)
from minorbit.realform import SatakeDiagram, find_form
from minorbit.rootsys import SimpleType


def test_simple_type_is_a_hashable_value():
    a, b = SimpleType("B", 3), SimpleType(family="B", rank=3)
    assert a == b and hash(a) == hash(b)
    assert {a, b, SimpleType("C", 3)} == {a, SimpleType("C", 3)}
    assert a != SimpleType("B", 4)
    assert (a.family, a.rank, str(a)) == ("B", 3, "B3")


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 2),
                                         ("D", 2), ("E", 5), ("E", 9),
                                         ("F", 3), ("G", 3), ("H", 2),
                                         ("", 2), ("AB", 2)])
def test_simple_type_rejects_an_illegal_type(family, rank):
    with pytest.raises(ValueError):
        SimpleType(family, rank)


def test_satake_diagram_equality_ignores_params_and_arrows():
    e = find_form("su(2,5)")
    twin = SatakeDiagram(e.label, e.name, e.family, e.rank, {"p": 9},
                         e.black, {}, e.char, e.doubled)
    assert twin == e and hash(twin) == hash(e)
    assert not twin != e and not e != twin
    assert twin.params == {"p": 9} and twin.arrows == {}
    other = SatakeDiagram(e.label, e.name, e.family, e.rank, e.params,
                          e.black, e.arrows, e.char + 1, e.doubled)
    assert other != e and not other == e
    bare = SatakeDiagram("x", "bad", "A", 3)
    assert (bare.params, bare.black, bare.arrows, bare.char,
            bare.doubled) == ({}, frozenset(), {}, 0, False)
    assert SatakeDiagram("x", "bad", "A", 3).params is not bare.params
    assert repr(bare) == ("SatakeDiagram(label='x', name='bad', family='A', "
                          "rank=3, params={}, black=frozenset(), arrows={}, "
                          "char=0, doubled=False)")


def test_satake_diagram_equals_no_plain_tuple():
    e = find_form("su(2,5)")
    fields = tuple(e)
    assert len(fields) == 9
    assert e != fields and fields != e
    assert not e == fields and not fields == e


def test_parabolic_data_equals_the_oracle_value():
    ctx = get_context("su(2,3)")
    for phi in ((), (1,), (2,), (1, 4), (1, 2, 3, 4)):
        pd = parabolic(ctx, phi_mask(phi))
        assert pd == oracle.parabolic(ctx, phi)
        assert hash(pd) == hash(oracle.parabolic(ctx, phi))
        assert pd == ParabolicData(phi_mask(phi), pd.Q, pd.Qn, pd.Qbar)


@pytest.mark.parametrize("record,field", [
    (SimpleType("A", 2), "rank"),
    (find_form("su(2,3)"), "black"),
    (find_form("su(2,3)"), "params"),
    (ParabolicData(frozenset(), 1, 2, 3), "Q"),
    (get_context("su(2,3)").conj, "t_exp"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_concavity_verdict_doc_keys_and_equality():
    ctx = get_context("su(2,3)")
    v = concavity_verdict(ctx, (2,))
    assert list(v) == [
        "form", "phi", "finite_type", "gammas", "k_phi", "mot_satisfied",
        "mot_details", "span_satisfied", "span_dims", "verdict",
        "annotation", "gauge_seed"]
    assert v == concavity_verdict(ctx, (2,))
    assert v != concavity_verdict(ctx, (1,))
