"""Value semantics of the package's records: equal fields give equal
values with equal hashes, the ordered ones sort by their field tuples,
fields cannot be assigned, and ``repr`` prints ``Name(field=value, ...)``."""

from __future__ import annotations

import pytest

from multihom import (
    ChainEnv,
    ChainExpr,
    Connective,
    Multigraph,
    Multilayer,
    Multicell,
    validate,
)
from multihom.chainparse import _Token
from multihom.homology import BoundaryMatrix
from multihom.incremental import KNOWN_CASES, IncrementalParams
from multihom.mgraph import EdgeCopy
from multihom.workspace import Workspace

M, T = Connective.MERGE, Connective.TENSOR


def edge():
    return Multigraph.build([1, 2], [(1, 2, "red")], ["red"])


# a factory per class, so each call makes a new value with equal fields
FACTORIES = {
    "EdgeCopy": lambda: EdgeCopy(1, 2, 1, "red"),
    "Multigraph": edge,
    "Multilayer": lambda: Multilayer((edge(),)),
    "ChainExpr": lambda: ChainExpr(("G", "H"), (M,)),
    "ChainEnv": lambda: ChainEnv({"G": edge()}),
    "_Token": lambda: _Token("atom", "G", 0),
    "Multicell": lambda: Multicell((1, 2), 1, (((1,), 1), ((2,), 1))),
    "BoundaryMatrix": lambda: BoundaryMatrix((1,)),
    "IncrementalParams": lambda: IncrementalParams(1, 1, 0, 0, 0, 1, 1, 0, 0),
    "IncrementalReport": lambda: validate(edge(), edge()),
    "KnownCase": lambda: KNOWN_CASES[0],
    "Workspace": lambda: Workspace(frozenset(["red"]), {"G": edge()}, "G"),
}
FIELDS = {
    "EdgeCopy": ("u", "v", "copy", "color"),
    "Multilayer": ("layers",),
    "ChainExpr": ("atoms", "connectives"),
    "ChainEnv": ("graphs",),
    "_Token": ("kind", "value", "pos"),
    "Multicell": ("vertices", "copy", "faces"),
    "BoundaryMatrix": ("columns",),
    "IncrementalParams": ("dim", "beta_g", "beta_h", "n_g", "n_h", "p_g", "p_h", "cl", "dup"),
    "IncrementalReport": (
        "params_d1", "params_d2", "formula_beta1", "formula_beta2", "oracle_beta1",
        "oracle_beta2",
    ),
    "KnownCase": ("case", "dim", "params", "recorded"),
    "Workspace": ("palette", "graphs", "chain_text"),
}
# values whose fields hold a dict, which has no hash
UNHASHABLE = {"ChainEnv", "Workspace"}

# recorded when these records were dataclasses: the text must not change
# (BoundaryMatrix's is newer: it has kept only its columns since)
REPRS = {
    "EdgeCopy": "EdgeCopy(u=1, v=2, copy=1, color='red')",
    "Multigraph": "Multigraph(|V|=2, |E|=1, colours=['red'])",
    "Multilayer": "Multilayer(layers=(Multigraph(|V|=2, |E|=1, colours=['red']),))",
    "ChainExpr": "ChainExpr(atoms=('G', 'H'), connectives=(Connective.MERGE,))",
    "ChainEnv": "ChainEnv(graphs={'G': Multigraph(|V|=2, |E|=1, colours=['red'])})",
    "_Token": "_Token(kind='atom', value='G', pos=0)",
    "Multicell": "Multicell(vertices=(1, 2), copy=1, faces=(((1,), 1), ((2,), 1)))",
    "BoundaryMatrix": "BoundaryMatrix(columns=(1,))",
    "IncrementalParams": (
        "IncrementalParams(dim=1, beta_g=1, beta_h=0, n_g=0, n_h=0, p_g=1, p_h=1, cl=0, dup=0)"
    ),
    "IncrementalReport": (
        "IncrementalReport("
        "params_d1=IncrementalParams(dim=1, beta_g=0, beta_h=0, n_g=1, n_h=1, p_g=0, p_h=0, "
        "cl=0, dup=0), "
        "params_d2=IncrementalParams(dim=2, beta_g=0, beta_h=0, n_g=0, n_h=0, p_g=0, p_h=0, "
        "cl=0, dup=1), "
        "formula_beta1=1, formula_beta2=1, oracle_beta1=1, oracle_beta2=0)"
    ),
    "KnownCase": (
        "KnownCase(case='A', dim=1, params=IncrementalParams(dim=1, beta_g=1, beta_h=0, "
        "n_g=0, n_h=0, p_g=1, p_h=1, cl=0, dup=0), recorded=1)"
    ),
    "Workspace": (
        "Workspace(palette=frozenset({'red'}), "
        "graphs={'G': Multigraph(|V|=2, |E|=1, colours=['red'])}, chain_text='G')"
    ),
}


@pytest.mark.parametrize("name", FACTORIES)
def test_equal_fields_give_equal_values(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", FACTORIES)
def test_fields_cannot_be_assigned(name):
    value = FACTORIES[name]()
    field = "nodes" if name == "Multigraph" else FIELDS[name][0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", FACTORIES)
def test_repr_is_unchanged(name):
    assert repr(FACTORIES[name]()) == REPRS[name]


def test_unequal_fields_and_other_classes_compare_unequal():
    assert EdgeCopy(1, 2, 1, "red") != EdgeCopy(1, 2, 2, "red")
    assert ChainExpr(("G", "H"), (M,)) != ChainExpr(("G", "H"), (T,))
    assert Multilayer(()) == Multilayer() != ChainEnv({})
    assert ChainExpr(("G",)) == ChainExpr(atoms=("G",), connectives=())


@pytest.mark.parametrize(
    "name, values",
    [
        ("EdgeCopy", [EdgeCopy(2, 3, 1, "red"), EdgeCopy(1, 3, 2, "blue"),
                      EdgeCopy(1, 3, 1, "red"), EdgeCopy(1, 3, 1, "blue")]),
        ("Multicell", [Multicell((1, 2), 2, (((1,), 1), ((2,), 1))), Multicell((2,), 1),
                       Multicell((1, 2), 1, (((1,), 1), ((2,), 1))), Multicell((1,), 1)]),
        ("ChainExpr", [ChainExpr(("H", "G"), (M,)), ChainExpr(("G",)),
                       ChainExpr(("G", "H"), (T,))]),
    ],
)
def test_sorted_follows_the_field_tuples(name, values):
    fields = FIELDS[name]
    as_tuples = sorted(tuple(getattr(v, f) for f in fields) for v in values)
    assert [tuple(getattr(v, f) for f in fields) for v in sorted(values)] == as_tuples
    assert sorted(values, reverse=True) == sorted(values)[::-1]
    low, high = sorted(values)[:2]
    assert low < high and low <= high and high > low and high >= low
    assert not (low > high or low >= high or high < low or high <= low)
    assert low <= low and low >= low and not (low < low or low > low)
    assert max(values) == sorted(values)[-1] and min(values) == low


@pytest.mark.parametrize(
    "a, b",
    [
        (EdgeCopy(1, 2, 1, "red"), Multicell((2,), 1)),
        (Multicell((1,), 1), ChainExpr(("G",))),
        (ChainExpr(("G",)), EdgeCopy(1, 2, 1, "red")),
        (EdgeCopy(1, 2, 1, "red"), (1, 2, 1, "red")),
    ],
    ids=["EdgeCopy-Multicell", "Multicell-ChainExpr", "ChainExpr-EdgeCopy", "EdgeCopy-tuple"],
)
def test_values_of_different_classes_do_not_order(a, b):
    for x, y in [(a, b), (b, a)]:
        for compare in (
            lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y,
            lambda: sorted([x, y]),
        ):
            with pytest.raises(TypeError):
                compare()
