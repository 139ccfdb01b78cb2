"""The frozen record base against the frozen dataclass it replaced."""

import dataclasses

import pytest

from qcstar._record import Record
from qcstar.acceptance import RunConfig
from qcstar.graphs import Edge, Graph, GraphError, VertexSet
from qcstar.ktheory import AbelianGroup


@dataclasses.dataclass(frozen=True)
class AsDataclass:
    free_rank: int
    torsion: tuple = ()


class AsRecord(Record):
    free_rank: int
    torsion: tuple = ()


class Other(Record):
    free_rank: int
    torsion: tuple = ()


def test_construction_order_and_defaults_match_a_dataclass():
    for args, kwargs in (((1,), {}), ((2, (3,)), {}), ((), {"free_rank": 4}),
                         ((5,), {"torsion": (2, 2)})):
        want, got = AsDataclass(*args, **kwargs), AsRecord(*args, **kwargs)
        assert repr(got) == repr(want).replace("AsDataclass", "AsRecord")
        assert (got.free_rank, got.torsion) == (want.free_rank, want.torsion)
        assert list(vars(got)) == ["free_rank", "torsion"]
    assert RunConfig() == RunConfig(0.5, 64, 40, 0)
    assert repr(RunConfig(seed=3)) == \
        "RunConfig(q=0.5, dim=64, n_max=40, seed=3)"


@pytest.mark.parametrize("args, kwargs", [((), {}), ((1, (), 2), {}),
                                          ((1,), {"free_rank": 1}),
                                          ((1,), {"rank": 1})])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        AsRecord(*args, **kwargs)


def test_equality_and_hash_go_by_class_and_fields():
    a, b = AsRecord(1, (2,)), AsRecord(1, (2,))
    assert a == b and hash(a) == hash(b) == hash((1, (2,)))
    assert a != AsRecord(1, (3,))
    assert a != Other(1, (2,))
    assert AbelianGroup(2, (2,)) == AbelianGroup(free_rank=2, torsion=[2])


def test_assignment_and_deletion_raise_attribute_error():
    a = AsRecord(1)
    with pytest.raises(AttributeError):
        a.free_rank = 2
    with pytest.raises(AttributeError):
        a.other = 2
    with pytest.raises(AttributeError):
        del a.torsion
    assert a.free_rank == 1


def test_post_init_validates_and_normalises():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    g = Graph(("v", "w"), (Edge("e", "v", "w"),))
    with pytest.raises(GraphError):
        Graph(("v", "v"), ())
    assert VertexSet(g, ("w", "v", "w")).names == ("v", "w")
