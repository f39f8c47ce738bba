from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import pytest

from srgate import schema
from srgate.errors import InvalidModelParams


@dataclass(frozen=True)
class Leaf:
    x: float
    on: bool = False

    def __post_init__(self):
        if self.x < 0:
            raise InvalidModelParams(f"x {self.x} < 0")


@dataclass(frozen=True)
class OtherLeafSpec:
    n: int


@dataclass(frozen=True)
class Root:
    leaf: Leaf
    either: Leaf | OtherLeafSpec
    pair: tuple[float, float]
    scores: Mapping[int, float | None]
    table: Mapping[tuple[int, int], float] = field(metadata={"keyed_by": (("a", "b"), ("lo", "hi"))})
    renamed: str = field(default="s", metadata={"key": "name"})
    note: str | None = None


ROOT = Root(
    leaf=Leaf(1, True),
    either=OtherLeafSpec(3),
    pair=(0.5, 2),
    scores={0: 0.25, 4: None},
    table={(0, 0): 0.0, (0, 1): 1.5, (1, 0): 2.0, (1, 1): 3},
)


def test_encode_follows_names_tags_and_metadata():
    assert schema.encode(ROOT) == {
        "leaf": {"x": 1, "on": True},
        "either": {"type": "other_leaf", "n": 3},
        "pair": [0.5, 2],
        "scores": {"0": 0.25, "4": None},
        "table": {"a": {"lo": 0.0, "hi": 1.5}, "b": {"lo": 2.0, "hi": 3}},
        "name": "s",
        "note": None,
    }


def test_decode_inverts_encode_and_keeps_integers_as_given():
    data = json.loads(json.dumps(schema.encode(ROOT)))
    back = schema.decode(Root, data, "")
    assert back == ROOT
    assert type(back.leaf.x) is int and type(back.pair[0]) is float
    assert json.dumps(schema.encode(back), sort_keys=True) == json.dumps(data, sort_keys=True)


def _corrupt(path, value):
    data = json.loads(json.dumps(schema.encode(ROOT)))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is KeyError:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("leaf", "x"), True, "leaf.x must be a finite number, got True"),
        (("leaf", "x"), "1", "leaf.x must be a finite number"),
        (("leaf", "x"), float("nan"), "leaf.x must be a finite number"),
        pytest.param(("leaf", "x"), 10**400, "leaf.x must be a finite number", id="huge-int"),
        (("leaf", "on"), 1, "leaf.on must be true or false"),
        (("leaf", "extra"), 1, "leaf.extra: unknown key"),
        (("leaf", "on"), KeyError, "leaf lacks keys ['on']"),
        (("either", "n"), 3.0, "either.n must be an integer"),
        (("either", "type"), "leaf_spec", "either.type must be one of ['leaf', 'other_leaf']"),
        (("either", "type"), ["leaf"], "either.type must be one of"),
        (("pair",), [0.5], "pair must be an array of 2 entries"),
        (("scores", "x"), 0.5, "scores.x: key must be an integer"),
        (("table", "a"), [0.0, 1.5], "table.a must be an object"),
        (("table", "b", "mid"), 1.0, "table.b.mid: unknown key"),
        (("name",), None, "name must be a string"),
        (("note",), 5, "note must be a string"),
        (("renamed",), "s", "renamed: unknown key"),
    ],
)
def test_decode_errors_name_the_key_path(path, value, message):
    with pytest.raises(ValueError) as info:
        schema.decode(Root, _corrupt(path, value), "")
    assert message in str(info.value)


def test_range_check_keeps_its_class_and_gains_the_section_path():
    with pytest.raises(InvalidModelParams, match=r"^top\.leaf: x -1 < 0$"):
        schema.decode(Root, _corrupt(("leaf", "x"), -1), "top")


@pytest.mark.parametrize("kind,value", [(int, 7), (int | None, None), (float, 7), (str, "a"), (bool, False)])
def test_scalar_rules_accept_json_values_as_given(kind, value):
    assert schema.decode(kind, value, "key") is value
