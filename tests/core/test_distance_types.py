"""Unit tests for distance types."""

import pytest

from repro.core.distance_types import DistanceType, all_types, type_mask


def edge_set(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def test_all_types_count():
    assert len(list(all_types(1))) == 1
    assert len(list(all_types(2))) == 2
    assert len(list(all_types(3))) == 8
    assert len(list(all_types(4))) == 64


def test_all_types_rejects_large_arity():
    with pytest.raises(ValueError):
        list(all_types(7))


def test_components_of_empty_type():
    tau = DistanceType(3)
    assert tau.components() == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_components_transitive():
    tau = DistanceType(3, edge_set((0, 1), (1, 2)))
    assert tau.components() == [frozenset({0, 1, 2})]


def test_component_of():
    tau = DistanceType(3, edge_set((0, 2)))
    assert tau.component_of(0) == frozenset({0, 2})
    assert tau.component_of(1) == frozenset({1})


def test_restrict():
    tau = DistanceType(3, edge_set((0, 2), (1, 2)))
    restricted = tau.restrict(frozenset({0, 1}))
    assert restricted == DistanceType(2)
    keeping = tau.restrict(frozenset({0, 2}))
    assert keeping == DistanceType(2, edge_set((0, 1)))


def test_type_of_uses_oracle():
    values = (10, 11, 50, 52)
    close = lambda a, b: abs(a - b) <= 5
    # bit j(j-1)/2 + i for the pair i < j: (0,1) is bit 0, (2,3) is bit 5
    assert type_mask(values, close) == 0b100001
    tau = DistanceType(4, edge_set((0, 1), (2, 3)))
    assert type_mask(range(4), tau.has_edge) == type_mask(values, close)
    # a prefix's mask is the low bits of the whole tuple's
    assert type_mask(values[:3], close) == type_mask(values, close) & 0b111
    assert type_mask((7,), close) == 0


def test_type_mask_is_a_bijection_on_types():
    for k in (2, 3, 4):
        masks = {type_mask(range(k), tau.has_edge) for tau in all_types(k)}
        assert masks == set(range(1 << (k * (k - 1) // 2)))


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        DistanceType(2, frozenset({frozenset({0, 5})}))
