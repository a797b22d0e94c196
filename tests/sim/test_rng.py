"""Tests for the named deterministic RNG registry."""

from repro.sim.rng import RngRegistry, derive_seed


def test_same_name_same_stream_object():
    registry = RngRegistry(7)
    assert registry.stream("a") is registry.stream("a")


def test_streams_are_deterministic_across_registries():
    a = RngRegistry(7).stream("workload").random()
    b = RngRegistry(7).stream("workload").random()
    assert a == b


def test_different_names_are_independent():
    registry = RngRegistry(7)
    a = [registry.stream("a").random() for _ in range(5)]
    b = [registry.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_master_seeds_differ():
    assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()


def test_adding_stream_does_not_perturb_existing():
    registry1 = RngRegistry(7)
    first = registry1.stream("a")
    draws_before = [first.random() for _ in range(3)]

    registry2 = RngRegistry(7)
    registry2.stream("b")  # interleave creation of another stream
    second = registry2.stream("a")
    draws_after = [second.random() for _ in range(3)]
    assert draws_before == draws_after


def test_derive_seed_stable():
    assert derive_seed(42, "abc") == derive_seed(42, "abc")
    assert derive_seed(42, "abc") != derive_seed(42, "abd")
