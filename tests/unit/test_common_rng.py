"""Unit tests for the deterministic random-stream tree."""

from repro.common.rng import SeedSequence, derive_seed


class TestDeriveSeed:
    def test_is_deterministic(self):
        assert derive_seed(42, "latency") == derive_seed(42, "latency")

    def test_differs_across_names(self):
        assert derive_seed(42, "latency") != derive_seed(42, "fault")

    def test_differs_across_root_seeds(self):
        assert derive_seed(1, "latency") != derive_seed(2, "latency")

    def test_path_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


class TestSeedSequence:
    def test_same_stream_name_reproduces_draws(self):
        first = SeedSequence(7).stream("node", 3)
        second = SeedSequence(7).stream("node", 3)
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_different_streams_are_independent(self):
        seeds = SeedSequence(7)
        a = seeds.stream("node", 1)
        b = seeds.stream("node", 2)
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_child_namespaces_do_not_collide_with_parent_streams(self):
        seeds = SeedSequence(7)
        direct = seeds.stream("run", 0, "latency")
        via_child = seeds.child("run", 0).stream("latency")
        assert direct.random() == via_child.random()

    def test_spawn_creates_numbered_children(self):
        children = SeedSequence(1).spawn(3, "run")
        assert [child.path for child in children] == [
            ("run", 0),
            ("run", 1),
            ("run", 2),
        ]
