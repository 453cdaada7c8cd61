"""Span bookkeeping of the tracer, on synthetic functions and on v2vaoi."""

import pytest

from perfbench.tracer import SPAN_NAMES, Tracer, last_improvement, shims


class Clock:
    """A clock that only moves when the synthetic work says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_on_synthetic_span_tree():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def leaf_b():
        clock.work(4)

    def leaf_c():
        clock.work(5)
        raise ValueError("child fails")

    b = tracer.wrap("b", leaf_b)
    c = tracer.wrap("c", leaf_c)

    def body_a(depth):
        if depth:  # outer a: 1 + inner a + 2
            clock.work(1)
            a(depth - 1)
            clock.work(2)
            return
        clock.work(3)  # inner a: 3 + b + c + 6
        b()
        with pytest.raises(ValueError):
            c()
        clock.work(6)

    a = tracer.wrap("a", body_a)
    a(1)
    b()  # a root span after the tree

    stats = tracer.stats()
    assert stats["a"] == {"calls": 2, "errors": 0, "self_s": 3.0 + 9.0, "total_s": 21.0}
    assert stats["b"] == {"calls": 2, "errors": 0, "self_s": 8.0, "total_s": 8.0}
    assert stats["c"] == {"calls": 1, "errors": 1, "self_s": 5.0, "total_s": 5.0}
    assert list(tracer.parent) == [-1, 0, 1, 1, -1]


def test_stats_of_an_empty_trace():
    tracer = Tracer()
    tracer.wrap("a", len)
    assert tracer.stats() == {"a": {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0}}


def test_last_improvement_counts_steps():
    assert last_improvement([1.0, 2.0, 2.0, 3.0, 3.0], first_step=0) == 3
    assert last_improvement([1.0, 2.0, 2.0, 3.0, 3.0], first_step=1) == 4
    assert last_improvement([1.0, 1.0], first_step=0) == 0


def test_shims_cover_every_binding_and_restore_them():
    from v2vaoi import allocator, channel, cli, metrics

    before = (cli.greedy_pa, metrics.genetic_pa, allocator.project_to_feasible,
              channel.PowerMatrix.__init__)
    tracer = Tracer()
    with shims(tracer):
        assert cli.greedy_pa is allocator.greedy_pa is not before[0]
        assert metrics.genetic_pa is allocator.genetic_pa is not before[1]
        assert isinstance(channel.PowerMatrix([[0.0, 1.0], [1.0, 0.0]]), channel.PowerMatrix)
    after = (cli.greedy_pa, metrics.genetic_pa, allocator.project_to_feasible,
             channel.PowerMatrix.__init__)
    assert after == before
    stats = tracer.stats()
    assert stats["channel.PowerMatrix"]["calls"] == 1
    assert set(tracer.names) <= set(SPAN_NAMES)
