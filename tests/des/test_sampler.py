"""``Distribution.sampler``: the event simulators' draw path.

A sampler's ``draw()`` must return exactly what ``sample(rng)`` would,
and its ``settle()`` must leave the stream exactly where as many scalar
draws would have.  The exponential sampler serves its draws from array
fills of ``CHUNK`` values, so it is checked on both sides of every fill
boundary against a scalar twin: a generator of the same seed drawn one
value at a time.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.des.distributions import (
    CHUNK,
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
)

RATES = [1e-3, 0.5, 1.0, 8.0, 250.0]
COUNTS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def _twins(seed: int = 2024):
    """Two generators in the same state."""
    return (
        np.random.Generator(np.random.PCG64(seed)),
        np.random.Generator(np.random.PCG64(seed)),
    )


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("rate", RATES)
def test_exponential_draws_are_scalar_draws(rate, n):
    rng, twin = _twins()
    draw, settle = Exponential(rate).sampler(rng)
    got = [draw() for _ in range(n)]
    scale = 1.0 / rate
    want = [twin.exponential(scale) for _ in range(n)]
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    settle()
    assert rng.bit_generator.state == twin.bit_generator.state
    # the stream goes on as the twin's does
    assert rng.exponential(scale).hex() == twin.exponential(scale).hex()
    assert rng.random().hex() == twin.random().hex()


@pytest.mark.parametrize("n", [0, 5, CHUNK + 3])
def test_settle_twice_is_settle_once(n):
    rng, twin = _twins(7)
    draw, settle = Exponential(3.0).sampler(rng)
    for _ in range(n):
        draw()
    settle()
    settle()
    for _ in range(n):
        twin.exponential(1.0 / 3.0)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_samplers_on_separate_streams_are_independent():
    (a, a_twin), (b, b_twin) = _twins(1), _twins(2)
    draw_a, settle_a = Exponential(2.0).sampler(a)
    draw_b, settle_b = Exponential(5.0).sampler(b)
    got = [(draw_a(), draw_b(), draw_b()) for _ in range(CHUNK + 10)]
    want = [
        (a_twin.exponential(0.5), b_twin.exponential(0.2), b_twin.exponential(0.2))
        for _ in range(CHUNK + 10)
    ]
    assert got == want
    settle_b()
    settle_a()
    assert a.bit_generator.state == a_twin.bit_generator.state
    assert b.bit_generator.state == b_twin.bit_generator.state


def test_no_draw_leaves_the_stream_untouched():
    rng, twin = _twins(3)
    _, settle = Exponential(1.0).sampler(rng)
    assert rng.bit_generator.state == twin.bit_generator.state
    settle()
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize(
    "dist", [Deterministic(0.25), Erlang(3, 6.0)], ids=lambda d: type(d).__name__
)
def test_other_distributions_take_the_base_path(dist):
    assert type(dist).sampler is Distribution.sampler
    rng, twin = _twins(11)
    draw, settle = dist.sampler(rng)
    assert isinstance(draw, partial) and draw.func == dist.sample
    got = [draw() for _ in range(CHUNK + 1)]
    want = [dist.sample(twin) for _ in range(CHUNK + 1)]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    settle()
    assert rng.bit_generator.state == twin.bit_generator.state
