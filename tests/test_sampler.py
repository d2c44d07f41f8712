"""Random stream determinism and resource ledger accounting."""

import itertools
import warnings

import numpy as np
import pytest

from qsvtsim.sampler import (MAX_TRIALS, Outcome, ResourceLedger, RngStream,
                             bernoulli_trials, record_shots)


def test_stream_is_deterministic():
    a = RngStream(12, 7)
    b = RngStream(12, 7)
    assert [a.generator.integers(1000) for _ in range(5)] \
        == [b.generator.integers(1000) for _ in range(5)]


def test_child_offsets_stream_id():
    base = RngStream(3, 100)
    kid = base.child(5)
    assert kid.seed == 3
    assert kid.stream_id == 105
    same = RngStream(3, 105)
    assert kid.generator.integers(10**9) == same.generator.integers(10**9)
    assert repr(RngStream(3, 5)) == "RngStream(seed=3, stream_id=5)"


def test_distinct_streams_disagree():
    draws = {RngStream(9, sid).generator.integers(2**40) for sid in range(8)}
    assert len(draws) == 8


def test_seeds_past_2_63_get_their_own_streams():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((-1, 0), (2**63, 2**63 + 7)):
            assert RngStream(a, 0).generator.integers(2**62) \
                != RngStream(b, 0).generator.integers(2**62)


@pytest.mark.parametrize("seed", (0, 12345, 2**63 + 5, 2**64 - 1, -1))
def test_stream_matches_philox_keyed_by_seed_and_id(seed):
    """The stream's Philox has the key and counter, and so the draws, of one
    built with key=[seed, stream_id] mod 2**64 as a uint64 array."""
    for stream_id in (0, 1, 2**32 + 3, 2**63, 2**64 - 1):
        ours = RngStream(seed, stream_id).generator
        key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        got, want = ours.bit_generator.state["state"], ref.bit_generator.state["state"]
        assert got["key"].tolist() == want["key"].tolist() == key.tolist()
        assert got["counter"].tolist() == want["counter"].tolist() == [0, 0, 0, 0]
        assert ours.random(4).tolist() == ref.random(4).tolist()
        assert ours.binomial(10**6, 0.3, size=4).tolist() \
            == ref.binomial(10**6, 0.3, size=4).tolist()


def test_bernoulli_frozen_count():
    # regression value captured once from Philox key [2024, 0]
    assert bernoulli_trials(0.5, 100_000, RngStream(2024, 0)) == 50119


def test_bernoulli_degenerate_probabilities():
    assert bernoulli_trials(0.0, 500, RngStream(0, 0)) == 0
    assert bernoulli_trials(1.0, 500, RngStream(0, 0)) == 500


def test_bernoulli_zero_trials():
    assert bernoulli_trials(0.7, 0, RngStream(0, 0)) == 0


def test_bernoulli_rejects_bad_args():
    with pytest.raises(ValueError):
        bernoulli_trials( 1.5, 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        bernoulli_trials(-0.1, 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        bernoulli_trials(0.5, -1, RngStream(0, 0))
    # numpy's binomial would raise OverflowError past a signed 64-bit count
    assert bernoulli_trials(1.0, MAX_TRIALS, RngStream(0, 0)) == MAX_TRIALS
    with pytest.raises(ValueError, match=r"trial count must lie in \[0, 2\*\*63 - 1\]"):
        bernoulli_trials(0.5, MAX_TRIALS + 1, RngStream(0, 0))


def test_bernoulli_concentration():
    """Counts sit within 4 sigma of the mean for nearly every stream."""
    n = 100_000
    for p in (0.1, 0.5, 0.9):
        sigma = (n * p * (1 - p)) ** 0.5
        hits = sum(
            abs(bernoulli_trials(p, n, RngStream(77, sid)) - n * p) <= 4 * sigma
            for sid in range(100))
        assert hits >= 99


def test_ledger_records_queries_and_depth():
    led = ResourceLedger()
    record_shots(led, 5, 3)
    assert (led.total_queries, led.max_depth, led.shots) == (15, 5, 3)
    record_shots(led, 2, 10)
    assert (led.total_queries, led.max_depth, led.shots) == (35, 5, 13)


def test_ledger_totals_are_order_invariant():
    records = [(5, 3), (2, 10), (9, 1), (1, 0)]
    results = set()
    for perm in itertools.permutations(records):
        led = ResourceLedger()
        for depth, n in perm:
            record_shots(led, depth, n)
        results.add((led.total_queries, led.max_depth, led.shots))
    assert results == {(44, 9, 14)}


def test_ledger_rejects_negative():
    with pytest.raises(ValueError):
        record_shots(ResourceLedger(), -1, 2)
    with pytest.raises(ValueError):
        record_shots(ResourceLedger(), 1, -2)


def test_zero_shots_leave_depth_alone():
    led = record_shots(ResourceLedger(), 9, 0)
    assert led.max_depth == 0
    assert led.total_queries == 0
    assert led.shots == 0


def test_depth_never_exceeds_total():
    led = ResourceLedger()
    for depth, n in ((3, 1), (8, 2), (1, 5)):
        record_shots(led, depth, n)
        assert led.max_depth <= led.total_queries


def test_outcome_enum_members():
    assert Outcome.LEFT.value == 0
    assert Outcome.RIGHT.value == 1
    assert Outcome(0) is Outcome.LEFT
    assert Outcome(1) is Outcome.RIGHT
