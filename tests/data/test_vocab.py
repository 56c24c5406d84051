"""Vocabulary helper tests."""

import numpy as np
from hypothesis import given, strategies as st

from repro.data.vocab import zipf_choice, proper_noun, ADJECTIVES


def test_zipf_choice_skews_to_head():
    rng = np.random.default_rng(0)
    samples = zipf_choice(rng, ADJECTIVES, 5000)
    counts = {word: samples.count(word) for word in set(samples)}
    head = counts.get(ADJECTIVES[0], 0)
    tail = counts.get(ADJECTIVES[-1], 0)
    assert head > 3 * max(tail, 1)


def test_zipf_choice_deterministic_per_seed():
    a = zipf_choice(np.random.default_rng(7), ADJECTIVES, 50)
    b = zipf_choice(np.random.default_rng(7), ADJECTIVES, 50)
    assert a == b


@given(count=st.integers(1, 79), size=st.integers(0, 6),
       exponent=st.floats(0.5, 2.3), seed=st.integers(0, 2**32 - 1),
       before=st.integers(0, 3), after=st.integers(0, 3))
def test_zipf_choice_draws_what_generator_choice_draws(
        count, size, exponent, seed, before, after):
    """The cached-CDF draw is ``rng.choice(..., p=probs)``: same indices,
    and the generator left in the same state, so every later draw of a
    corpus stays aligned."""
    words = [f"w{i}" for i in range(count)]
    ranks = np.arange(1, count + 1, dtype=np.float64)
    probs = ranks ** (-exponent)
    probs /= probs.sum()
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (ours, ref):
        rng.integers(100, size=before)
    got = zipf_choice(ours, words, size, exponent=exponent)
    want = [words[i] for i in ref.choice(count, size=size, p=probs)]
    assert got == want
    assert ours.bit_generator.state == ref.bit_generator.state
    assert (ours.integers(100, size=after).tolist()
            == ref.integers(100, size=after).tolist())


def test_proper_noun_composition():
    rng = np.random.default_rng(1)
    names = {proper_noun(rng) for _ in range(50)}
    assert len(names) > 20          # combinatorial variety
    assert all(name.islower() and name.isalpha() for name in names)
