"""Corpus, tokenizer, and loader tests."""

import hashlib

import numpy as np
import pytest

from repro.config import DEFAULT_SEED
from repro.data import (generate_corpus, CORPUS_NAMES, WordTokenizer,
                        BatchLoader, split_stream)
from repro.data.tokenizer import SPECIALS
from repro.eval.perplexity import EVAL_SEED

#: SHA-256 of ``" ".join(generate_corpus(name, num_sentences, seed))`` at
#: the argument sets the repo uses: the held-out eval stream, the
#: calibration stream, the zoo's training text (the committed tokenizer
#: and zoo were built from it) and one short case.
CORPUS_DIGESTS = {
    ("wikitext-sim", 4000, EVAL_SEED):
        "46181328aa906ba240f871fcb4ef0a4cb85fea5e452104b218d8f3bcc135409f",
    ("c4-sim", 4000, EVAL_SEED):
        "727c666f25e0c81056032a29c6807e828ade60ca1e490d32b3470ea2cb390fd3",
    ("wikitext-sim", 1000, 31):
        "915d895fd3bf26009a51faff718d7f139972535bee30bc463fbbe3fe6f66a1d4",
    ("c4-sim", 1000, 31):
        "e0f4ae3bcefad1b05272b54570947f2a66d08a32e24954ac719a5a0a0809af02",
    ("wikitext-sim", 30_000, DEFAULT_SEED):
        "b419b500dad5e6a4aab84b832dad8afef84c94a1fefe9ab85e1347fbe9b72a09",
    ("c4-sim", 30_000, DEFAULT_SEED):
        "620d2ba04e4cbd1ed843a2df595f68d6a933ea3fba1ffae6041e9f601e87ef0a",
    ("wikitext-sim", 100, 3):
        "d04db532afc8e089e009e5a7bb78775e44ea069cd93709c17a590a640654f90e",
    ("c4-sim", 100, 3):
        "07194381afae623d2859c7ff0bc85fa0c43a36581ff8fbfe5bdb21bb4216f03e",
}


@pytest.mark.parametrize("name,num_sentences,seed", sorted(CORPUS_DIGESTS))
def test_corpus_pinned_by_digest(name, num_sentences, seed):
    """Every corpus is a pure function of its arguments, byte for byte:
    a change to the generators (or to how they draw) shows up here."""
    tokens = generate_corpus(name, num_sentences, seed=seed)
    digest = hashlib.sha256(" ".join(tokens).encode()).hexdigest()
    assert digest == CORPUS_DIGESTS[name, num_sentences, seed]


def test_corpora_deterministic():
    for name in CORPUS_NAMES:
        a = generate_corpus(name, 100, seed=3)
        b = generate_corpus(name, 100, seed=3)
        assert a == b


def test_corpora_differ_by_seed():
    a = generate_corpus("wikitext-sim", 100, seed=1)
    b = generate_corpus("wikitext-sim", 100, seed=2)
    assert a != b


def test_corpora_have_distinct_styles():
    wiki = set(generate_corpus("wikitext-sim", 500, seed=0))
    c4 = set(generate_corpus("c4-sim", 500, seed=0))
    assert "subscribe" in c4 and "subscribe" not in wiki
    assert "=" in wiki  # section headings


def test_unknown_corpus_rejected():
    with pytest.raises(ValueError):
        generate_corpus("pile-sim", 10)


def test_tokenizer_specials_first():
    tok = WordTokenizer.train([["a", "b", "a"]], vocab_size=8)
    assert tuple(tok.vocab[:4]) == SPECIALS


def test_tokenizer_roundtrip_known_words():
    tok = WordTokenizer.train([["alpha", "beta", "alpha"]], vocab_size=8)
    ids = tok.encode(["alpha", "beta"])
    assert tok.decode(ids) == ["alpha", "beta"]


def test_tokenizer_unk_for_oov():
    tok = WordTokenizer.train([["alpha"]], vocab_size=5)
    ids = tok.encode(["gamma"])
    assert ids[0] == tok.unk_id


def test_tokenizer_vocab_budget():
    words = [f"w{i}" for i in range(100)]
    tok = WordTokenizer.train([words], vocab_size=20)
    assert len(tok) == 20


def test_tokenizer_coverage():
    tok = WordTokenizer.train([["a", "b"]], vocab_size=6)
    assert tok.coverage(["a", "b"]) == 1.0
    assert tok.coverage(["a", "z"]) == 0.5


def test_tokenizer_deterministic_tie_break():
    tok1 = WordTokenizer.train([["b", "a"]], vocab_size=6)
    tok2 = WordTokenizer.train([["a", "b"]], vocab_size=6)
    assert tok1.vocab == tok2.vocab


def test_split_stream():
    train, val = split_stream(np.arange(100), val_fraction=0.1)
    assert len(train) == 90 and len(val) == 10
    with pytest.raises(ValueError):
        split_stream(np.arange(3), val_fraction=0.0)


def test_loader_targets_are_shifted_inputs():
    stream = np.arange(1000)
    loader = BatchLoader(stream, batch_size=4, seq_len=16)
    inputs, targets = next(iter(loader.epoch(0)))
    assert inputs.shape == (4, 16)
    np.testing.assert_array_equal(inputs[:, 1:], targets[:, :-1])


def test_loader_epoch_deterministic():
    stream = np.arange(1000)
    loader = BatchLoader(stream, batch_size=4, seq_len=16, seed=7)
    first = [i.copy() for i, _ in loader.epoch(3)]
    second = [i.copy() for i, _ in loader.epoch(3)]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_loader_epochs_reshuffle():
    stream = np.arange(2000)
    loader = BatchLoader(stream, batch_size=4, seq_len=16, seed=7)
    first = next(iter(loader.epoch(0)))[0]
    second = next(iter(loader.epoch(1)))[0]
    assert not np.array_equal(first, second)


def test_loader_too_short_stream():
    with pytest.raises(ValueError):
        BatchLoader(np.arange(10), batch_size=1, seq_len=32)


def test_loader_forever_cycles():
    stream = np.arange(200)
    loader = BatchLoader(stream, batch_size=2, seq_len=16)
    batches = loader.forever()
    for _ in range(3 * loader.batches_per_epoch):
        inputs, _ = next(batches)
        assert inputs.shape[1] == 16
