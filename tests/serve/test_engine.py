"""Parity and behavior tests for the batched serving engine."""

import numpy as np
import pytest

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import GenerationEngine, SpeculativeConfig


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=64, seed=3))


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(11)
    lengths = [3, 1, 7, 5, 2, 9, 4]
    return [rng.integers(0, 64, size=length) for length in lengths]


def sequential(model, prompts, max_new_tokens):
    return [model.generate(p, max_new_tokens, temperature=0.0)
            for p in prompts]


def test_greedy_parity_uniform_prompts(model):
    prompts = [np.array([1, 2, 3]), np.array([9, 8, 7]), np.array([4, 5, 6])]
    expected = sequential(model, prompts, 8)
    engine = GenerationEngine(model, max_batch_size=len(prompts))
    for got, want in zip(engine.generate_batch(prompts, 8), expected):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kv_cache", ["paged"])
def test_greedy_parity_ragged_prompts(model, prompts, kv_cache):
    """Different prompt lengths in one batch must not perturb any output."""
    expected = sequential(model, prompts, 10)
    engine = GenerationEngine(model, max_batch_size=len(prompts),
                              kv_cache=kv_cache)
    for got, want in zip(engine.generate_batch(prompts, 10), expected):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("batch_size", [1, 2, 3])
@pytest.mark.parametrize("kv_cache", ["paged"])
def test_greedy_parity_continuous_batching(model, prompts, batch_size,
                                           kv_cache):
    """Slot reuse (more requests than slots) preserves every output."""
    expected = sequential(model, prompts, 6)
    engine = GenerationEngine(model, max_batch_size=batch_size,
                              kv_cache=kv_cache)
    for got, want in zip(engine.generate_batch(prompts, 6), expected):
        np.testing.assert_array_equal(got, want)


def test_greedy_parity_paged_small_blocks(model, prompts):
    """Tiny blocks force mid-generation block allocation on every row."""
    expected = sequential(model, prompts, 10)
    engine = GenerationEngine(model, max_batch_size=3, block_size=2)
    for got, want in zip(engine.generate_batch(prompts, 10), expected):
        np.testing.assert_array_equal(got, want)


def test_fineq_cache_exact_within_first_block(model, prompts):
    """Sequences that never leave the FP32 write buffer decode exactly."""
    engine = GenerationEngine(model, max_batch_size=3, kv_cache="fineq",
                              block_size=64)
    expected = sequential(model, prompts, 10)
    for got, want in zip(engine.generate_batch(prompts, 10), expected):
        np.testing.assert_array_equal(got, want)


def test_fineq_ragged_admit_exact_while_rows_stay_in_buffer(model):
    """Regression: admitting ragged prompts together (right-padded past a
    short row's block boundary) must not corrupt the short row.  With all
    of a row's tokens still inside its FP32 buffer, its greedy output is
    bit-exact vs sequential generate."""
    short, long = np.array([1, 2]), np.array([3, 4, 5, 6, 7])
    engine = GenerationEngine(model, max_batch_size=2, kv_cache="fineq",
                              block_size=4)
    got = engine.generate_batch([short, long], 2)
    want = model.generate(short, 2, temperature=0.0)
    np.testing.assert_array_equal(got[0], want)


def test_fineq_cache_serves_past_block_boundaries(model, prompts):
    """Quantized mode: full budgets served, valid tokens, correct prompts."""
    engine = GenerationEngine(model, max_batch_size=3, kv_cache="fineq",
                              block_size=4)
    ids = [engine.submit(p, 12) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    for rid, prompt in zip(ids, prompts):
        completion = done[rid]
        assert completion.finish_reason == "length"
        assert len(completion.new_tokens) == 12
        np.testing.assert_array_equal(completion.tokens[:len(prompt)], prompt)
        assert completion.tokens.min() >= 0
        assert completion.tokens.max() < model.config.vocab_size
    assert engine.stats.kv_peak_tokens > 0
    assert engine.stats.bytes_per_cached_token > 0


def test_rejects_unknown_kv_cache_mode(model):
    with pytest.raises(ValueError):
        GenerationEngine(model, kv_cache="hbm3")


def test_parity_mixed_max_new_tokens(model):
    prompts = [np.array([1, 2]), np.array([3, 4, 5]), np.array([6])]
    budgets = [2, 9, 5]
    engine = GenerationEngine(model, max_batch_size=2)
    ids = [engine.submit(p, n) for p, n in zip(prompts, budgets)]
    done = {c.request_id: c for c in engine.run()}
    for rid, prompt, budget in zip(ids, prompts, budgets):
        want = model.generate(prompt, budget, temperature=0.0)
        np.testing.assert_array_equal(done[rid].tokens, want)
        assert done[rid].finish_reason == "length"
        assert len(done[rid].new_tokens) == budget


def test_temperature_sampling_reproducible(model, prompts):
    outs = []
    for _ in range(2):
        engine = GenerationEngine(model, max_batch_size=4,
                                  rng=np.random.default_rng(42))
        outs.append(engine.generate_batch(prompts, 8, temperature=1.5))
    for first, second in zip(*outs):
        np.testing.assert_array_equal(first, second)


def test_temperature_zero_rows_stay_greedy_in_mixed_batch(model):
    """Greedy requests are unaffected by sampled neighbours in the batch."""
    prompts = [np.array([1, 2, 3]), np.array([4, 5, 6])]
    engine = GenerationEngine(model, max_batch_size=2,
                              rng=np.random.default_rng(0))
    ids = [engine.submit(prompts[0], 6, temperature=0.0),
           engine.submit(prompts[1], 6, temperature=2.0)]
    done = {c.request_id: c for c in engine.run()}
    want = model.generate(prompts[0], 6, temperature=0.0)
    np.testing.assert_array_equal(done[ids[0]].tokens, want)


def test_stats_token_accounting(model, prompts):
    engine = GenerationEngine(model, max_batch_size=len(prompts))
    engine.generate_batch(prompts, 5)
    assert engine.stats.prefill_tokens == sum(len(p) for p in prompts)
    # One token per sequence comes from the prefill logits.
    assert engine.stats.decode_tokens == len(prompts) * 4
    assert 0.0 < engine.stats.occupancy <= 1.0


def test_run_with_empty_queue(model):
    assert GenerationEngine(model).run() == []


def test_rejects_bad_requests(model):
    engine = GenerationEngine(model)
    with pytest.raises(ValueError):
        engine.submit(np.array([], dtype=np.int64), 4)
    with pytest.raises(ValueError):
        engine.submit(np.array([1]), 0)
    with pytest.raises(ValueError):
        engine.submit(np.zeros(model.config.max_seq_len + 1, dtype=np.int64), 4)


def test_rejects_retired_dense_backend(model):
    """The rectangle is generate's reference, not a serving backend."""
    with pytest.raises(ValueError, match="'paged', 'fineq'"):
        GenerationEngine(model, kv_cache="dense")


@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_serving_steps_stay_off_the_autograd_tape(model, prompts, kv_cache,
                                                  monkeypatch):
    """Prefill and decode steps run no ``Tensor.matmul`` and allocate at
    most the one ``Tensor`` that wraps each forward's logits."""
    from repro.autograd import Tensor
    counts = {"allocs": 0, "matmuls": 0, "forwards": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Tensor, "__init__",
                        counted("allocs", Tensor.__init__))
    matmul = counted("matmuls", Tensor.matmul)
    monkeypatch.setattr(Tensor, "matmul", matmul)
    monkeypatch.setattr(Tensor, "__matmul__", matmul)
    monkeypatch.setattr(TransformerLM, "forward",
                        counted("forwards", TransformerLM.forward))
    engine = GenerationEngine(model, max_batch_size=4, kv_cache=kv_cache)
    for prompt in prompts[:4]:
        engine.submit(prompt, 6)
    engine.step()                       # admits: the prefill forward
    assert engine.stats.prefill_tokens > 0
    engine.step()
    assert engine.stats.decode_steps > 0
    assert counts["forwards"] >= 2
    assert counts["matmuls"] == 0
    assert counts["allocs"] <= counts["forwards"]


@pytest.mark.parametrize("k", [None, 4], ids=["target-only", "spec-k4"])
@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
@pytest.mark.parametrize("room", [125, 1, 0])
def test_max_seq_len_termination(room, kv_cache, k):
    """``room`` is what the prompt leaves of the context window: 0 ends
    the request at its prefill, 1 at its first decode, and 125 at a
    decode or a speculative verify that reaches the window's end."""
    model = TransformerLM(tiny_config(vocab_size=32, seed=1))
    prompt = np.arange(model.config.max_seq_len - room) % 29 + 1

    def serve(speculative):
        engine = GenerationEngine(model, max_batch_size=1,
                                  kv_cache=kv_cache, speculative=speculative)
        engine.submit(prompt, 10 * model.config.max_seq_len)
        return engine.run()[0]

    completion = serve(None if k is None
                       else SpeculativeConfig(draft_model=model, k=k))
    assert completion.finish_reason == "max_seq_len"
    # Every RoPE position gets used before termination: the last decode
    # writes at max_seq_len - 1 and its sampled token is still emitted.
    assert len(completion.tokens) == model.config.max_seq_len + 1
    if k is not None:
        np.testing.assert_array_equal(completion.tokens, serve(None).tokens)


@pytest.mark.parametrize("kv_cache", ["paged"])
def test_parity_at_max_seq_len_boundary(kv_cache):
    """The engine matches sequential generate right up to the RoPE limit."""
    model = TransformerLM(tiny_config(vocab_size=32, seed=1))
    prompt = np.array([1, 2, 3, 4])
    budget = model.config.max_seq_len - len(prompt) + 1
    want = model.generate(prompt, budget, temperature=0.0)
    engine = GenerationEngine(model, max_batch_size=1, kv_cache=kv_cache)
    engine.submit(prompt, budget)
    completion = engine.run()[0]
    np.testing.assert_array_equal(completion.tokens, want)
