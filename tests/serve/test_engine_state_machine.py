"""Generative engine correctness: one state machine, every invariant
after every rule.

Random interleavings of submit (greedy and seeded-sampled, short and
multi-chunk prompts drawn from a few shared prefixes, three priority
levels) / step / cancel (queued or running) on a three-slot engine with
prefix sharing, a prefix-store budget small enough to evict and a KV
pool small enough that the priority scheduler preempts.  After every
rule the pool's conservation laws are checked against the block tables
and the prefix trie; at teardown the session drains and the whole
operation log is replayed on a fresh engine, which must return the same
bytes (**replay determinism** — what is asserted on both backends, under
every configuration).  ``"paged"`` completions are additionally compared
with the same request served alone and with sequential ``generate``:
that parity has held in every example so far but is empirical, not
structural.  ``"fineq"`` streams are *not* independent of their
neighbours (ROADMAP item 1; the counterexample is pinned in
``test_fineq_stream_depends_on_its_neighbour`` below).

The example budget comes from the hypothesis profile the root
``conftest.py`` loads (``default``: well under 20 s for both backends;
``--hypothesis-profile=soak`` for long runs).
"""

import numpy as np
import pytest
from hypothesis import event, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import GenerationEngine, SamplingParams

VOCAB, BLOCK, CHUNK, BATCH = 32, 4, 8, 3
#: Prefix sharing under a trie budget small enough to evict, and the
#: priority scheduler preempting for slots and for a small KV pool.
PRESSURE = dict(scheduler="priority", prefix_sharing=True, prefix_blocks=5,
                max_pool_blocks=12)
MODEL = TransformerLM(tiny_config(vocab_size=VOCAB, seed=3, max_seq_len=64))
#: Requests open with one of these, so the prefix store hits, copies on
#: write inside a block (6 and 9 are off the 4-token block grid) and
#: defers same-wave duplicates.
PREFIXES = [np.zeros(0, dtype=np.int64)] + [
    np.random.default_rng(n).integers(0, VOCAB, size=n) for n in (6, 9)]
MEMO_CHECK = None
_SOLO: dict = {}


@pytest.fixture(autouse=True, scope="module")
def _memo_checker(assert_memo_coherent):
    global MEMO_CHECK
    MEMO_CHECK = assert_memo_coherent


def serve_alone(backend, prompt, params):
    """Tokens of one request on a fresh single-slot engine: no
    neighbours, no sharing, no chunking, no pool budget."""
    key = (backend, prompt.tobytes(), params)
    if key not in _SOLO:
        engine = GenerationEngine(MODEL, max_batch_size=1, kv_cache=backend,
                                  block_size=BLOCK)
        engine.submit(prompt, params=params)
        _SOLO[key] = engine.run()[0].tokens
    return _SOLO[key]


def store_block_ids(store) -> list[int]:
    """Every block the prefix trie holds a reference on."""
    ids, stack = [], [store._root]
    while stack:
        node = stack.pop()
        ids += [tail.block_id for tail in node.tails]
        ids += [child.block_id for child in node.children.values()]
        stack.extend(node.children.values())
    return ids


def same(a, b) -> bool:
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


def assert_ids_memo_consistent(cache) -> None:
    """Whatever block-table resolution the last forward left behind
    still equals a fresh one: a table mutation that should have cleared
    it did."""
    saved = cache._ids_memo
    try:
        for key, got in list(saved.items()):
            rows = None if key[2] is None \
                else np.frombuffer(key[2], dtype=np.int64)
            cache._ids_memo = {}
            if key[0] == "ids":
                assert same(got, cache._block_ids(key[1], rows)), key
            elif key[0] == "read":
                assert same(got, cache._resolve_read(key[1], rows)), key
    finally:
        cache._ids_memo = saved


def assert_pool_conserved(engine) -> None:
    stats = engine.stats
    assert stats.prompt_tokens == \
        stats.shared_prompt_tokens + stats.prefill_tokens
    cache = engine.cache
    if cache is None or cache._heads is None:
        return
    total = cache._total_blocks
    free = np.asarray(cache._free, dtype=np.int64)
    assert len(np.unique(free)) == len(free)
    assert not cache._refcount[free].any()
    assert len(free) + np.count_nonzero(cache._refcount) == total
    # Every reference is a block-table entry or a prefix-trie entry.
    owned = [cache._tables[row, :cache._blocks_per_row[row]]
             for row in range(cache.batch)]
    refs = np.bincount(np.concatenate(owned), minlength=total)
    store = engine.prefix_store
    if store is not None:
        refs += np.bincount(np.asarray(store_block_ids(store),
                                       dtype=np.int64), minlength=total)
        assert store.pinned_blocks == len(store)
    np.testing.assert_array_equal(cache._refcount, refs)
    # Blocks are released, not scrubbed: what the zero-initialised pools
    # guarantee is that a stale or free block can never put a NaN or an
    # inf behind a mask.
    if engine.kv_cache == "paged":
        pools = cache.codec._pool_k + cache.codec._pool_v
    else:
        pools = [cache.codec._buf_k, cache.codec._buf_v] \
            + cache.codec._scale_k + cache.codec._scale_v
        MEMO_CHECK(cache)       # incl. no free block resident in the memo
    assert all(np.isfinite(pool).all() for pool in pools)
    assert_ids_memo_consistent(cache)


class EngineMachine(RuleBasedStateMachine):
    backend = "paged"
    #: Whether a request's tokens must equal the same request served
    #: alone (and, greedy, sequential ``generate``).
    solo_parity = True
    #: Engine options an example may draw.
    configs = [PRESSURE]

    def __init__(self):
        super().__init__()
        self.requests: dict[int, tuple[np.ndarray, SamplingParams]] = {}
        self.done: dict[int, object] = {}
        #: Every engine call the rules made, for the teardown's replay.
        self.log: list[tuple[str, tuple, dict]] = []

    def make_engine(self):
        return GenerationEngine(
            MODEL, max_batch_size=BATCH, kv_cache=self.backend,
            block_size=BLOCK, prefill_chunk_tokens=CHUNK, **self.options)

    def call(self, name, *args, **kwargs):
        self.log.append((name, args, kwargs))
        return getattr(self.engine, name)(*args, **kwargs)

    @initialize(data=st.data())
    def start(self, data):
        self.options = data.draw(st.sampled_from(self.configs))
        self.engine = self.make_engine()

    def collect(self):
        for completion in self.engine.take_completions():
            assert completion.request_id not in self.done
            self.done[completion.request_id] = completion

    # Suffixes up to 14 tokens: with a prefix, well past one 8-token
    # prefill chunk.
    @rule(prefix=st.integers(0, len(PREFIXES) - 1),
          suffix=st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=14),
          new=st.integers(1, 10), sampled=st.booleans(),
          seed=st.integers(0, 3), priority=st.integers(0, 2))
    def submit(self, prefix, suffix, new, sampled, seed, priority):
        prompt = np.concatenate([PREFIXES[prefix],
                                 np.asarray(suffix, dtype=np.int64)])
        params = SamplingParams(
            max_new_tokens=new, seed=seed, priority=priority,
            **({"temperature": 0.9, "top_k": 8} if sampled else {}))
        self.requests[self.call("submit", prompt, params=params)] = \
            (prompt, params)

    @rule(steps=st.integers(1, 3))
    def step(self, steps):
        for _ in range(steps):
            self.call("step")
            self.collect()

    @rule(pick=st.integers(0, 1 << 16))
    def cancel(self, pick):
        live = sorted(set(self.requests) - set(self.done))
        if live:
            assert self.call("cancel", live[pick % len(live)])
            self.collect()

    @invariant()
    def pool_conserved(self):
        assert_pool_conserved(self.engine)

    def teardown(self):
        engine = self.engine
        for _ in range(2000):
            if not engine.has_work():
                break
            engine.step()
        assert not engine.has_work()
        self.collect()
        assert_pool_conserved(engine)
        assert set(self.done) == set(self.requests)
        # What this example reached (``--hypothesis-show-statistics``).
        store = engine.prefix_store
        for name, hit in (
                ("preempted", engine.stats.preemptions),
                ("adopted a prefix", engine.stats.shared_prompt_tokens),
                ("evicted a prefix", store and store.stats.evicted_blocks),
                ("chunked a prompt", engine.stats.prefill_tokens_deferred)):
            if hit:
                event(name)
        cache = engine.cache
        if cache is not None and cache._heads is not None:
            # Nothing but the prefix trie still holds a block.
            assert not cache._blocks_per_row.any()
            assert cache._total_blocks - cache.free_blocks() == \
                (store.pinned_blocks if store is not None else 0)
        for rid, (prompt, params) in self.requests.items():
            completion = self.done[rid]
            if completion.finish_reason == "cancelled":
                continue
            assert completion.finish_reason == "length"
            assert completion.prompt_len == len(prompt)
            np.testing.assert_array_equal(completion.tokens[:len(prompt)],
                                          prompt)
            assert len(completion.new_tokens) == params.max_new_tokens
            if not self.solo_parity:
                continue
            np.testing.assert_array_equal(
                completion.tokens, serve_alone(self.backend, prompt, params),
                err_msg=f"request {rid}: {prompt.tolist()} {params}")
            if params.greedy:
                np.testing.assert_array_equal(
                    completion.tokens,
                    MODEL.generate(prompt, params.max_new_tokens,
                                   temperature=0.0))
        # Replay determinism: the same calls on a fresh engine (drained
        # the same way) return the same bytes, cancellations included.
        replayed = self.make_engine()
        for name, args, kwargs in self.log:
            getattr(replayed, name)(*args, **kwargs)
        again = {c.request_id: c for c in replayed.run()}
        assert set(again) == set(self.done)
        for rid, completion in self.done.items():
            assert again[rid].finish_reason == completion.finish_reason
            assert again[rid].tokens.tobytes() == completion.tokens.tobytes()


class FineqEngineMachine(EngineMachine):
    """``"fineq"`` streams depend on their neighbours: under sharing and
    preemption an adopted partial block is read dequantized where the
    row alone would hold it in FP32, and a restore re-prefills generated
    tokens through span-width GEMMs whose ulps re-quantize differently;
    and even on the plain FIFO engine a wider neighbour pads a wave to
    another GEMM shape, position 0's K/V move by an ulp and the first
    2.33-bit flush amplifies it (the pinned counterexample below).  So
    no stream is compared with the solo one: what must hold is replay
    determinism, the conservation laws and the completions' shape, with
    and without pressure."""

    backend = "fineq"
    solo_parity = False
    configs = [PRESSURE, {}]


TestPagedEngine = EngineMachine.TestCase
TestFineqEngine = FineqEngineMachine.TestCase


# ---------------------------------------------------------------------- #
# ROADMAP item 1's counterexample, pinned
# ---------------------------------------------------------------------- #
#: Three requests on the plain FIFO engine — no sharing, no pressure, no
#: chunking: greedy ``[0]`` x1, sampled ``[2]`` x9, greedy ``[0, 0]`` x1.
THREE = [(np.array([0]), SamplingParams(max_new_tokens=1)),
         (np.array([2]), SamplingParams(max_new_tokens=9, temperature=0.9,
                                        top_k=8, seed=2)),
         (np.array([0, 0]), SamplingParams(max_new_tokens=1))]
#: Request 1 on ``"fineq"``, measured on the SkylakeX OpenBLAS kernels
#: the ROADMAP names: beside the wider ``[0, 0]`` and served alone.
FINEQ_TOGETHER = [2, 8, 8, 14, 2, 14, 25, 5, 2, 8]
FINEQ_ALONE = [2, 8, 8, 14, 2, 9, 25, 2, 0, 8]


def serve_three(backend) -> list[np.ndarray]:
    engine = GenerationEngine(MODEL, max_batch_size=BATCH, kv_cache=backend,
                              block_size=BLOCK)
    ids = [engine.submit(prompt, params=params) for prompt, params in THREE]
    done = {c.request_id: c.tokens for c in engine.run()}
    return [done[rid] for rid in ids]


@pytest.mark.parametrize("backend", ["paged", "fineq"])
def test_three_request_example_replays_bit_equal(backend):
    """What holds on both backends, on any host: the same submissions on
    a fresh engine return the same bytes.  ``"paged"`` also returns each
    request's solo stream — empirically; nothing structural forbids the
    same ulp drift there, it only lacks the quantizer that amplifies it."""
    first, second = serve_three(backend), serve_three(backend)
    for got, want in zip(second, first):
        assert got.tobytes() == want.tobytes()
    if backend == "paged":
        for got, (prompt, params) in zip(first, THREE):
            np.testing.assert_array_equal(
                got, serve_alone(backend, prompt, params))


def test_fineq_stream_depends_on_its_neighbour():
    """Today's behaviour, stated: beside the two-token prompt the wave
    is padded to width 2, request 1's span GEMMs run at another ``M``,
    position 0's K/V move by an ulp and the first 2.33-bit flush
    amplifies it — the stream leaves the solo one at token 5, the first
    sampled from a read of a quantized block.  Whether to *make* fineq
    composition-independent or *specify* that it is not is ROADMAP
    item 1 (ii); until then this is the counterexample to any such
    promise.  The ulp is the BLAS kernel's, so the literal streams are
    this host's: where the solo stream already differs, there is
    nothing to compare."""
    alone = serve_alone("fineq", *THREE[1])
    if alone.tolist() != FINEQ_ALONE:
        pytest.skip("another BLAS kernel: the pinned streams are "
                    "SkylakeX OpenBLAS's")
    together = serve_three("fineq")
    assert together[1].tolist() == FINEQ_TOGETHER
    for got, (prompt, params) in zip(together[::2], THREE[::2]):
        np.testing.assert_array_equal(got,
                                      serve_alone("fineq", prompt, params))
