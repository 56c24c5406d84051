"""Engine sessions on fineq KV: the all-layer flush into the store
stores the bytes, emits the tokens and accounts the traffic of the
per-layer reference flush.

The ``stepwise_fineq_cache`` fixture (tests/conftest.py) is swapped in
as the engine's quantized cache class to play the reference: each layer
flushes at its own crossing through the line-by-line kernel and
per-bit packer, and fills its store by decoding its own payload.
"""

import numpy as np
import pytest

import repro.serve.engine as engine_module
from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import GenerationEngine, SpeculativeConfig

VOCAB = 64
BLOCK = 8


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=3))


@pytest.fixture(scope="module")
def draft():
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=4))


def pool_bytes(cache):
    return [array[layer, :cache._total_blocks].tobytes()
            for array in cache.codec.store.arrays
            for layer in range(cache.num_layers)]


def serve(model, prompts, budget, check=None, cancel_at=None, **kwargs):
    """Run a session step by step, ``check``-ing the cache after every
    step; returns (engine, tokens by request)."""
    engine = GenerationEngine(model, max_batch_size=4, kv_cache="fineq",
                              block_size=BLOCK, record_trace=True, **kwargs)
    ids = [engine.submit(p, budget) for p in prompts]
    tokens = {rid: [] for rid in ids}
    steps = 0
    while engine.has_work():
        for event in engine.step():
            if event.token is not None:
                tokens[event.request_id].append(event.token)
        steps += 1
        if cancel_at is not None and steps == cancel_at:
            engine.cancel(ids[1])
        if check is not None:
            check(engine.cache)
    return engine, tokens


def scenario_prompts(seed):
    rng = np.random.default_rng(seed)
    system = rng.integers(0, VOCAB, size=2 * BLOCK)     # block-aligned
    return [np.concatenate([system, rng.integers(0, VOCAB, size=n)])
            for n in (3, BLOCK, 11, 1, 6, 2 * BLOCK + 1)]


@pytest.mark.parametrize("scenario", ["plain", "prefix", "spec"])
def test_session_equals_per_layer_reference_flush(
        monkeypatch, stepwise_fineq_cache, assert_store_coherent, model,
        draft, scenario):
    """Six ragged requests through four slots with a mid-session cancel —
    plain decode, prefix sharing over a block-aligned system prompt
    (adopted rows cross their first boundary with an empty buffer), and
    speculative clone-rows verify with rollback — leave the same tokens
    and the same pool bytes as the reference flush."""
    kwargs = {
        "plain": {},
        "prefix": {"prefix_sharing": True, "scheduler": "prefix-affinity"},
        "spec": {"speculative": SpeculativeConfig(draft_model=draft, k=3)},
    }[scenario]
    prompts = scenario_prompts(11)
    fused, fused_tokens = serve(model, prompts, 3 * BLOCK,
                                check=assert_store_coherent, cancel_at=9,
                                **kwargs)
    monkeypatch.setattr(engine_module, "QuantizedPagedKVCache",
                        stepwise_fineq_cache)
    reference, reference_tokens = serve(model, prompts, 3 * BLOCK,
                                        cancel_at=9, **kwargs)
    assert isinstance(reference.cache, stepwise_fineq_cache)
    assert fused_tokens == reference_tokens
    assert pool_bytes(fused.cache) == pool_bytes(reference.cache)

    # Same blocks quantized, in far fewer kernel calls.
    stats, ref_stats = fused.stats, reference.stats
    assert stats.kv_flush_blocks == ref_stats.kv_flush_blocks > 0
    assert stats.kv_flush_calls < ref_stats.kv_flush_calls
    exported = stats.to_dict()      # what /metrics serves
    assert exported["kv_flush_calls"] == stats.kv_flush_calls
    assert exported["kv_flush_blocks"] == stats.kv_flush_blocks
    # Both charge each full block's payload fetch when they seal it: the
    # streamed totals the accelerator projection replays are the same.
    assert sum(t.kv_bytes_streamed for t in fused.trace) == \
        sum(t.kv_bytes_streamed for t in reference.trace)
    assert stats.dequant_cache_misses == ref_stats.dequant_cache_misses == 0
    if scenario == "prefix":
        assert stats.shared_prompt_tokens > 0


def test_decode_crossing_batches_all_layers(model):
    """Four rows in lockstep: each boundary crossing is one kernel call
    over rows x layers x {K, V} blocks."""
    rng = np.random.default_rng(5)
    prompts = [rng.integers(0, VOCAB, size=5) for _ in range(4)]
    engine, _ = serve(model, prompts, 2 * BLOCK)
    layers = model.config.num_layers
    assert engine.stats.kv_flush_calls == 2          # positions 8 and 16
    assert engine.stats.kv_flush_blocks == 2 * 4 * layers * 2


def test_serving_never_decodes_a_payload(monkeypatch, model, draft):
    """A seal stores each block's quantized values and nothing else, so
    nothing a session does packs a KV payload or decodes one back: not
    the seals, not the reads, and not adopting a shared partial tail
    copy-on-write, which copies the tail's values inside the store.  A
    session with prefix sharing, two tail adoptions, ``k=4`` speculation
    and one preemption makes zero calls of the packer or the decoder,
    and its greedy streams equal a reference that packs every sealed
    block and whose adoption decodes the tail's payload instead."""
    import repro.core.packing as packing
    import repro.nn.kv_codec as kv_codec
    from repro.serve import SamplingParams
    from tests.kv_oracle import pack_blocks, unpack_blocks

    def session():
        rng = np.random.default_rng(0)
        system = rng.integers(0, VOCAB, size=BLOCK + 5)     # a 5-token tail
        engine = GenerationEngine(
            model, max_batch_size=3, kv_cache="fineq", block_size=BLOCK,
            scheduler="priority", prefix_sharing=True, max_pool_blocks=15,
            speculative=SpeculativeConfig(draft_model=draft, k=4))

        def submit(prompt, budget, priority):
            return engine.submit(prompt, params=SamplingParams(
                max_new_tokens=budget, priority=priority))

        ids = [submit(system, 4, 1)]
        for _ in range(2):
            engine.step()
        # Matches three tokens of the captured tail, then diverges.
        ids.append(submit(np.concatenate([system[:BLOCK + 3],
                                          rng.integers(0, VOCAB, size=6)]),
                          30, 0))
        ids.append(submit(rng.integers(0, VOCAB, size=20), 30, 0))
        for _ in range(3):
            engine.step()
        ids.append(submit(rng.integers(0, VOCAB, size=25), 12, 5))
        done = {c.request_id: c.tokens for c in engine.run()}
        return engine, [done[rid] for rid in ids]

    tails = []
    adopt = kv_codec.FineQCodec.adopt

    def spying_adopt(self, row, tail_id, length):
        tails.append(tail_id)
        return adopt(self, row, tail_id, length)

    calls = []

    def spy(name, real):
        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counting

    monkeypatch.setattr(kv_codec.FineQCodec, "adopt", spying_adopt)
    for name in ("pack_matrix", "decode_payload"):
        monkeypatch.setattr(packing, name, spy(name, getattr(packing, name)))
    engine, streams = session()
    assert engine.stats.preemptions == 1
    assert engine.stats.shared_prompt_tokens > 0
    assert len([t for t in tails if t is not None]) == 2
    assert calls == []

    class PayloadAdoptCodec(kv_codec.FineQCodec):
        """Keeps every sealed block's payload beside the store and
        adopts a tail by decoding it."""

        def setup(self):
            super().setup()
            self.payloads = {}

        def _flush(self, layers, ids, k_blocks, v_blocks, charge=True):
            super()._flush(layers, ids, k_blocks, v_blocks, charge)
            for i, (layer, block) in enumerate(zip(layers, ids)):
                self.payloads[int(layer), int(block)] = [
                    pack_blocks(data[i][None]) for data in (k_blocks,
                                                            v_blocks)]

        def adopt(self, row, tail_id, length):
            ids = super().adopt(row, tail_id, length)
            for layer in range(self.cache.num_layers if tail_id is not None
                               else 0):
                for array, packed in zip(self.store.arrays,
                                         self.payloads[layer, tail_id]):
                    array[layer, -2 - row] = unpack_blocks(
                        packed, (1,) + array.shape[2:])[0]
            return ids

    class PayloadAdoptCache(engine_module.QuantizedPagedKVCache):
        codec_type = PayloadAdoptCodec

    monkeypatch.setattr(engine_module, "QuantizedPagedKVCache",
                        PayloadAdoptCache)
    reference, reference_streams = session()
    assert isinstance(reference.cache, PayloadAdoptCache)
    assert "decode_payload" in calls
    assert [s.tobytes() for s in streams] == \
        [s.tobytes() for s in reference_streams]
