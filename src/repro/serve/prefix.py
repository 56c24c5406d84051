"""Prefix-sharing block store: a radix index over cached prompt prefixes.

Real serving traffic is dominated by shared prefixes — system prompts,
few-shot templates, multi-turn histories — yet a naive engine prefills
every prompt from scratch.  The paged KV cache already stores context in
fixed-size blocks behind per-row block tables, which is exactly the
layout prefix reuse needs: one physical block can appear in many rows'
tables.  :class:`PrefixStore` maintains a radix trie over token
sequences at *block granularity* mapping prefixes to block-table
segments, so an admitted request adopts the longest cached prefix by
reference and only its novel suffix is forwarded through the model.

The same trick carries unchanged to the FineQ-quantized cache: a shared
prompt block is quantized **once** into the paper's 2.33-bit cluster
format and dequantized by every reader — fine-grained mixed precision
does not tax sharing because blocks, not tokens, are the aliasing unit
(the block granularity MixPE/FGMP-style designs also lean on).

Structure
---------
* Each trie **node** is one *full* block of tokens (``block_size``-token
  edge label) holding a reference to a physical cache block.  Matching a
  prompt walks full-block children; divergence **at a block boundary**
  simply stops the walk — siblings share the parent chain and nothing is
  copied.
* Each node also carries **tails**: partially-filled blocks captured when
  a prompt did not end on a block boundary.  A request matching ``m``
  leading tokens of a tail adopts it **copy-on-write** — the FP32 cache
  copies the block, the quantized cache copies its decoded values into
  the row's FP32 current block — so divergence **inside** a partially-filled block
  never perturbs other readers.
* Every node/tail pins one block reference.  :meth:`enforce_budget`
  evicts least-recently-used leaves once the pinned count exceeds
  ``max_blocks`` — but a block whose cache refcount shows live readers
  (a request mid-decode over that prefix) is **refused eviction**; its
  turn comes when the readers retire.

The store owns references through the cache's refcounting API, so a
captured prefix survives the donor request's retirement, cancellation,
or preemption — which is what lets preempted requests restore cheaply
from their surviving shared prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.paged_kv_cache import PagedKVCache

#: Tails kept per node before the least-recently-used one is dropped.
MAX_TAILS_PER_NODE = 4


@dataclass
class _Tail:
    """A partially-filled captured block: ``tokens`` (< block_size)."""

    tokens: tuple[int, ...]
    block_id: int
    last_used: int = 0


@dataclass
class _Node:
    """One full-block trie node; the root carries no block of its own."""

    block_id: int | None = None
    parent: "_Node | None" = None
    key: tuple[int, ...] | None = None
    children: dict[tuple[int, ...], "_Node"] = field(default_factory=dict)
    tails: list[_Tail] = field(default_factory=list)
    last_used: int = 0


@dataclass(frozen=True)
class PrefixMatch:
    """Longest cached prefix for a prompt: what :meth:`attach` will adopt.

    ``shared_len = len(full_ids) * block_size + tail_keep`` tokens; the
    ``node_key`` identifies the deepest matched trie node so schedulers
    can group requests that would batch onto the same cached prefix.
    """

    shared_len: int
    full_ids: tuple[int, ...]
    tail_id: int | None
    tail_keep: int
    node_key: int | None


@dataclass
class PrefixStoreStats:
    """Hit accounting for benchmarks and the serving report."""

    lookups: int = 0
    hits: int = 0
    shared_tokens: int = 0
    captured_blocks: int = 0
    evicted_blocks: int = 0
    eviction_refusals: int = 0


class PrefixStore:
    """Radix index from token prefixes to shared cache-block chains.

    Parameters
    ----------
    cache:
        The paged cache (FP32 or FineQ-quantized) whose blocks are
        shared.  The store holds one reference per pinned block through
        ``cache.ref_blocks``/``release_blocks``.
    max_blocks:
        Pool budget: the store evicts LRU unreferenced prefixes once it
        pins more than this many blocks (None = unbounded).
    """

    def __init__(self, cache: PagedKVCache, max_blocks: int | None = None):
        if not isinstance(cache, PagedKVCache):
            raise TypeError("prefix sharing needs a paged cache backend")
        self.cache = cache
        self.block_size = cache.block_size
        self.max_blocks = max_blocks
        self.stats = PrefixStoreStats()
        self._root = _Node()
        self._clock = 0
        self._pinned = 0

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _walk(self, tokens: np.ndarray, touch: bool) -> PrefixMatch:
        """Longest cached prefix covering at most ``len(tokens) - 1``
        tokens (at least one novel token must remain to produce the
        logits the engine samples from)."""
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        limit = len(tokens) - 1
        bs = self.block_size
        now = self._tick() if touch else self._clock
        node = self._root
        full_ids: list[int] = []
        depth = 0
        while (depth + 1) * bs <= limit:
            child = node.children.get(tuple(tokens[depth * bs:(depth + 1) * bs]))
            if child is None:
                break
            node = child
            full_ids.append(child.block_id)
            if touch:
                node.last_used = now
            depth += 1
        tail_id, tail_keep = None, 0
        remaining = tokens[depth * bs:limit]
        if len(remaining) > 0:
            best: _Tail | None = None
            for tail in node.tails:
                window = min(len(tail.tokens), len(remaining))
                match = 0
                while match < window and tail.tokens[match] == remaining[match]:
                    match += 1
                if match > tail_keep:
                    tail_keep, best = match, tail
            if best is not None:
                tail_id = best.block_id
                if touch:
                    best.last_used = now
        shared = depth * bs + tail_keep
        key = id(node) if (full_ids or tail_id is not None) else None
        return PrefixMatch(shared_len=shared, full_ids=tuple(full_ids),
                           tail_id=tail_id, tail_keep=tail_keep,
                           node_key=key)

    def match(self, tokens: np.ndarray) -> PrefixMatch:
        """Longest cached prefix for ``tokens`` (marks the path as used)."""
        return self._walk(tokens, touch=True)

    def peek(self, tokens: np.ndarray) -> PrefixMatch:
        """Like :meth:`match` but without touching LRU state — the
        scheduler's scoring probe."""
        return self._walk(tokens, touch=False)

    # ------------------------------------------------------------------ #
    # adoption and capture
    # ------------------------------------------------------------------ #
    def attach(self, row: int, tokens: np.ndarray) -> int:
        """Adopt the longest cached prefix of ``tokens`` into cache row
        ``row``; returns the number of shared context tokens the suffix
        prefill can skip (0 on a miss)."""
        match = self.match(tokens)
        self.stats.lookups += 1
        if match.shared_len == 0:
            return 0
        self.stats.hits += 1
        self.stats.shared_tokens += match.shared_len
        self.cache.adopt_prefix(row, np.asarray(match.full_ids),
                                match.tail_id, match.tail_keep)
        return match.shared_len

    def capture(self, row: int, tokens: np.ndarray) -> int:
        """Index row ``row``'s freshly prefilled prompt ``tokens``.

        Walks the trie creating nodes for the prompt's full blocks and a
        tail for its final partial block, pinning one block reference per
        *new* entry (existing nodes are just touched).  Exactly-full
        buffered blocks of the quantized cache freeze into full nodes, so
        the cached prefix is immutable whatever backend captured it.
        Returns the number of newly pinned blocks.
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        bs = self.block_size
        now = self._tick()
        node = self._root
        pinned = 0
        for depth in range(len(tokens) // bs):
            key = tuple(int(t) for t in tokens[depth * bs:(depth + 1) * bs])
            child = node.children.get(key)
            if child is None:
                child = _Node(block_id=self.cache.share_block(row, depth, bs),
                              parent=node, key=key)
                node.children[key] = child
                pinned += 1
            child.last_used = now
            node = child
        fill = len(tokens) % bs
        if fill:
            tail_tokens = tuple(int(t) for t in tokens[-fill:])
            pinned += self._capture_tail(node, row, len(tokens) // bs,
                                         tail_tokens, now)
        self.stats.captured_blocks += pinned
        self._pinned += pinned
        self.enforce_budget()
        return pinned

    def _capture_tail(self, node: _Node, row: int, depth: int,
                      tokens: tuple[int, ...], now: int) -> int:
        """Add (or extend) a tail under ``node``; returns blocks pinned."""
        for i, tail in enumerate(node.tails):
            window = min(len(tail.tokens), len(tokens))
            if tail.tokens[:window] == tokens[:window]:
                if len(tokens) <= len(tail.tokens):
                    tail.last_used = now  # existing tail already covers it
                    return 0
                # The new capture extends this tail: replace it.
                replacement = _Tail(tokens,
                                    self.cache.share_block(row, depth,
                                                           len(tokens)),
                                    last_used=now)
                self.cache.release_blocks([tail.block_id])
                node.tails[i] = replacement
                return 0  # net pinned count unchanged (one in, one out)
        tail = _Tail(tokens, self.cache.share_block(row, depth, len(tokens)),
                     last_used=now)
        node.tails.append(tail)
        if len(node.tails) > MAX_TAILS_PER_NODE:
            victim = min(node.tails, key=lambda t: t.last_used)
            node.tails.remove(victim)
            self.cache.release_blocks([victim.block_id])
            return 0
        return 1

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #
    @property
    def pinned_blocks(self) -> int:
        """Blocks the store currently holds references on."""
        return self._pinned

    def _evictable(self) -> list[tuple[int, object, _Node]]:
        """(last_used, entry, parent-node) for every leaf node and tail."""
        out: list[tuple[int, object, _Node]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for tail in node.tails:
                out.append((tail.last_used, tail, node))
            for child in node.children.values():
                if not child.children and not child.tails:
                    out.append((child.last_used, child, node))
                stack.append(child)
        return out

    def enforce_budget(self) -> int:
        """Evict LRU unreferenced prefixes until within ``max_blocks``.

        A leaf whose block still has readers (cache refcount above the
        store's own reference) is *refused*: evicting it would pull
        context out from under a request mid-decode.  Refused leaves are
        skipped and retried on later calls.  Returns blocks evicted.
        """
        if self.max_blocks is None:
            return 0
        evicted = 0
        while self._pinned > self.max_blocks:
            refused = 0
            progressed = False
            for _, entry, parent in sorted(self._evictable(),
                                           key=lambda item: item[0]):
                block = entry.block_id
                if self.cache.block_refcount(block) > 1:
                    refused += 1
                    continue  # a reader is mid-decode on this prefix
                if isinstance(entry, _Tail):
                    parent.tails.remove(entry)
                else:
                    del parent.children[entry.key]
                self.cache.release_blocks([block])
                self._pinned -= 1
                evicted += 1
                progressed = True
                break
            self.stats.eviction_refusals += refused
            if not progressed:
                break  # everything over budget is still being read
        self.stats.evicted_blocks += evicted
        return evicted

    def __len__(self) -> int:
        """Number of indexed entries (full-block nodes + tails)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += len(node.tails) + len(node.children)
            stack.extend(node.children.values())
        return count
