"""Word inventories for the synthetic corpus generators.

Words are grouped by grammatical role so the template grammars in
:mod:`repro.data.corpus` can produce plausible English-like sentences.
Within each group, generators sample with a Zipf-like distribution so the
resulting token frequencies mimic natural-language skew.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DETERMINERS = ["the", "a", "this", "that", "its", "their", "each", "every"]

ADJECTIVES = [
    "small", "large", "ancient", "modern", "northern", "southern", "eastern",
    "western", "famous", "notable", "major", "minor", "early", "late",
    "central", "local", "national", "historic", "industrial", "rural",
    "coastal", "remote", "popular", "traditional", "primary", "secondary",
    "rapid", "gradual", "significant", "extensive", "narrow", "broad",
]

NOUNS = [
    "city", "river", "mountain", "village", "region", "district", "station",
    "bridge", "church", "castle", "school", "university", "museum", "library",
    "company", "factory", "railway", "road", "harbor", "island", "forest",
    "valley", "lake", "battle", "treaty", "empire", "kingdom", "dynasty",
    "album", "novel", "film", "series", "festival", "team", "club", "league",
    "species", "family", "genus", "population", "economy", "industry",
    "government", "council", "parliament", "election", "war", "revolution",
    "century", "decade", "system", "network", "project", "program",
]

VERBS_PAST = [
    "was", "became", "remained", "served", "appeared", "developed",
    "expanded", "declined", "emerged", "operated", "opened", "closed",
    "moved", "returned", "won", "lost", "founded", "established",
    "constructed", "completed", "destroyed", "restored", "recorded",
    "released", "published", "described", "discovered", "introduced",
    "produced", "received", "gained", "reached", "covered", "included",
]

VERBS_PRESENT = [
    "is", "remains", "serves", "includes", "covers", "contains", "features",
    "lies", "stands", "runs", "flows", "connects", "borders", "hosts",
    "produces", "supports", "attracts", "provides", "operates", "offers",
]

ADVERBS = [
    "quickly", "slowly", "eventually", "originally", "formally", "largely",
    "mostly", "partly", "notably", "briefly", "widely", "locally",
    "officially", "primarily", "roughly", "approximately",
]

PREPOSITIONS = ["in", "on", "near", "along", "across", "within", "around",
                "between", "through", "under", "over", "beside"]

PROPER_STEMS = [
    "avon", "berg", "cester", "dale", "field", "ford", "gate", "ham",
    "holm", "hurst", "land", "mere", "mouth", "ness", "port", "shire",
    "stead", "stoke", "ton", "vale", "wick", "worth", "bury", "by",
]

PROPER_PREFIXES = [
    "ald", "ash", "black", "bright", "cold", "deep", "east", "fair",
    "glen", "green", "high", "kings", "long", "mill", "new", "north",
    "oak", "old", "red", "rock", "south", "spring", "stone", "west",
    "white", "wood",
]

WEB_PHRASES = [
    "click", "here", "subscribe", "newsletter", "free", "shipping",
    "login", "account", "password", "cookie", "policy", "privacy",
    "terms", "conditions", "share", "comment", "reply", "posted",
    "update", "review", "rating", "price", "sale", "offer", "deal",
    "download", "install", "version", "browser", "mobile", "app",
]

FUNCTION_WORDS = ["and", "or", "but", "of", "to", "for", "with", "by",
                  "as", "at", "from", "which", "who", "it", "also", "not"]


@lru_cache(maxsize=32)
def _zipf_cdf(count: int, exponent: float) -> np.ndarray:
    """Read-only CDF of Zipf rank frequencies over ``count`` words.

    Built with ``Generator.choice``'s own arithmetic (normalised
    probabilities, cumulative sum, renormalised by its last entry), so a
    draw through it picks the index ``choice(count, p=probs)`` would.
    The corpora use a handful of ``(count, exponent)`` pairs.
    """
    ranks = np.arange(1, count + 1, dtype=np.float64)
    probs = ranks ** (-exponent)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def zipf_choice(rng: np.random.Generator, words: list[str], size: int,
                exponent: float = 1.1) -> list[str]:
    """Sample ``size`` words with Zipf-like rank frequencies.

    Draws the same words, and advances ``rng`` exactly as far, as
    ``rng.choice(len(words), size=size, p=probs)`` does: one uniform per
    word, looked up in the cached CDF.
    """
    idx = _zipf_cdf(len(words), exponent).searchsorted(
        rng.random(size), side="right")
    return [words[i] for i in idx]


def proper_noun(rng: np.random.Generator) -> str:
    """Compose a synthetic place/person name (e.g. ``stoneham``)."""
    return (PROPER_PREFIXES[rng.integers(len(PROPER_PREFIXES))]
            + PROPER_STEMS[rng.integers(len(PROPER_STEMS))])
