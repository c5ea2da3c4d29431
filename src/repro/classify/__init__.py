"""Packet classifiers shared by pipeline tables and caches."""

from .trie import PrefixTrie, mask_to_prefix_len
from .tss import (
    DEFAULT_TRIE_FIELDS,
    STAGE_LAYERS,
    LookupResult,
    TupleSpaceClassifier,
)

__all__ = [
    "DEFAULT_TRIE_FIELDS",
    "LookupResult",
    "PrefixTrie",
    "STAGE_LAYERS",
    "TupleSpaceClassifier",
    "mask_to_prefix_len",
]
