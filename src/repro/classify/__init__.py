"""Packet classifiers shared by pipeline tables and caches."""

from .trie import PrefixTrie, mask_to_prefix_len
from .tss import (
    STAGE_LAYERS,
    TRIE_FIELDS,
    LookupResult,
    TupleSpaceClassifier,
)

__all__ = [
    "LookupResult",
    "PrefixTrie",
    "STAGE_LAYERS",
    "TRIE_FIELDS",
    "TupleSpaceClassifier",
    "mask_to_prefix_len",
]
