"""Patricia/radix tree substrate and aguri-style aggregation operations."""

from repro.core.spatial import density_threshold, widen_dense_prefixes
from repro.trie.aguri import (
    aguri_aggregate,
    addresses_in_dense_prefixes,
    build_tree,
    compute_dense_prefixes,
    compute_dense_prefixes_tree,
    dense_prefixes,
    dense_prefixes_fixed,
    densify,
    profile,
)
from repro.trie.radix import RadixNode, RadixTree
from repro.trie.render import render_dense, render_tree

__all__ = [
    "RadixNode",
    "RadixTree",
    "addresses_in_dense_prefixes",
    "aguri_aggregate",
    "build_tree",
    "compute_dense_prefixes",
    "compute_dense_prefixes_tree",
    "dense_prefixes",
    "dense_prefixes_fixed",
    "densify",
    "density_threshold",
    "profile",
    "widen_dense_prefixes",
    "render_dense",
    "render_tree",
]
