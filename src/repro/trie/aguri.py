"""Aguri-style aggregation and the paper's *densify* operation.

Two aggregation policies run over the :class:`~repro.trie.radix.RadixTree`:

* :func:`aguri_aggregate` — Cho et al.'s original traffic-profiler rule:
  a node keeps its count only if it meets a *percentage of the total*;
  otherwise the count is pushed up to its parent.  The paper cites this as
  the inspiration for its spatial method.

* :func:`densify` — the paper's new rule (§5.2.3): children are folded into
  a node when the combined count makes the node's prefix meet a desired
  minimum *density* ``n / 2**(128 - p)``.  After densification, the
  least-specific dense prefixes are nodes of the tree, and the sparse
  remainder sits unaggregated at the leaves.

A fixed-length fast path (:func:`dense_prefixes_fixed`) implements the
paper's step-1/step-3 shortcut ("add each address with a /p and skip to
step 3"), which needs no tree at all.
"""

from __future__ import annotations

import decimal
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.spatial import (
    density_threshold,
    general_dense_prefixes,
    widen_dense_prefixes,
)
from repro.net import addr
from repro.net.addr import ADDRESS_BITS
from repro.net.prefix import Prefix, check_length
from repro.trie.radix import RadixNode, RadixTree


def build_tree(addresses: Iterable[int]) -> RadixTree:
    """Populate a radix tree with addresses, each a /128 with count 1.

    Duplicate addresses accumulate on the same node; callers who want
    distinct-address semantics should deduplicate first.
    """
    tree = RadixTree()
    for value in addresses:
        tree.add_address(value)
    return tree


def densify(tree: RadixTree, n: int, p: int, max_length: int = 127) -> None:
    """Aggregate the tree in place so dense prefixes become single nodes.

    Implements the paper's densify post-order traversal: when visiting a
    node that has children and whose subtree count meets the density
    ``n / 2**(128 - p)`` for the node's own prefix length, the children are
    folded into the node.  Nodes longer than ``max_length`` (127 per the
    paper, so a lone /128 never reports as a "prefix") always fold upward
    when their parent qualifies.
    """
    check_length(max_length)
    for node in tree.nodes_postorder():
        if node.is_leaf:
            continue
        if node.length > max_length:
            tree.absorb_children(node)
            continue
        combined = node.subtree_count
        if combined >= density_threshold(n, p, node.length):
            tree.absorb_children(node)


def dense_prefixes(
    tree: RadixTree, n: int, min_length: int = 0, max_length: int = 127
) -> List[Tuple[int, int, int]]:
    """Report (network, length, count) for densified nodes with count >= n.

    Run after :func:`densify`; performs the paper's step 3.  Sparse
    addresses remain as low-count nodes and are skipped.  ``min_length``
    optionally filters out prefixes shorter than the requested class;
    ``max_length`` defaults to 127 per the paper, so a lone /128 address
    never reports as a dense *prefix*.
    """
    results: List[Tuple[int, int, int]] = []
    for network, length, count in tree.counted_prefixes():
        if count >= n and min_length <= length <= max_length:
            results.append((network, length, count))
    results.sort()
    return results


def compute_dense_prefixes_tree(
    addresses: Iterable[int], n: int, p: int, widen: bool = False
) -> List[Tuple[int, int, int]]:
    """Tree-based general densify: build tree, densify, report.

    The reference implementation — one :class:`RadixNode` per address,
    then the paper's post-order fold.  Kept for verification: the
    array-native engine (:func:`repro.core.spatial.general_dense_prefixes`)
    is asserted bit-identical to this path in the tests and in
    ``benchmarks/bench_spatial.py``.
    """
    tree = build_tree(set(addresses))
    densify(tree, n, p)
    found = dense_prefixes(tree, n)
    if not widen:
        return found
    return widen_dense_prefixes(found, p)


def compute_dense_prefixes(
    addresses: Iterable[int], n: int, p: int, widen: bool = False
) -> List[Tuple[int, int, int]]:
    """End-to-end general densify of an address set.

    Returns the least-specific non-overlapping prefixes meeting density
    ``n / 2**(128 - p)`` that contain at least ``n`` observed addresses,
    as (network, length, count) tuples sorted by network.

    Dense aggregates form at Patricia branch points, so a cluster whose
    addresses share, say, 125 leading bits reports as a /125 even when the
    requested density class is 2@/112.  With ``widen=True``, any reported
    prefix longer than ``p`` is widened to exactly /p via
    :func:`widen_dense_prefixes` (merging clusters that share a /p and
    deduplicating nested prefixes), which is the useful form when
    generating /p-sized scan targets.

    Routed through the array-native spatial engine
    (:func:`repro.core.spatial.general_dense_prefixes`), which computes
    the identical report from the sorted address columns;
    :func:`compute_dense_prefixes_tree` remains as the reference.
    """
    return general_dense_prefixes(addresses, n, p, widen=widen)


def dense_prefixes_fixed(
    addresses: Iterable[int], n: int, p: int
) -> List[Tuple[int, int, int]]:
    """Fixed-length dense-prefix computation (the paper's shortcut).

    Equivalent to adding every address with a /p and reporting nodes with
    count >= n: no tree required, just counting distinct addresses per
    truncated /p network.  Returns (network, p, count) tuples sorted by
    network.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    check_length(p)
    counts: Counter[int] = Counter()
    for value in set(addresses):
        counts[addr.truncate(value, p)] += 1
    return sorted(
        (network, p, count) for network, count in counts.items() if count >= n
    )


def addresses_in_dense_prefixes(
    addresses: Iterable[int], dense: List[Tuple[int, int, int]]
) -> List[int]:
    """Return the subset of addresses contained in any dense prefix.

    ``dense`` is a (network, length, count) list as returned by the dense
    prefix functions; because the prefixes are non-overlapping and sorted,
    a merge scan over sorted addresses runs in linear time.
    """
    if not dense:
        return []
    spans = [
        (network, network | ((1 << (ADDRESS_BITS - length)) - 1))
        for network, length, _count in dense
    ]
    result: List[int] = []
    index = 0
    for value in sorted(set(addresses)):
        while index < len(spans) and spans[index][1] < value:
            index += 1
        if index == len(spans):
            break
        if spans[index][0] <= value <= spans[index][1]:
            result.append(value)
    return result


def aguri_aggregate(tree: RadixTree, fraction: float) -> None:
    """Cho et al.'s percentage-of-total aggregation, in place.

    Every node whose count is below ``fraction`` of the tree's total count
    has its count pushed up to its nearest ancestor; the root absorbs
    whatever reaches it.  Afterwards, zero-count leaves are pruned and
    pass-through branch nodes compacted, yielding the aguri "profile":
    the prefixes that each account for at least the given share.

    A node whose count equals the threshold exactly is kept: "at least
    the given share" is a closed bound.  The comparison is made in exact
    integers — ``fraction`` is read as the decimal it was written as
    (e.g. ``0.07`` means 7/100) — because the float ``fraction * total``
    product can land a hair above the true threshold (``0.07 * 100`` is
    ``7.000000000000001``) and misclassify a boundary count.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1]: {fraction}")
    total = tree.total_count
    if total == 0:
        return
    ratio = Fraction(decimal.Decimal(repr(float(fraction))))
    numerator, denominator = ratio.numerator, ratio.denominator

    # Post-order walk with explicit parent tracking, pushing small counts up.
    parents: Dict[int, Optional[RadixNode]] = {id(tree.root): None}
    order: List[RadixNode] = []
    stack: List[RadixNode] = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        for child in (node.left, node.right):
            if child is not None:
                parents[id(child)] = node
                stack.append(child)
    for node in reversed(order):  # children before parents
        parent = parents[id(node)]
        if parent is None:
            continue
        # count < fraction * total, evaluated exactly over integers.
        if node.count * denominator < numerator * total:
            parent.count += node.count
            node.count = 0

    _prune_zero_leaves(tree)
    tree.compact()


def _prune_zero_leaves(tree: RadixTree) -> None:
    """Remove zero-count leaf nodes (repeatedly, as removals expose more)."""
    changed = True
    while changed:
        changed = False
        stack: List[Tuple[Optional[RadixNode], RadixNode]] = [(None, tree.root)]
        while stack:
            parent, node = stack.pop()
            if node.is_leaf and node.count == 0 and parent is not None:
                if parent.left is node:
                    parent.left = None
                else:
                    parent.right = None
                tree._node_count -= 1
                changed = True
                continue
            if node.left is not None:
                stack.append((node, node.left))
            if node.right is not None:
                stack.append((node, node.right))


def profile(tree: RadixTree) -> List[Tuple[Prefix, int]]:
    """Return the (prefix, count) profile of a tree after aggregation.

    Nodes with zero count (structural branch points, possibly the root)
    are omitted; output is sorted by (network, length).
    """
    entries = [
        (Prefix(network, length), count)
        for network, length, count in tree.counted_prefixes()
    ]
    entries.sort(key=lambda item: item[0].key)
    return entries
