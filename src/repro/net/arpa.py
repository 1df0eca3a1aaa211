"""ip6.arpa reverse-DNS name construction and parsing.

The paper's §6.2.3 experiment issues PTR queries for millions of
addresses; this module provides the RFC 3596 name machinery: an IPv6
address maps to 32 reversed nybble labels under ``ip6.arpa.``, and a
prefix of nybble-aligned length maps to a zone cut.

Example:

    >>> from repro.net.addr import parse
    >>> to_arpa(parse("2001:db8::1"))
    '1.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.8.b.d.0.1.0.0.2.ip6.arpa'
"""

from __future__ import annotations

from repro.net import addr
from repro.net.prefix import Prefix, PrefixError

ARPA_SUFFIX = "ip6.arpa"


def to_arpa(value: int) -> str:
    """The full PTR name for one address: 32 reversed nybbles."""
    addr.check_address(value)
    nybbles = [f"{(value >> shift) & 0xF:x}" for shift in range(0, 128, 4)]
    return ".".join(nybbles) + "." + ARPA_SUFFIX


def from_arpa(name: str) -> int:
    """Parse a full ip6.arpa PTR name back into an address.

    Raises:
        ValueError: if the name is not a complete 32-nybble ip6.arpa name.
    """
    normalized = name.strip().rstrip(".").lower()
    if not normalized.endswith("." + ARPA_SUFFIX):
        raise ValueError(f"not an ip6.arpa name: {name!r}")
    labels = normalized[: -(len(ARPA_SUFFIX) + 1)].split(".")
    if len(labels) != 32:
        raise ValueError(
            f"expected 32 nybble labels, got {len(labels)}: {name!r}"
        )
    value = 0
    for position, label in enumerate(labels):
        if len(label) != 1 or label not in "0123456789abcdef":
            raise ValueError(f"bad nybble label {label!r} in {name!r}")
        value |= int(label, 16) << (4 * position)
    return value


def zone_for_prefix(prefix: Prefix) -> str:
    """The ip6.arpa zone cut delegating a nybble-aligned prefix.

    Raises:
        PrefixError: if the prefix length is not a multiple of 4.
    """
    if prefix.length % 4 != 0:
        raise PrefixError(
            f"reverse zones cut at nybble boundaries, not /{prefix.length}"
        )
    count = prefix.length // 4
    nybbles = [
        f"{(prefix.network >> (124 - 4 * index)) & 0xF:x}" for index in range(count)
    ]
    nybbles.reverse()
    if not nybbles:
        return ARPA_SUFFIX
    return ".".join(nybbles) + "." + ARPA_SUFFIX


def prefix_for_zone(zone: str) -> Prefix:
    """Inverse of :func:`zone_for_prefix`."""
    normalized = zone.strip().rstrip(".").lower()
    if normalized == ARPA_SUFFIX:
        return Prefix(0, 0)
    if not normalized.endswith("." + ARPA_SUFFIX):
        raise ValueError(f"not an ip6.arpa zone: {zone!r}")
    labels = normalized[: -(len(ARPA_SUFFIX) + 1)].split(".")
    if len(labels) > 32:
        raise ValueError(f"too many labels in zone: {zone!r}")
    network = 0
    for position, label in enumerate(reversed(labels)):
        if len(label) != 1 or label not in "0123456789abcdef":
            raise ValueError(f"bad nybble label {label!r} in {zone!r}")
        network |= int(label, 16) << (124 - 4 * position)
    return Prefix(network, 4 * len(labels))
