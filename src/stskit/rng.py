"""Deterministic seed derivation for independent substreams.

All randomness in the package flows from ``random.Random`` (MT19937) seeded
either directly with a user-supplied integer or with a child seed derived
here.  Child seeds are the first 8 bytes of ``sha256("seed:part:...")``, so
any (seed, index) pair names a reproducible substream on every platform.
"""

from __future__ import annotations

import random


def derive_seed(seed: int, *parts: object) -> int:
    """64-bit child seed for the substream identified by ``parts``.  Imports
    ``hashlib`` when first called, so that importing this module does not:
    most commands never derive a seed."""
    import hashlib

    key = ":".join([str(seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, *parts: object) -> random.Random:
    """A fresh MT19937 generator for the given substream."""
    return random.Random(derive_seed(seed, *parts))
