"""Deterministic seed derivation for independent random streams.

Every pipeline stage derives its generators from a root seed plus a label
path, so stages never share a stream and reruns reproduce bit-identical
output regardless of which stages run.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import check_int


def mix_seed(*parts) -> int:
    """Stable 63-bit seed from a label path (ints and strings)."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % 2**63


def rng_from(seed: int, *labels) -> np.random.Generator:
    """The generator of the stream ``labels`` under the root ``seed``, which
    must be an exact ``int``: ``mix_seed`` hashes its text, so 1.5, True or
    "x" would seed a stream unrelated to any int seed."""
    check_int("seed", seed)
    return np.random.default_rng(mix_seed(seed, *labels))
