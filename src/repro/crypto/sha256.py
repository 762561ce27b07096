"""SHA-256 and HMAC-SHA256, from the standard library.

The non-chained baseline SENSS is compared against — Shi et al. [20]
— authenticates each bus transaction "using a hash function SHA256".
Our :class:`~repro.core.authentication.NonChainedAuthenticator` can
therefore use the real thing; tests/crypto/test_sha256.py checks it
against the NIST and RFC 4231 vectors.
"""

from __future__ import annotations

import hashlib
import hmac


def sha256(message: bytes) -> bytes:
    """One-shot SHA-256 digest (32 bytes)."""
    return hashlib.sha256(message).digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104) — the keyed per-message MAC the
    non-chained baseline attaches to each bus transfer."""
    return hmac.new(key, message, hashlib.sha256).digest()
