"""Toy transport encryption and its cost model.

The paper's security concern requires that "communications must be
implemented with SSL instead of plain TCP/IP sockets" when crossing
untrusted domains (§3.2), and earlier work [31] measured the overhead of
doing so in skeletal systems.  We cannot ship OpenSSL, so this module
provides:

* a real (toy) stream cipher — SHA-256 keystream XOR with an
  authentication tag — used by the *threaded* runtime so secured
  channels genuinely transform bytes;
* :class:`CryptoCostModel` — the analytic overhead (a multiplicative
  throughput factor plus a fixed per-connection handshake) used by the
  simulated :class:`~repro.sim.network.Network`.  Defaults reproduce the
  10–40% overhead band reported in [31]; :meth:`CryptoCostModel.
  calibrate` measures the toy cipher on this machine instead.

This is NOT real cryptography (no nonce management, toy KDF); it exists
to exercise the code paths and cost structure of secured channels.
"""

from __future__ import annotations

import hashlib
import hmac
import time
from dataclasses import dataclass

__all__ = ["keystream_xor", "encrypt", "decrypt", "CryptoCostModel", "CryptoError"]

_TAG_LEN = 16
_SEGMENT = 64 * 1024  # bytes XORed in one step; a multiple of the 32-byte block


class CryptoError(RuntimeError):
    """Raised on authentication failure during decryption."""


def keystream_xor(key: bytes, data: bytes) -> bytes:
    """XOR ``data`` with a SHA-256 counter-mode keystream.

    The keystream is the SHA-256 blocks of ``key || counter`` (counter:
    8 bytes big-endian) laid end to end.  The XOR runs a 64 KiB segment
    at a time as two little-endian integers, not byte by byte; bounding
    the segment keeps the peak at the output and its parts, as the
    byte loop's was.
    """
    parts = []
    for start in range(0, len(data), _SEGMENT):
        segment = data[start : start + _SEGMENT]
        n = len(segment)
        first = start // 32
        keystream = b"".join(
            hashlib.sha256(key + block.to_bytes(8, "big")).digest()
            for block in range(first, first + (n + 31) // 32)
        )
        mixed = int.from_bytes(segment, "little") ^ int.from_bytes(keystream[:n], "little")
        parts.append(mixed.to_bytes(n, "little"))
    return b"".join(parts)


def encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC: ciphertext || HMAC-SHA256 tag (truncated)."""
    ciphertext = keystream_xor(key, plaintext)
    tag = hmac.new(key, ciphertext, hashlib.sha256).digest()[:_TAG_LEN]
    return ciphertext + tag

def decrypt(key: bytes, message: bytes) -> bytes:
    """Verify the tag and recover the plaintext.

    Raises :class:`CryptoError` if the message was tampered with.
    """
    if len(message) < _TAG_LEN:
        raise CryptoError("message too short")
    ciphertext, tag = message[:-_TAG_LEN], message[-_TAG_LEN:]
    expected = hmac.new(key, ciphertext, hashlib.sha256).digest()[:_TAG_LEN]
    if not hmac.compare_digest(tag, expected):
        raise CryptoError("authentication failed")
    return keystream_xor(key, ciphertext)


@dataclass
class CryptoCostModel:
    """Analytic cost of securing a channel.

    ``factor`` multiplies the plain transfer time; ``handshake`` adds a
    fixed latency per secured transfer (session setup amortisation).
    """

    factor: float = 1.3
    handshake: float = 0.005

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("crypto factor must be >= 1.0")
        if self.handshake < 0:
            raise ValueError("handshake cost must be >= 0")

    def secured_time(self, plain_time: float) -> float:
        """Transfer time of a secured message given its plain time."""
        return plain_time * self.factor + self.handshake

    def overhead_fraction(self, plain_time: float) -> float:
        """Relative overhead of securing one transfer."""
        if plain_time <= 0:
            return 0.0
        return (self.secured_time(plain_time) - plain_time) / plain_time

    @classmethod
    def calibrate(
        cls, payload_kb: float = 64.0, reference_bandwidth_kbps: float = 100_000.0
    ) -> "CryptoCostModel":
        """Measure the toy cipher to derive a machine-specific factor.

        Times an encrypt+decrypt round trip of ``payload_kb`` and
        expresses it relative to the time the reference network would
        take to move the same payload in the clear.
        """
        key = b"calibration-key"
        payload = bytes(int(payload_kb * 1024))
        t0 = time.perf_counter()
        decrypt(key, encrypt(key, payload))
        crypto_cost = time.perf_counter() - t0
        plain_time = payload_kb / reference_bandwidth_kbps
        factor = 1.0 + crypto_cost / max(plain_time, 1e-9)
        # clamp to a sane band: even slow machines shouldn't make the
        # simulation degenerate
        factor = min(max(factor, 1.05), 5.0)
        return cls(factor=factor, handshake=0.005)
