"""Tests for the toy cipher and its cost model."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security.crypto import (
    CryptoCostModel,
    CryptoError,
    decrypt,
    encrypt,
    keystream_xor,
)

KEY = b"test-key"


class TestKeystream:
    def test_xor_is_involution(self):
        data = b"hello world" * 10
        once = keystream_xor(KEY, data)
        assert keystream_xor(KEY, once) == data

    def test_different_keys_differ(self):
        data = b"payload"
        assert keystream_xor(b"k1", data) != keystream_xor(b"k2", data)

    def test_empty_data(self):
        assert keystream_xor(KEY, b"") == b""

    def test_ciphertext_differs_from_plaintext(self):
        data = b"x" * 100
        assert keystream_xor(KEY, data) != data


#: SHA-256 of ``encrypt(KEY, known_plaintext(n))``: the cipher's output
#: is wire format (a secured frame's body), so a faster keystream must
#: reproduce these bytes exactly
KNOWN_ANSWERS = {
    0: "b15093dbff041ab14fb0d0deaf5fc365b30c72760122b4498170bee168dd3d19",
    1: "3c759f6c054e50331befe2c24c66c3ba3f58db5e98fa2b37489dd88aff248177",
    31: "a652d517fe07c8d639496b58e89670434f268c2d85985bd622ea7bed7650e153",
    32: "c5146a5421bf26892e834b5074a917e95e2c7e8291067629824e811861548ea0",
    33: "e8492e8ba0e693f289c05ec851aa1c9d6d0f2ffb2864244a78b88d0039ee3759",
    1000: "2b5fca22924ecffc7bf440554d628b10dd24af496fbaf83b33c8e51dda9ca1c3",
    65536: "82e00bb3b147b05e3c8f104a02fb3f9b27416fd470d1b0606038ef1dfcb7d634",
    65537: "2f8e952bc49627c07d7e0987bb111882d7a0ad1de7c2ca909696de9ded77d80c",
    150001: "b46dcaef772dfa24539179404dcbb46723da3bec1a5317ebb7a616e565f40e0b",
}


def known_plaintext(n):
    return bytes(i * 7 % 251 for i in range(n))


@pytest.mark.parametrize("n", sorted(KNOWN_ANSWERS))
def test_ciphertext_is_pinned(n):
    digest = hashlib.sha256(encrypt(KEY, known_plaintext(n))).hexdigest()
    assert digest == KNOWN_ANSWERS[n]


class TestEncryptDecrypt:
    def test_roundtrip(self):
        msg = b"the quick brown fox"
        assert decrypt(KEY, encrypt(KEY, msg)) == msg

    def test_tampering_detected(self):
        blob = bytearray(encrypt(KEY, b"important"))
        blob[0] ^= 0xFF
        with pytest.raises(CryptoError, match="authentication"):
            decrypt(KEY, bytes(blob))

    def test_tag_tampering_detected(self):
        blob = bytearray(encrypt(KEY, b"important"))
        blob[-1] ^= 0xFF
        with pytest.raises(CryptoError):
            decrypt(KEY, bytes(blob))

    def test_wrong_key_rejected(self):
        blob = encrypt(KEY, b"secret")
        with pytest.raises(CryptoError):
            decrypt(b"other-key", blob)

    def test_too_short_message(self):
        with pytest.raises(CryptoError, match="short"):
            decrypt(KEY, b"tiny")

    @given(st.binary(min_size=0, max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, payload):
        assert decrypt(KEY, encrypt(KEY, payload)) == payload

    @given(st.binary(min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_ciphertext_longer_by_tag(self, payload):
        assert len(encrypt(KEY, payload)) == len(payload) + 16


class TestCostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CryptoCostModel(factor=0.9)
        with pytest.raises(ValueError):
            CryptoCostModel(handshake=-1.0)

    def test_secured_time(self):
        m = CryptoCostModel(factor=2.0, handshake=0.01)
        assert m.secured_time(1.0) == pytest.approx(2.01)

    def test_overhead_fraction(self):
        m = CryptoCostModel(factor=1.3, handshake=0.0)
        assert m.overhead_fraction(1.0) == pytest.approx(0.3)
        assert m.overhead_fraction(0.0) == 0.0

    def test_calibrate_produces_sane_factor(self):
        m = CryptoCostModel.calibrate(payload_kb=16.0)
        assert 1.05 <= m.factor <= 5.0
        assert m.handshake >= 0.0
