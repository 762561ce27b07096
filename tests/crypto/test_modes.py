"""CBC / CTR mode tests, including the NIST SP 800-38A CBC vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import (cbc_decrypt, cbc_encrypt, ctr_keystream,
                                ctr_xcrypt, pkcs7_pad, pkcs7_unpad)
from repro.errors import CryptoError

# NIST SP 800-38A F.2.1: CBC-AES128 encryption.
NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NIST_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")
NIST_CIPHER = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7")


def test_cbc_nist_vector_encrypt():
    assert cbc_encrypt(AES(NIST_KEY), NIST_IV, NIST_PLAIN) == NIST_CIPHER


def test_cbc_nist_vector_decrypt():
    assert cbc_decrypt(AES(NIST_KEY), NIST_IV, NIST_CIPHER) == NIST_PLAIN


def test_cbc_roundtrip_multiblock():
    aes = AES(bytes(range(16)))
    iv = bytes(16)
    plaintext = bytes(range(64)) + bytes(64)
    assert cbc_decrypt(aes, iv, cbc_encrypt(aes, iv, plaintext)) == plaintext


def test_cbc_chaining_propagates():
    """Flipping one plaintext block changes all later cipher blocks."""
    aes = AES(bytes(range(16)))
    iv = bytes(16)
    original = bytes(64)
    modified = bytes([1]) + bytes(63)
    cipher_a = cbc_encrypt(aes, iv, original)
    cipher_b = cbc_encrypt(aes, iv, modified)
    for block in range(4):
        assert (cipher_a[block * 16:(block + 1) * 16]
                != cipher_b[block * 16:(block + 1) * 16])


def test_cbc_rejects_partial_blocks():
    aes = AES(bytes(16))
    with pytest.raises(CryptoError):
        cbc_encrypt(aes, bytes(16), b"odd length data")
    with pytest.raises(CryptoError):
        cbc_decrypt(aes, bytes(16), b"odd length data")


def test_cbc_rejects_bad_iv():
    aes = AES(bytes(16))
    with pytest.raises(CryptoError):
        cbc_encrypt(aes, b"short iv", bytes(16))


def test_ctr_keystream_is_deterministic_and_extensible():
    aes = AES(bytes(range(16)))
    nonce = bytes(8)
    short = ctr_keystream(aes, nonce, 16)
    long = ctr_keystream(aes, nonce, 48)
    assert long[:16] == short


def test_ctr_xcrypt_is_self_inverse():
    aes = AES(bytes(range(16)))
    nonce = b"\x01" * 8
    data = b"the cache-to-memory traffic can be encrypted as before!"
    assert ctr_xcrypt(aes, nonce, ctr_xcrypt(aes, nonce, data)) == data


def test_ctr_initial_counter_offsets_stream():
    aes = AES(bytes(range(16)))
    nonce = bytes(8)
    assert (ctr_keystream(aes, nonce, 16, initial_counter=1)
            == ctr_keystream(aes, nonce, 32)[16:])


def test_ctr_rejects_bad_nonce():
    with pytest.raises(CryptoError):
        ctr_keystream(AES(bytes(16)), b"bad", 16)


@settings(max_examples=20, deadline=None)
@given(key=st.binary(min_size=16, max_size=16),
       iv=st.binary(min_size=16, max_size=16),
       blocks=st.integers(min_value=1, max_value=6),
       data=st.data())
def test_property_cbc_roundtrip(key, iv, blocks, data):
    plaintext = data.draw(st.binary(min_size=16 * blocks,
                                    max_size=16 * blocks))
    aes = AES(key)
    assert cbc_decrypt(aes, iv, cbc_encrypt(aes, iv, plaintext)) == plaintext


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=64))
def test_pkcs7_round_trip(data):
    padded = pkcs7_pad(data)
    assert len(padded) % 16 == 0 and len(padded) > len(data)
    assert pkcs7_unpad(padded, "test") == data


@pytest.mark.parametrize("blob", [b"", bytes(16), b"x" * 15 + b"\x11"])
def test_pkcs7_unpad_names_the_payload(blob):
    with pytest.raises(CryptoError, match="bad context padding"):
        pkcs7_unpad(blob, "context")
