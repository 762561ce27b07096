"""Block-cipher modes of operation used by SENSS.

- **CBC** (Cipher Block Chaining) is the basis of the paper's bus
  encryption and authentication (section 4.2, Table 1).
- **CTR** (Counter mode) underlies the OTP pad-generation of the fast
  memory encryption schemes the paper integrates (section 6.1), and the
  GCM alternative mentioned in section 4.3.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import CryptoError
from .aes import AES, BLOCK_BYTES
from .otp import xor_bytes


def _check_blocks(data: bytes, name: str) -> None:
    if len(data) % BLOCK_BYTES != 0:
        raise CryptoError(
            f"{name} length must be a multiple of {BLOCK_BYTES} bytes, "
            f"got {len(data)}")


def _blocks(data: bytes) -> Iterator[bytes]:
    for offset in range(0, len(data), BLOCK_BYTES):
        yield data[offset:offset + BLOCK_BYTES]


def pkcs7_pad(data: bytes) -> bytes:
    """PKCS#7 padding to the AES block size (always adds a byte)."""
    fill = BLOCK_BYTES - len(data) % BLOCK_BYTES
    return data + bytes([fill]) * fill


def pkcs7_unpad(data: bytes, what: str) -> bytes:
    """Strip :func:`pkcs7_pad` padding; a malformed tail raises
    ``CryptoError("bad {what} padding")``."""
    if not data or data[-1] == 0 or data[-1] > BLOCK_BYTES:
        raise CryptoError(f"bad {what} padding")
    return data[:-data[-1]]


def cbc_encrypt(aes: AES, iv: bytes, plaintext: bytes) -> bytes:
    """Classic CBC: C_i = AES_K(D_i XOR C_{i-1}), C_0 = IV."""
    if len(iv) != BLOCK_BYTES:
        raise CryptoError("CBC IV must be one block")
    _check_blocks(plaintext, "plaintext")
    previous = iv
    out = bytearray()
    for block in _blocks(plaintext):
        previous = aes.encrypt_block(xor_bytes(block, previous))
        out.extend(previous)
    return bytes(out)


def cbc_decrypt(aes: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`cbc_encrypt`."""
    if len(iv) != BLOCK_BYTES:
        raise CryptoError("CBC IV must be one block")
    _check_blocks(ciphertext, "ciphertext")
    previous = iv
    out = bytearray()
    for block in _blocks(ciphertext):
        out.extend(xor_bytes(aes.decrypt_block(block), previous))
        previous = block
    return bytes(out)


def ctr_keystream(aes: AES, nonce: bytes, num_bytes: int,
                  initial_counter: int = 0) -> bytes:
    """Generate ``num_bytes`` of CTR-mode keystream (OTP pads)."""
    if len(nonce) != 8:
        raise CryptoError("CTR nonce must be 8 bytes")
    stream = bytearray()
    counter = initial_counter
    while len(stream) < num_bytes:
        block_input = nonce + counter.to_bytes(8, "big")
        stream.extend(aes.encrypt_block(block_input))
        counter += 1
    return bytes(stream[:num_bytes])


def ctr_xcrypt(aes: AES, nonce: bytes, data: bytes,
               initial_counter: int = 0) -> bytes:
    """CTR mode en/decryption (self-inverse)."""
    return xor_bytes(data, ctr_keystream(aes, nonce, len(data),
                                         initial_counter))
