"""Program dispatching and group establishment (section 4.1, Figure 1).

The distributor encrypts the program with a symmetric session key K,
then encrypts K under the public key of every processor in the chosen
*group* (the distributor may exclude processors it does not trust,
e.g. ones dedicated to the network stack). The package ships
(encrypted program, {E_Kp_i(K)}). On load, each member SHU recovers K
with its private key; the smallest-PID member then generates and
broadcasts the random initial vectors — encrypted under K — that seed
the group's masks and MAC chain. Fresh IVs per invocation make every
run's mask trace different (section 4.2 "Initialization").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..crypto.aes import AES, BLOCK_BYTES
from ..crypto.modes import (cbc_decrypt, cbc_encrypt, pkcs7_pad,
                            pkcs7_unpad)
from ..errors import CryptoError, ReproError
from ..sim.rng import DeterministicRng
from .shu import SecurityHardwareUnit


@dataclass
class ProgramPackage:
    """What the distributor ships to the SMP machine (Figure 1)."""

    name: str
    encrypted_program: bytes
    program_iv: bytes
    member_pids: List[int]
    encrypted_session_keys: Dict[int, int]  # pid -> RSA ciphertext
    auth_interval: int = 100
    num_masks: int = 2

    def key_for(self, pid: int) -> int:
        if pid not in self.encrypted_session_keys:
            raise ReproError(
                f"processor {pid} is not a member of this package")
        return self.encrypted_session_keys[pid]


class ProgramDistributor:
    """The software vendor's side of the protocol."""

    def __init__(self, rng: Optional[DeterministicRng] = None):
        self._rng = rng or DeterministicRng(0x5EC0DE)

    def package(self, name: str, program: bytes,
                processors: Sequence[SecurityHardwareUnit],
                member_pids: Sequence[int],
                auth_interval: int = 100,
                num_masks: int = 2) -> ProgramPackage:
        """Encrypt ``program`` and wrap the session key for each member."""
        members = sorted(set(member_pids))
        if not members:
            raise ReproError("a program needs at least one member")
        by_pid = {shu.pid: shu for shu in processors}
        missing = [pid for pid in members if pid not in by_pid]
        if missing:
            raise ReproError(f"unknown member PIDs: {missing}")
        session_key = self._rng.random_bytes(16)
        program_iv = self._rng.random_bytes(BLOCK_BYTES)
        ciphertext = cbc_encrypt(AES(session_key), program_iv,
                                 pkcs7_pad(program))
        encrypted_keys = {
            pid: by_pid[pid].keypair.public.encrypt_bytes(session_key)
            for pid in members
        }
        return ProgramPackage(name, ciphertext, program_iv, members,
                              encrypted_keys, auth_interval, num_masks)


def recover_session_key(shu: SecurityHardwareUnit,
                        package: ProgramPackage) -> bytes:
    """A member SHU unwraps K with its sealed private key."""
    return shu.keypair.decrypt_bytes(package.key_for(shu.pid), 16)


def decrypt_program(session_key: bytes, package: ProgramPackage) -> bytes:
    """Decrypt the program text once K is recovered on-chip."""
    plain = cbc_decrypt(AES(session_key), package.program_iv,
                        package.encrypted_program)
    return pkcs7_unpad(plain, "program")


def establish_group(shus: Sequence[SecurityHardwareUnit],
                    group_id: int, package: ProgramPackage,
                    rng: Optional[DeterministicRng] = None) -> List[int]:
    """Run the group-setup protocol on the machine.

    The designated processor (smallest member PID, section 4.2
    "Initialization") draws the random encryption/authentication IVs
    and broadcasts them to the group encrypted under K; all members
    install identical channel state. Non-members only mark the GID
    occupied. Returns the member PID list.
    """
    rng = rng or DeterministicRng(0x1717 + group_id)
    members = set(package.member_pids)
    encryption_iv = rng.random_bytes(BLOCK_BYTES)
    authentication_iv = rng.random_bytes(BLOCK_BYTES)
    while authentication_iv == encryption_iv:
        authentication_iv = rng.random_bytes(BLOCK_BYTES)

    recovered: Dict[int, bytes] = {}
    for shu in shus:
        if shu.pid in members:
            recovered[shu.pid] = recover_session_key(shu, package)
    keys = set(recovered.values())
    if len(keys) != 1:
        raise CryptoError("members recovered different session keys")
    session_key = keys.pop()

    for shu in shus:
        if shu.pid in members:
            shu.join_group(group_id, members, session_key,
                           encryption_iv, authentication_iv,
                           num_masks=package.num_masks,
                           auth_interval=package.auth_interval)
        else:
            shu.observe_group(group_id)
    return sorted(members)
