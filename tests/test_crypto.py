"""Unit + property tests: KDF, AEAD, DH."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import StreamAead
from repro.crypto.dh import (
    GENERATOR,
    MODP_GROUP_14,
    WINDOW_BITS,
    WINDOW_ROWS,
    DhKeyPair,
    fixed_base_pow,
)
from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract, hmac_sha256
from repro.errors import AuthenticationFailure, CryptoError


class TestKdf:
    def test_hkdf_rfc5869_case1(self):
        """RFC 5869 test case 1 (SHA-256)."""
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_expand_lengths(self):
        prk = hkdf_extract(b"salt", b"ikm")
        for n in (1, 31, 32, 33, 64, 100):
            assert len(hkdf_expand(prk, b"i", n)) == n

    def test_expand_too_long(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"0" * 32, b"", 256 * 32)

    def test_derive_key_labels_independent(self):
        assert derive_key(b"master", "a") != derive_key(b"master", "b")

    def test_hmac_known_answer(self):
        # RFC 4231 test case 2.
        out = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert out.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )


class TestAead:
    def test_round_trip(self):
        aead = StreamAead(b"k" * 32)
        nonce = b"n" * 12
        sealed = aead.seal(nonce, b"attack at dawn", aad=b"hdr")
        assert aead.open(nonce, sealed, aad=b"hdr") == b"attack at dawn"

    def test_ciphertext_differs_from_plaintext(self):
        aead = StreamAead(b"k" * 32)
        sealed = aead.seal(b"n" * 12, b"attack at dawn")
        assert b"attack at dawn" not in sealed

    def test_tamper_detected(self):
        aead = StreamAead(b"k" * 32)
        sealed = bytearray(aead.seal(b"n" * 12, b"payload"))
        sealed[0] ^= 1
        with pytest.raises(AuthenticationFailure):
            aead.open(b"n" * 12, bytes(sealed))

    def test_wrong_aad_detected(self):
        aead = StreamAead(b"k" * 32)
        sealed = aead.seal(b"n" * 12, b"payload", aad=b"a")
        with pytest.raises(AuthenticationFailure):
            aead.open(b"n" * 12, sealed, aad=b"b")

    def test_wrong_key_detected(self):
        sealed = StreamAead(b"k" * 32).seal(b"n" * 12, b"payload")
        with pytest.raises(AuthenticationFailure):
            StreamAead(b"j" * 32).open(b"n" * 12, sealed)

    def test_wrong_nonce_detected(self):
        aead = StreamAead(b"k" * 32)
        sealed = aead.seal(b"n" * 12, b"payload")
        with pytest.raises(AuthenticationFailure):
            aead.open(b"m" * 12, sealed)

    def test_truncated_blob_rejected(self):
        aead = StreamAead(b"k" * 32)
        with pytest.raises(AuthenticationFailure):
            aead.open(b"n" * 12, b"short")

    def test_bad_nonce_length(self):
        aead = StreamAead(b"k" * 32)
        with pytest.raises(CryptoError):
            aead.seal(b"short", b"x")

    def test_short_key_rejected(self):
        with pytest.raises(CryptoError):
            StreamAead(b"tiny")

    @given(st.binary(max_size=512), st.binary(max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_property_round_trip(self, plaintext, aad):
        aead = StreamAead(b"property-key-0123456789abcdef!!")
        nonce = b"\x01" * 12
        assert aead.open(nonce, aead.seal(nonce, plaintext, aad), aad) == plaintext


class TestDh:
    def test_shared_secret_agreement(self):
        alice = DhKeyPair.generate(b"a" * 32)
        bob = DhKeyPair.generate(b"b" * 32)
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_different_peers_different_secrets(self):
        alice = DhKeyPair.generate(b"a" * 32)
        bob = DhKeyPair.generate(b"b" * 32)
        carol = DhKeyPair.generate(b"c" * 32)
        assert alice.shared_secret(bob.public) != alice.shared_secret(carol.public)

    def test_public_in_group(self):
        kp = DhKeyPair.generate(b"x" * 32)
        assert 2 <= kp.public <= MODP_GROUP_14 - 2

    def test_degenerate_peer_rejected(self):
        kp = DhKeyPair.generate(b"x" * 32)
        for bad in (0, 1, MODP_GROUP_14 - 1, MODP_GROUP_14):
            with pytest.raises(CryptoError):
                kp.shared_secret(bad)

    def test_insufficient_randomness_rejected(self):
        with pytest.raises(CryptoError):
            DhKeyPair.generate(b"short")

    @pytest.mark.parametrize("size", [31, 33, 64])
    def test_randomness_must_be_exactly_32_bytes(self, size):
        with pytest.raises(CryptoError, match="exactly 32"):
            DhKeyPair.generate(b"\x01" * size)

    def test_public_bytes_length(self):
        assert len(DhKeyPair.generate(b"x" * 32).public_bytes()) == 256

    def test_public_pinned_against_pow_reference(self):
        """The table changes only speed: the largest 32-byte input keeps
        the public value (and so every handshake's wire bytes) of
        ``pow(g, x, p)``."""
        kp = DhKeyPair.generate(b"\xff" * 32)
        assert kp.private == (2**256 - 1) % (MODP_GROUP_14 - 2) + 2
        assert kp.public == pow(GENERATOR, kp.private, MODP_GROUP_14)


class TestFixedBaseTable:
    def test_table_covers_every_generated_exponent(self):
        assert WINDOW_BITS * WINDOW_ROWS >= (2**256 + 1).bit_length()

    @pytest.mark.parametrize(
        "exponent",
        [
            0,
            1,
            2,
            2**256 + 1,
            # Every window digit at its maximum.
            2 ** (WINDOW_BITS * WINDOW_ROWS) - 1,
            # Only the lowest and highest windows set; all-zero interior.
            (1 << (WINDOW_BITS * (WINDOW_ROWS - 1))) | 1,
            ((2**WINDOW_BITS - 1) << (WINDOW_BITS * (WINDOW_ROWS - 1)))
            | (2**WINDOW_BITS - 1),
        ],
        ids=["zero", "one", "two", "max-private", "all-max-digits",
             "zero-interior", "zero-interior-max-ends"],
    )
    def test_edge_exponents_match_pow(self, exponent):
        assert fixed_base_pow(exponent) == pow(GENERATOR, exponent, MODP_GROUP_14)

    @given(st.integers(min_value=2, max_value=2**256 + 1))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_pow(self, exponent):
        assert fixed_base_pow(exponent) == pow(GENERATOR, exponent, MODP_GROUP_14)

    @given(st.binary(min_size=32, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_property_generate_matches_pow(self, random_bytes):
        kp = DhKeyPair.generate(random_bytes)
        assert 2 <= kp.private <= 2**256 + 1
        assert kp.public == pow(GENERATOR, kp.private, MODP_GROUP_14)

    @pytest.mark.parametrize(
        "exponent", [-1, 2 ** (WINDOW_BITS * WINDOW_ROWS)], ids=["negative", "too-wide"]
    )
    def test_exponent_outside_table_rejected(self, exponent):
        with pytest.raises(CryptoError):
            fixed_base_pow(exponent)
