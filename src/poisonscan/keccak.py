"""Keccak-256 (the pre-standard padding variant used for EVM addresses).

Pure-Python sponge over keccak-f[1600] that hashes many messages of one
length at once. Each of the 25 state lanes is one Python int holding that
lane of every message: lane i of message m sits at bits 64m of int i. XOR,
AND and NOT then act lane-wise for free, and a rotation shifts the whole
int and masks with per-lane patterns the bits that stay in their lane and
those that wrap around. The round is unrolled over 25 local lanes with rho
and pi fused. keccak256 is the one-message case. Distinct from SHA3-256,
which pads with a different domain byte and produces different digests.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["keccak256", "keccak256_many"]

_MASK = (1 << 64) - 1
_RATE = 136  # bytes, for 256-bit output
_LANE_ONE = (1).to_bytes(8, "little")
# the distinct nonzero rho offsets; 1 is also theta's rotation
_ROTATIONS = (
    1, 2, 3, 6, 8, 10, 14, 15, 18, 20, 21, 25, 27, 28, 36, 39, 41, 43, 44, 45, 55, 56, 61, 62,
)


def _round_constants() -> list[int]:
    # the bit stream of the degree-8 LFSR
    constants = []
    reg = 1
    for _ in range(24):
        rc = 0
        for j in range(7):
            if reg & 1:
                rc |= 1 << (2**j - 1)
            reg <<= 1
            if reg & 0x100:
                reg ^= 0x171
        constants.append(rc)
    return constants


_RC = _round_constants()


def _keccak_f(lanes: list[int], width: int) -> list[int]:
    """keccak-f[1600] on `width` states at once (lane x + 5y of each state
    at bits 64m of lanes[x + 5y]); returns the new lanes."""
    ones = int.from_bytes(_LANE_ONE * width, "little")  # bit 0 of every lane
    full = ones * _MASK
    # l<s> keeps the low s bits of every lane, h<s> the other 64 - s
    lows = [ones * ((1 << s) - 1) for s in _ROTATIONS]
    (
        l1, l2, l3, l6, l8, l10, l14, l15, l18, l20, l21, l25, l27, l28, l36, l39, l41,
        l43, l44, l45, l55, l56, l61, l62,
    ) = lows
    (
        h1, h2, h3, h6, h8, h10, h14, h15, h18, h20, h21, h25, h27, h28, h36, h39, h41,
        h43, h44, h45, h55, h56, h61, h62,
    ) = [full ^ low for low in lows]
    (
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17,
        a18, a19, a20, a21, a22, a23, a24,
    ) = lanes
    for rc in [c * ones for c in _RC]:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) & h1) | ((c1 >> 63) & l1))
        d1 = c0 ^ (((c2 << 1) & h1) | ((c2 >> 63) & l1))
        d2 = c1 ^ (((c3 << 1) & h1) | ((c3 >> 63) & l1))
        d3 = c2 ^ (((c4 << 1) & h1) | ((c4 >> 63) & l1))
        d4 = c3 ^ (((c0 << 1) & h1) | ((c0 >> 63) & l1))
        # rho and pi: lane x + 5y, theta applied, moves rotated to y + 5(2x + 3y)
        b0 = a0 ^ d0
        a6 ^= d1
        b1 = ((a6 << 44) & h44) | ((a6 >> 20) & l44)
        a12 ^= d2
        b2 = ((a12 << 43) & h43) | ((a12 >> 21) & l43)
        a18 ^= d3
        b3 = ((a18 << 21) & h21) | ((a18 >> 43) & l21)
        a24 ^= d4
        b4 = ((a24 << 14) & h14) | ((a24 >> 50) & l14)
        a3 ^= d3
        b5 = ((a3 << 28) & h28) | ((a3 >> 36) & l28)
        a9 ^= d4
        b6 = ((a9 << 20) & h20) | ((a9 >> 44) & l20)
        a10 ^= d0
        b7 = ((a10 << 3) & h3) | ((a10 >> 61) & l3)
        a16 ^= d1
        b8 = ((a16 << 45) & h45) | ((a16 >> 19) & l45)
        a22 ^= d2
        b9 = ((a22 << 61) & h61) | ((a22 >> 3) & l61)
        a1 ^= d1
        b10 = ((a1 << 1) & h1) | ((a1 >> 63) & l1)
        a7 ^= d2
        b11 = ((a7 << 6) & h6) | ((a7 >> 58) & l6)
        a13 ^= d3
        b12 = ((a13 << 25) & h25) | ((a13 >> 39) & l25)
        a19 ^= d4
        b13 = ((a19 << 8) & h8) | ((a19 >> 56) & l8)
        a20 ^= d0
        b14 = ((a20 << 18) & h18) | ((a20 >> 46) & l18)
        a4 ^= d4
        b15 = ((a4 << 27) & h27) | ((a4 >> 37) & l27)
        a5 ^= d0
        b16 = ((a5 << 36) & h36) | ((a5 >> 28) & l36)
        a11 ^= d1
        b17 = ((a11 << 10) & h10) | ((a11 >> 54) & l10)
        a17 ^= d2
        b18 = ((a17 << 15) & h15) | ((a17 >> 49) & l15)
        a23 ^= d3
        b19 = ((a23 << 56) & h56) | ((a23 >> 8) & l56)
        a2 ^= d2
        b20 = ((a2 << 62) & h62) | ((a2 >> 2) & l62)
        a8 ^= d3
        b21 = ((a8 << 55) & h55) | ((a8 >> 9) & l55)
        a14 ^= d4
        b22 = ((a14 << 39) & h39) | ((a14 >> 25) & l39)
        a15 ^= d0
        b23 = ((a15 << 41) & h41) | ((a15 >> 23) & l41)
        a21 ^= d1
        b24 = ((a21 << 2) & h2) | ((a21 >> 62) & l2)
        # chi
        a0 = b0 ^ (b2 & ~b1)
        a1 = b1 ^ (b3 & ~b2)
        a2 = b2 ^ (b4 & ~b3)
        a3 = b3 ^ (b0 & ~b4)
        a4 = b4 ^ (b1 & ~b0)
        a5 = b5 ^ (b7 & ~b6)
        a6 = b6 ^ (b8 & ~b7)
        a7 = b7 ^ (b9 & ~b8)
        a8 = b8 ^ (b5 & ~b9)
        a9 = b9 ^ (b6 & ~b5)
        a10 = b10 ^ (b12 & ~b11)
        a11 = b11 ^ (b13 & ~b12)
        a12 = b12 ^ (b14 & ~b13)
        a13 = b13 ^ (b10 & ~b14)
        a14 = b14 ^ (b11 & ~b10)
        a15 = b15 ^ (b17 & ~b16)
        a16 = b16 ^ (b18 & ~b17)
        a17 = b17 ^ (b19 & ~b18)
        a18 = b18 ^ (b15 & ~b19)
        a19 = b19 ^ (b16 & ~b15)
        a20 = b20 ^ (b22 & ~b21)
        a21 = b21 ^ (b23 & ~b22)
        a22 = b22 ^ (b24 & ~b23)
        a23 = b23 ^ (b20 & ~b24)
        a24 = b24 ^ (b21 & ~b20)
        # iota
        a0 ^= rc
    return [
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17,
        a18, a19, a20, a21, a22, a23, a24,
    ]


def keccak256_many(messages: Sequence[bytes]) -> list[bytes]:
    """Keccak-256 digests of messages that all have the same length."""
    width = len(messages)
    if not width:
        return []
    size = len(messages[0])
    if any(len(message) != size for message in messages):
        raise ValueError("keccak256_many needs messages of one length")
    padlen = _RATE - size % _RATE
    pad = b"\x81" if padlen == 1 else b"\x01" + bytes(padlen - 2) + b"\x80"
    stride = size + padlen
    padded = b"".join([message + pad for message in messages])
    lanes = [0] * 25
    lane = bytearray(8 * width)
    for block in range(0, stride, _RATE):
        for i in range(17):
            start = block + 8 * i
            for t in range(8):  # byte t of lane i, from every message
                lane[t::8] = padded[start + t :: stride]
            lanes[i] ^= int.from_bytes(lane, "little")
        lanes = _keccak_f(lanes, width)
    digests = bytearray(32 * width)
    for i in range(4):
        packed = lanes[i].to_bytes(8 * width, "little")
        for t in range(8):
            digests[8 * i + t :: 32] = packed[t::8]
    return [bytes(digests[k : k + 32]) for k in range(0, 32 * width, 32)]


def keccak256(data: bytes) -> bytes:
    return keccak256_many([data])[0]
