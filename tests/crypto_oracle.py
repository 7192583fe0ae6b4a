"""Independent reference implementations for address derivation tests.

Deliberately written in a different shape from the library code: the keccak
permutation operates on a 5x5 matrix with rotation offsets and round
constants derived programmatically from their defining recurrences, and the
curve arithmetic is plain affine double-and-add with modular inversion at
every step. Slow, simple, and sharing no code with src/.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

# --- keccak-f[1600], matrix form -------------------------------------------


def _rot(v: int, n: int) -> int:
    n %= 64
    if n == 0:
        return v
    return ((v << n) | (v >> (64 - n))) & MASK64


def _rotation_offsets() -> dict[tuple[int, int], int]:
    offsets = {(0, 0): 0}
    x, y = 1, 0
    for t in range(24):
        offsets[(x, y)] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


def _round_constants() -> list[int]:
    # bit stream of the degree-8 LFSR x^8 + x^6 + x^5 + x^4 + 1
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


_OFFSETS = _rotation_offsets()
_RC = _round_constants()


def _keccak_f(a: list[list[int]]) -> None:
    for rc in _RC:
        c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rot(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                a[x][y] ^= d[x]
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rot(a[x][y], _OFFSETS[(x, y)])
        for x in range(5):
            for y in range(5):
                a[x][y] = b[x][y] ^ ((~b[(x + 1) % 5][y]) & b[(x + 2) % 5][y])
        a[0][0] ^= rc


def keccak256_oracle(data: bytes) -> bytes:
    rate = 136
    padlen = rate - (len(data) % rate)
    if padlen == 1:
        padded = data + b"\x81"
    else:
        padded = data + b"\x01" + b"\x00" * (padlen - 2) + b"\x80"
    state = [[0] * 5 for _ in range(5)]
    for start in range(0, len(padded), rate):
        block = padded[start : start + rate]
        for lane in range(rate // 8):
            x, y = lane % 5, lane // 5
            state[x][y] ^= int.from_bytes(block[8 * lane : 8 * lane + 8], "little")
        _keccak_f(state)
    out = b""
    for lane in range(4):
        out += state[lane % 5][lane // 5].to_bytes(8, "little")
    return out


# --- secp256k1, affine form ------------------------------------------------

P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

Point = tuple[int, int] | None  # None is the point at infinity


def is_on_curve(x: int, y: int) -> bool:
    return (y * y - x * x * x - 7) % P == 0


def point_add(p: Point, q: Point) -> Point:
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        slope = (3 * x1 * x1) * pow(2 * y1, -1, P) % P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (slope * slope - x1 - x2) % P
    y3 = (slope * (x1 - x3) - y1) % P
    return (x3, y3)


def scalar_mult_oracle(k: int, point: Point = (GX, GY)) -> Point:
    result: Point = None
    addend = point
    while k:
        if k & 1:
            result = point_add(result, addend)
        addend = point_add(addend, addend)
        k >>= 1
    return result


def derive_address_oracle(private_key: int) -> str:
    if not 1 <= private_key < N:
        raise ValueError("private key outside [1, n-1]")
    point = scalar_mult_oracle(private_key)
    assert point is not None
    x, y = point
    public = x.to_bytes(32, "big") + y.to_bytes(32, "big")
    return "0x" + keccak256_oracle(public)[12:].hex()
