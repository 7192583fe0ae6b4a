"""secp256k1 fixed-base scalar multiplication for address derivation.

Many keys are multiplied by G at once. One-time setup builds a table of
byte-window multiples of G on first use. The keys then walk the 32 windows
in lockstep, and each window adds every key's table point in affine form
with one modular inversion shared by all of them (Montgomery's trick); the
table rows are grown the same way, from row bases found by Jacobian
doubling. scalar_base_mult is the one-key case.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "CURVE_ORDER",
    "FIELD_PRIME",
    "GX",
    "GY",
    "scalar_base_mult",
    "scalar_base_mult_many",
]

FIELD_PRIME = 2**256 - 2**32 - 977
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_P = FIELD_PRIME
_INFINITY = (0, 1, 0)  # Jacobian Z = 0


def _jac_double(point):
    x1, y1, z1 = point
    if not z1 or not y1:
        return _INFINITY
    a = x1 * x1 % _P
    b = y1 * y1 % _P
    c = b * b % _P
    d = 2 * ((x1 + b) * (x1 + b) - a - c) % _P
    e = 3 * a % _P
    f = e * e % _P
    x3 = (f - 2 * d) % _P
    y3 = (e * (d - x3) - 8 * c) % _P
    z3 = 2 * y1 * z1 % _P
    return (x3, y3, z3)


def _to_affine(point):
    x, y, z = point
    if not z:
        raise ValueError("point at infinity has no affine form")
    zinv = pow(z, -1, _P)
    zinv2 = zinv * zinv % _P
    return (x * zinv2 % _P, y * zinv2 % _P * zinv % _P)


_BASE_TABLE: list[list[tuple[int, int]]] | None = None


def _add_many(ps: list[tuple[int, int]], qs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """[p + q for p, q in zip(ps, qs)] in affine form, with one shared
    inversion (Montgomery's trick). The callers never pass a pair with one
    x-coordinate, so no slope divides by zero."""
    p = _P
    prefix = []
    acc = 1
    for (x1, _), (x2, _) in zip(ps, qs):
        prefix.append(acc)
        acc = acc * (x2 - x1) % p
    assert acc, "a batched addition met a doubling or a point's negation"
    # walking back from the last pair j, inv is 1 / (the product of the
    # x2 - x1 of pairs 0..j), so inv * prefix[j] is pair j's own 1 / (x2 - x1)
    inv = pow(acc, -1, p)
    sums = []
    for (x1, y1), (x2, y2), before in zip(reversed(ps), reversed(qs), reversed(prefix)):
        slope = (y2 - y1) * (inv * before % p) % p
        inv = inv * (x2 - x1) % p
        x3 = (slope * slope - x1 - x2) % p
        sums.append((x3, (slope * (x1 - x3) - y1) % p))
    sums.reverse()
    return sums


def _build_base_table() -> list[list[tuple[int, int]]]:
    """Multiples w * B_i of B_i = 2^(8i) * G for every byte window i and w
    in 1..255, as row i.

    2 * B_i is a doubling, done per row; from there the 32 rows grow in
    lockstep, one shared inversion per step. w * B_i never meets +-B_i for
    2 <= w <= 254, because B_i has the prime order n > 256.
    """
    bases = []
    point = (GX, GY, 1)
    for _ in range(32):
        bases.append(_to_affine(point))
        for _ in range(8):
            point = _jac_double(point)
    rows = [[(x, y), _to_affine(_jac_double((x, y, 1)))] for x, y in bases]
    current = [row[1] for row in rows]
    for _ in range(3, 256):
        current = _add_many(current, bases)
        for row, entry in zip(rows, current):
            row.append(entry)
    return rows


def scalar_base_mult_many(keys: Sequence[int]) -> list[tuple[int, int]]:
    """k * G for every key, via the fixed-base window table.

    The keys walk the 32 byte windows in lockstep: window i adds the table
    point w * 256^i * G of each key whose byte w there is nonzero, and the
    additions of one window share one inversion. They are exact. Before
    window i a key's sum is (k mod 256^i) * G with k mod 256^i < 256^i <=
    w * 256^i < n, so it never equals the table point; it would equal the
    point's negation only if k's windows 0..i summed to n, and k < n.
    """
    for k in keys:
        if not 1 <= k < CURVE_ORDER:
            raise ValueError(f"scalar outside [1, n-1]: {k}")
    global _BASE_TABLE
    if _BASE_TABLE is None:
        _BASE_TABLE = _build_base_table()
    # column i holds byte window i of every key
    columns = zip(*[k.to_bytes(32, "little") for k in keys])
    sums: list = [None] * len(keys)
    for row, column in zip(_BASE_TABLE, columns):
        adding = [j for j, w in enumerate(column) if w and sums[j] is not None]
        if adding:
            added = _add_many([sums[j] for j in adding], [row[column[j] - 1] for j in adding])
            for j, point in zip(adding, added):
                sums[j] = point
        if None in sums:  # a key whose windows so far were all zero
            for j, w in enumerate(column):
                if w and sums[j] is None:
                    sums[j] = row[w - 1]
    return sums


def scalar_base_mult(k: int) -> tuple[int, int]:
    """k * G; the one-key case of scalar_base_mult_many."""
    return scalar_base_mult_many([k])[0]
