"""Address derivation and seeded lookalike search tests.

The library path (batched fixed-base multiply over the window table, the
many-message Keccak whose lanes pack one message per 64 bits) is checked
bit-exactly against the independent affine/matrix oracle in
crypto_oracle.py plus frozen public vectors. The
batched search is checked against a per-key reference loop.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crypto_oracle import (
    N as ORACLE_N,
    derive_address_oracle,
    is_on_curve,
    keccak256_oracle,
    scalar_mult_oracle,
)
from poisonscan import addrgen
from poisonscan.addrgen import (
    Match,
    SearchSpec,
    _batches,
    _prf_key,
    derive_address,
    derive_addresses,
    search,
)
from poisonscan.keccak import keccak256, keccak256_many
from poisonscan.secp256k1 import (
    CURVE_ORDER,
    GX,
    GY,
    _build_base_table,
    scalar_base_mult,
    scalar_base_mult_many,
)
from poisonscan.similarity import score

# ---------------------------------------------------------------------------
# keccak-256

KNOWN_DIGESTS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
}


@pytest.mark.parametrize("message,digest", sorted(KNOWN_DIGESTS.items()))
def test_keccak_public_vectors(message, digest):
    assert keccak256(message).hex() == digest
    assert keccak256_oracle(message).hex() == digest


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=120, deadline=None)
def test_keccak_matches_oracle(data):
    assert keccak256(data) == keccak256_oracle(data)


def test_keccak_rate_boundary_lengths():
    # 135 forces the single-byte 0x81 pad, 136 a full extra pad block
    for size in (134, 135, 136, 137, 271, 272, 273):
        data = bytes(range(256))[:1] * size
        assert keccak256(data) == keccak256_oracle(data)


@pytest.mark.parametrize("batch,length", [(1, 0), (2, 135), (17, 136), (17, 300), (512, 64)])
def test_keccak_many_matches_single_and_oracle(batch, length):
    rng = random.Random(batch * 1000 + length)
    messages = [rng.randbytes(length) for _ in range(batch)]
    digests = keccak256_many(messages)
    assert digests == [keccak256(m) for m in messages]
    assert digests == [keccak256_oracle(m) for m in messages]


def test_keccak_many_edge_cases():
    assert keccak256_many([]) == []
    with pytest.raises(ValueError):
        keccak256_many([b"ab", b"abc"])


# ---------------------------------------------------------------------------
# secp256k1


def test_generator_is_on_curve():
    assert is_on_curve(GX, GY)


def test_scalar_one_is_generator():
    assert scalar_base_mult(1) == (GX, GY)


def test_scalar_two_matches_oracle_double():
    assert scalar_base_mult(2) == scalar_mult_oracle(2)


@pytest.mark.parametrize(
    "k",
    [3, 7, 255, 256, 257, 2**64 - 1, 2**128 + 12345, 2**255, CURVE_ORDER - 1],
)
def test_scalar_base_mult_matches_oracle(k):
    want = scalar_mult_oracle(k)
    assert scalar_base_mult(k) == want


def test_scalar_base_mult_random_keys_match_oracle():
    rng = random.Random(42)
    for _ in range(15):
        k = rng.randrange(1, CURVE_ORDER)
        point = scalar_base_mult(k)
        assert point == scalar_mult_oracle(k)
        assert is_on_curve(*point)


EDGE_KEYS = [
    1,
    2,
    255,
    256,
    2**248,
    255 * 2**248,
    CURVE_ORDER - 1,
    0xABCD << 64,  # windows 0..7 zero
    0xABCD,  # windows 2..31 zero
    2**200 + 0x0100,  # zero windows low, in the middle and high
    int.from_bytes(bytes(range(1, 17)) + bytes(16), "big"),  # windows 0..15 zero
]


def test_scalar_base_mult_many_edge_keys_match_oracle():
    want = [scalar_mult_oracle(k) for k in EDGE_KEYS]
    assert scalar_base_mult_many(EDGE_KEYS) == want
    # the same keys in another order, mixed with random ones
    rng = random.Random(9)
    keys = EDGE_KEYS[::-1] + [rng.randrange(1, CURVE_ORDER) for _ in range(5)]
    assert scalar_base_mult_many(keys) == [scalar_mult_oracle(k) for k in keys]
    assert scalar_base_mult_many([]) == []


@pytest.mark.parametrize("bad", [0, CURVE_ORDER])
def test_scalar_base_mult_many_rejects_invalid_keys(bad):
    with pytest.raises(ValueError):
        scalar_base_mult_many([5, bad])


def test_base_table_entries_match_oracle():
    table = _build_base_table()
    assert len(table) == 32
    assert all(len(row) == 255 for row in table)
    for i in (0, 1, 31):
        for w in (1, 2, 3, 255):
            assert table[i][w - 1] == scalar_mult_oracle(w * 256**i), (i, w)


def test_import_leaves_base_table_unbuilt():
    probe = (
        "import poisonscan\n"
        "from poisonscan import secp256k1\n"
        "print(secp256k1._BASE_TABLE is None)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# ---------------------------------------------------------------------------
# address derivation


def test_derive_address_frozen_vectors():
    # the two classic low-key addresses
    assert derive_address(1) == "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
    assert derive_address(2) == "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf"


def test_derive_addresses_matches_single_and_oracle():
    addresses = derive_addresses(EDGE_KEYS)
    assert addresses == [derive_address(k) for k in EDGE_KEYS]
    assert addresses == [derive_address_oracle(k) for k in EDGE_KEYS]


def test_derive_address_matches_oracle_random():
    rng = random.Random(777)
    for _ in range(20):
        k = rng.randrange(1, ORACLE_N)
        assert derive_address(k) == derive_address_oracle(k)


@pytest.mark.parametrize("bad", [0, -5, 2**256, None])
def test_derive_address_rejects_invalid_keys(bad):
    with pytest.raises((ValueError, TypeError)):
        derive_address(bad)  # type: ignore[arg-type]


def test_derive_address_rejects_order_boundary():
    with pytest.raises(ValueError):
        derive_address(CURVE_ORDER)
    assert derive_address(CURVE_ORDER - 1).startswith("0x")


# ---------------------------------------------------------------------------
# seeded search

TARGET = "0x510dedd9a0a7dbfe725b9cbbc6c19aecdb45d16f"


def spec_first_digit(target=TARGET):
    return SearchSpec(targets=(target,), a_min=1, b_min=0, max_matches=1)


def test_search_is_deterministic_for_fixed_seed():
    one = search(spec_first_digit(), seed=5)
    two = search(spec_first_digit(), seed=5)
    assert one.trials == two.trials
    assert one.matches == two.matches


def test_search_seeds_differ():
    trials = {search(spec_first_digit(), seed=s).trials for s in range(6)}
    assert len(trials) > 1


def test_search_match_satisfies_thresholds():
    stats = search(spec_first_digit(), seed=11)
    assert len(stats.matches) == 1
    match = stats.matches[0]
    assert match.address[2] == TARGET[2]
    assert derive_address(match.private_key) == match.address
    assert match.a >= 1 and match.target == TARGET


def test_search_max_trials_stops_without_match():
    spec = SearchSpec(
        targets=(TARGET,), a_min=8, b_min=8, max_matches=1, max_trials=25
    )
    stats = search(spec, seed=1)
    assert stats.trials == 25
    assert stats.matches == ()


def test_search_multiple_targets_and_matches():
    targets = (TARGET, "0x" + "7" * 40)
    spec = SearchSpec(targets=targets, a_min=1, b_min=0, max_matches=3)
    stats = search(spec, seed=9)
    assert len(stats.matches) == 3
    for m in stats.matches:
        assert m.target in targets
        assert m.address[2] == m.target[2]


def test_search_mean_trials_tracks_geometric_expectation():
    # quick version of the acceptance check: E[trials] = 16 at one digit
    total = sum(search(spec_first_digit(), seed=s).trials for s in range(30))
    mean = total / 30
    assert 8.0 < mean < 28.0


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(targets=(), a_min=1, b_min=0, max_matches=1)
    with pytest.raises(ValueError):
        SearchSpec(targets=(TARGET,), a_min=41, b_min=0, max_matches=1)
    with pytest.raises(ValueError):
        SearchSpec(targets=(TARGET,), a_min=1, b_min=0, max_matches=None, max_trials=None)
    with pytest.raises(ValueError):
        SearchSpec(targets=("nothex",), a_min=1, b_min=0, max_matches=1)


def test_search_spec_rejects_a_repeated_target():
    # given twice, one target once made search report one key as two matches
    twice = (TARGET, "0x" + TARGET[2:].upper())
    with pytest.raises(ValueError, match=f"target {TARGET} is given more than once"):
        SearchSpec(targets=twice, a_min=1, b_min=0, max_matches=2)
    once = search(SearchSpec(targets=(TARGET,), a_min=1, b_min=0, max_matches=2), seed=3)
    assert len({m.address for m in once.matches}) == 2


def test_search_crypto_random_flag_still_matches():
    spec = SearchSpec(targets=(TARGET,), a_min=1, b_min=0, max_matches=1, crypto_random=True)
    stats = search(spec, seed=0)
    assert len(stats.matches) == 1
    assert stats.matches[0].address[2] == TARGET[2]


SEARCH_TARGETS = (TARGET, "0x" + "7" * 40, "0x7a16ff8270133f063aab6c9977183d9e72835428")
SEARCH_SEED = 3
STREAM_KEYS = 560  # more than one 512-key batch


@pytest.fixture(scope="module")
def key_stream():
    """(key, address) of the first keys of SEARCH_SEED's stream, derived one
    at a time."""
    stream = []
    for counter in range(STREAM_KEYS):
        key = _prf_key(SEARCH_SEED, counter)
        assert 1 <= key < CURVE_ORDER
        stream.append((key, derive_address(key)))
    return stream


def reference_search(spec, stream):
    """Per-key search: test each key in stream order, stop at the key that
    fills the match quota or at the trial budget."""
    trials = 0
    matches = []
    for key, address in stream:
        if spec.max_trials is not None and trials >= spec.max_trials:
            break
        trials += 1
        digits = address[2:]
        for target in spec.targets:
            tdigits = target[2:]
            if digits[: spec.a_min] != tdigits[: spec.a_min]:
                continue
            if spec.b_min and digits[-spec.b_min :] != tdigits[-spec.b_min :]:
                continue
            s = score(digits, tdigits)
            matches.append(Match(key, address, target, s.a, s.b))
            if spec.max_matches is not None and len(matches) >= spec.max_matches:
                return trials, matches
    else:
        assert spec.max_trials is not None and trials >= spec.max_trials, "stream too short"
    return trials, matches


REFERENCE_ROWS = [
    (1, 0, 5, None, 1),  # quota only, filled inside a batch
    (1, 1, None, 530, 1),  # budget only, across batches
    (1, 0, 3, 40, 1),  # both, quota first
    (1, 1, 50, 100, 1),  # both, budget first
    (0, 2, 3, None, 1),
    (2, 0, 2, None, 1),
    (0, 0, 5, None, 1),  # every key matches every target
    (1, 0, 6, None, 2),
    (1, 1, None, 530, 2),
]


@pytest.mark.parametrize(
    "a_min,b_min,max_matches,max_trials,workers",
    REFERENCE_ROWS,
    # the ids name the derivation, as gen's stats file does ("mode": "optimized")
    ids=["-".join(map(str, (*row[:4], "optimized", row[4]))) for row in REFERENCE_ROWS],
)
def test_search_matches_per_key_reference(key_stream, a_min, b_min, max_matches, max_trials, workers):
    spec = SearchSpec(
        targets=SEARCH_TARGETS,
        a_min=a_min,
        b_min=b_min,
        max_matches=max_matches,
        max_trials=max_trials,
    )
    stats = search(spec, seed=SEARCH_SEED, workers=workers)
    trials, matches = reference_search(spec, key_stream)
    assert stats.trials == trials
    assert list(stats.matches) == matches


def test_batches_grow_without_restart_and_stop_at_budget():
    quota = SearchSpec(targets=(TARGET,), a_min=1, b_min=0, max_matches=2)
    sizes = [size for _, size in itertools.islice(_batches(quota), 9)]
    assert sizes == [8, 16, 32, 64, 128, 256, 512, 512, 512]
    both = SearchSpec(targets=(TARGET,), a_min=1, b_min=0, max_matches=2, max_trials=1100)
    assert list(_batches(both)) == [
        (0, 8), (8, 16), (24, 32), (56, 64), (120, 128), (248, 256), (504, 512), (1016, 84)
    ]
    budget = SearchSpec(targets=(TARGET,), a_min=1, b_min=0, max_matches=None, max_trials=1300)
    assert list(_batches(budget)) == [(0, 512), (512, 512), (1024, 276)]
    short = SearchSpec(targets=(TARGET,), a_min=1, b_min=0, max_matches=1, max_trials=20)
    assert list(_batches(short)) == [(0, 8), (8, 12)]


def test_pooled_quota_search_derives_few_keys_past_the_hit(tmp_path, monkeypatch):
    """The pool's forked workers inherit the counting derive_addresses."""
    log = tmp_path / "derived.txt"
    derive = addrgen.derive_addresses

    def counting(keys):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{len(keys)}\n")
        return derive(keys)

    monkeypatch.setattr(addrgen, "derive_addresses", counting)
    spec = spec_first_digit()
    workers = 2
    stats = search(spec, seed=0, workers=workers)
    assert len(stats.matches) == 1
    batches = list(itertools.islice(_batches(spec), 16))
    stop = next(i for i, (offset, size) in enumerate(batches) if stats.trials <= offset + size)
    # the batches up to the quota key's, plus the 2 x workers - 1 in flight behind it
    ahead = sum(size for _, size in batches[: stop + 2 * workers])
    derived = sum(int(line) for line in log.read_text().split())
    assert stats.trials <= derived <= ahead
