"""Property-based tests for the GF(256) Reed–Solomon erasure code."""

from __future__ import annotations

import itertools
import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.rs_code import (_gaussian_solve, cauchy_matrix, gf_div,
                                     gf_inv, gf_mul, rs_decode, rs_encode)

byte = st.integers(min_value=0, max_value=255)
nonzero_byte = st.integers(min_value=1, max_value=255)


# --- reference: the byte-at-a-time code the block kernels replaced -----------


def _ref_pad(blocks):
    width = max((len(block) for block in blocks), default=0)
    return [block.ljust(width, b"\0") for block in blocks], width


def ref_rs_encode(data_blocks, m):
    k = len(data_blocks)
    matrix = cauchy_matrix(k, m)
    padded, width = _ref_pad(data_blocks)
    parities = []
    for j in range(m):
        parity = bytearray(width)
        for i, block in enumerate(padded):
            coefficient = matrix[i][j]
            for offset, value in enumerate(block):
                if value:
                    parity[offset] ^= gf_mul(coefficient, value)
        parities.append(bytes(parity))
    return parities


def ref_rs_decode(pieces, k, m, lengths=None):
    for index in pieces:
        if not 0 <= index < k + m:
            raise ValueError(f"piece index {index} out of range")
    erased = [i for i in range(k) if i not in pieces]
    available_parity = [j for j in range(m) if (k + j) in pieces]
    if len(erased) > len(available_parity):
        raise ValueError(
            f"unrecoverable: {len(erased)} data blocks erased but only "
            f"{len(available_parity)} parity blocks survive")
    matrix = cauchy_matrix(k, m)
    present, width = _ref_pad([pieces[i] for i in sorted(pieces)])
    by_index = dict(zip(sorted(pieces), present))
    data: list[Optional[bytes]] = [by_index.get(i) for i in range(k)]
    if erased:
        data = ref_solve_erasures(data, erased,
                                  available_parity[:len(erased)], by_index,
                                  matrix, k, width)
    blocks = [block if block is not None else b"" for block in data]
    if lengths is not None:
        blocks = [block[:length] for block, length in zip(blocks, lengths)]
    return blocks


def ref_solve_erasures(data, erased, parity_rows, by_index, matrix, k,
                       width):
    rhs = []
    for j in parity_rows:
        adjusted = bytearray(by_index[k + j])
        for i in range(k):
            block = data[i]
            if block is None or i in erased:
                continue
            for offset in range(width):
                if block[offset]:
                    adjusted[offset] ^= gf_mul(matrix[i][j], block[offset])
        rhs.append(adjusted)
    coeffs = [[matrix[i][j] for i in erased] for j in parity_rows]
    solution = ref_gaussian_solve(coeffs, rhs, len(erased), width)
    for position, block in zip(erased, solution):
        data[position] = bytes(block)
    return data


def ref_gaussian_solve(coeffs, rhs, e, width):
    a = [row[:] for row in coeffs]
    b = [bytearray(row) for row in rhs]
    for col in range(e):
        pivot_row = next(row for row in range(col, e) if a[row][col] != 0)
        a[col], a[pivot_row] = a[pivot_row], a[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        inverse = gf_inv(a[col][col])
        a[col] = [gf_mul(value, inverse) for value in a[col]]
        b[col] = bytearray(gf_mul(value, inverse) for value in b[col])
        for row in range(e):
            if row == col or a[row][col] == 0:
                continue
            factor = a[row][col]
            a[row] = [a[row][i] ^ gf_mul(factor, a[col][i])
                      for i in range(e)]
            for offset in range(width):
                if b[col][offset]:
                    b[row][offset] ^= gf_mul(factor, b[col][offset])
    return b


def _outcome(decode, *args):
    """``decode(*args)`` or the ``ValueError`` message it raised."""
    try:
        return decode(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def sparse_block(draw):
    """A block of 0–600 bytes, often rich in zero bytes (the reference
    skipped zeros; the kernels skip nothing)."""
    length = draw(st.integers(min_value=0, max_value=600))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return bytes(0 if rng.random() < zero_share else rng.randrange(1, 256)
                 for _ in range(length))


class TestFieldArithmetic:
    @given(byte, byte, byte)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(byte, byte)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(byte)
    def test_one_is_identity(self, a):
        assert gf_mul(a, 1) == a

    @given(byte)
    def test_zero_annihilates(self, a):
        assert gf_mul(a, 0) == 0

    @given(nonzero_byte)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(byte, nonzero_byte)
    def test_div_inverts_mul(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    @given(byte, byte, byte)
    def test_distributive_over_xor(self, a, b, c):
        """XOR is addition in GF(2^8); multiplication distributes over it."""
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestCauchyMatrix:
    def test_dimensions(self):
        matrix = cauchy_matrix(4, 3)
        assert len(matrix) == 4 and all(len(row) == 3 for row in matrix)

    def test_entries_nonzero(self):
        matrix = cauchy_matrix(8, 4)
        assert all(entry != 0 for row in matrix for entry in row)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            cauchy_matrix(200, 100)  # k + m > 256
        with pytest.raises(ValueError):
            cauchy_matrix(0, 3)


class TestEncodeDecode:
    def test_no_erasures_round_trip(self):
        data = [b"alpha", b"bravo", b"charlie"]
        parities = rs_encode(data, 2)
        pieces = {i: block for i, block in enumerate(data)}
        assert rs_decode(pieces, 3, 2, [5, 5, 7]) == data

    def test_single_erasure_recovered(self):
        data = [b"one", b"two", b"three", b"four"]
        parities = rs_encode(data, 2)
        pieces = {0: data[0], 2: data[2], 3: data[3],
                  4: parities[0]}
        lengths = [len(block) for block in data]
        assert rs_decode(pieces, 4, 2, lengths) == data

    def test_max_erasures_recovered(self):
        data = [b"aaaa", b"bbbb", b"cccc"]
        parities = rs_encode(data, 3)
        pieces = {3: parities[0], 4: parities[1], 5: parities[2]}
        assert rs_decode(pieces, 3, 3, [4, 4, 4]) == data

    def test_too_many_erasures_rejected(self):
        data = [b"x", b"y", b"z"]
        parities = rs_encode(data, 1)
        pieces = {0: data[0], 3: parities[0]}  # two data blocks missing
        with pytest.raises(ValueError, match="unrecoverable"):
            rs_decode(pieces, 3, 1, [1, 1, 1])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            rs_decode({9: b"x"}, 3, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(st.binary(min_size=0, max_size=40), min_size=1,
                      max_size=10),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_k_pieces_reconstruct(self, data, m, seed):
        """MDS property: any k of the k+m pieces reconstruct the data."""
        k = len(data)
        parities = rs_encode(data, m)
        all_pieces = {i: block for i, block in enumerate(data)}
        all_pieces.update({k + j: parity for j, parity in enumerate(parities)})
        rng = random.Random(seed)
        erased = rng.sample(range(k + m), k=min(m, k + m))
        surviving = {i: p for i, p in all_pieces.items() if i not in erased}
        lengths = [len(block) for block in data]
        assert rs_decode(surviving, k, m, lengths) == data

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(st.binary(min_size=1, max_size=20), min_size=2,
                         max_size=6))
    def test_parity_blocks_padded_to_widest(self, data):
        parities = rs_encode(data, 2)
        widest = max(len(block) for block in data)
        assert all(len(parity) == widest for parity in parities)


class TestMatchesByteReference:
    """The block kernels are byte-identical to the per-byte reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(sparse_block(), min_size=1, max_size=12),
           m=st.integers(min_value=0, max_value=4))
    def test_encode_matches(self, data, m):
        assert rs_encode(data, m) == ref_rs_encode(data, m)

    @settings(max_examples=15, deadline=None)
    @given(data=st.lists(sparse_block(), min_size=1, max_size=12),
           m=st.integers(min_value=0, max_value=4))
    def test_decode_matches_for_every_erasure_pattern(self, data, m):
        k = len(data)
        pieces = dict(enumerate(data))
        pieces.update((k + j, parity)
                      for j, parity in enumerate(rs_encode(data, m)))
        lengths = [len(block) for block in data]
        # Every pattern of up to m erasures, plus one erasure too many.
        for count in range(min(m + 1, k + m) + 1):
            for erased in itertools.combinations(range(k + m), count):
                surviving = {index: piece for index, piece in pieces.items()
                             if index not in erased}
                padded = _outcome(ref_rs_decode, surviving, k, m)
                trimmed = padded if isinstance(padded, str) else [
                    block[:length] for block, length in zip(padded, lengths)]
                assert _outcome(rs_decode, surviving, k, m) == padded
                assert _outcome(rs_decode, surviving, k, m, lengths) == \
                    trimmed

    def test_out_of_range_index_same_error(self):
        for args in (({9: b"x"}, 3, 2, None), ({-1: b"x"}, 3, 2, [1])):
            message = _outcome(ref_rs_decode, *args)
            assert message.startswith("ValueError: piece index")
            assert _outcome(rs_decode, *args) == message

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(min_value=1, max_value=12),
           e=st.integers(min_value=1, max_value=4),
           rows=st.lists(st.binary(min_size=64, max_size=64), min_size=4,
                         max_size=4))
    def test_gaussian_solve_matches(self, k, e, rows):
        matrix = cauchy_matrix(k, e)
        erased = list(range(min(e, k)))
        e = len(erased)
        coeffs = [[matrix[i][j] for i in erased] for j in range(e)]
        rhs = [bytes(row) for row in rows[:e]]
        assert _gaussian_solve(coeffs, rhs, e, 64) == \
            [bytes(row) for row in ref_gaussian_solve(coeffs, rhs, e, 64)]
