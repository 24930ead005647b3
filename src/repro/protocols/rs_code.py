"""Systematic Reed–Solomon erasure coding over GF(256).

The forward-error-correction building block the paper points at (§2, citing
RFC 3452): for every ``k`` data blocks, ``m`` parity blocks are generated
such that *any* ``k`` of the ``k+m`` blocks reconstruct the data.

Construction: generator matrix ``[I | C]`` with ``C`` a Cauchy matrix —
every square submatrix of a Cauchy matrix over a field is invertible, which
makes the code MDS (maximum distance separable): up to ``m`` erasures are
always recoverable.

Pure-Python GF(256) arithmetic with exp/log tables (polynomial 0x11d, the
conventional choice).  A block in this system is one pickled chat message,
a few hundred bytes, so the kernels work a whole block at a time rather
than byte by byte:

* multiplying a block by a coefficient ``c`` is ``block.translate(row(c))``,
  where ``row(c)`` is the 256-byte table of ``c·x`` (built on first use);
* adding blocks (XOR) is XOR of their little-endian integers, so blocks of
  unequal length need no padding — the missing high bytes are zero.

Only the ``e × e`` coefficient matrix of a decode (``e <= m``) is reduced
with scalar :func:`gf_mul`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

_PRIMITIVE_POLY = 0x11D

# --- field tables ------------------------------------------------------------

_EXP = [0] * 512
_LOG = [0] * 256
_value = 1
for _power in range(255):
    _EXP[_power] = _value
    _LOG[_value] = _power
    _value <<= 1
    if _value & 0x100:
        _value ^= _PRIMITIVE_POLY
for _power in range(255, 512):
    _EXP[_power] = _EXP[_power - 255]


def gf_mul(a: int, b: int) -> int:
    """Multiply in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of zero")
    return _EXP[255 - _LOG[a]]


def gf_div(a: int, b: int) -> int:
    """Divide in GF(256)."""
    return gf_mul(a, gf_inv(b))


#: ``_ROWS[c]`` is the translation table of ``x ↦ c·x``, built on first use.
_ROWS: list[Optional[bytes]] = [None] * 256


def _row(c: int) -> bytes:
    """The 256-byte table mapping each byte ``x`` to ``c·x``."""
    row = _ROWS[c]
    if row is None:
        row = _ROWS[c] = bytes(gf_mul(c, x) for x in range(256))
    return row


def _scaled(c: int, block: bytes) -> int:
    """``c · block`` as a little-endian integer (XOR adds two of them)."""
    return int.from_bytes(block.translate(_row(c)), "little")


# --- code construction ----------------------------------------------------------


@lru_cache(maxsize=None)
def cauchy_matrix(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The ``k × m`` Cauchy parity matrix ``C[i][j] = 1 / (x_i ⊕ y_j)``.

    Evaluation points ``x_i = i`` and ``y_j = k + j`` are pairwise distinct
    for ``k + m <= 256``.  Computed once per ``(k, m)``; the result is
    immutable because it is shared.
    """
    if k < 1 or m < 0 or k + m > 256:
        raise ValueError(f"unsupported code parameters k={k}, m={m}")
    return tuple(tuple(gf_inv(i ^ (k + j)) for j in range(m))
                 for i in range(k))


def rs_encode(data_blocks: Sequence[bytes], m: int) -> list[bytes]:
    """Compute ``m`` parity blocks over ``data_blocks`` (padded internally).

    Returns parity blocks of length ``max(len(block))``.
    """
    matrix = cauchy_matrix(len(data_blocks), m)
    width = max((len(block) for block in data_blocks), default=0)
    parities = []
    for j in range(m):
        parity = 0
        for row, block in zip(matrix, data_blocks):
            parity ^= _scaled(row[j], block)
        parities.append(parity.to_bytes(width, "little"))
    return parities


def rs_decode(pieces: dict[int, bytes], k: int, m: int,
              lengths: Optional[Sequence[int]] = None) -> list[bytes]:
    """Reconstruct the ``k`` data blocks from any ``k`` surviving pieces.

    Args:
        pieces: mapping piece index → bytes.  Indices ``0..k-1`` are data
            blocks, ``k..k+m-1`` parity blocks.  At least ``k`` distinct
            pieces must be present.
        k, m: code parameters used at encode time.
        lengths: original data block lengths (for padding removal); when
            omitted, blocks padded to the widest piece are returned.

    Raises:
        ValueError: when fewer than ``k`` pieces survive, or indices are out
            of range.
    """
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
    width = max((len(piece) for piece in pieces.values()), default=0)
    data: list[Optional[bytes]] = [
        pieces[i].ljust(width, b"\0") if i in pieces else None
        for i in range(k)]
    if erased:
        data = _solve_erasures(data, erased, available_parity[:len(erased)],
                               pieces, matrix, k, width)
    blocks = [block if block is not None else b"" for block in data]
    if lengths is not None:
        blocks = [block[:length] for block, length in zip(blocks, lengths)]
    return blocks


def _solve_erasures(data: list[Optional[bytes]], erased: list[int],
                    parity_rows: list[int], pieces: dict[int, bytes],
                    matrix: Sequence[Sequence[int]], k: int,
                    width: int) -> list[Optional[bytes]]:
    """Gaussian elimination for the erased positions, a block per step."""
    # Right-hand side: parity minus the contributions of surviving data.
    rhs = []
    for j in parity_rows:
        adjusted = int.from_bytes(pieces[k + j], "little")
        for i, block in enumerate(data):
            if block is not None:
                adjusted ^= _scaled(matrix[i][j], block)
        rhs.append(adjusted.to_bytes(width, "little"))
    # Coefficient matrix rows: parity j, columns: erased data i.
    coeffs = [[matrix[i][j] for i in erased] for j in parity_rows]
    solution = _gaussian_solve(coeffs, rhs, len(erased), width)
    for position, block in zip(erased, solution):
        data[position] = block
    return data


def _gaussian_solve(coeffs: list[list[int]], rhs: list[bytes],
                    e: int, width: int) -> list[bytes]:
    """Solve ``coeffs · x = rhs`` over GF(256) for ``width``-byte unknowns."""
    a = [list(row) for row in coeffs]
    b = [bytes(row) for row in rhs]
    for col in range(e):
        pivot_row = next(row for row in range(col, e) if a[row][col] != 0)
        a[col], a[pivot_row] = a[pivot_row], a[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        inverse = gf_inv(a[col][col])
        a[col] = [gf_mul(value, inverse) for value in a[col]]
        b[col] = b[col].translate(_row(inverse))
        for row in range(e):
            if row == col or a[row][col] == 0:
                continue
            factor = a[row][col]
            a[row] = [a[row][i] ^ gf_mul(factor, a[col][i])
                      for i in range(e)]
            b[row] = (int.from_bytes(b[row], "little")
                      ^ _scaled(factor, b[col])).to_bytes(width, "little")
    return b
