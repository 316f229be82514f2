"""Pairwise sequence alignment: global and local, affine gaps, BLOSUM62.

Global alignments drive clustering identity; local alignments drive the
novelty search. Both searches run `search`, which aligns (query, target)
pairs of sequences coded by `sequences.encode`; `local_scores` gives the same
pairs' local scores alone and `match_bound` a bound on the matches of any of
their alignments, by longest common subsequences; `align_global` and
`align_local` give the full alignment of one pair of strings. A gap of
length k costs open + k * extend. Bit scores and E-values use fixed
Karlin-Altschul parameters for the gapped BLOSUM62 (11,1) scheme; they are
approximate and not comparable to MMseqs2 output, while identity and
alignment length are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .sequences import RESIDUES, Peptide, encode, write_tsv

_BLOSUM62_ORDER = "ARNDCQEGHILKMFPSTWYV"
_BLOSUM62_ROWS = """
 4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0
-1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3
-2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3
-2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3
 0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1
-1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2
-1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2
 0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3
-2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3
-1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3
-1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1
-1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2
-1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1
-2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1
-1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2
 1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2
 0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0
-3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3
-2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1
 0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4
"""

_PUBLISHED = np.array([line.split() for line in _BLOSUM62_ROWS.strip().splitlines()], dtype=np.int64)

BLOSUM62: dict[tuple[str, str], int] = {
    (x, y): int(_PUBLISHED[i, j]) for i, x in enumerate(_BLOSUM62_ORDER) for j, y in enumerate(_BLOSUM62_ORDER)
}

# the table re-indexed to `encode`'s codes
_BY_CODE = [_BLOSUM62_ORDER.index(r) for r in RESIDUES]
_SCORES = _PUBLISHED[np.ix_(_BY_CODE, _BY_CODE)]

GAP_OPEN = 11
GAP_EXTEND = 1

# gapped BLOSUM62 (11,1) Karlin-Altschul parameters
_KA_LAMBDA = 0.267
_KA_K = 0.041

_NEG = -(10**9)


@dataclass(frozen=True)
class GlobalAlignment:
    score: float
    matches: int
    columns: int
    aligned_a: str
    aligned_b: str

    @property
    def identity(self) -> float:
        return self.matches / self.columns


@dataclass(frozen=True)
class LocalAlignment:
    score: float
    matches: int
    columns: int
    query_span: tuple[int, int]
    target_span: tuple[int, int]

    @property
    def identity(self) -> float:
        return self.matches / self.columns


def _fill(a: str, b: str, local: bool):
    """Three-state affine DP. State M aligns a pair, X gaps b, Y gaps a.

    Rows are vectorised; the in-row Y recurrence collapses to a running
    maximum because Y[i][j] = max_k (M[i][k] - open - (j-k)*extend).
    """
    if not a or not b:
        raise ValueError("cannot align an empty sequence")
    n, m = len(a), len(b)
    (a_codes, b_codes), _ = encode([a, b])
    sub = _SCORES[a_codes[:n, None], b_codes[:m]]
    M = np.full((n + 1, m + 1), _NEG)
    X = np.full((n + 1, m + 1), _NEG)
    Y = np.full((n + 1, m + 1), _NEG)
    if local:
        M[0, :] = 0
        M[:, 0] = 0
    else:
        M[0, 0] = 0
        X[1:, 0] = -(GAP_OPEN + GAP_EXTEND * np.arange(1, n + 1))
        Y[0, 1:] = -(GAP_OPEN + GAP_EXTEND * np.arange(1, m + 1))
    cols = np.arange(m)
    for i in range(1, n + 1):
        diag = np.maximum(np.maximum(M[i - 1, :-1], X[i - 1, :-1]), Y[i - 1, :-1])
        row = diag + sub[i - 1]
        if local:
            row = np.maximum(row, 0)
        M[i, 1:] = row
        X[i, 1:] = np.maximum(M[i - 1, 1:] - GAP_OPEN - GAP_EXTEND, X[i - 1, 1:] - GAP_EXTEND)
        run = np.maximum.accumulate(M[i, :-1] + GAP_EXTEND * cols)
        Y[i, 1:] = run - GAP_OPEN - GAP_EXTEND * (cols + 1)
    return sub, M, X, Y


def _traceback(a: str, b: str, fill, state: int, i: int, j: int, local: bool):
    """Walk back from cell (i, j) in `state` (0 = M, 1 = X, 2 = Y).

    A global walk stops at (0, 0); a local walk stops after the match step
    whose predecessor score is 0. Predecessors are found by exact comparison,
    since every score is an integer. Returns the aligned (a, b) column pairs,
    last column first, and the cell where the walk stopped.
    """
    sub, M, X, Y = fill
    columns: list[tuple[str, str]] = []
    while (i, j) != (0, 0):
        if state == 0:
            columns.append((a[i - 1], b[j - 1]))
            prev = M[i, j] - sub[i - 1, j - 1]
            i, j = i - 1, j - 1
            if local and prev == 0.0:
                break
            if M[i, j] == prev:
                state = 0
            elif X[i, j] == prev:
                state = 1
            elif Y[i, j] == prev:
                state = 2
            else:
                raise AssertionError("traceback lost the optimal path")
        elif state == 1:
            columns.append((a[i - 1], "-"))
            state = 0 if X[i, j] == M[i - 1, j] - GAP_OPEN - GAP_EXTEND else 1
            i -= 1
        else:
            columns.append(("-", b[j - 1]))
            state = 0 if Y[i, j] == M[i, j - 1] - GAP_OPEN - GAP_EXTEND else 2
            j -= 1
    return columns, i, j


def _matches(columns: list[tuple[str, str]]) -> int:
    # a gap column never matches: "-" is not a residue
    return sum(x == y for x, y in columns)


def align_global(a: str, b: str) -> GlobalAlignment:
    """Optimal global alignment; traceback follows exact score identities."""
    fill = _fill(a, b, local=False)
    _, M, X, Y = fill
    n, m = len(a), len(b)
    finals = (M[n, m], X[n, m], Y[n, m])
    state = int(np.argmax(finals))
    columns, _, _ = _traceback(a, b, fill, state, n, m, local=False)
    columns.reverse()
    return GlobalAlignment(
        score=float(finals[state]),
        matches=_matches(columns),
        columns=len(columns),
        aligned_a="".join(x for x, _ in columns),
        aligned_b="".join(y for _, y in columns),
    )


def identity_global(a: str, b: str) -> float:
    """Exact matches over alignment columns of the optimal global alignment."""
    return align_global(a, b).identity


def align_local(a: str, b: str) -> LocalAlignment | None:
    """Best local alignment; None when no pair of segments scores above zero."""
    fill = _fill(a, b, local=True)
    _, M, _, _ = fill
    end_i, end_j = divmod(int(np.argmax(M)), M.shape[1])
    score = M[end_i, end_j]
    if score <= 0.0:
        return None
    columns, i, j = _traceback(a, b, fill, 0, end_i, end_j, local=True)
    return LocalAlignment(
        score=float(score),
        matches=_matches(columns),
        columns=len(columns),
        query_span=(i, end_i),
        target_span=(j, end_j),
    )


# (query, target) pairs aligned per numpy row step by `search`; bounds its
# memory to SEARCH_BLOCK x longest target whatever the number of pairs.
SEARCH_BLOCK = 256
_ALPHABET = len(RESIDUES) + 1
# the int32 kernels' sentinel, and the residues a block's longest query and
# longest target may hold together for `_search_block` to run in int32
_NEG32 = -(2**16)
_INT32_RESIDUES = 2**13


def _padded_scores(neg: int, dtype) -> np.ndarray:
    """BLOSUM62 over `encode`'s codes with the padding code as a 21st row and
    column scoring `neg`, flattened: entry a * 21 + b scores code a against b."""
    table = np.full((_ALPHABET, _ALPHABET), neg, dtype=dtype)
    table[:-1, :-1] = _SCORES
    return table.ravel()


_PADDED_SCORES = _padded_scores(_NEG, np.int64)
_PADDED_SCORES_32 = _padded_scores(_NEG32, np.int32)


def _running_max(a: np.ndarray) -> np.ndarray:
    """`a`'s running maximum along axis 0, in place, by log-step doubling.

    Step s takes each row's maximum with the row s above it, for s = 1, 2,
    4, ...; numpy reads the overlapping operand's old values, so after the
    step with s each row holds the maximum of the 2s rows ending at it
    (Hillis & Steele 1986). The maximum is exact in integers, so the result
    is `np.maximum.accumulate(a, axis=0)`'s, in log2(len(a)) full-width
    steps instead of its row-at-a-time scan.
    """
    s = 1
    while s < len(a):
        np.maximum(a[s:], a[:-s], out=a[s:])
        s *= 2
    return a


def _check_pairs(query_lengths: np.ndarray, lengths: np.ndarray) -> None:
    if len(query_lengths) != len(lengths):
        raise ValueError(f"{len(query_lengths)} queries for {len(lengths)} targets")
    if not (np.all(query_lengths) and np.all(lengths)):
        raise ValueError("cannot align an empty sequence")
    if int(query_lengths.max(initial=0)) + int(lengths.max(initial=0)) > 2**26:
        raise ValueError(f"search aligns a query and target of at most {2**26} residues together")


def search(
    queries: tuple[np.ndarray, np.ndarray], targets: tuple[np.ndarray, np.ndarray], *, local: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align each query against the target in the same row: optimal scores, matches and columns.

    `queries` and `targets` are `encode`-style (codes, lengths) pairs with one
    row per alignment; one query against many targets passes its codes as an
    `np.broadcast_to` row. Each entry is what `align_local` (local) or
    `align_global` reports for that pair; a local pair with no alignment
    scores 0 with 0 matches and 0 columns. Pairs are aligned SEARCH_BLOCK at a
    time, one query row per numpy step across the block: in int32 when the
    block's longest query and longest target hold at most 2**13 residues
    together, else in int64. Matches and columns are carried through the
    fill along the predecessor `_traceback` would take, so no traceback runs.

    The longest query and the longest target may hold 2**26 residues
    together. Within that range no score derived from a sentinel can reach a
    real score, and every score, packed score and tally fits its lanes (the
    bounds are `_search_block`'s); longer inputs raise ValueError before
    anything is allocated.
    """
    query_codes, query_lengths = queries
    codes, lengths = targets
    _check_pairs(query_lengths, lengths)
    scores = np.zeros(len(lengths))
    matches = np.zeros(len(lengths), dtype=np.int64)
    columns = np.zeros(len(lengths), dtype=np.int64)
    for k in range(0, len(lengths), SEARCH_BLOCK):
        block = slice(k, k + SEARCH_BLOCK)
        scores[block], tallies = _search_block(query_codes[block], query_lengths[block], codes[block], lengths[block], local)
        columns[block], matches[block] = np.divmod(tallies, int(query_lengths[block].max()) + 1)
    return scores, matches, columns


def _search_block(
    query_codes: np.ndarray, query_lengths: np.ndarray, codes: np.ndarray, lengths: np.ndarray, local: bool
) -> tuple[np.ndarray, np.ndarray]:
    """`_fill`'s recurrence across a block of (query, target) pairs, in integers, one row kept.

    The block is pair-major: cell (j, t) is column j of pair t, so each step
    is one contiguous vector op across the pairs, and step i reads row i of
    every query. A query shorter than the block's longest runs on through
    padding rows, which score the sentinel against everything; no cell of a
    pair's own table depends on them, so a global pair's finals are read at
    its own last query row, and a local pair's padding rows never beat its
    best. Beside each M, X and Y cell runs a tally, columns * step + matches
    with step the block's longest query + 1, of the walk `_traceback` would
    make from that cell. Returns each pair's score and the tally of its
    optimal walk. The row arrays are allocated once and swapped between rows.

    The lanes are int32 with the _NEG32 sentinel when the block's longest
    query n and longest target width hold at most _INT32_RESIDUES = 2**13
    residues together and its (width + 1) * pairs cells have int32 indices;
    otherwise int64 with _NEG, which holds up to `search`'s 2**26. Either
    way, with total = n + width: a real score is at least minus the cost,
    45 + total, of a path of three mismatches and three gaps, and at most
    11 * min(n, width); one derived from the sentinel lies between twice the
    sentinel minus that cost and the sentinel + 11 * min(n, width), below
    every real score. A packed Y key is such a score plus a column, shifted
    by bit_length(width): under (2 * 2**16 + 45 + 2 * 2**13) << 13 < 2**31
    in int32. A tally is at most total * (n + 1) + n, under 2**27 in int32.
    """
    n, count = int(query_lengths.max()), len(lengths)
    width = int(lengths.max())
    if n + width <= _INT32_RESIDUES and (width + 1) * count <= 2**31:
        lane, neg, table = np.int32, _NEG32, _PADDED_SCORES_32
    else:
        lane, neg, table = np.int64, _NEG, _PADDED_SCORES
    query_rows = np.ascontiguousarray(query_codes[:, :n].T, dtype=lane)
    codes = np.ascontiguousarray(codes[:, :width].T, dtype=lane)
    # codes * 21 + the row's query code indexes the table
    score_index = codes * _ALPHABET
    step = n + 1
    bits = width.bit_length()
    low = (1 << bits) - 1
    cols = np.arange(width, dtype=lane)[:, None]
    targets = np.arange(count, dtype=lane)
    y_gap = GAP_OPEN + GAP_EXTEND * (cols + 1)
    y_step = step * (cols + 1)
    # (M + extend * col) << bits | col: the running maximum of the packed
    # values carries the last column attaining it, where Y's traceback opens
    y_key = (GAP_EXTEND * cols << bits) | cols
    # M << bits | (width - col): the maximum is the row's first maximum cell
    first_key = width - np.arange(width + 1, dtype=lane)[:, None]
    shape = (width + 1, count)
    M, X, Y = (np.full(shape, neg, dtype=lane) for _ in range(3))
    TM, TX, TY = (np.zeros(shape, dtype=lane) for _ in range(3))
    if local:
        M[:] = 0
    else:
        M[0] = 0
        Y[1:] = -y_gap
        TY[1:] = y_step
        # the pairs whose query ends at each row, and their finals there
        ending = {int(i): np.flatnonzero(query_lengths == i) for i in np.unique(query_lengths)}
        finals, final_tallies = np.empty((3, count), dtype=lane), np.empty((3, count), dtype=lane)
    rows_now = (M, X, Y, TM, TX, TY)
    # column 0 of Y, TM and TY keeps its row-0 value in every row
    spare = tuple(a.copy() for a in rows_now)
    diag, pred, sub, packed, k = (np.empty((width, count), dtype=lane) for _ in range(5))
    shifted = np.empty(shape, dtype=lane)
    sel = np.empty((width, count), dtype=bool)
    best = np.zeros(count, dtype=lane)
    best_tally = np.zeros(count, dtype=lane)
    for i in range(1, n + 1):
        (pM, pX, pY, pTM, pTX, pTY), (M, X, Y, TM, TX, TY) = rows_now, spare
        rows_now, spare = spare, rows_now
        query = query_rows[i - 1]
        M[0] = 0 if local else neg
        X[0] = neg if local else -(GAP_OPEN + GAP_EXTEND * i)
        TX[0] = 0 if local else step * i

        np.maximum(pM[:-1], pX[:-1], out=diag)
        np.maximum(diag, pY[:-1], out=diag)
        # a match step's predecessor, tested in _traceback's order M, X, Y, by
        # integer blends a + sel * (b - a)
        np.equal(pX[:-1], diag, out=sel)
        np.subtract(pTX[:-1], pTY[:-1], out=pred)
        np.multiply(pred, sel, out=pred)
        np.add(pred, pTY[:-1], out=pred)
        np.equal(pM[:-1], diag, out=sel)
        np.subtract(pTM[:-1], pred, out=sub)
        np.multiply(sub, sel, out=sub)
        np.add(pred, sub, out=pred)
        if local:
            # the local walk stops where the predecessor scores 0
            np.not_equal(diag, 0, out=sel)
            np.multiply(pred, sel, out=pred)
        # every index is in range, and mode="clip" spares take's buffered copy
        np.add(score_index, query, out=packed)
        np.take(table, packed, out=sub, mode="clip")
        np.add(diag, sub, out=M[1:])
        if local:
            np.maximum(M[1:], 0, out=M[1:])
        np.equal(codes, query, out=sel)
        np.add(pred, sel, out=TM[1:])
        np.add(TM[1:], step, out=TM[1:])

        opened = np.subtract(pM[1:], GAP_OPEN + GAP_EXTEND, out=diag)
        np.subtract(pX[1:], GAP_EXTEND, out=X[1:])
        np.maximum(opened, X[1:], out=X[1:])
        np.equal(X[1:], opened, out=sel)
        np.subtract(pTM[1:], pTX[1:], out=pred)
        np.multiply(pred, sel, out=pred)
        np.add(pred, pTX[1:], out=TX[1:])
        np.add(TX[1:], step, out=TX[1:])

        np.left_shift(M, bits, out=shifted)
        np.add(shifted[:-1], y_key, out=packed)
        _running_max(packed)
        np.right_shift(packed, bits, out=Y[1:])
        np.subtract(Y[1:], y_gap, out=Y[1:])
        # Y[i, j] opened from M[i, k] at the last k < j where the running maximum is attained
        np.bitwise_and(packed, low, out=k)
        np.multiply(k, count, out=pred)
        np.add(pred, targets, out=pred)
        np.take(TM.ravel(), pred, out=TY[1:], mode="clip")
        np.multiply(k, step, out=k)
        np.subtract(y_step, k, out=k)
        np.add(TY[1:], k, out=TY[1:])

        if local:
            # the first maximum cell in row-major order, as np.argmax(M) picks it
            top = np.bitwise_or(shifted, first_key, out=shifted).max(axis=0)
            j = width - (top & low)
            top >>= bits
            better = top > best
            np.maximum(best, top, out=best)
            best_tally += better * (TM.ravel()[j * count + targets] - best_tally)
        elif i in ending:
            ends = ending[i]
            at = lengths[ends] * count + ends
            for state, (V, T) in enumerate(((M, TM), (X, TX), (Y, TY))):
                finals[state, ends] = V.ravel()[at]
                final_tallies[state, ends] = T.ravel()[at]
    if local:
        return best, best_tally
    state = np.argmax(finals, axis=0)
    return finals[state, targets], final_tallies[state, targets]


def local_scores(queries: tuple[np.ndarray, np.ndarray], targets: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Each (query, target) pair's best local score, as `search(..., local=True)` reports it.

    Takes the pairs as `search` does and refuses the same inputs, but carries
    no matches or columns, so it runs about a third of `search`'s numpy steps
    per query row.
    """
    query_codes, query_lengths = queries
    codes, lengths = targets
    _check_pairs(query_lengths, lengths)
    scores = np.zeros(len(lengths))
    for k in range(0, len(lengths), SEARCH_BLOCK):
        block = slice(k, k + SEARCH_BLOCK)
        scores[block] = _score_block(query_codes[block], query_lengths[block], codes[block], lengths[block])
    return scores


def _score_block(query_codes: np.ndarray, query_lengths: np.ndarray, codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`_search_block`'s local recurrence with no tallies, in int32: each pair's best score.

    The same pair-major block, padding, int32 score table and log-step gap
    scan as `_search_block`, with only the M, X and Y rows; a cellwise
    running maximum of M, reduced once, gives each pair's best. Within
    `search`'s length limit every value fits int32 whatever the block: a
    local M lies in [0, 11 * 2**25], so M plus a padding score stays at or
    above _NEG32, the Y scan at or below 11 * 2**25 + 2**26, and X at or
    above _NEG32 - 1. A padding cell only lowers the cell it extends, so it
    never beats a pair's best.
    """
    n, count = int(query_lengths.max()), len(lengths)
    width = int(lengths.max())
    query_rows = np.ascontiguousarray(query_codes[:, :n].T, dtype=np.int32)
    score_index = np.ascontiguousarray(codes[:, :width].T, dtype=np.int32) * _ALPHABET
    cols = np.arange(width, dtype=np.int32)[:, None]
    y_extend = GAP_EXTEND * cols
    y_gap = GAP_OPEN + GAP_EXTEND * (cols + 1)
    shape = (width + 1, count)
    # column 0 keeps M = 0 and X = Y = _NEG32 in every row
    rows_now = (np.zeros(shape, dtype=np.int32), *(np.full(shape, _NEG32, dtype=np.int32) for _ in range(2)))
    spare = tuple(a.copy() for a in rows_now)
    diag, index, sub, run = (np.empty((width, count), dtype=np.int32) for _ in range(4))
    peak = np.zeros((width, count), dtype=np.int32)
    for i in range(n):
        (pM, pX, pY), (M, X, Y) = rows_now, spare
        rows_now, spare = spare, rows_now
        np.maximum(pM[:-1], pX[:-1], out=diag)
        np.maximum(diag, pY[:-1], out=diag)
        np.add(score_index, query_rows[i], out=index)
        np.take(_PADDED_SCORES_32, index, out=sub, mode="clip")
        np.add(diag, sub, out=M[1:])
        np.maximum(M[1:], 0, out=M[1:])
        np.maximum(peak, M[1:], out=peak)

        opened = np.subtract(pM[1:], GAP_OPEN + GAP_EXTEND, out=diag)
        np.subtract(pX[1:], GAP_EXTEND, out=X[1:])
        np.maximum(opened, X[1:], out=X[1:])

        np.add(M[:-1], y_extend, out=run)
        _running_max(run)
        np.subtract(run, y_gap, out=Y[1:])
    return peak.max(axis=0)


# the residues a query of `_lcs_block` may hold: one uint64 word
LCS_WORD = 64
# (query, target) pairs per `_lcs_block` step, so a block's masks stay in cache
LCS_BLOCK = 4096


def match_bound(queries: tuple[np.ndarray, np.ndarray], targets: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """An exact upper bound on the matches of any alignment of each (query, target) pair.

    Takes the pairs as `search` does, one row per pair, and refuses the
    same inputs. An alignment's matched columns are a common subsequence, so
    a pair whose query holds at most LCS_WORD residues is bounded by its
    longest common subsequence, in `_lcs_block` LCS_BLOCK pairs at a time,
    and a longer one by its shorter length. Clustering and the novelty
    filter both prune with it.
    """
    query_codes, query_lengths = queries
    codes, lengths = targets
    _check_pairs(query_lengths, lengths)
    bound = np.minimum(query_lengths, lengths)
    short = np.flatnonzero(query_lengths <= LCS_WORD)
    if len(short) < len(bound):  # gather the short queries' pairs once
        query_codes, codes, lengths = query_codes[short], codes[short], lengths[short]
    n = int(query_lengths[short].max(initial=0))
    for k in range(0, len(short), LCS_BLOCK):
        block = slice(k, k + LCS_BLOCK)
        bound[short[block]] = _lcs_block(query_codes[block, :n], codes[block], lengths[block])
    return bound


def _lcs_block(query_codes: np.ndarray, codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bit-parallel LCS of Allison & Dix (1986), in Hyyrö's (2004) form,
    across a block of pairs, one step per target column.

    Bit i of masks[q, c] is set when residue i of query q has code c; the
    padding code's mask is 0. From v = ~0, each column with m the query's
    mask of the column's code sets v = (v + (v & m)) | (v & ~m), and the
    LCS is the number of zero bits of v. A padding column leaves v as it is,
    and the bits above a query's length stay 1. Consecutive equal query rows,
    as callers repeat a query, share one mask table. Every operation is on
    arrays, where a uint64 add wraps without a warning.
    """
    count = len(lengths)
    first = np.ones(count, dtype=bool)
    np.any(query_codes[1:] != query_codes[:-1], axis=1, out=first[1:])
    # masks[q * 21 + c], for the query q of each run of equal rows
    query_index = np.ascontiguousarray(query_codes[first].T, dtype=np.intp)
    query_index += np.arange(query_index.shape[1]) * _ALPHABET
    masks = np.zeros(query_index.shape[1] * _ALPHABET, dtype=np.uint64)
    for i, at in enumerate(query_index):
        masks[at] |= np.uint64(1) << np.uint64(i)
    masks.reshape(-1, _ALPHABET)[:, -1] = 0
    index = np.ascontiguousarray(codes[:, : int(lengths.max())].T, dtype=np.intp)
    index += (np.cumsum(first) - 1) * _ALPHABET
    v = np.full(count, ~np.uint64(0))
    m, u = np.empty(count, dtype=np.uint64), np.empty(count, dtype=np.uint64)
    for column in index:
        # every index is in range, and mode="clip" spares take's buffered copy
        np.take(masks, column, out=m, mode="clip")
        np.bitwise_and(v, m, out=u)
        np.subtract(v, u, out=m)  # v & ~m, as u holds only bits of v
        np.add(v, u, out=v)
        np.bitwise_or(v, m, out=v)
    return np.bitwise_count(~v)


@dataclass(frozen=True)
class SimilarityHit:
    query: str
    target: str
    identity_pct: float
    length: int
    evalue: float
    bits: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.identity_pct <= 100.0):
            raise ValueError("identity percentage must lie in [0,100]")
        if self.length < 1:
            raise ValueError("alignment length must be >= 1")


def approximate_bits(score: float) -> float:
    return (_KA_LAMBDA * score - math.log(_KA_K)) / math.log(2.0)


def approximate_evalue(bits: float, query_len: int, db_residues: int) -> float:
    return query_len * db_residues * 2.0 ** (-bits)


def make_hit(query: Peptide, target: Peptide, score: float, matches: int, columns: int, db_residues: int) -> SimilarityHit:
    """The hit row of a local alignment, from its score, matches and columns."""
    bits = approximate_bits(float(score))
    return SimilarityHit(
        query=query.id,
        target=target.id,
        identity_pct=100.0 * (matches / columns),
        length=int(columns),
        evalue=approximate_evalue(bits, len(query.residues), db_residues),
        bits=bits,
    )


HIT_COLUMNS = ("Query", "Target", "%Identity", "Length", "E-value", "Bits")


def write_hit_table(hits: Iterable[SimilarityHit], sink: str | Path | IO[str]) -> None:
    rows = [
        (h.query, h.target, f"{h.identity_pct:g}", str(h.length), f"{h.evalue:.3g}".upper(), f"{h.bits:.1f}")
        for h in hits
    ]
    write_tsv(HIT_COLUMNS, rows, sink)
