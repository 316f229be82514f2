"""Alignment code that `amprl` replaced, kept as test oracles.

The scalar kernel builds the substitution grid with a per-cell dict lookup
and has separate global and local tracebacks; `test_alignment.py` checks the
shared kernel and the batched search against it field for field.
`search_block` is the float, target-per-row block kernel that the integer,
target-major block kernel replaced; the two must return equal scores and
tallies.
`query_search` and `query_search_block` are that integer kernel as it was
before `amprl.alignment.search` took (query, target) pairs: one query against
a block of targets, one query row per numpy step.
`greedy_cluster` and `novelty_filter` are the per-pair loops that the batched
search replaced in `amprl.dataprep` and `amprl.screening`, and
`greedy_cluster_per_query` is the clustering loop that ran one `query_search`
per peptide before `amprl.dataprep.greedy_cluster` aligned a batch of
peptides per search. `novelty_filter_per_candidate` is the novelty loop that
ran one tallying `search` per candidate against the whole reference before
`amprl.screening.novelty_filter` scored every pair first and tallied only the
pairs its bounds admit.
`lcs` is the scalar dynamic program for the longest common subsequence that
`amprl.alignment.match_bound` computes bit-parallel for a short query.
"""
import dataclasses
import functools

import numpy as np

from amprl.alignment import (
    _NEG as _INT_NEG,
    _SCORES,
    BLOSUM62,
    SEARCH_BLOCK,
    GAP_EXTEND,
    GAP_OPEN,
    GlobalAlignment,
    LocalAlignment,
    identity_global,
    make_hit,
    search,
)
from amprl.dataprep import Cluster
from amprl.sequences import RESIDUES, encode

_NEG = -1.0e9


def _substitution_grid(a, b):
    grid = np.empty((len(a), len(b)), dtype=np.float64)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            grid[i, j] = BLOSUM62[(x, y)]
    return grid


def _fill(a, b, local):
    n, m = len(a), len(b)
    sub = _substitution_grid(a, b)
    M = np.full((n + 1, m + 1), _NEG)
    X = np.full((n + 1, m + 1), _NEG)
    Y = np.full((n + 1, m + 1), _NEG)
    if local:
        M[0, :] = 0.0
        M[:, 0] = 0.0
    else:
        M[0, 0] = 0.0
        X[1:, 0] = -(GAP_OPEN + GAP_EXTEND * np.arange(1, n + 1))
        Y[0, 1:] = -(GAP_OPEN + GAP_EXTEND * np.arange(1, m + 1))
    cols = np.arange(m)
    for i in range(1, n + 1):
        diag = np.maximum(np.maximum(M[i - 1, :-1], X[i - 1, :-1]), Y[i - 1, :-1])
        row = diag + sub[i - 1]
        if local:
            row = np.maximum(row, 0.0)
        M[i, 1:] = row
        X[i, 1:] = np.maximum(M[i - 1, 1:] - GAP_OPEN - GAP_EXTEND, X[i - 1, 1:] - GAP_EXTEND)
        run = np.maximum.accumulate(M[i, :-1] + GAP_EXTEND * cols)
        Y[i, 1:] = run - GAP_OPEN - GAP_EXTEND * (cols + 1)
    return sub, M, X, Y


def align_global(a, b):
    sub, M, X, Y = _fill(a, b, local=False)
    n, m = len(a), len(b)
    finals = (M[n, m], X[n, m], Y[n, m])
    state = int(np.argmax(finals))
    score = finals[state]
    i, j = n, m
    out_a = []
    out_b = []
    matches = 0
    while (i, j) != (0, 0):
        if state == 0:
            out_a.append(a[i - 1])
            out_b.append(b[j - 1])
            if a[i - 1] == b[j - 1]:
                matches += 1
            target = M[i, j] - sub[i - 1, j - 1]
            i, j = i - 1, j - 1
            if M[i, j] == target:
                state = 0
            elif X[i, j] == target:
                state = 1
            elif Y[i, j] == target:
                state = 2
            else:
                raise AssertionError("global traceback lost the optimal path")
        elif state == 1:
            out_a.append(a[i - 1])
            out_b.append("-")
            opened = X[i, j] == M[i - 1, j] - GAP_OPEN - GAP_EXTEND
            i -= 1
            state = 0 if opened else 1
        else:
            out_a.append("-")
            out_b.append(b[j - 1])
            opened = Y[i, j] == M[i, j - 1] - GAP_OPEN - GAP_EXTEND
            j -= 1
            state = 0 if opened else 2
    out_a.reverse()
    out_b.reverse()
    return GlobalAlignment(
        score=float(score),
        matches=matches,
        columns=len(out_a),
        aligned_a="".join(out_a),
        aligned_b="".join(out_b),
    )


def align_local(a, b):
    sub, M, X, Y = _fill(a, b, local=True)
    flat = int(np.argmax(M))
    end_i, end_j = divmod(flat, M.shape[1])
    score = M[end_i, end_j]
    if score <= 0.0:
        return None
    i, j = end_i, end_j
    state = 0
    matches = 0
    columns = 0
    while True:
        if state == 0:
            columns += 1
            if a[i - 1] == b[j - 1]:
                matches += 1
            target = M[i, j] - sub[i - 1, j - 1]
            i, j = i - 1, j - 1
            if target == 0.0:
                break
            if M[i, j] == target:
                state = 0
            elif X[i, j] == target:
                state = 1
            elif Y[i, j] == target:
                state = 2
            else:
                raise AssertionError("local traceback lost the optimal path")
        elif state == 1:
            columns += 1
            opened = X[i, j] == M[i - 1, j] - GAP_OPEN - GAP_EXTEND
            i -= 1
            state = 0 if opened else 1
        else:
            columns += 1
            opened = Y[i, j] == M[i, j - 1] - GAP_OPEN - GAP_EXTEND
            j -= 1
            state = 0 if opened else 2
    return LocalAlignment(
        score=float(score),
        matches=matches,
        columns=columns,
        query_span=(i, end_i),
        target_span=(j, end_j),
    )


# `greedy_cluster` meets the same pairs at every threshold a test tries
cached_identity_global = functools.cache(identity_global)


def greedy_cluster(peptides, identity_threshold):
    clusters = []
    for pep in sorted(peptides, key=lambda p: (-len(p), p.residues, p.id)):
        home = None
        for cluster in clusters:
            if pep.residues == cluster.representative.residues:
                home = cluster
                break
            if cached_identity_global(pep.residues, cluster.representative.residues) >= identity_threshold:
                home = cluster
                break
        if home is None:
            clusters.append(Cluster(representative=pep, members=[pep]))
        else:
            home.members.append(pep)
    return clusters


# `novelty_filter` meets the same pairs under many screening configs
cached_align_local = functools.cache(align_local)


def novelty_filter(records, reference, cfg):
    db_residues = sum(len(t) for t in reference)
    kept, removed, hits = [], [], []
    for record in records:
        query = record.peptide
        best = None
        similar = False
        for target in reference:
            aln = cached_align_local(query.residues, target.residues)
            if aln is None:
                continue
            if best is None or (-aln.score, target.id) < (-best[0], best[1]):
                best = (aln.score, target.id, target, aln)
            if aln.columns > cfg.novelty_coverage * len(query) and aln.identity >= cfg.novelty_identity:
                similar = True
        if best is not None:
            aln = best[3]
            hits.append(make_hit(query, best[2], aln.score, aln.matches, aln.columns, db_residues))
        if similar:
            removed.append(dataclasses.replace(record, verdict="rejected", reject_reasons=("novelty",)))
        else:
            kept.append(record)
    return kept, removed, hits


def novelty_filter_per_candidate(records, reference, cfg):
    if not reference:
        raise ValueError("reference set must be non-empty")
    db_residues = sum(len(t) for t in reference)
    targets = encode([t.residues for t in reference])
    queries, lengths = encode([r.peptide.residues for r in records])
    kept, removed, hits = [], [], []
    for record, codes, n in zip(records, queries, lengths):
        query = record.peptide
        pairs = (np.broadcast_to(codes[:n], (len(reference), n)), np.broadcast_to(n, len(reference)))
        scores, matches, columns = search(pairs, targets, local=True)
        # columns is 0 only where nothing aligned, and then fails the coverage test
        identity = matches / np.maximum(columns, 1)
        similar = bool(np.any((columns > cfg.novelty_coverage * n) & (identity >= cfg.novelty_identity)))
        aligned = np.flatnonzero(scores > 0.0)
        if aligned.size:
            k = min(aligned, key=lambda k: (-scores[k], reference[k].id))
            hits.append(make_hit(query, reference[k], scores[k], matches[k], columns[k], db_residues))
        if similar:
            removed.append(dataclasses.replace(record, verdict="rejected", reject_reasons=("novelty",)))
        else:
            kept.append(record)
    return kept, removed, hits


# BLOSUM62 in `encode`'s code order, with the padding code scoring _NEG
_PADDED_SCORES = np.array([[BLOSUM62[(x, y)] for y in RESIDUES] + [_NEG] for x in RESIDUES])


def search_block(query, codes, lengths, local):
    """`amprl.alignment._fill`'s recurrence in float64 across a padded stack of
    targets, one target per array row and one query row kept.

    Beside each M, X and Y cell runs a tally, columns * (n + 1) + matches, of
    the walk the traceback would make from that cell (matches <= n, the query
    length). Returns each target's score and the tally of its optimal walk.
    The row arrays are allocated once and swapped between rows.
    """
    n, count = len(query), len(lengths)
    width = int(lengths.max())
    codes = codes[:, :width]
    step = n + 1
    cols = np.arange(width)
    rows = np.arange(count)
    y_gap = GAP_OPEN + GAP_EXTEND * (cols + 1)
    y_extend = GAP_EXTEND * cols
    shape = (count, width + 1)
    M, X, Y = (np.full(shape, _NEG) for _ in range(3))
    TM, TX, TY = (np.zeros(shape, dtype=np.int64) for _ in range(3))
    if local:
        M[:] = 0.0
    else:
        M[:, 0] = 0.0
        Y[:, 1:] = -y_gap
        TY[:, 1:] = step * (cols + 1)
    rows_now = (M, X, Y, TM, TX, TY)
    # row 0's first column of Y, TM and TY holds for every row
    spare = tuple(a.copy() for a in rows_now)
    diag = np.empty((count, width))
    opened = np.empty((count, width))
    run = np.empty((count, width))
    pred = np.empty((count, width), dtype=np.int64)
    k = np.empty((count, width), dtype=np.int64)
    best = np.zeros(count)
    best_tally = np.zeros(count, dtype=np.int64)
    profile = _PADDED_SCORES[query]
    for i in range(1, n + 1):
        (pM, pX, pY, pTM, pTX, pTY), (M, X, Y, TM, TX, TY) = rows_now, spare
        rows_now, spare = spare, rows_now
        M[:, 0] = 0.0 if local else _NEG
        X[:, 0] = _NEG if local else -(GAP_OPEN + GAP_EXTEND * i)
        TX[:, 0] = 0 if local else step * i

        np.maximum(pM[:, :-1], pX[:, :-1], out=diag)
        np.maximum(diag, pY[:, :-1], out=diag)
        # a match step's predecessor, tested in _traceback's order: M, X, Y
        np.copyto(pred, pTY[:, :-1])
        np.copyto(pred, pTX[:, :-1], where=pX[:, :-1] == diag)
        np.copyto(pred, pTM[:, :-1], where=pM[:, :-1] == diag)
        if local:
            pred[diag == 0.0] = 0  # the local walk stops where the predecessor scores 0
        np.add(diag, profile[i - 1][codes], out=M[:, 1:])
        if local:
            np.maximum(M[:, 1:], 0.0, out=M[:, 1:])
        np.add(pred, step, out=TM[:, 1:])
        np.add(TM[:, 1:], codes == query[i - 1], out=TM[:, 1:])

        np.subtract(pM[:, 1:], GAP_OPEN + GAP_EXTEND, out=opened)
        np.subtract(pX[:, 1:], GAP_EXTEND, out=X[:, 1:])
        np.maximum(opened, X[:, 1:], out=X[:, 1:])
        np.copyto(TX[:, 1:], pTX[:, 1:])
        np.copyto(TX[:, 1:], pTM[:, 1:], where=X[:, 1:] == opened)
        np.add(TX[:, 1:], step, out=TX[:, 1:])

        run_in = np.add(M[:, :-1], y_extend, out=opened)
        np.maximum.accumulate(run_in, axis=1, out=run)
        np.subtract(run, y_gap, out=Y[:, 1:])
        # Y[i, j] opened from M[i, k] at the last k < j where the running maximum is attained
        k.fill(0)
        np.copyto(k, cols, where=run_in == run)
        np.maximum.accumulate(k, axis=1, out=k)
        np.add(TM[rows[:, None], k], step * (cols + 1 - k), out=TY[:, 1:])

        if local:
            # the first maximum cell in row-major order, as np.argmax(M) picks it
            j = np.argmax(M, axis=1)
            top = M[rows, j]
            better = top > best
            best[better] = top[better]
            best_tally[better] = TM[rows, j][better]
    if local:
        return best, best_tally
    finals = np.stack([M[rows, lengths], X[rows, lengths], Y[rows, lengths]])
    state = np.argmax(finals, axis=0)
    tallies = np.stack([TM[rows, lengths], TX[rows, lengths], TY[rows, lengths]])
    return finals[state, rows], tallies[state, rows]


def greedy_cluster_per_query(peptides, identity_threshold):
    ordered = sorted(peptides, key=lambda p: (-len(p), p.residues, p.id))
    codes, lengths = encode([p.residues for p in ordered])
    clusters = []
    representatives = []  # rows of codes
    for k, pep in enumerate(ordered):
        reps = (codes[representatives], lengths[representatives])
        _, matches, columns = query_search(codes[k, : lengths[k]], reps, local=False)
        joins = np.flatnonzero(matches / columns >= identity_threshold)
        if joins.size:
            clusters[int(joins[0])].members.append(pep)
        else:
            clusters.append(Cluster(representative=pep, members=[pep]))
            representatives.append(k)
    return clusters


# `encode`'s padding code scores _INT_NEG against every residue
_INT_PADDED_SCORES = np.hstack([_SCORES, np.full((len(_SCORES), 1), _INT_NEG)])


def query_search(query, targets, *, local):
    """Align one query, as its unpadded codes, against every target of
    `encode`'s (codes, lengths) pair: the per-query search that
    `amprl.alignment.search`'s (query, target) pairs replaced. Returns scores,
    matches and columns, SEARCH_BLOCK targets at a time, one query row per
    numpy step, and raises ValueError past 2**26 residues together.
    """
    codes, lengths = targets
    if not len(query) or not np.all(lengths):
        raise ValueError("cannot align an empty sequence")
    if len(query) + int(lengths.max(initial=0)) > 2**26:
        raise ValueError(f"search aligns a query and target of at most {2**26} residues together")
    parts = [
        query_search_block(query, codes[k : k + SEARCH_BLOCK], lengths[k : k + SEARCH_BLOCK], local)
        for k in range(0, len(lengths), SEARCH_BLOCK)
    ]
    parts = parts or [(np.zeros(0), np.zeros(0, dtype=np.int64))]
    scores = np.concatenate([s for s, _ in parts]).astype(np.float64)
    tallies = np.concatenate([t for _, t in parts])
    columns, matches = np.divmod(tallies, len(query) + 1)
    return scores, matches, columns


def query_search_block(query, codes, lengths, local):
    """`_fill`'s recurrence across a block of targets, in integers, one row kept.

    The block is target-major: cell (j, t) is column j of target t, so each
    step is one contiguous vector op across the targets. Beside each M, X and
    Y cell runs a tally, columns * (n + 1) + matches, of the walk `_traceback`
    would make from that cell (matches <= n, the query length). Returns each
    target's score and the tally of its optimal walk. The row arrays are
    allocated once and swapped between rows.
    """
    n, count = len(query), len(lengths)
    width = int(lengths.max())
    codes = np.ascontiguousarray(codes[:, :width].T)
    step = n + 1
    bits = width.bit_length()
    low = (1 << bits) - 1
    cols = np.arange(width)[:, None]
    targets = np.arange(count)
    y_gap = GAP_OPEN + GAP_EXTEND * (cols + 1)
    y_step = step * (cols + 1)
    # (M + extend * col) << bits | col: the running maximum of the packed
    # values carries the last column attaining it, where Y's traceback opens
    y_key = (GAP_EXTEND * cols << bits) | cols
    # M << bits | (width - col): the maximum is the row's first maximum cell
    first_key = width - np.arange(width + 1)[:, None]
    shape = (width + 1, count)
    M, X, Y = (np.full(shape, _INT_NEG) for _ in range(3))
    TM, TX, TY = (np.zeros(shape, dtype=np.int64) for _ in range(3))
    if local:
        M[:] = 0
    else:
        M[0] = 0
        Y[1:] = -y_gap
        TY[1:] = y_step
    rows_now = (M, X, Y, TM, TX, TY)
    # column 0 of Y, TM and TY keeps its row-0 value in every row
    spare = tuple(a.copy() for a in rows_now)
    diag, pred, sub, packed, k = (np.empty((width, count), dtype=np.int64) for _ in range(5))
    shifted = np.empty(shape, dtype=np.int64)
    sel = np.empty((width, count), dtype=bool)
    best = np.zeros(count, dtype=np.int64)
    best_tally = np.zeros(count, dtype=np.int64)
    profile = _INT_PADDED_SCORES[query]
    for i in range(1, n + 1):
        (pM, pX, pY, pTM, pTX, pTY), (M, X, Y, TM, TX, TY) = rows_now, spare
        rows_now, spare = spare, rows_now
        M[0] = 0 if local else _INT_NEG
        X[0] = _INT_NEG if local else -(GAP_OPEN + GAP_EXTEND * i)
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
        np.take(profile[i - 1], codes, out=sub)
        np.add(diag, sub, out=M[1:])
        if local:
            np.maximum(M[1:], 0, out=M[1:])
        np.equal(codes, query[i - 1], out=sel)
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
        np.maximum.accumulate(packed, axis=0, out=packed)
        np.right_shift(packed, bits, out=Y[1:])
        np.subtract(Y[1:], y_gap, out=Y[1:])
        # Y[i, j] opened from M[i, k] at the last k < j where the running maximum is attained
        np.bitwise_and(packed, low, out=k)
        np.multiply(k, count, out=pred)
        np.add(pred, targets, out=pred)
        np.take(TM.ravel(), pred, out=TY[1:])
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
    if local:
        return best, best_tally
    at = lengths * count + targets
    finals = np.stack([M.ravel()[at], X.ravel()[at], Y.ravel()[at]])
    state = np.argmax(finals, axis=0)
    tallies = np.stack([TM.ravel()[at], TX.ravel()[at], TY.ravel()[at]])
    return finals[state, targets], tallies[state, targets]


def lcs(a, b):
    """The longest common subsequence length of two strings, by the
    textbook dynamic program, one row at a time."""
    row = [0] * (len(b) + 1)
    for x in a:
        diag, row[0] = 0, 0
        for j, y in enumerate(b, start=1):
            diag, row[j] = row[j], diag + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]
