"""Affine-gap alignment, identity, hit tables, and the score conversions."""
import io
import math

import numpy as np
import pytest

from amprl import alignment
from amprl.alignment import (
    BLOSUM62,
    GAP_EXTEND,
    GAP_OPEN,
    HIT_COLUMNS,
    SEARCH_BLOCK,
    SimilarityHit,
    align_global,
    align_local,
    approximate_bits,
    approximate_evalue,
    identity_global,
    local_scores,
    make_hit,
    search,
    write_hit_table,
)
from amprl.screening import ScreenConfig, annotate, novelty_filter
from amprl.sequences import Peptide, encode

import alignment_oracle
from conftest import RESIDUES, near_copy

NEG = float("-inf")


def _global_oracle(a, b, go=GAP_OPEN, ge=GAP_EXTEND):
    # plain-python three-state Gotoh, forward fill
    n, m = len(a), len(b)
    M = [[NEG] * (m + 1) for _ in range(n + 1)]
    X = [[NEG] * (m + 1) for _ in range(n + 1)]
    Y = [[NEG] * (m + 1) for _ in range(n + 1)]
    M[0][0] = 0.0
    for i in range(1, n + 1):
        X[i][0] = -(go + i * ge)
    for j in range(1, m + 1):
        Y[0][j] = -(go + j * ge)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            s = BLOSUM62[(a[i - 1], b[j - 1])]
            M[i][j] = max(M[i - 1][j - 1], X[i - 1][j - 1], Y[i - 1][j - 1]) + s
            X[i][j] = max(M[i - 1][j] - go - ge, X[i - 1][j] - ge)
            Y[i][j] = max(M[i][j - 1] - go - ge, Y[i][j - 1] - ge)
    return max(M[n][m], X[n][m], Y[n][m])


def _local_oracle(a, b, go=GAP_OPEN, ge=GAP_EXTEND):
    n, m = len(a), len(b)
    M = [[0.0] * (m + 1) for _ in range(n + 1)]
    X = [[NEG] * (m + 1) for _ in range(n + 1)]
    Y = [[NEG] * (m + 1) for _ in range(n + 1)]
    best = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            s = BLOSUM62[(a[i - 1], b[j - 1])]
            M[i][j] = max(0.0, max(M[i - 1][j - 1], X[i - 1][j - 1], Y[i - 1][j - 1]) + s)
            X[i][j] = max(M[i - 1][j] - go - ge, X[i - 1][j] - ge)
            Y[i][j] = max(M[i][j - 1] - go - ge, Y[i][j - 1] - ge)
            best = max(best, M[i][j])
    return best


def _rand_seq(rng, lo=1, hi=14):
    return "".join(rng.choice(list(RESIDUES), size=int(rng.integers(lo, hi + 1))))


def _codes(seq):
    return encode([seq])[0][0]


def _against(query, count):
    """`query`'s codes as a zero-copy query row for `count` pairs."""
    codes = _codes(query)
    return np.broadcast_to(codes, (count, len(codes))), np.broadcast_to(len(codes), count)


# BLOSUM62 as NCBI publishes it, with its row and column labels
_PUBLISHED_BLOSUM62 = """
   A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V
A  4 -1 -2 -2  0 -1 -1  0 -2 -1 -1 -1 -1 -2 -1  1  0 -3 -2  0
R -1  5  0 -2 -3  1  0 -2  0 -3 -2  2 -1 -3 -2 -1 -1 -3 -2 -3
N -2  0  6  1 -3  0  0  0  1 -3 -3  0 -2 -3 -2  1  0 -4 -2 -3
D -2 -2  1  6 -3  0  2 -1 -1 -3 -4 -1 -3 -3 -1  0 -1 -4 -3 -3
C  0 -3 -3 -3  9 -3 -4 -3 -3 -1 -1 -3 -1 -2 -3 -1 -1 -2 -2 -1
Q -1  1  0  0 -3  5  2 -2  0 -3 -2  1  0 -3 -1  0 -1 -2 -1 -2
E -1  0  0  2 -4  2  5 -2  0 -3 -3  1 -2 -3 -1  0 -1 -3 -2 -2
G  0 -2  0 -1 -3 -2 -2  6 -2 -4 -4 -2 -3 -3 -2  0 -2 -2 -3 -3
H -2  0  1 -1 -3  0  0 -2  8 -3 -3 -1 -2 -1 -2 -1 -2 -2  2 -3
I -1 -3 -3 -3 -1 -3 -3 -4 -3  4  2 -3  1  0 -3 -2 -1 -3 -1  3
L -1 -2 -3 -4 -1 -2 -3 -4 -3  2  4 -2  2  0 -3 -2 -1 -2 -1  1
K -1  2  0 -1 -3  1  1 -2 -1 -3 -2  5 -1 -3 -1  0 -1 -3 -2 -2
M -1 -1 -2 -3 -1  0 -2 -3 -2  1  2 -1  5  0 -2 -1 -1 -1 -1  1
F -2 -3 -3 -3 -2 -3 -3 -3 -1  0  0 -3  0  6 -4 -2 -2  1  3 -1
P -1 -2 -2 -1 -3 -1 -1 -2 -2 -3 -3 -1 -2 -4  7 -1 -1 -4 -3 -2
S  1 -1  1  0 -1  0  0  0 -1 -2 -2  0 -1 -2 -1  4  1 -3 -2 -2
T  0 -1  0 -1 -1 -1 -1 -2 -2 -1 -1 -1 -1 -2 -1  1  5 -2 -2  0
W -3 -3 -4 -4 -2 -2 -3 -2 -2 -3 -2 -3 -1  1 -4 -3 -2 11  2 -3
Y -2 -2 -2 -3 -2 -1 -2 -3  2 -1 -1 -2 -1  3 -3 -2 -2  2  7 -1
V  0 -3 -3 -3 -1 -2 -2 -3 -3  3  1 -2  1 -1 -2 -2  0 -3 -1  4
"""


def test_blosum_table_matches_the_published_matrix():
    header, *rows = _PUBLISHED_BLOSUM62.strip().splitlines()
    columns = header.split()
    published = {}
    for row in rows:
        x, *values = row.split()
        published.update({(x, y): int(v) for y, v in zip(columns, values)})
    assert BLOSUM62 == published
    # the scores the kernels use, re-indexed to the residue codes, are the same
    for (x, y), v in published.items():
        assert align_global(x, y).score == v
        scores, _, _ = search(encode([x]), encode([y]), local=False)
        assert scores.tolist() == [v]


def test_blosum_table_shape_and_symmetry():
    assert len(BLOSUM62) == 400
    for (x, y), v in BLOSUM62.items():
        assert BLOSUM62[(y, x)] == v
    assert BLOSUM62[("W", "W")] == 11
    assert BLOSUM62[("C", "C")] == 9
    assert all(BLOSUM62[(r, r)] > 0 for r in RESIDUES)


def test_global_score_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(60):
        a, b = _rand_seq(rng), _rand_seq(rng)
        aln = align_global(a, b)
        assert aln.score == pytest.approx(_global_oracle(a, b), abs=1e-9), (a, b)


def test_global_alignment_columns_are_consistent():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b = _rand_seq(rng, 2, 10), _rand_seq(rng, 2, 10)
        aln = align_global(a, b)
        assert len(aln.aligned_a) == len(aln.aligned_b) == aln.columns
        assert aln.aligned_a.replace("-", "") == a
        assert aln.aligned_b.replace("-", "") == b
        matches = sum(x == y and x != "-" for x, y in zip(aln.aligned_a, aln.aligned_b))
        assert matches == aln.matches
        assert 0.0 <= aln.identity <= 1.0
        # rescoring the reported alignment reproduces the DP score
        score = 0.0
        in_gap_a = in_gap_b = False
        for x, y in zip(aln.aligned_a, aln.aligned_b):
            if x == "-":
                score -= GAP_EXTEND if in_gap_a else GAP_OPEN + GAP_EXTEND
                in_gap_a, in_gap_b = True, False
            elif y == "-":
                score -= GAP_EXTEND if in_gap_b else GAP_OPEN + GAP_EXTEND
                in_gap_b, in_gap_a = True, False
            else:
                score += BLOSUM62[(x, y)]
                in_gap_a = in_gap_b = False
        assert score == pytest.approx(aln.score, abs=1e-9)


def test_identity_definition_uses_alignment_columns():
    assert identity_global("KKKK", "KKKK") == 1.0
    aln = align_global("ACDEFGHIKL", "ACDEGHIKL")  # one deletion
    assert aln.columns == 10
    assert aln.matches == 9
    assert aln.identity == pytest.approx(0.9)
    assert identity_global("ACDEFGHIKL", "ACDEGHIKL") == pytest.approx(0.9)


def test_affine_gap_cost_is_open_plus_extend_per_column():
    # self alignment with a 2-residue deletion: score drops by open + 2*extend
    full = "ACDEFGHIKLMN"
    gapped = "ACDEFGHIKL"
    self_score = sum(BLOSUM62[(r, r)] for r in gapped)
    aln = align_global(full, gapped)
    assert aln.score == pytest.approx(self_score - (GAP_OPEN + 2 * GAP_EXTEND))


def test_local_score_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(60):
        a, b = _rand_seq(rng), _rand_seq(rng)
        expected = _local_oracle(a, b)
        aln = align_local(a, b)
        if expected <= 0.0:
            assert aln is None
        else:
            hits += 1
            assert aln.score == pytest.approx(expected, abs=1e-9), (a, b)
            assert 1 <= aln.columns
            # a positive score needs no exact match (e.g. an I/L column scores +2)
            assert 0 <= aln.matches <= aln.columns
            qa, qb = aln.query_span
            ta, tb = aln.target_span
            assert 0 <= qa < qb <= len(a)
            assert 0 <= ta < tb <= len(b)
    assert hits > 10  # the sampler should produce plenty of positive alignments


def test_kernel_matches_scalar_oracle_field_for_field():
    # the scalar kernel with dict-lookup grids and two tracebacks is the oracle
    rng = np.random.default_rng(11)
    pairs = [(_rand_seq(rng, 1, 40), _rand_seq(rng, 1, 40)) for _ in range(1000)]
    for _ in range(1000):
        a = _rand_seq(rng, 1, 40)
        pairs.append((a, near_copy(rng, a)))
    local_hits = 0
    for a, b in pairs:
        assert align_global(a, b) == alignment_oracle.align_global(a, b), (a, b)
        expected = alignment_oracle.align_local(a, b)
        assert align_local(a, b) == expected, (a, b)
        local_hits += expected is not None
    assert 1000 < local_hits < len(pairs)  # both outcomes of the local search are exercised


def test_search_matches_scalar_oracle_field_for_field():
    # each batch is wider than one block and mixes random targets of every
    # length 1..40 with near-copies and exact copies of the query, so padding,
    # block edges, score ties and traceback ties all occur
    rng = np.random.default_rng(12)
    pairs = 0
    outcomes = set()
    for _ in range(7):
        query = _rand_seq(rng, 1, 40)
        targets = [_rand_seq(rng, length, length) for length in range(1, 41)]
        targets += [_rand_seq(rng, 1, 40) for _ in range(110)]
        targets += [near_copy(rng, query) for _ in range(140)]
        targets += [query] * 10
        rng.shuffle(targets)
        assert len(targets) > SEARCH_BLOCK
        for local in (False, True):
            scores, matches, columns = search(_against(query, len(targets)), encode(targets), local=local)
            assert len(scores) == len(matches) == len(columns) == len(targets)
            for k, target in enumerate(targets):
                if local:
                    aln = alignment_oracle.align_local(query, target)
                    expected = (0.0, 0, 0) if aln is None else (aln.score, aln.matches, aln.columns)
                    outcomes.add(aln is None)
                else:
                    aln = alignment_oracle.align_global(query, target)
                    expected = (aln.score, aln.matches, aln.columns)
                assert (scores[k], matches[k], columns[k]) == expected, (local, query, target)
                pairs += 1
    assert pairs >= 4000
    assert outcomes == {False, True}  # both outcomes of the local search are exercised


def test_pair_kernel_matches_the_per_query_kernel_and_the_scalar_oracle():
    # more pairs than one block, in random order, so each block mixes queries
    # of every length 1..40 with a query over 200 residues; exact, near and
    # duplicate pairs; each query's pairs are also run through the per-query
    # kernel the pair kernel replaced
    rng = np.random.default_rng(14)
    queries = [_rand_seq(rng, length, length) for length in range(1, 41)] + [_rand_seq(rng, 201, 230)]
    pairs = []
    for query in queries:
        pairs += [(query, _rand_seq(rng, 1, 40)) for _ in range(6)]
        pairs += [(query, near_copy(rng, query, max_len=250)), (query, query)]
    pairs += [pairs[int(k)] for k in rng.integers(len(pairs), size=30)]
    pairs = [pairs[int(k)] for k in rng.permutation(len(pairs))]
    assert len(pairs) > SEARCH_BLOCK
    blocks = [{len(q) for q, _ in pairs[k : k + SEARCH_BLOCK]} for k in range(0, len(pairs), SEARCH_BLOCK)]
    assert all(max(lengths) > 200 and min(lengths) <= 5 for lengths in blocks)
    outcomes = set()
    for local in (False, True):
        scores, matches, columns = search(encode([q for q, _ in pairs]), encode([t for _, t in pairs]), local=local)
        got = list(zip(scores.tolist(), matches.tolist(), columns.tolist()))
        per_query = {}
        for query in queries:
            targets = sorted({t for q, t in pairs if q == query})
            found = zip(*alignment_oracle.query_search(_codes(query), encode(targets), local=local))
            per_query.update({(query, t): tuple(v.item() for v in row) for t, row in zip(targets, found)})
        for (query, target), row in zip(pairs, got):
            if local:
                aln = alignment_oracle.align_local(query, target)
                expected = (0.0, 0, 0) if aln is None else (aln.score, aln.matches, aln.columns)
                outcomes.add(aln is None)
            else:
                aln = alignment_oracle.align_global(query, target)
                expected = (aln.score, aln.matches, aln.columns)
            assert row == expected == per_query[query, target], (local, query, target)
        # one query broadcast against every target, over more than one block
        wide = [t for _, t in pairs]
        got = search(_against(queries[-1], len(wide)), encode(wide), local=local)
        want = alignment_oracle.query_search(_codes(queries[-1]), encode(wide), local=local)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert outcomes == {False, True}


def test_local_scores_match_search_and_the_scalar_oracle():
    # shuffled pairs over more than one block: queries of every length 1..40
    # and one over 200 residues, against random targets, near copies and
    # exact copies; then one query broadcast against every target
    rng = np.random.default_rng(15)
    queries = [_rand_seq(rng, length, length) for length in range(1, 41)] + [_rand_seq(rng, 201, 230)]
    pairs = []
    for query in queries:
        pairs += [(query, _rand_seq(rng, 1, 40)) for _ in range(6)]
        pairs += [(query, near_copy(rng, query, max_len=250)), (query, query)]
    pairs = [pairs[int(k)] for k in rng.permutation(len(pairs))]
    assert len(pairs) > SEARCH_BLOCK
    queries_in, targets_in = encode([q for q, _ in pairs]), encode([t for _, t in pairs])
    scores = local_scores(queries_in, targets_in)
    assert np.array_equal(scores, search(queries_in, targets_in, local=True)[0])
    expected = [getattr(alignment_oracle.align_local(q, t), "score", 0.0) for q, t in pairs]
    assert scores.tolist() == expected
    assert 0.0 in expected and len(set(expected)) > 50
    wide = [t for _, t in pairs]
    for query in (queries[0], queries[17], queries[-1]):
        broadcast = _against(query, len(wide))
        assert np.array_equal(local_scores(broadcast, encode(wide)), search(broadcast, encode(wide), local=True)[0])
    assert local_scores(_against("KLW", 0), encode([])).shape == (0,)


def test_local_scores_refuse_what_search_refuses(monkeypatch):
    for queries, targets, message in (
        (_against("", 1), encode(["KLW"]), "cannot align an empty sequence"),
        (_against("KLW", 2), encode(["KLW", ""]), "cannot align an empty sequence"),
        (_against("KLW", 2), encode(["KLW"] * 3), "2 queries for 3 targets"),
    ):
        for run in (local_scores, lambda q, t: search(q, t, local=True)):
            with pytest.raises(ValueError, match=message):
                run(queries, targets)

    # the length limit, on zero-stride views, before the kernel runs
    def one(length):
        return np.broadcast_to(np.int64(0), (1, length)), np.array([length])

    calls = []
    monkeypatch.setattr(alignment, "_score_block", lambda qc, ql, c, lens: calls.append(int(ql.max())) or lens)
    for n in (1, 2**25, 2**26 - 1):
        local_scores(one(n), one(2**26 - n))
        with pytest.raises(ValueError, match=str(2**26)):
            local_scores(one(n + 1), one(2**26 - n))
        with pytest.raises(ValueError, match=str(2**26)):
            local_scores(one(n), one(2**26 - n + 1))
    assert calls == [1, 2**25, 2**26 - 1]


def test_search_edge_cases():
    for local in (False, True):
        with pytest.raises(ValueError, match="cannot align an empty sequence"):
            search(_against("", 1), encode(["KLW"]), local=local)
        with pytest.raises(ValueError, match="cannot align an empty sequence"):
            search(_against("KLW", 2), encode(["KLW", ""]), local=local)
        with pytest.raises(ValueError, match="cannot align an empty sequence"):
            search(encode(["KLW", ""]), encode(["KLW", "KLW"]), local=local)
        with pytest.raises(ValueError, match="substitution"):
            search(_against("KLW", 1), encode(["KBW"]), local=local)
        with pytest.raises(ValueError, match="2 queries for 3 targets"):
            search(_against("KLW", 2), encode(["KLW"] * 3), local=local)
        assert [a.shape for a in search(_against("KLW", 0), encode([]), local=local)] == [(0,), (0,), (0,)]


def _runs(rng, lo, hi):
    # single-residue runs: along a run every running-maximum candidate ties
    return rng.choice(list(RESIDUES)) * int(rng.integers(lo, hi + 1))


def test_integer_kernel_matches_float_oracle():
    # the integer, target-major kernel against the float kernel it replaced,
    # on blocks wider than SEARCH_BLOCK mixing random targets of every length
    # 1..40, targets over 200, exact and near copies, and single-residue runs
    rng = np.random.default_rng(13)
    queries = [_rand_seq(rng, 1, 40) for _ in range(5)] + [_rand_seq(rng, 201, 230)]
    queries += [_runs(rng, 1, 30) for _ in range(3)] + ["W", "KKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKK"]
    checked = 0
    for query in queries:
        targets = [_rand_seq(rng, length, length) for length in range(1, 41)]
        targets += [_rand_seq(rng, 1, 40) for _ in range(120)]
        targets += [_rand_seq(rng, 201, 240) for _ in range(3)]
        targets += [near_copy(rng, query, max_len=250) for _ in range(60)]
        targets += [query] * 5 + [_runs(rng, 1, 45) for _ in range(40)]
        targets += [query[: len(query) // 2 + 1] * 3, query[0] * len(query)]
        rng.shuffle(targets)
        assert len(targets) > SEARCH_BLOCK
        codes, lengths = encode(targets)
        q = _codes(query)
        for local in (False, True):
            # one query per block, so both kernels pack tallies with step len(query) + 1
            scores, tallies = alignment._search_block(*_against(query, len(targets)), codes, lengths, local)
            expected_scores, expected_tallies = alignment_oracle.search_block(q, codes, lengths, local)
            assert np.array_equal(scores, expected_scores), (local, query)
            assert np.array_equal(tallies, expected_tallies), (local, query)
            checked += len(targets)
    assert checked == 2 * 270 * len(queries)


def test_kernel_lanes_agree_across_the_int32_switch():
    # one block whose longest query and target hold exactly the residues the
    # int32 lanes admit, and the same block with that target one residue
    # longer, which runs in int64; both against the float oracle
    rng = np.random.default_rng(16)
    for query in (_rand_seq(rng, 20, 30), _runs(rng, 5, 10)):
        targets = [_rand_seq(rng, 1, 40) for _ in range(16)] + [near_copy(rng, query) for _ in range(12)]
        targets += [query] * 2 + [_runs(rng, 1, 30) for _ in range(6)] + [query[0] * len(query)]
        rng.shuffle(targets)
        limit = alignment._INT32_RESIDUES - len(query)
        long = (near_copy(rng, query) + "".join(rng.choice(list(RESIDUES), size=limit)))[:limit]
        at = int(rng.integers(len(targets) + 1))
        q = _codes(query)
        for extra, lane in (("", np.int32), ("W", np.int64)):
            codes, lengths = encode(targets[:at] + [long + extra] + targets[at:])
            assert len(query) + int(lengths.max()) == alignment._INT32_RESIDUES + len(extra)
            for local in (False, True):
                scores, tallies = alignment._search_block(*_against(query, len(lengths)), codes, lengths, local)
                assert scores.dtype == tallies.dtype == lane
                expected_scores, expected_tallies = alignment_oracle.search_block(q, codes, lengths, local)
                assert np.array_equal(scores, expected_scores), (local, query, lane)
                assert np.array_equal(tallies, expected_tallies), (local, query, lane)


def test_search_length_limit(monkeypatch):
    # the limit is checked before the kernel runs, so zero-stride views of
    # sequences at and just past it cost no memory
    def zeros(rows, length):
        return np.broadcast_to(np.int64(0), (rows, length))

    def one(length):
        return zeros(1, length), np.array([length])

    calls = []
    monkeypatch.setattr(
        alignment, "_search_block", lambda qc, ql, c, lens, local: calls.append(int(ql.max())) or (lens, lens)
    )
    short = encode(["A"])
    for local in (False, True):
        for n in (1, 2**25, 2**26 - 1):
            wide = one(2**26 - n)
            search(one(n), wide, local=local)
            search(one(2**26 - 1), short, local=local)
            with pytest.raises(ValueError, match=str(2**26)):
                search(one(n + 1), wide, local=local)
            with pytest.raises(ValueError, match=str(2**26)):
                search(one(n), one(2**26 - n + 1), local=local)
            # the limit holds for the longest query and the longest target of a call
            with pytest.raises(ValueError, match=str(2**26)):
                search((zeros(2, n + 1), np.array([1, n + 1])), (zeros(2, 2**26 - n), np.array([2**26 - n, 1])), local=local)
    assert len(calls) == 12


def test_kernel_values_fit_at_the_length_limit():
    # at n + width = 2**26 residues, n the block's longest query and width its
    # longest target: a real score is at least minus the cost of a path of
    # three mismatches and three gaps; one derived from the _NEG sentinel lies
    # between _NEG minus that cost and _NEG + 11 * min(n, width), so the two
    # never meet. Past a pair's own last query row or column a cell adds _NEG
    # at most twice, since X keeps a gap from a cell that holds at most one,
    # so every value lies above 2 * _NEG minus that cost. A packed score adds
    # bit_length(width) bits to a score plus a column; a tally is at most
    # (n + width) * (n + 1) + n
    total = 2**26
    for n in (1, total // 2, total - 1):
        width = total - n
        cost = 3 * 4 + 3 * GAP_OPEN + GAP_EXTEND * total
        assert alignment._NEG + 11 * min(n, width) < -cost
        assert (2 * abs(alignment._NEG) + cost + total) << width.bit_length() < 2**63
        assert total * (n + 1) + n < 2**63
        # the score-only kernel's int32 values: [_NEG32 - 1, 11 * min(n, width) + width]
        assert alignment._NEG32 - 1 > -(2**31) and 11 * min(n, width) + width < 2**31
    # `_search_block`'s int32 lanes, by the same argument, at the most
    # residues they admit
    total = alignment._INT32_RESIDUES
    for n in (1, total // 2, total - 1):
        width = total - n
        cost = 3 * 4 + 3 * GAP_OPEN + GAP_EXTEND * total
        assert alignment._NEG32 + 11 * min(n, width) < -cost
        assert (2 * abs(alignment._NEG32) + cost + total) << width.bit_length() < 2**31
        assert total * (n + 1) + n < 2**31


def _lcs_pairs(rng):
    # a query of every length 1..LCS_WORD against targets of 1..80 residues,
    # half over four residues so that common subsequences run long, each
    # query in consecutive rows as callers repeat it; one-letter peptides,
    # up to a one-letter query of exactly LCS_WORD residues; then earlier
    # pairs again, apart from their first rows
    pairs = []
    for length in range(1, alignment.LCS_WORD + 1):
        alphabet = list("KLWA" if length % 2 else RESIDUES)
        query = "".join(rng.choice(alphabet, size=length))
        pairs += [(query, "".join(rng.choice(alphabet, size=int(rng.integers(1, 81))))) for _ in range(3)]
    pairs += [("K" * 64, "K" * 80), ("K" * 64, "K" * 63), ("K" * 64, "L" * 80), ("K", "K"), ("K", "L"), ("KKK", "KLKLK")]
    return pairs + [pairs[int(k)] for k in rng.integers(len(pairs), size=40)]


@pytest.mark.parametrize("block", [5, alignment.LCS_BLOCK])
def test_match_bound_of_a_short_query_is_the_scalar_lcs(monkeypatch, block):
    # blocks of 5 pairs split runs of equal query rows between blocks
    monkeypatch.setattr(alignment, "LCS_BLOCK", block)
    pairs = _lcs_pairs(np.random.default_rng(16))
    expected = [alignment_oracle.lcs(q, t) for q, t in pairs]
    assert {0, 64} <= set(expected)
    (query_codes, query_lengths), (codes, lengths) = encode([q for q, _ in pairs]), encode([t for _, t in pairs])
    assert alignment.match_bound((query_codes, query_lengths), (codes, lengths)).tolist() == expected
    # codes as bytes, query rows padded past LCS_WORD, targets padded past their longest
    wide_queries = encode([q for q, _ in pairs] + ["K" * 90])[0][:-1].astype(np.uint8)
    padded = np.hstack([codes, np.full((len(pairs), 7), len(RESIDUES))]).astype(np.uint8)
    assert alignment.match_bound((wide_queries, query_lengths), (padded, lengths)).tolist() == expected
    # one query broadcast against every target, as callers pass it
    targets = [t for _, t in pairs]
    for query in ("W", pairs[100][0], "K" * 64):
        got = alignment.match_bound(_against(query, len(targets)), encode(targets))
        assert got.tolist() == [alignment_oracle.lcs(query, t) for t in targets]


def test_match_bound_edge_cases():
    assert alignment.match_bound(_against("KLW", 0), encode([])).shape == (0,)
    assert alignment.match_bound(encode([]), encode([])).shape == (0,)
    with pytest.raises(ValueError, match="2 queries for 3 targets"):
        alignment.match_bound(_against("KLW", 2), encode(["KLW"] * 3))
    with pytest.raises(ValueError, match="cannot align an empty sequence"):
        alignment.match_bound(_against("KLW", 2), encode(["KLW", ""]))
    with pytest.raises(ValueError, match="cannot align an empty sequence"):
        alignment.match_bound(_against("K" * 70, 2), encode(["KLW", ""]))
    # a query past the word is bounded by the shorter length
    assert alignment.match_bound(encode(["K" * 65, "K"]), encode(["L" * 66, "K"])).tolist() == [65, 1]


def test_match_bound_is_the_lcs_up_to_the_word_then_the_shorter_length():
    rng = np.random.default_rng(17)
    pairs = _lcs_pairs(rng)[:60]
    # queries past the word among short ones, against a near copy, a prefix and a longer target
    for length in (65, 70, 80):
        query = "".join(rng.choice(list(RESIDUES), size=length))
        pairs += [(query, near_copy(rng, query, max_len=90)), (query, query[:30]), (query[:40], query)]
    expected = [alignment_oracle.lcs(q, t) if len(q) <= alignment.LCS_WORD else min(len(q), len(t)) for q, t in pairs]
    queries, targets = encode([q for q, _ in pairs]), encode([t for _, t in pairs])
    bound = alignment.match_bound(queries, targets)
    assert bound.tolist() == expected
    # it bounds the matches of the optimal global and local alignments
    for local in (False, True):
        _, matches, _ = search(queries, targets, local=local)
        assert np.all(matches <= bound), local


def test_local_self_alignment_is_full_length():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = _rand_seq(rng, 8, 20)
        aln = align_local(a, a)
        assert aln.identity == pytest.approx(1.0)
        assert aln.columns == len(a)
        assert aln.query_span == (0, len(a))


def test_disjoint_alphabets_give_no_hit():
    assert align_local("KKKK", "DDDD") is None


def test_unknown_residue_is_rejected():
    with pytest.raises(ValueError, match="substitution"):
        align_global("AB", "AA")
    with pytest.raises(ValueError, match="substitution"):
        align_local("AXA", "AAA")


def test_bits_and_evalue_conversions():
    score = 100.0
    bits = approximate_bits(score)
    assert bits == pytest.approx((0.267 * score - math.log(0.041)) / math.log(2.0))
    ev = approximate_evalue(bits, query_len=22, db_residues=1000)
    assert ev == pytest.approx(22 * 1000 * 2.0 ** (-bits))


def test_make_hit_and_hit_table_formatting():
    q = Peptide("q1", "KLWKKLLKKWLKKLWKKLLK", "generated_rl")
    t = Peptide("UniRef_T", "KLWKKLLKKWLKKLWKKLLK", "external")
    aln = align_local(q.residues, t.residues)
    hit = make_hit(q, t, aln.score, aln.matches, aln.columns, db_residues=len(t.residues))
    assert hit.identity_pct == 100.0
    assert hit.length == 20
    buf = io.StringIO()
    write_hit_table([hit], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split("\t") == list(HIT_COLUMNS)
    row = lines[1].split("\t")
    assert row[0] == "q1" and row[1] == "UniRef_T"
    assert row[2] == "100" and row[3] == "20"


def test_evalue_string_keeps_scientific_form():
    hit = SimilarityHit(query="a", target="b", identity_pct=100.0, length=22, evalue=3.54e-07, bits=48.5)
    buf = io.StringIO()
    write_hit_table([hit], buf)
    row = buf.getvalue().splitlines()[1].split("\t")
    assert row[4] == "3.54E-07"
    assert row[5] == "48.5"


def test_similarity_hit_validation():
    with pytest.raises(ValueError):
        SimilarityHit(query="a", target="b", identity_pct=120.0, length=5, evalue=1.0, bits=1.0)
    with pytest.raises(ValueError):
        SimilarityHit(query="a", target="b", identity_pct=50.0, length=0, evalue=1.0, bits=1.0)


class _FixedScorer:
    def score_many(self, peptides):
        return np.full(len(peptides), 0.9)


def _best_hits(queries, reference):
    # novelty_filter is the one best-hit search: it keeps one hit per query
    _, _, hits = novelty_filter(annotate(queries, _FixedScorer()), reference, ScreenConfig())
    return {h.query: h for h in hits}


def test_best_hits_break_score_ties_by_target_id():
    q = Peptide("q", "KLWKKLLKKW", "generated_sft")
    twin_a = Peptide("tgt_b", "KLWKKLLKKW", "external")
    twin_b = Peptide("tgt_a", "KLWKKLLKKW", "external")
    hits = _best_hits([q], [twin_a, twin_b])
    assert hits["q"].target == "tgt_a"


def test_best_hits_skips_queries_without_alignment():
    q = Peptide("q", "KKKKKKKK", "generated_sft")
    hits = _best_hits([q], [Peptide("t", "DDDDDDDD", "external")])
    assert hits == {}
