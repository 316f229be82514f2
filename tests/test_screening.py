"""Virtual screening: filters, novelty, prioritization, diversity, library build.

The screening functions work on one `PeptideTable` and return rows of it;
the differential tests check them, and the `screen` and `build-library`
commands, against the per-record path in `tests/screening_oracle.py`.
"""
import io
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from amprl.alignment import LCS_WORD, SimilarityHit, write_hit_table
from amprl.cli import main
from amprl.mic import Embedder, MicConfig, MicModel
from amprl.physchem import DEFAULT_SCALE, load_scale_overrides
from amprl.policy import ModelConfig, PolicyModel
from amprl.screening import (
    _novelty_bounds,
    ScreenConfig,
    annotate,
    build_library,
    default_property_windows,
    diversity_select,
    novelty_filter,
    prioritize,
    read_external_scores,
    screen,
)
from amprl.sequences import Peptide, parse_fasta, write_fasta, write_records

import alignment_oracle
import screening_oracle
import writer_oracle
from conftest import RESIDUES, near_copy, random_peptides, unique_random_peptides


class TableScorer:
    """Fixed score per residue string; unknown sequences get the default."""

    def __init__(self, table=None, default=0.9):
        self.table = table or {}
        self.default = default

    def score_many(self, peptides):
        return np.array([self.table.get(p.residues, self.default) for p in peptides])


def _table(peptides, scores=None, default=0.9, external=None):
    return annotate(peptides, TableScorer(scores, default), external_scores=external)


def _ids(table, rows=None):
    return [table.peptides[i].id for i in (range(len(table)) if rows is None else rows)]


def _rejected(table):
    """Each rejected row's id and reasons."""
    return {p.id: r for p, r in zip(table.peptides, table.reasons) if r}


def _pep(pid, residues, source="generated_sft"):
    return Peptide(pid, residues, source)


def test_screen_rejects_below_cutoff_and_keeps_at_cutoff():
    peps = [_pep("low", "KLWKLWKLWKLW"), _pep("edge", "KWLKWLKWLKWL"), _pep("high", "LWKLWKLWKLWK")]
    table = screen(_table(peps, {"KLWKLWKLWKLW": 0.39, "KWLKWLKWLKWL": 0.40, "LWKLWKLWKLWK": 0.95}), ScreenConfig())
    assert _rejected(table) == {"low": ("mic_score",)}
    assert _ids(table, table.kept()) == ["edge", "high"]
    buf = io.StringIO()
    write_records(table, "jsonl", buf)
    assert [json.loads(line)["verdict"] for line in buf.getvalue().splitlines()] == ["rejected", "kept", "kept"]


def test_screen_rejects_over_length():
    table = screen(_table([_pep("long", "K" * 55), _pep("ok", "KLWKLWKLWK")]), ScreenConfig())
    assert list(_rejected(table)) == ["long"]
    assert "length" in _rejected(table)["long"]


def test_screen_lists_every_failed_filter_in_order():
    table = _table([_pep("bad", "K" * 55)], default=0.1)
    cfg = ScreenConfig(forbidden_motifs=("KKKK",))
    assert screen(table, cfg).reasons == [("mic_score", "length", "motif:KKKK")]


def test_screen_partitions_input():
    rng = np.random.default_rng(0)
    peps = unique_random_peptides(30, rng, source="generated_sft")
    scores = {p.residues: float(s) for p, s in zip(peps, rng.uniform(size=30))}
    table = screen(_table(peps, scores), ScreenConfig())
    assert table.peptides == peps  # one row per candidate, in candidate order
    assert set(_ids(table, table.kept())).isdisjoint(_rejected(table))
    assert len(table.kept()) + len(_rejected(table)) == 30


def test_property_window_filters():
    cfg = ScreenConfig(
        mic_cutoff=0.0,
        hydrophobicity_window=(-0.5, 0.8),
        moment_window=(0.0, 0.6),
        charge_window=(-5.0, 9.0),
        isoelectric_window=(8.0, 11.0),
    )
    # all-D peptide: very negative charge and acidic pI fall outside the windows
    (reasons,) = screen(_table([_pep("acidic", "D" * 20)], default=0.9), cfg).reasons
    assert "net_charge" in reasons
    assert "isoelectric_point" in reasons


def test_external_minimum_filter():
    cfg = ScreenConfig(external_minimums=(("plddt", 0.8),))
    peps = [_pep("good", "KLWKLWKLWKLW"), _pep("floppy", "KWLKWLKWLKWL")]
    external = {"KLWKLWKLWKLW": {"plddt": 0.92}, "KWLKWLKWLKWL": {"plddt": 0.4}}
    table = screen(_table(peps, external=external), cfg)
    assert _ids(table, table.kept()) == ["good"]
    assert _rejected(table) == {"floppy": ("external:plddt",)}


def test_external_minimum_missing_score_is_an_error():
    cfg = ScreenConfig(external_minimums=(("plddt", 0.8),))
    table = _table([_pep("x", "KLWKLWKLWKLW")])
    with pytest.raises(ValueError, match="plddt"):
        screen(table, cfg)


def test_screen_config_validation():
    with pytest.raises(ValueError):
        ScreenConfig(mic_cutoff=1.5)
    with pytest.raises(ValueError):
        ScreenConfig(novelty_coverage=0.0)
    with pytest.raises(ValueError):
        ScreenConfig(min_length=10, max_length=5)
    with pytest.raises(ValueError, match="forbidden motif 'KK' is listed more than once"):
        ScreenConfig(forbidden_motifs=("KK", "W", "KK"))
    with pytest.raises(ValueError, match="external minimum 'plddt' is listed more than once"):
        ScreenConfig(external_minimums=(("plddt", 0.5), ("helix", 0.1), ("plddt", 0.2)))
    # a motif inside another is no repeat
    assert ScreenConfig(forbidden_motifs=("KK", "KKK")).forbidden_motifs == ("KK", "KKK")


def test_novelty_removes_exact_duplicates_and_close_variants():
    # identical references: the best hit breaks the score tie by target id
    reference = [Peptide(pid, "KLWKKLLKKWLKKLWKKLLK", "natural") for pid in ("ref_b", "ref_a")]
    # two substitutions in a 20-mer: 90% identity at full coverage
    variant = "ALWKKLLKKWLKKLWKKLLA"
    candidates = _table(
        [
            _pep("dup", "KLWKKLLKKWLKKLWKKLLK"),
            _pep("var90", variant),
            _pep("far", "DEGSDEGSDEGSDEGSDEGS"),
        ]
    )
    kept, removed, hits = novelty_filter(candidates, reference, ScreenConfig())
    assert _ids(candidates, removed) == ["dup", "var90"]
    assert _ids(candidates, kept) == ["far"]
    assert _rejected(candidates.reject(removed, "novelty")) == {"dup": ("novelty",), "var90": ("novelty",)}
    by_query = {h.query: h for h in hits}
    assert by_query["dup"].target == "ref_a"
    assert by_query["dup"].identity_pct == 100.0
    assert by_query["dup"].length == 20


def test_novelty_keeps_low_coverage_matches():
    # the candidate shares a 10-residue block, half of its 20 residues
    reference = [Peptide("ref", "KLWKKLLKKW", "natural")]
    candidate = _pep("half", "KLWKKLLKKW" + "DEGSDEGSDE")
    kept, removed, hits = novelty_filter(_table([candidate]), reference, ScreenConfig())
    assert kept.tolist() == [0]
    assert removed.tolist() == []
    assert hits and hits[0].identity_pct == 100.0  # matched block aligns perfectly


def test_novelty_requires_reference():
    with pytest.raises(ValueError, match="reference"):
        novelty_filter(_table([_pep("x", "KLWKLWKLWKLW")]), [], ScreenConfig())


def test_novelty_with_disjoint_reference_keeps_everything():
    reference = [Peptide("ref", "DDDDDDDDDD", "natural")]
    kept, removed, hits = novelty_filter(_table([_pep("x", "KKKKKKKKKK")]), reference, ScreenConfig())
    assert kept.tolist() == [0]
    assert removed.tolist() == [] and hits == []


# the identity x coverage grid the novelty bounds are checked on: identity
# 0.75 and below leaves only the match bound, 0.76 the loosest score bound
NOVELTY_CONFIGS = [
    ScreenConfig(novelty_identity=identity, novelty_coverage=coverage)
    for identity in (0.5, 0.75, 0.76, 0.9, 1.0)
    for coverage in (0.1, 0.7, 1.0)
]

# pairs within 10% of a bound, so that a bound 10% higher drops a similar pair:
# - identity exactly 0.5 over 60 columns, just above 0.7 of 85 residues, and
#   its 30 matches are a longest common subsequence: an LCS of 30 against
#   0.5 * 0.7 * 85 = 29.75;
# - identity 1 over 15 columns of residues whose matches score the least,
#   just above 0.7 of 20 residues: a score of 60 against 4 * 0.7 * 20 = 56
TIGHT_PAIRS = [("IL" * 30 + "D" * 25, "I" * 60), ("AILSV" * 3 + "DDDDD", "AILSV" * 3)]


def _similar(query, target, cfg):
    aln = alignment_oracle.cached_align_local(query, target)
    return aln is not None and aln.columns > cfg.novelty_coverage * len(query) and aln.identity >= cfg.novelty_identity


@pytest.mark.parametrize("cfg", NOVELTY_CONFIGS, ids=lambda c: f"{c.novelty_identity}-{c.novelty_coverage}")
def test_novelty_bounds_never_drop_a_similar_pair(cfg):
    # random pairs of 1-40 residues, near copies with substitutions and indels,
    # and the tight pairs; `match_bound` is never below the LCS
    rng = np.random.default_rng(23)
    pairs = [tuple("".join(rng.choice(list(RESIDUES), size=rng.integers(1, 41))) for _ in "ab") for _ in range(150)]
    pairs += [(a, near_copy(rng, a)) for a, _ in pairs] + TIGHT_PAIRS
    similar = 0
    for query, target in pairs:
        matches, score = _novelty_bounds(len(query), cfg)
        aln = alignment_oracle.cached_align_local(query, target)
        admitted = alignment_oracle.lcs(query, target) > matches and (score is None or (aln is not None and aln.score > score))
        if _similar(query, target, cfg):
            similar += 1
            assert admitted, (query, target)
    assert similar > 0 or cfg.novelty_coverage == 1.0


def test_tight_pairs_sit_within_a_tenth_of_their_bound():
    identity_half, identity_one = (ScreenConfig(novelty_identity=i, novelty_coverage=0.7) for i in (0.5, 1.0))
    (query, target), (block, copy) = TIGHT_PAIRS
    assert _similar(query, target, identity_half)
    matches, _ = _novelty_bounds(len(query), identity_half)
    assert matches < alignment_oracle.lcs(query, target) <= 1.1 * (matches + 1) - 1
    assert _similar(block, copy, identity_one)
    _, score = _novelty_bounds(len(block), identity_one)
    assert score < alignment_oracle.cached_align_local(block, copy).score <= 1.1 * (score + 1) - 1


def _novelty_fixture():
    """References and candidates that reach every branch of the novelty filter.

    No reference holds C, so the all-C candidate has no positive hit. Two
    references share a sequence under ids listed in reverse order, so a best
    hit ties on score. The W-led candidate's best hit (three substitutions, 85%
    identity) is not its only similar pair at identity 0.9, which is a shorter
    exact copy. Each TIGHT_PAIRS query is a candidate with its target among the
    references, and its best hit is another reference, which is not similar
    under the config that its tight pair is similar under. A candidate longer
    than LCS_WORD has a near copy among the references.
    """
    rng = np.random.default_rng(22)
    reference = [
        Peptide(p.id, p.residues.replace("C", "A"), p.source)
        for p in unique_random_peptides(80, rng, min_len=8, max_len=40, prefix="ref", source="external")
    ]
    # one sequence under two ids, listed in reverse id order: a best-hit score tie
    reference += [Peptide(pid, reference[7].residues, "external") for pid in ("aaa_b", "aaa_a")]
    block = "KLAKKLAKKLAKKLAK"
    subst3 = "WWWW" + "E" + block[1:7] + "E" + block[8:14] + "EK"
    reference += [Peptide("exact16", block, "external"), Peptide("subst3", subst3, "external")]
    reference += [Peptide(f"tight{k}", target, "external") for k, (_, target) in enumerate(TIGHT_PAIRS)]
    reference += [Peptide("over0", "IL" * 25, "external"), Peptide("over1", "AILSV" * 3 + "DDDDE", "external")]
    picks = rng.choice(80, size=24, replace=False)
    candidates = [_pep(f"near{k}", near_copy(rng, reference[int(k)].residues)) for k in picks]
    candidates += [_pep("copy7", reference[7].residues), _pep("lone", "CCCCCCCC"), _pep("wled", "WWWW" + block)]
    candidates += [_pep(f"at_bound{k}", query) for k, (query, _) in enumerate(TIGHT_PAIRS)]
    candidates += unique_random_peptides(10, rng, min_len=8, max_len=40, prefix="new")
    long = "".join(rng.choice(list(RESIDUES.replace("C", "")), size=70))
    candidates.append(_pep("long", long))
    reference.append(Peptide("long_copy", near_copy(rng, long, max_len=80).replace("C", "A"), "external"))
    return _table(candidates), reference


def _novelty_outputs(hits, write, rows):
    """The hit table and the JSONL of `rows`, as text."""
    table, screened = io.StringIO(), io.StringIO()
    write_hit_table(hits, table)
    write(rows, "jsonl", screened)
    return table.getvalue(), screened.getvalue()


@pytest.mark.parametrize("cfg", NOVELTY_CONFIGS, ids=lambda c: f"{c.novelty_identity}-{c.novelty_coverage}")
def test_novelty_filter_matches_per_pair_oracle(cfg):
    table, reference = _novelty_fixture()
    kept, removed, hits = novelty_filter(table, reference, cfg)
    outputs = [_novelty_outputs(hits, write_records, table.reject(removed, "novelty").take(np.concatenate([kept, removed])))]
    records = screening_oracle.annotate(table.peptides, TableScorer())
    for run in (alignment_oracle.novelty_filter_per_candidate, alignment_oracle.novelty_filter):
        kept, removed, hits = run(records, reference, cfg)
        outputs.append(_novelty_outputs(hits, writer_oracle.write_records, kept + removed))
    assert outputs[0] == outputs[1] == outputs[2]
    assert "copy7\taaa_a\t" in outputs[0][0]
    assert "lone\t" not in outputs[0][0]
    assert "wled\tsubst3\t" in outputs[0][0]
    assert "at_bound0\tover0\t" in outputs[0][0] and "at_bound1\tover1\t" in outputs[0][0]


def test_novelty_fixture_reaches_each_case():
    table, reference = _novelty_fixture()
    by_id = {p.id: p.residues for p in table.peptides}
    strict = ScreenConfig(novelty_identity=0.9, novelty_coverage=0.7)
    similar = [t.id for t in reference if _similar(by_id["wled"], t.residues, strict)]
    assert similar == ["exact16"]
    assert len(by_id["long"]) > LCS_WORD
    assert [t.id for t in reference if _similar(by_id["long"], t.residues, strict)] == ["long_copy"]
    for k, (_, target) in enumerate(TIGHT_PAIRS):
        cfg = ScreenConfig(novelty_identity=(0.5, 1.0)[k], novelty_coverage=0.7)
        assert [t.id for t in reference if _similar(by_id[f"at_bound{k}"], t.residues, cfg)] == [f"tight{k}"]
    kept, removed, _ = novelty_filter(table, reference, strict)
    assert len(kept) and len(removed)


def test_novelty_filter_of_no_candidates():
    reference = [Peptide("ref", "KLWKKLLKKW", "natural")]
    kept, removed, hits = novelty_filter(_table([]), reference, ScreenConfig())
    assert (kept.tolist(), removed.tolist(), hits) == ([], [], [])


@pytest.mark.parametrize("identity", [0.9, 0.5])
def test_novelty_filter_memory_grows_linearly(identity):
    # one candidate's pairs are scored at a time, and only the admitted pairs are tallied
    table = _table(unique_random_peptides(10, np.random.default_rng(5), min_len=8, max_len=40, prefix="cand"))
    peaks = {}
    for n in (300, 600):
        reference = unique_random_peptides(n, np.random.default_rng(n), min_len=8, max_len=40, prefix="ref")
        tracemalloc.start()
        try:
            novelty_filter(table, reference, ScreenConfig(novelty_identity=identity))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[600] <= 2.5 * peaks[300], peaks


def test_novelty_filter_memory_grows_with_the_sets_not_their_product():
    # at identity 0.5 most pairs are tallied. Doubling the candidates and the
    # references together quadruples the pairs, but memory linear in the two
    # sets at most doubles: a chunk holds about NOVELTY_PAIRS pairs
    peaks = {}
    for n in (1, 2):
        rng = np.random.default_rng(30 + n)
        table = _table(unique_random_peptides(20 * n, rng, min_len=8, max_len=40, prefix="cand"))
        reference = unique_random_peptides(300 * n, rng, min_len=8, max_len=40, prefix="ref")
        tracemalloc.start()
        try:
            novelty_filter(table, reference, ScreenConfig(novelty_identity=0.5))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 2 * peaks[1], peaks


def test_prioritize_reads_hit_identity_as_max_identity_by_query_did():
    # every candidate scores the same, so window counts, hit identities and residues decide
    table, reference = _novelty_fixture()
    _, _, hits = novelty_filter(table, reference, ScreenConfig(novelty_identity=1.0, novelty_coverage=1.0))
    assert len({h.identity_pct for h in hits}) > 5
    windows = default_property_windows()
    records = screening_oracle.annotate(table.peptides, TableScorer())
    want = screening_oracle.prioritize(records, windows, screening_oracle.max_identity_by_query(hits))
    assert _ids(table, prioritize(table, windows, hits)) == [r.peptide.id for r in want]


def _hit(query, identity_pct):
    return SimilarityHit(query, "ref", identity_pct, 10, 1.0, 1.0)


def test_prioritize_rank_keys():
    strong = _pep("strong", "GKWLKVLKGWLKGL")
    weak = _pep("weak", "GLWLKVLKGWLKGK")
    in_windows = _pep("inwin", "GIWGKVLKGWLKGL")
    off_window = _pep("offwin", "DEDEDEDEDEDEDE")
    # identical residues so score and window count tie exactly; only the
    # reference-identity annotation separates them
    novel = _pep("novel", "GKWAKVLKGWLKGA")
    familiar = _pep("famil", "GKWAKVLKGWLKGA")
    scores = {
        strong.residues: 0.9,
        weak.residues: 0.5,
        in_windows.residues: 0.7,
        off_window.residues: 0.7,
        novel.residues: 0.6,
    }
    table = _table([weak, strong, off_window, in_windows, familiar, novel], scores)
    ids = _ids(table, prioritize(table, default_property_windows(), [_hit("novel", 20.0), _hit("famil", 95.0)]))
    assert ids[0] == "strong"  # highest score first
    assert ids.index("inwin") < ids.index("offwin")  # window count breaks the 0.7 tie
    assert ids.index("novel") < ids.index("famil")  # smaller reference identity wins at 0.6
    assert sorted(ids) == sorted(_ids(table))


def test_prioritize_final_tiebreak_is_lexicographic():
    a = _pep("z_first", "AKLWKLWKLW")
    b = _pep("a_second", "CKLWKLWKLW")
    table = _table([b, a], default=0.5)
    assert _ids(table, prioritize(table, default_property_windows())) == ["z_first", "a_second"]


def test_prioritize_matches_the_per_record_oracle_on_ties():
    # scores from a three-value table, so many rows tie on score and on the window count;
    # residues repeat under other ids, and some rows are rejected before ranking
    rng = np.random.default_rng(41)
    base = random_peptides(30, rng, min_len=1, max_len=20, source="generated_sft")
    peptides = base + [_pep(f"twin{k}", p.residues) for k, p in enumerate(base[::3])]
    peptides += [_pep("allk", "K" * 12), _pep("alld", "D" * 12), _pep("k1", "K")]
    scores = {p.residues: float(rng.choice([0.3, 0.6, 0.9])) for p in peptides}
    hits = [_hit(p.id, float(rng.choice([0.0, 40.0, 100.0]))) for p in peptides[::2]]
    cfg = ScreenConfig(min_length=2)
    table = screen(_table(peptides, scores), cfg)
    kept, _ = screening_oracle.screen(screening_oracle.annotate(peptides, TableScorer(scores)), cfg)
    for windows in (default_property_windows(), {}, {"net_charge": (-1.0, 1.0)}):
        want = screening_oracle.prioritize(kept, windows, screening_oracle.max_identity_by_query(hits))
        assert _ids(table, prioritize(table, windows, hits)) == [r.peptide.id for r in want]
    assert _ids(table, prioritize(_table([]), default_property_windows())) == []


def _embed_from(points, table):
    """Embedding matrix of a table, row i from the point of row i's sequence."""
    return np.array([points[p.residues] for p in table.peptides], dtype=float)


def test_diversity_select_returns_all_when_k_covers_input():
    table = _table([_pep("a", "KLWKLWKLWK"), _pep("b", "WLKWLKWLKW")])
    out = diversity_select(np.arange(2), 5, _embed_from({"KLWKLWKLWK": [0.0], "WLKWLKWLKW": [1.0]}, table))
    assert _ids(table, out) == ["a", "b"]


def test_diversity_select_prefers_the_distinct_candidate():
    # two near-identical points and one far away; k=2 must take the far one
    seqs = {"KLWKLWKLWK": [0.0, 0.0], "KLWKLWKLWW": [0.01, 0.0], "DDDDDDDDDD": [5.0, 5.0]}
    table = _table([_pep("a", "KLWKLWKLWK"), _pep("twin", "KLWKLWKLWW"), _pep("far", "DDDDDDDDDD")])
    out = diversity_select(np.arange(3), 2, _embed_from(seqs, table))
    assert _ids(table, out) == ["a", "far"]


def _min_pairwise(points):
    return min(
        float(np.linalg.norm(np.asarray(p) - np.asarray(q)))
        for p, q in itertools.combinations(points, 2)
    )


def test_diversity_select_matches_brute_force_on_separated_fixture():
    # 8 points in 4 well-separated clusters; greedy max-min should find the
    # optimum that brute force over all subsets containing the seed reports
    rng = np.random.default_rng(1)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    coords = []
    for c in centers:
        coords.append(c + rng.normal(scale=0.05, size=2))
        coords.append(c + rng.normal(scale=0.05, size=2))
    seqs = ["".join(rng.choice(list("KLWG"), size=10)) for _ in range(8)]
    points = {s: coords[i] for i, s in enumerate(seqs)}
    table = _table([_pep(f"c{i}", s) for i, s in enumerate(seqs)])

    for k in (2, 3, 4):
        chosen = diversity_select(np.arange(8), k, _embed_from(points, table))
        chosen_points = [points[table.peptides[i].residues] for i in chosen]
        greedy_min = _min_pairwise(chosen_points)
        # brute force over all k-subsets that include the seed (row 0)
        rest = list(range(1, 8))
        best = max(
            _min_pairwise([coords[0]] + [coords[i] for i in combo])
            for combo in itertools.combinations(rest, k - 1)
        )
        assert greedy_min == pytest.approx(best, rel=1e-9)
        # and it beats random subsets containing the seed
        for _ in range(20):
            pick = [0] + list(rng.choice(rest, size=k - 1, replace=False))
            assert greedy_min >= _min_pairwise([coords[i] for i in pick]) - 1e-12


def test_read_external_scores(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text(
        '{"sequence": "KLWKLWKLWK", "scores": {"plddt": 0.9, "hemolysis": 0.1}}\n'
        '{"sequence": "DDDDDDDDDD", "scores": {"plddt": 0.3}}\n'
    )
    table = read_external_scores(path)
    assert table["KLWKLWKLWK"]["plddt"] == 0.9
    assert table["DDDDDDDDDD"] == {"plddt": 0.3}
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"sequence": "KKKK"}\n')
    with pytest.raises(ValueError, match="line 1"):
        read_external_scores(bad)


def test_read_external_scores_normalizes_sequences_as_fasta_does(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"sequence": " klwk\\t", "scores": {"plddt": 0.5}}\n')
    assert read_external_scores(path) == {"KLWK": {"plddt": 0.5}}
    assert _table([_pep("a", "KLWK")], external=read_external_scores(path)).external == [{"plddt": 0.5}]


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        (['"KLWK"', '"klwk"'], "line 2: sequence KLWK repeats line 1"),
        (['"KLWK"', '"KLXK"'], "line 2: invalid residue 'X'"),
        (['"KL-WK"'], "line 1: invalid residue '-'"),
        (['"  "'], "line 1: empty sequence"),
        (["42"], "line 1: 'sequence' must be a string"),
    ],
)
def test_read_external_scores_rejects_bad_sequences(tmp_path, rows, message):
    path = tmp_path / "scores.jsonl"
    path.write_text("".join(f'{{"sequence": {seq}, "scores": {{"plddt": 0.1}}}}\n' for seq in rows))
    with pytest.raises(ValueError, match=re.escape(f"{path} {message}")):
        read_external_scores(path)


def _tiny_policy(max_len=6):
    cfg = ModelConfig(embed_dim=16, n_layers=1, n_heads=2, max_len=max_len, mlp_ratio=2, init_std=0.02)
    return PolicyModel.init(cfg, seed=0)


def test_build_library_reaches_target_with_partitioned_stats(tmp_path):
    cfg = ScreenConfig(min_length=2, max_length=6, batch_size=64)
    table, stats = build_library(
        _tiny_policy(), TableScorer(), 25, cfg, seed=3, out_dir=tmp_path
    )
    assert len(table) == 25
    assert {p.source for p in table.peptides} == {"generated_sft"}  # no LoRA on the policy
    residues = [p.residues for p in table.peptides]
    assert len(set(residues)) == 25
    assert stats["library_size"] == 25
    for row in stats["filters"]:
        assert row["pass"] + row["fail"] == row["total"]
    names = [row["filter"] for row in stats["filters"]]
    assert names == ["length", "duplicate", "surplus"]
    chain = stats["filters"]
    assert chain[0]["total"] == stats["sampled_total"]
    assert chain[1]["total"] == chain[0]["pass"]
    assert chain[2]["total"] == chain[1]["pass"]
    assert chain[2]["pass"] == 25
    for name in ("library.fasta", "library.jsonl", "library_stats.json"):
        assert (tmp_path / name).exists()


def test_build_library_is_seed_deterministic(tmp_path):
    cfg = ScreenConfig(min_length=2, max_length=6, batch_size=64)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    build_library(_tiny_policy(), TableScorer(), 15, cfg, seed=11, out_dir=a_dir)
    build_library(_tiny_policy(), TableScorer(), 15, cfg, seed=11, out_dir=b_dir)
    for name in ("library.fasta", "library.jsonl", "library_stats.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_build_library_stagnation_aborts(tmp_path):
    # a 1-residue budget admits only 20 distinct sequences; asking for 50
    # guarantees whole batches of duplicates once the alphabet is exhausted
    cfg = ScreenConfig(min_length=1, max_length=50, batch_size=64, stagnation_fraction=0.9)
    with pytest.raises(RuntimeError, match="dupl|stagna"):
        build_library(_tiny_policy(max_len=1), TableScorer(), 50, cfg, seed=2, out_dir=tmp_path)


def test_build_library_stops_before_sampling_when_no_length_fits_the_policy(tmp_path, monkeypatch):
    import amprl.screening as screening

    calls = []
    real = screening.sample
    monkeypatch.setattr(screening, "sample", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    # a 20-30 window on a policy that stops at 10 residues once sampled 10,688 draws before giving up
    cfg = ScreenConfig(min_length=20, max_length=30, batch_size=16)
    message = "no length in the screen window [20, 30] is at most the policy's max_len 10"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_library(_tiny_policy(max_len=10), TableScorer(), 50, cfg, seed=0, out_dir=tmp_path)
    assert calls == [] and not list(tmp_path.iterdir())
    # a window whose shortest length is max_len itself samples
    table, _ = build_library(_tiny_policy(max_len=6), TableScorer(), 2, ScreenConfig(min_length=6, max_length=9), seed=0, out_dir=tmp_path)
    assert calls and [len(p) for p in table.peptides] == [6, 6]


def test_build_library_rejects_bad_target(tmp_path):
    with pytest.raises(ValueError):
        build_library(_tiny_policy(), TableScorer(), 0, ScreenConfig(), seed=0, out_dir=tmp_path)


# --- the table path against the per-record oracle, end to end ---------------

SCREEN_FILES = ("hits.tsv", "screened.jsonl", "selected.fasta", "selected.jsonl")
ALL_FILTERS = {
    "mic_cutoff": 0.3,
    "min_length": 5,
    "max_length": 40,
    "hydrophobicity_window": [-1.0, 0.5],
    "moment_window": [0.0, 0.6],
    "charge_window": [-3.0, 6.0],
    "isoelectric_window": [4.0, 12.0],
    "forbidden_motifs": ["KKK", "WW"],
    "external_minimums": [["plddt", 0.2]],
    "diversity_k": 5,
}
# case -> (screen section, the reason it must show, a classifier on another scale, a reference set)
SCREEN_CASES = {
    "mic_score": ({"mic_cutoff": 0.5}, "mic_score", False, True),
    "length": ({"mic_cutoff": 0.0, "min_length": 10, "max_length": 30}, "length", False, True),
    "hydrophobicity": ({"mic_cutoff": 0.0, "hydrophobicity_window": [-0.5, 0.8]}, "hydrophobicity", False, True),
    "moment": ({"mic_cutoff": 0.0, "moment_window": [0.0, 0.6]}, "hydrophobic_moment", False, True),
    "charge": ({"mic_cutoff": 0.0, "charge_window": [-2.0, 5.0]}, "net_charge", False, True),
    "isoelectric": ({"mic_cutoff": 0.0, "isoelectric_window": [8.0, 11.0]}, "isoelectric_point", False, True),
    "motif": ({"mic_cutoff": 0.0, "forbidden_motifs": ["KK", "W"]}, "motif:KK", False, True),
    "external": ({"mic_cutoff": 0.0, "external_minimums": [["plddt", 0.5]]}, "external:plddt", False, True),
    "novelty": ({"mic_cutoff": 0.0, "diversity_k": 1}, "novelty", False, True),
    "all": (ALL_FILTERS, "motif:KKK", False, True),
    "none_kept": ({"mic_cutoff": 1.0}, "mic_score", False, True),
    "other_scale": (ALL_FILTERS, "external:plddt", True, True),
    "no_reference": (ALL_FILTERS, "length", False, False),
}


def _save_classifier(path, scale=DEFAULT_SCALE):
    """An untrained classifier on `scale`; its scores spread over (0,1)."""
    embedder = Embedder(scale)
    embedder.fit(embedder.features(unique_random_peptides(40, np.random.default_rng(7), min_len=5, max_len=40)))
    MicModel.init(embedder, MicConfig(hidden=(8,)), seed=0).save(path)
    return path


def _screen_inputs(root):
    """Candidates of 1-50 residues (copies and near copies of references, all-K and all-D
    peptides, residues repeated under another id, one that fails most filters at once),
    references, external scores, a classifier on the default scale and a scale override file."""
    rng = np.random.default_rng(43)
    reference = unique_random_peptides(20, rng, min_len=8, max_len=40, prefix="ref", source="external")
    candidates = random_peptides(40, rng, min_len=1, max_len=50, prefix="cand")
    candidates += [Peptide(f"near{k}", near_copy(rng, t.residues)) for k, t in enumerate(reference[:8])]
    candidates += [Peptide("copy", reference[0].residues), Peptide("allk", "K" * 20), Peptide("alld", "D" * 20)]
    candidates += [Peptide("twin", candidates[3].residues), Peptide("spiky", "RKKKRRWWR" * 5)]
    write_fasta(candidates, root / "candidates.fasta")
    write_fasta(reference, root / "reference.fasta")
    scores = {p.residues: {"plddt": float(rng.uniform())} for p in candidates}
    scores["RKKKRRWWR" * 5] = {"plddt": 0.0}
    (root / "scores.jsonl").write_text("".join(json.dumps({"sequence": s, "scores": v}) + "\n" for s, v in scores.items()))
    (root / "scale.txt").write_text("hydropathy K 3.0\nhydropathy L -2.0\npka H 7.5\n")
    _save_classifier(root / "mic.ckpt")


def _screen_argv(root, out, reference=True, **sections):
    (root / "config.json").write_text(json.dumps(sections))
    argv = ["screen", "--config", str(root / "config.json"), "--input", str(root / "candidates.fasta")]
    argv += ["--mic-model", str(root / "mic.ckpt"), "--external-scores", str(root / "scores.jsonl")]
    return argv + (["--reference", str(root / "reference.fasta")] if reference else []) + ["--output-dir", str(out)]


@pytest.mark.parametrize("case", list(SCREEN_CASES))
def test_screen_cli_matches_the_per_record_oracle(tmp_path, capsys, case):
    from amprl.config import build_run, load_config

    section, reason, other_scale, with_reference = SCREEN_CASES[case]
    _screen_inputs(tmp_path)
    scales = {"overrides": str(tmp_path / "scale.txt") if other_scale else None}
    assert main(_screen_argv(tmp_path, tmp_path / "out", with_reference, screen=section, scales=scales)) == 0
    run = build_run(load_config(str(tmp_path / "config.json")))
    scorer = MicModel.load(tmp_path / "mic.ckpt")
    assert (scorer.embedder.scale != run.scales) == other_scale
    reference = parse_fasta(tmp_path / "reference.fasta", source="external") if with_reference else None
    screening_oracle.screen_artifacts(
        parse_fasta(tmp_path / "candidates.fasta"),
        scorer,
        read_external_scores(tmp_path / "scores.jsonl"),
        reference,
        run.screen,
        default_property_windows(run.reward),
        alignment_oracle.novelty_filter_per_candidate,
        tmp_path,
        run.scales,
    )
    for name in SCREEN_FILES:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    # the case reaches what it is named for
    rows = [json.loads(line) for line in (tmp_path / "out" / "screened.jsonl").read_text().splitlines()]
    assert any(reason in row["reject_reasons"] for row in rows)
    kept = [row for row in rows if row["verdict"] == "kept"]
    assert not kept if case == "none_kept" else kept
    if case in ("mic_score", "length", "motif", "external", "novelty"):
        assert [reason] in [row["reject_reasons"] for row in rows]  # the one reason alone
    if case == "all":
        assert max(len(row["reject_reasons"]) for row in rows) >= 7


def test_a_missing_external_score_stops_screen_before_any_artifact(tmp_path, capsys):
    # the first candidate lacks the second score, a later one the first
    candidates = [Peptide("c0", "KLWKLWKLWK"), Peptide("c1", "GIGKFLKKAK"), Peptide("c2", "DDKKLLWW")]
    scores = {"DDKKLLWW": {}, "GIGKFLKKAK": {"helix": 0.2}, "KLWKLWKLWK": {"plddt": 0.9}}
    write_fasta(candidates, tmp_path / "candidates.fasta")
    (tmp_path / "scores.jsonl").write_text("".join(json.dumps({"sequence": s, "scores": v}) + "\n" for s, v in scores.items()))
    _save_classifier(tmp_path / "mic.ckpt")
    write_fasta(candidates[:1], tmp_path / "reference.fasta")
    section = {"external_minimums": [["plddt", 0.5], ["helix", 0.1]]}
    message = "record 'c0' is missing external score 'helix'"
    assert main(_screen_argv(tmp_path, tmp_path / "out", screen=section)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["resolved_config.json", "run_manifest.json"]
    cfg = ScreenConfig(external_minimums=(("plddt", 0.5), ("helix", 0.1)))
    records = screening_oracle.annotate(candidates, TableScorer(), read_external_scores(tmp_path / "scores.jsonl"))
    with pytest.raises(ValueError, match=re.escape(message)):
        screening_oracle.screen(records, cfg)


@pytest.mark.parametrize("other_scale", [False, True], ids=["same_scale", "other_scale"])
def test_build_library_cli_matches_the_per_record_oracle(tmp_path, capsys, other_scale):
    _tiny_policy(max_len=10).save(tmp_path / "policy.ckpt")
    _screen_inputs(tmp_path)
    scales = {"overrides": str(tmp_path / "scale.txt") if other_scale else None}
    sections = {"screen": {"min_length": 2, "max_length": 10, "batch_size": 16}, "library": {"target_count": 12}}
    (tmp_path / "config.json").write_text(json.dumps({**sections, "scales": scales}))
    argv = ["build-library", "--config", str(tmp_path / "config.json"), "--checkpoint", str(tmp_path / "policy.ckpt")]
    assert main(argv + ["--mic-model", str(tmp_path / "mic.ckpt"), "--output-dir", str(tmp_path / "out")]) == 0
    scale = load_scale_overrides(tmp_path / "scale.txt") if other_scale else DEFAULT_SCALE
    library = parse_fasta(tmp_path / "out" / "library.fasta", source="generated_sft")
    records = screening_oracle.annotate(library, MicModel.load(tmp_path / "mic.ckpt"), None, scale)
    writer_oracle.write_records(records, "jsonl", tmp_path / "library.jsonl")
    assert (tmp_path / "out" / "library.jsonl").read_bytes() == (tmp_path / "library.jsonl").read_bytes()
    stats = json.loads((tmp_path / "out" / "library_stats.json").read_text())
    assert stats["annotation"][0]["pass"] == sum(r.mic_score >= ScreenConfig().mic_cutoff for r in records)
