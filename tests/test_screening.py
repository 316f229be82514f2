"""Virtual screening: filters, novelty, prioritization, diversity, library build."""
import io
import itertools
import json
import re

import numpy as np
import pytest

from amprl.alignment import write_hit_table
from amprl.policy import ModelConfig, PolicyModel
from amprl.screening import (
    ScreenConfig,
    annotate,
    build_library,
    default_property_windows,
    diversity_select,
    max_identity_by_query,
    novelty_filter,
    prioritize,
    read_external_scores,
    screen,
)
from amprl.sequences import Peptide, write_records

import alignment_oracle
from conftest import near_copy, unique_random_peptides


class TableScorer:
    """Fixed score per residue string; unknown sequences get the default."""

    def __init__(self, table=None, default=0.9):
        self.table = table or {}
        self.default = default

    def score_many(self, peptides):
        return np.array([self.table.get(p.residues, self.default) for p in peptides])


def _records(peptides, scores=None, default=0.9, external=None):
    return annotate(peptides, TableScorer(scores, default), external_scores=external)


def _pep(pid, residues, source="generated_sft"):
    return Peptide(pid, residues, source)


def test_screen_rejects_below_cutoff_and_keeps_at_cutoff():
    peps = [_pep("low", "KLWKLWKLWKLW"), _pep("edge", "KWLKWLKWLKWL"), _pep("high", "LWKLWKLWKLWK")]
    records = _records(peps, {"KLWKLWKLWKLW": 0.39, "KWLKWLKWLKWL": 0.40, "LWKLWKLWKLWK": 0.95})
    kept, rejected = screen(records, ScreenConfig())
    assert [r.peptide.id for r in rejected] == ["low"]
    assert rejected[0].reject_reasons == ("mic_score",)
    assert rejected[0].verdict == "rejected"
    assert {r.peptide.id for r in kept} == {"edge", "high"}
    assert all(r.verdict == "kept" and r.reject_reasons == () for r in kept)


def test_screen_rejects_over_length():
    records = _records([_pep("long", "K" * 55), _pep("ok", "KLWKLWKLWK")])
    kept, rejected = screen(records, ScreenConfig())
    assert [r.peptide.id for r in rejected] == ["long"]
    assert "length" in rejected[0].reject_reasons


def test_screen_lists_every_failed_filter_in_order():
    records = _records([_pep("bad", "K" * 55)], default=0.1)
    cfg = ScreenConfig(forbidden_motifs=("KKKK",))
    _, rejected = screen(records, cfg)
    assert rejected[0].reject_reasons == ("mic_score", "length", "motif:KKKK")


def test_screen_partitions_input():
    rng = np.random.default_rng(0)
    peps = unique_random_peptides(30, rng, source="generated_sft")
    scores = {p.residues: float(s) for p, s in zip(peps, rng.uniform(size=30))}
    records = _records(peps, scores)
    kept, rejected = screen(records, ScreenConfig())
    assert len(kept) + len(rejected) == 30
    assert {r.peptide.id for r in kept}.isdisjoint(r.peptide.id for r in rejected)
    by_id = {r.peptide.id: r for r in kept + rejected}
    assert [by_id[p.id].peptide.residues for p in peps] == [p.residues for p in peps]


def test_property_window_filters():
    cfg = ScreenConfig(
        mic_cutoff=0.0,
        hydrophobicity_window=(-0.5, 0.8),
        moment_window=(0.0, 0.6),
        charge_window=(-5.0, 9.0),
        isoelectric_window=(8.0, 11.0),
    )
    # all-D peptide: very negative charge and acidic pI fall outside the windows
    records = _records([_pep("acidic", "D" * 20)], default=0.9)
    _, rejected = screen(records, cfg)
    assert "net_charge" in rejected[0].reject_reasons
    assert "isoelectric_point" in rejected[0].reject_reasons


def test_external_minimum_filter():
    cfg = ScreenConfig(external_minimums=(("plddt", 0.8),))
    peps = [_pep("good", "KLWKLWKLWKLW"), _pep("floppy", "KWLKWLKWLKWL")]
    external = {"KLWKLWKLWKLW": {"plddt": 0.92}, "KWLKWLKWLKWL": {"plddt": 0.4}}
    kept, rejected = screen(_records(peps, external=external), cfg)
    assert [r.peptide.id for r in kept] == ["good"]
    assert rejected[0].reject_reasons == ("external:plddt",)


def test_external_minimum_missing_score_is_an_error():
    cfg = ScreenConfig(external_minimums=(("plddt", 0.8),))
    records = _records([_pep("x", "KLWKLWKLWKLW")])
    with pytest.raises(ValueError, match="plddt"):
        screen(records, cfg)


def test_screen_config_validation():
    with pytest.raises(ValueError):
        ScreenConfig(mic_cutoff=1.5)
    with pytest.raises(ValueError):
        ScreenConfig(novelty_coverage=0.0)
    with pytest.raises(ValueError):
        ScreenConfig(min_length=10, max_length=5)


def test_novelty_removes_exact_duplicates_and_close_variants():
    # identical references: the best hit breaks the score tie by target id
    reference = [Peptide(pid, "KLWKKLLKKWLKKLWKKLLK", "natural") for pid in ("ref_b", "ref_a")]
    # two substitutions in a 20-mer: 90% identity at full coverage
    variant = "ALWKKLLKKWLKKLWKKLLA"
    candidates = _records(
        [
            _pep("dup", "KLWKKLLKKWLKKLWKKLLK"),
            _pep("var90", variant),
            _pep("far", "DEGSDEGSDEGSDEGSDEGS"),
        ]
    )
    kept, removed, hits = novelty_filter(candidates, reference, ScreenConfig())
    assert {r.peptide.id for r in removed} == {"dup", "var90"}
    assert [r.peptide.id for r in kept] == ["far"]
    assert all(r.reject_reasons == ("novelty",) for r in removed)
    by_query = {h.query: h for h in hits}
    assert by_query["dup"].target == "ref_a"
    assert by_query["dup"].identity_pct == 100.0
    assert by_query["dup"].length == 20


def test_novelty_keeps_low_coverage_matches():
    # the candidate shares a 10-residue block, half of its 20 residues
    reference = [Peptide("ref", "KLWKKLLKKW", "natural")]
    candidate = _pep("half", "KLWKKLLKKW" + "DEGSDEGSDE")
    kept, removed, hits = novelty_filter(_records([candidate]), reference, ScreenConfig())
    assert [r.peptide.id for r in kept] == ["half"]
    assert removed == []
    assert hits and hits[0].identity_pct == 100.0  # matched block aligns perfectly


def test_novelty_requires_reference():
    with pytest.raises(ValueError, match="reference"):
        novelty_filter(_records([_pep("x", "KLWKLWKLWKLW")]), [], ScreenConfig())


def test_novelty_with_disjoint_reference_keeps_everything():
    reference = [Peptide("ref", "DDDDDDDDDD", "natural")]
    kept, removed, hits = novelty_filter(_records([_pep("x", "KKKKKKKKKK")]), reference, ScreenConfig())
    assert [r.peptide.id for r in kept] == ["x"]
    assert removed == [] and hits == []


def test_novelty_filter_matches_per_pair_oracle():
    rng = np.random.default_rng(22)
    reference = unique_random_peptides(80, rng, min_len=8, max_len=40, prefix="ref", source="external")
    # one sequence under two ids, listed in reverse id order: a best-hit score tie
    reference += [Peptide(pid, reference[7].residues, "external") for pid in ("aaa_b", "aaa_a")]
    picks = rng.choice(len(reference), size=24, replace=False)
    candidates = [_pep(f"near{k}", near_copy(rng, reference[int(k)].residues)) for k in picks]
    candidates += [_pep("copy7", reference[7].residues)]
    candidates += unique_random_peptides(10, rng, min_len=8, max_len=40, prefix="new")
    records = _records(candidates)
    outputs = []
    for run in (novelty_filter, alignment_oracle.novelty_filter):
        kept, removed, hits = run(records, reference, ScreenConfig())
        assert kept and removed
        table, screened = io.StringIO(), io.StringIO()
        write_hit_table(hits, table)
        write_records(kept + removed, "jsonl", screened)
        outputs.append((table.getvalue(), screened.getvalue()))
    assert outputs[0] == outputs[1]
    assert "copy7\taaa_a\t" in outputs[0][0]


def test_max_identity_by_query():
    reference = [Peptide("ref", "KLWKKLLKKWLKKLWKKLLK", "natural")]
    records = _records([_pep("dup", "KLWKKLLKKWLKKLWKKLLK"), _pep("none", "DDDDDDDDDD")])
    _, _, hits = novelty_filter(records, reference, ScreenConfig())
    ident = max_identity_by_query(hits)
    assert ident["dup"] == pytest.approx(1.0)
    assert "none" not in ident


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
    records = _records([weak, strong, off_window, in_windows, familiar, novel], scores)
    ranked = prioritize(records, default_property_windows(), max_identity={"novel": 0.2, "famil": 0.95})
    ids = [r.peptide.id for r in ranked]
    assert ids[0] == "strong"  # highest score first
    assert ids.index("inwin") < ids.index("offwin")  # window count breaks the 0.7 tie
    assert ids.index("novel") < ids.index("famil")  # smaller reference identity wins at 0.6
    assert sorted(ids) == sorted(r.peptide.id for r in records)


def test_prioritize_final_tiebreak_is_lexicographic():
    a = _pep("z_first", "AKLWKLWKLW")
    b = _pep("a_second", "CKLWKLWKLW")
    ranked = prioritize(_records([b, a], default=0.5), default_property_windows())
    assert [r.peptide.id for r in ranked] == ["z_first", "a_second"]


def _embed_from(points, records):
    """Embedding matrix of `records`, row i from the point of records[i]'s sequence."""
    return np.array([points[r.peptide.residues] for r in records], dtype=float)


def test_diversity_select_returns_all_when_k_covers_input():
    records = _records([_pep("a", "KLWKLWKLWK"), _pep("b", "WLKWLKWLKW")])
    out = diversity_select(records, 5, _embed_from({"KLWKLWKLWK": [0.0], "WLKWLKWLKW": [1.0]}, records))
    assert [r.peptide.id for r in out] == ["a", "b"]


def test_diversity_select_prefers_the_distinct_candidate():
    # two near-identical points and one far away; k=2 must take the far one
    seqs = {"KLWKLWKLWK": [0.0, 0.0], "KLWKLWKLWW": [0.01, 0.0], "DDDDDDDDDD": [5.0, 5.0]}
    records = _records([_pep("a", "KLWKLWKLWK"), _pep("twin", "KLWKLWKLWW"), _pep("far", "DDDDDDDDDD")])
    out = diversity_select(records, 2, _embed_from(seqs, records))
    assert [r.peptide.id for r in out] == ["a", "far"]


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
    records = _records([_pep(f"c{i}", s) for i, s in enumerate(seqs)])

    for k in (2, 3, 4):
        chosen = diversity_select(records, k, _embed_from(points, records))
        chosen_points = [points[r.peptide.residues] for r in chosen]
        greedy_min = _min_pairwise(chosen_points)
        # brute force over all k-subsets that include the seed (records[0])
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
    records = _records([_pep("a", "KLWK")], external=read_external_scores(path))
    assert records[0].external_scores == {"plddt": 0.5}


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
    records, stats = build_library(
        _tiny_policy(), TableScorer(), 25, cfg, seed=3, out_dir=tmp_path
    )
    assert len(records) == 25
    residues = [r.peptide.residues for r in records]
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


def test_build_library_rejects_bad_target(tmp_path):
    with pytest.raises(ValueError):
        build_library(_tiny_policy(), TableScorer(), 0, ScreenConfig(), seed=0, out_dir=tmp_path)
