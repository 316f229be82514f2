"""Distribution fidelity: residue frequencies, JSD, Pearson, property summaries."""
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from amprl import evalmetrics, physchem
from amprl.cli import main
from amprl.config import build_run, load_config
from amprl.evalmetrics import (
    DEFAULT_BIN_EDGES,
    EvalConfig,
    aa_frequency,
    compare_sets,
    embedding_distance_profile,
    export_embeddings_tsv,
    js_divergence,
    pearson,
    property_summary,
    write_comparison_tsv,
)
from amprl.physchem import DEFAULT_SCALE, descriptors
from amprl.sequences import Peptide, parse_fasta, write_fasta, write_json

import encoding_oracle
import eval_oracle
from conftest import RESIDUES, random_peptides


def _pep(pid, residues):
    return Peptide(pid, residues, "natural")


def test_aa_frequency_pools_counts():
    freq = aa_frequency([_pep("a", "AAC"), _pep("b", "C")])
    assert freq.shape == (20,)
    assert freq[RESIDUES.index("A")] == pytest.approx(0.5)
    assert freq[RESIDUES.index("C")] == pytest.approx(0.5)
    assert freq.sum() == pytest.approx(1.0, abs=1e-12)


def test_aa_frequency_is_order_and_split_invariant():
    rng = np.random.default_rng(0)
    peps = random_peptides(30, rng)
    base = aa_frequency(peps)
    shuffled = list(peps)
    rng.shuffle(shuffled)
    assert np.allclose(aa_frequency(shuffled), base, atol=1e-15)
    merged = [_pep("m", "".join(p.residues for p in peps))]
    assert np.allclose(aa_frequency(merged), base, atol=1e-15)


def test_aa_frequency_matches_per_residue_oracle():
    rng = np.random.default_rng(6)
    sets = [random_peptides(n, rng, min_len=1, max_len=50) for n in (1, 7, 300)]
    sets.append([_pep("all", RESIDUES), _pep("w", "W")])
    for peps in sets:
        assert np.array_equal(aa_frequency(peps), encoding_oracle.aa_frequency(peps))


def test_aa_frequency_requires_residues():
    with pytest.raises(ValueError):
        aa_frequency([])


def _jsd_oracle(p, q, base):
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    return (0.5 * kl(p, m) + 0.5 * kl(q, m)) / math.log(base)


def test_jsd_matches_oracle_and_is_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.dirichlet(np.ones(20))
        q = rng.dirichlet(np.ones(20))
        d = js_divergence(p, q)
        assert d == pytest.approx(_jsd_oracle(p, q, 2.0), abs=1e-12)
        assert d == pytest.approx(js_divergence(q, p), abs=1e-15)
        assert 0.0 <= d <= 1.0


def test_jsd_identical_and_disjoint():
    p = np.zeros(4)
    p[0] = 1.0
    q = np.zeros(4)
    q[3] = 1.0
    assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
    assert js_divergence(p, q) == pytest.approx(1.0, abs=1e-12)  # base-2 upper bound


def test_jsd_base_rescales():
    rng = np.random.default_rng(2)
    p = rng.dirichlet(np.ones(8))
    q = rng.dirichlet(np.ones(8))
    d2 = js_divergence(p, q, base=2.0)
    de = js_divergence(p, q, base=math.e)
    assert de == pytest.approx(d2 * math.log(2.0), rel=1e-12)


def test_jsd_input_validation():
    p = np.full(4, 0.25)
    with pytest.raises(ValueError):
        js_divergence(p, np.full(5, 0.2))
    with pytest.raises(ValueError):
        js_divergence(p, np.array([0.5, 0.6, -0.05, -0.05]))
    with pytest.raises(ValueError):
        js_divergence(p, p, base=1.0)


def test_pearson_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=25)
        y = 0.3 * x + rng.normal(scale=0.5, size=25)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_pearson_exact_and_degenerate_cases():
    x = np.arange(10.0)
    assert pearson(x, 2.0 * x + 1.0) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
    assert pearson(x, np.full(10, 3.0)) is None
    with pytest.raises(ValueError):
        pearson(x, x[:5])


def test_pearson_of_identical_distributions_is_exactly_one(tmp_path, capsys):
    # unclipped, a quarter of these rows read 1.0000000000000002 against themselves
    for row in np.random.default_rng(0).normal(size=(200, 20)):
        assert pearson(row, row) <= 1.0 and pearson(row, -row) >= -1.0
    assert pearson(*[aa_frequency([_pep("p1", "GLWKKILGKIKAGL")])] * 2) == 1.0
    write_fasta([_pep("p1", "GLWKKILGKIKAGL")], tmp_path / "one.fasta")
    fasta = str(tmp_path / "one.fasta")
    assert main(["eval", "--generated", fasta, "--reference", fasta, "--output-dir", str(tmp_path / "out")]) == 0
    assert "pearson 1.0\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "out" / "comparison.json").read_text(encoding="utf-8"))["pearson"] == 1.0


def test_property_summary_counts_sum_to_n():
    rng = np.random.default_rng(4)
    peps = random_peptides(40, rng)
    summary = property_summary(descriptors(peps))
    assert set(summary) == {"length", "hydrophobicity", "hydrophobic_moment", "net_charge", "isoelectric_point"}
    for name, s in summary.items():
        assert sum(s["counts"]) == 40
        assert len(s["counts"]) == len(DEFAULT_BIN_EDGES[name]) - 1
        assert s["quantiles"][0] <= s["quantiles"][2] <= s["quantiles"][4]  # min <= median <= max


def test_property_summary_clips_outliers_into_edge_bins():
    # a 58-mer exceeds the last length edge midpoint but must still be counted
    peps = [_pep("long", "K" * 58), _pep("short", "K" * 9)]
    s = property_summary(descriptors(peps))["length"]
    assert sum(s["counts"]) == 2
    assert s["counts"][-1] == 1  # clipped into the final bin
    assert s["mean"] == pytest.approx((58 + 9) / 2)


def test_property_summary_statistics_match_numpy():
    rng = np.random.default_rng(5)
    peps = random_peptides(25, rng)
    lengths = np.array([len(p.residues) for p in peps], dtype=float)
    s = property_summary(descriptors(peps))["length"]
    assert s["mean"] == pytest.approx(lengths.mean())
    assert s["std"] == pytest.approx(lengths.std())
    assert s["quantiles"][2] == pytest.approx(np.quantile(lengths, 0.5))


def test_embedding_distance_profile():
    gen = [_pep("g0", "KKKKKKKK"), _pep("g1", "DDDDDDDD")]
    ref = [_pep("r0", "KKKKKKKK"), _pep("r1", "WWWWWWWW")]
    table = {"KKKKKKKK": [0.0, 0.0], "DDDDDDDD": [3.0, 4.0], "WWWWWWWW": [1.0, 0.0]}

    def embed(peps):
        return np.array([table[p.residues] for p in peps], dtype=float)

    dists = embedding_distance_profile(embed(gen), embed(ref))
    # nearest-reference distances: g0 -> 0.0, g1 -> min(5.0, sqrt(4+16)=4.47..) = 4.47..
    assert dists.shape == (2,)
    assert dists[0] == pytest.approx(0.0)
    assert dists[1] == pytest.approx(math.hypot(2.0, 4.0))


def test_embedding_distance_profile_matches_broadcast_expression():
    rng = np.random.default_rng(9)
    for n_gen, n_ref, dim in ((1, 1, 1), (7, 3, 5), (12, 20, 425)):
        gen = [_pep(f"g{k}", "K" * (k + 1)) for k in range(n_gen)]
        ref = [_pep(f"r{k}", "D" * (k + 1)) for k in range(n_ref)]
        table = {p.residues: rng.normal(size=dim) * rng.uniform(0.1, 10.0) for p in gen + ref}
        g = np.stack([table[p.residues] for p in gen])
        r = np.stack([table[p.residues] for p in ref])
        dists = embedding_distance_profile(g, r)
        diff = g[:, None, :] - r[None, :, :]
        expected = np.sqrt(np.sum(diff * diff, axis=2)).min(axis=1)
        assert dists.tolist() == expected.tolist()


def _distance_cases(rng):
    """(name, generated, reference) matrices that stress the screen's bound."""
    ref = rng.normal(size=(300, 425)) * 3.0
    gen = rng.normal(size=(90, 425)) * 3.0
    gen[:30] = ref[rng.integers(0, 300, size=30)]  # exact copies
    gen[30:60] = ref[:30] + rng.normal(size=(30, 425)) * 1e-9  # near copies
    yield "copies", gen, ref
    # references whose distances from one row differ by a few units in the last place
    unit = rng.normal(size=(120, 425))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    rows = rng.normal(size=(6, 425)) * 5.0
    ties = rows[np.arange(120) % 6] + unit * 3.0 * (1.0 + rng.integers(-4, 5, size=(120, 1)) * 2.0**-52)
    yield "near_ties", rows, ties
    yield "duplicate_references", gen, np.repeat(ref[:20], 15, axis=0)
    const = ref.copy()
    const[:, 7] = 0.0
    yield "constant_column", gen, const
    yield "integer_grid", rng.integers(-2, 3, size=(50, 8)).astype(float), rng.integers(-2, 3, size=(70, 8)).astype(float)
    yield "subnormal", gen * 1e-310, ref * 1e-310
    yield "huge", gen * 1e150, ref * 1e150  # norms near 6e151, just under the screened 2^510
    bad = gen.copy()
    bad[1, 0], bad[2, 5], bad[3] = np.nan, np.inf, 1e200
    yield "unbounded_rows", bad, ref
    bad_ref = ref.copy()
    bad_ref[4, 4] = np.nan
    yield "nan_reference", gen, bad_ref
    yield "one_dimension", rng.normal(size=(40, 1)), rng.normal(size=(3, 1))


@pytest.mark.parametrize("cells", [None, 7, 1])
def test_embedding_distance_profile_matches_the_row_loop(monkeypatch, cells):
    # 7 cells make blocks of one to a few rows, and 1 a block per row
    if cells is not None:
        monkeypatch.setattr(evalmetrics, "_DISTANCE_CELLS", cells)
    for name, gen, ref in _distance_cases(np.random.default_rng(32)):
        with np.errstate(all="ignore"):  # the loop warns on the unbounded rows
            new = embedding_distance_profile(gen, ref)
            old = np.array(eval_oracle.embedding_distance_profile(gen, ref).distances)
        assert np.array_equal(new, old, equal_nan=True), name


def test_embedding_distance_profile_memory_stays_flat_in_the_generated_rows():
    # 8 references make blocks of 1,024 rows; 2,048 and 4,096 rows span 2 and 4
    rng = np.random.default_rng(33)
    ref = rng.normal(size=(8, 425))
    peaks = {}
    for n in (2048, 4096):
        gen = rng.normal(size=(n, 425))
        gen[::5] = ref[rng.integers(0, 8, size=len(gen[::5]))]
        tracemalloc.start()
        try:
            embedding_distance_profile(gen, ref)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] <= 1.1 * peaks[2048], peaks


_THREADS_SCRIPT = """
import sys
import numpy as np
from amprl.evalmetrics import _DISTANCE_CELLS, embedding_distance_profile

rng = np.random.default_rng(34)
ref = rng.normal(size=(200, 425))
gen = rng.normal(size=(140, 425))
gen[::7] = ref[:20]
# the screen's G, block by block, as the function computes it
step = _DISTANCE_CELLS // len(ref)
sq, sq_ref = np.einsum("ij,ij->i", gen, gen), np.einsum("ij,ij->i", ref, ref)
screens = [sq[k : k + step, None] + sq_ref - 2.0 * (gen[k : k + step] @ ref.T) for k in range(0, len(gen), step)]
sys.stdout.buffer.write(embedding_distance_profile(gen, ref).tobytes() + np.concatenate(screens).tobytes())
"""


def test_embedding_distances_are_the_same_bytes_for_any_blas_thread_count():
    src = Path(evalmetrics.__file__).resolve().parents[1]
    out = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        out[threads] = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env, capture_output=True, check=True).stdout
    n = 140 * 8
    assert out["1"][:n] == out["2"][:n]
    # the screen itself rounds differently across thread counts; the recheck hides it
    assert out["1"][n:] != out["2"][n:]


def test_compare_sets_report_shape():
    rng = np.random.default_rng(6)
    gen = random_peptides(15, rng, prefix="g", source="generated_sft")
    ref = random_peptides(20, rng, prefix="r")
    report, (gen_emb, ref_emb) = compare_sets("natural", gen, ref, EvalConfig(), DEFAULT_SCALE)
    assert report["set"] == "natural"
    assert report["n_generated"] == 15 and report["n_reference"] == 20
    assert 0.0 <= report["jsd"] <= 1.0
    assert report["jsd_base"] == 2.0
    assert -1.0 <= report["pearson"] <= 1.0
    assert len(report["aa_frequency"]["generated"]) == 20
    assert "length" in report["properties"]["generated"]
    assert gen_emb.shape == (15, 425) and ref_emb.shape == (20, 425)
    # the mean and the fractions come from each generated row's nearest-reference distance
    dists = embedding_distance_profile(gen_emb, ref_emb)
    assert report["embedding_distance"]["mean"] == float(dists.mean())
    assert report["embedding_distance"]["fractions"] == {"1.0": float(np.mean(dists <= 1.0)), "3.0": float(np.mean(dists <= 3.0))}


def test_compare_sets_jsd_agrees_with_direct_computation():
    rng = np.random.default_rng(7)
    gen = random_peptides(10, rng, prefix="g")
    ref = random_peptides(10, rng, prefix="r")
    report, _ = compare_sets("x", gen, ref, EvalConfig(), DEFAULT_SCALE)
    assert report["jsd"] == pytest.approx(js_divergence(aa_frequency(gen), aa_frequency(ref)), abs=1e-12)


def test_comparison_serializers(tmp_path):
    rng = np.random.default_rng(8)
    gen = random_peptides(8, rng, prefix="g")
    ref = random_peptides(8, rng, prefix="r")
    report, _ = compare_sets("demo", gen, ref, EvalConfig(), DEFAULT_SCALE)
    json_path = tmp_path / "cmp.json"
    write_json(report, json_path)
    back = json.loads(json_path.read_text())
    assert back["set"] == "demo"
    assert back["jsd"] == pytest.approx(report["jsd"])
    buf = io.StringIO()
    write_comparison_tsv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split("\t") == ["set", "metric", "value"]
    metrics = {line.split("\t")[1] for line in lines[1:]}
    assert "jsd" in metrics and "pearson" in metrics


def test_export_embeddings_tsv():
    peps = [_pep("a", "KKKK"), _pep("b", "DDDD")]

    matrix = np.array([[float(len(p.residues)), float(p.residues.count("K"))] for p in peps])
    buf = io.StringIO()
    export_embeddings_tsv(peps, matrix, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split("\t") == ["id", "e0", "e1"]
    assert lines[1].split("\t") == ["a", "4.0", "4.0"]
    assert lines[2].split("\t") == ["b", "4.0", "0.0"]

    with pytest.raises(ValueError):
        export_embeddings_tsv(peps, matrix[:1], io.StringIO())


def test_default_bin_edges_are_strictly_increasing():
    for name, edges in DEFAULT_BIN_EDGES.items():
        diffs = np.diff(np.asarray(edges))
        assert (diffs > 0).all(), name


SCALE_OVERRIDE = "hydropathy W -0.5\nhydropathy K 1.25\npka K 9.75\npka n_term 8.5\n"


def _eval_sets(case):
    """The (generated, reference) peptides of one differential case."""
    rng = np.random.default_rng(31)
    ref = random_peptides(30, rng, prefix="r")
    gen = random_peptides(12, rng, prefix="g", source="generated_sft")
    if case == "one_generated":
        gen = gen[:1]
    elif case == "edge_peptides":
        # length 1, and all-basic runs (R x 35 and R x 50 reach pI 14)
        gen = [_pep(f"g{k}", seq) for k, seq in enumerate(["K", "W", "R" * 35, "R" * 50, "K" * 40, "KR"])]
        ref = ref + [_pep("r_k", "K"), _pep("r_r", "R" * 50)]
    elif case == "several_blocks":
        # 30 references make distance blocks of 273 generated rows
        gen = random_peptides(3 * evalmetrics._DISTANCE_CELLS // len(ref), rng, prefix="g", source="generated_sft")
    elif case == "copies":
        # exact copies of references, and copies one residue apart
        gen = gen + [Peptide(f"c{k}", ref[k].residues, "generated_sft") for k in range(6)]
        gen += [Peptide(f"n{k}", ("W" if r.residues[0] != "W" else "A") + r.residues[1:], "generated_sft") for k, r in enumerate(ref[6:12])]
    elif case == "constant_column":
        # every reference is 20 residues long, so the length column has no spread
        ref = random_peptides(30, rng, min_len=20, max_len=20, prefix="r")
    # a peptide in both sets sits at distance 0
    gen = gen + [Peptide("shared", ref[3].residues, "generated_sft")]
    return gen, ref


@pytest.mark.parametrize(
    "case, config, override",
    [
        ("random", {}, False),
        ("random", {"eval": {"thresholds": [0.5, 1.0, 3.0, 10.0], "jsd_base": 10}}, True),
        ("one_generated", {"eval": {"thresholds": [0.0, 0.5, 1.0, 3.0, 10.0]}}, False),  # 0.0 holds the shared one
        ("edge_peptides", {}, False),
        ("edge_peptides", {"eval": {"jsd_base": 10}}, True),
        ("several_blocks", {"eval": {"thresholds": [0.0, 10.0, 20.0, 30.0]}}, False),
        ("copies", {"eval": {"thresholds": [0.0, 1.0, 3.0]}}, False),
        ("constant_column", {}, False),
    ],
)
def test_eval_cli_matches_the_oracle_byte_for_byte(tmp_path, capsys, case, config, override):
    gen, ref = _eval_sets(case)
    write_fasta(gen, tmp_path / "gen.fasta")
    write_fasta(ref, tmp_path / "ref.fasta")
    if override:
        (tmp_path / "scale.txt").write_text(SCALE_OVERRIDE)
        config = {**config, "scales": {"overrides": str(tmp_path / "scale.txt")}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = ["eval", "--generated", str(tmp_path / "gen.fasta"), "--reference", str(tmp_path / "ref.fasta")]
    argv += ["--config", str(tmp_path / "cfg.json"), "--export-embeddings", "--output-dir", str(tmp_path / "new")]
    assert main(argv) == 0
    run = build_run(load_config(tmp_path / "cfg.json"))
    generated = parse_fasta(tmp_path / "gen.fasta", source="generated_sft")
    eval_oracle.cmd_eval(generated, parse_fasta(tmp_path / "ref.fasta"), "generated", run, tmp_path / "old")
    for name in ("comparison.json", "comparison.tsv", "embeddings_generated.tsv", "embeddings_reference.tsv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes(), name
    report = json.loads((tmp_path / "new" / "comparison.json").read_text())
    assert report["embedding_distance"]["fractions"][repr(min(run.eval.thresholds))] > 0.0  # the shared peptide


def test_eval_cli_computes_descriptors_once_per_set(tmp_path, capsys, monkeypatch):
    calls = []
    original = physchem.descriptors

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    # every binding of the function, so `from .physchem import descriptors` copies count too
    for module in [m for name, m in sys.modules.items() if name.startswith("amprl")]:
        if getattr(module, "descriptors", None) is original:
            monkeypatch.setattr(module, "descriptors", counted)
    gen, ref = _eval_sets("random")
    write_fasta(gen, tmp_path / "gen.fasta")
    write_fasta(ref, tmp_path / "ref.fasta")
    argv = ["eval", "--generated", str(tmp_path / "gen.fasta"), "--reference", str(tmp_path / "ref.fasta")]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 0
    assert sorted(calls) == sorted([len(gen), len(ref)])
