"""Corpus curation: length filter, clustering, cluster-aware splits, balancing."""
import io
import json
import tracemalloc

import numpy as np
import pytest

from amprl import alignment, dataprep
from amprl.alignment import identity_global
from amprl.dataprep import (
    Cluster,
    balance,
    greedy_cluster,
    length_filter,
    read_cluster_assignments,
    split_by_cluster,
    write_split_manifest,
)
from amprl.sequences import Peptide, encode

import alignment_oracle
from conftest import RESIDUES, near_copy, random_peptides, unique_random_peptides


def _pep(pid, residues):
    return Peptide(pid, residues, "natural")


def test_length_filter_bounds_are_inclusive():
    peps = [
        _pep("short", "K" * 7),
        _pep("lo", "K" * 8),
        _pep("hi", "K" * 50),
        _pep("long", "K" * 51),
    ]
    kept, rejected = length_filter(peps, 8, 50)
    assert [p.id for p in kept] == ["lo", "hi"]
    assert [p.id for p in rejected] == ["short", "long"]


def test_length_filter_partitions_input():
    rng = np.random.default_rng(0)
    peps = random_peptides(50, rng, min_len=1, max_len=60)
    kept, rejected = length_filter(peps)
    assert len(kept) + len(rejected) == 50
    assert {p.id for p in kept}.isdisjoint(p.id for p in rejected)


def test_length_filter_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        length_filter([], 10, 5)


def test_cluster_representative_must_be_member():
    a, b = _pep("a", "KKKKKKKK"), _pep("b", "DDDDDDDD")
    with pytest.raises(ValueError):
        Cluster(representative=a, members=[b])


def test_greedy_cluster_groups_identical_sequences():
    peps = [
        _pep("a", "KLWKKLLKKWLK"),
        _pep("b", "KLWKKLLKKWLK"),
        _pep("c", "DEGSDEGSDEGS"),
    ]
    clusters = greedy_cluster(peps, identity_threshold=0.4)
    sizes = sorted(len(c.members) for c in clusters)
    assert sizes == [1, 2]
    for c in clusters:
        assert any(m is c.representative for m in c.members)


def test_greedy_cluster_covers_input_exactly_once():
    rng = np.random.default_rng(1)
    peps = unique_random_peptides(40, rng)
    clusters = greedy_cluster(peps, identity_threshold=0.4)
    seen = [m.id for c in clusters for m in c.members]
    assert sorted(seen) == sorted(p.id for p in peps)


def test_greedy_cluster_members_match_their_representative():
    rng = np.random.default_rng(2)
    base = unique_random_peptides(12, rng, min_len=14, max_len=20)
    # add one close variant per base sequence (single substitution)
    variants = []
    for i, p in enumerate(base):
        mutated = "A" + p.residues[1:] if p.residues[0] != "A" else "C" + p.residues[1:]
        variants.append(_pep(f"v{i}", mutated))
    clusters = greedy_cluster(base + variants, identity_threshold=0.8)
    for c in clusters:
        for m in c.members:
            assert identity_global(m.residues, c.representative.residues) >= 0.8


def _families(rng, bases=12):
    # mutated families, exact duplicates under other ids, and unrelated peptides
    peps = []
    for f, base in enumerate(unique_random_peptides(bases, rng, min_len=8, max_len=40, prefix="base")):
        peps.append(base)
        peps += [_pep(f"fam{f}_{k}", near_copy(rng, base.residues)) for k in range(4)]
        peps += [_pep(f"dup{f}_{k}", base.residues) for k in range(f % 2)]
    return peps + unique_random_peptides(20, rng, min_len=8, max_len=40, prefix="solo")


@pytest.mark.parametrize("threshold", [0.4, 0.8])
def test_greedy_cluster_matches_per_pair_oracle(threshold):
    peps = _families(np.random.default_rng(21))
    got = greedy_cluster(peps, identity_threshold=threshold)
    want = alignment_oracle.greedy_cluster(peps, threshold)
    assert len(want) > 3
    assert [(c.representative.id, [m.id for m in c.members]) for c in got] == [
        (c.representative.id, [m.id for m in c.members]) for c in want
    ]


def _members(clusters):
    return [(c.representative.id, [m.id for m in c.members]) for c in clusters]


def _shuffles(rng, n, length):
    # one composition in n orders, so the composition bound of every pair is exactly 1
    base = list(rng.choice(list(RESIDUES), size=length))
    return [_pep(f"perm{k}", "".join(rng.permutation(base))) for k in range(n)]


def _long_families(rng):
    # families of 65-80 residues, whose queries pass the LCS word and are
    # bounded by the shorter length, with near copies that may fall to 64
    # residues, among peptides short enough for the LCS
    peps = []
    for f, base in enumerate(unique_random_peptides(3, rng, min_len=65, max_len=80, prefix="long")):
        peps.append(base)
        peps += [_pep(f"long{f}_{k}", near_copy(rng, base.residues, max_len=80)) for k in range(3)]
    return peps + [_pep("cut", peps[0].residues[:64])] + unique_random_peptides(8, rng, min_len=8, max_len=40, prefix="solo")


def _cluster_sets():
    rng = np.random.default_rng(23)
    n = dataprep.CLUSTER_BATCH
    families = _families(rng, bases=(2 * n + 1) // 5)
    big = unique_random_peptides(1, rng, min_len=20, max_len=20, prefix="big")[0]
    bases = unique_random_peptides(5, rng, min_len=8, max_len=40, prefix="base")
    sizes = {"mixed_n-1": n - 1, "mixed_n": n, "mixed_n+1": n + 1, "mixed_2n+1": 2 * n + 1}
    return {
        # set sizes around n = CLUSTER_BATCH, so batches end exactly, one short and one over
        **{name: [families[int(k)] for k in rng.choice(len(families), size=size, replace=False)] for name, size in sizes.items()},
        # one peptide past a batch, which meets the representatives of the first
        "duplicates": [_pep(f"dup{k}", bases[k % 5].residues) for k in range(n + 1)],
        "singletons": unique_random_peptides(n + 1, rng, min_len=8, max_len=40, prefix="solo"),
        "one_cluster": [big] + [_pep(f"near{k}", near_copy(rng, big.residues)) for k in range(n)],
        "shuffled": _shuffles(rng, n + 1, 18),
        "long_families": _long_families(rng),
    }


@pytest.mark.parametrize("name", sorted(_cluster_sets()))
def test_batched_greedy_cluster_matches_the_per_query_and_per_pair_oracles(name):
    peps = _cluster_sets()[name]
    for threshold in (0.2, 0.4, 0.6, 0.8, 1.0):
        got = _members(greedy_cluster(peps, identity_threshold=threshold))
        assert got == _members(alignment_oracle.greedy_cluster_per_query(peps, threshold)), threshold
        assert got == _members(alignment_oracle.greedy_cluster(peps, threshold)), threshold


def test_the_sets_reach_every_clustering_outcome():
    sets = _cluster_sets()
    n = dataprep.CLUSTER_BATCH
    assert len(greedy_cluster(sets["singletons"], 0.4)) == n + 1
    assert len(greedy_cluster(sets["one_cluster"], 0.4)) == 1
    assert len(greedy_cluster(sets["duplicates"], 1.0)) == 5
    assert 1 < len(greedy_cluster(sets["mixed_2n+1"], 0.4)) < 2 * n + 1
    # a shuffle keeps the composition but not the alignment
    assert len(greedy_cluster(sets["shuffled"], 1.0)) == n + 1
    # a long family joins at 0.4 while its queries pass the LCS word
    long_families = greedy_cluster(sets["long_families"], 0.4)
    assert any(len(c) > 1 and len(c.representative) > alignment.LCS_WORD for c in long_families)


def _searched_pairs(monkeypatch):
    """The pairs each `search` call of `dataprep` receives, in call order."""
    searched = []
    real = dataprep.search
    monkeypatch.setattr(dataprep, "search", lambda q, t, *, local: searched.append(len(q[1])) or real(q, t, local=local))
    return searched


def test_the_composition_bound_is_tight_on_a_shuffle_and_never_drops_a_joining_pair():
    # the composition bound, computed here, and the LCS bound that
    # `match_bound` gives clustering and screening, which is never looser: a
    # common subsequence uses each residue at most the smaller count times
    rng = np.random.default_rng(24)
    families = _families(rng)
    peps = [families[int(k)] for k in rng.choice(len(families), size=40, replace=False)] + _shuffles(rng, 12, 25)
    ordered = dataprep._greedy_order(peps)
    codes, lengths = encode([p.residues for p in ordered])
    counts = np.array([[p.residues.count(r) for r in RESIDUES] for p in ordered])
    assert counts.sum(axis=1).tolist() == lengths.tolist()
    later, earlier = np.tril_indices(len(ordered), k=-1)
    longer = np.maximum(lengths[later], lengths[earlier])
    composition = np.minimum(counts[later], counts[earlier]).sum(axis=1) / longer
    common = alignment.match_bound((codes[later], lengths[later]), (codes[earlier], lengths[earlier]))
    assert common.tolist() == [alignment_oracle.lcs(ordered[q].residues, ordered[t].residues) for q, t in zip(later, earlier)]
    bound = common / longer
    assert np.all(bound <= composition)
    shuffled = np.array([p.id.startswith("perm") for p in ordered])
    both = shuffled[later] & shuffled[earlier]
    assert np.all(composition[both] == 1.0) and np.all(bound[both] < 1.0)
    # every pair a threshold up to 1.0 can drop, with its scalar identity
    identity = {
        k: alignment_oracle.align_global(ordered[later[k]].residues, ordered[earlier[k]].residues).identity
        for k in np.flatnonzero(bound < 1.0)
    }
    for threshold in (0.2, 0.4, 0.6, 0.8, 1.0):
        dropped = np.flatnonzero(bound < threshold)
        assert dropped.size  # the bound prunes at every threshold
        assert all(identity[k] < threshold for k in dropped), threshold
        assert set(np.flatnonzero(composition < threshold)) <= set(dropped)


def test_shuffles_at_identity_one_send_no_pair_to_search(monkeypatch):
    # the composition bound admits every pair of shuffles at 1.0; the LCS bound none
    searched = _searched_pairs(monkeypatch)
    peps = _cluster_sets()["shuffled"]
    assert len(greedy_cluster(peps, identity_threshold=1.0)) == len(peps)
    assert searched and sum(searched) == 0


def test_greedy_cluster_searches_once_per_batch_over_the_admitted_pairs(monkeypatch):
    searched = _searched_pairs(monkeypatch)
    peps = _families(np.random.default_rng(25)) + _long_families(np.random.default_rng(26))
    threshold = 0.4
    greedy_cluster(peps, identity_threshold=threshold)
    ordered = dataprep._greedy_order(peps)
    rank = {p.id: k for k, p in enumerate(ordered)}
    founders = sorted(rank[c.representative.id] for c in alignment_oracle.greedy_cluster(peps, threshold))
    # each peptide of a batch against the representatives founded before the
    # batch, then against the earlier peptides of its batch; a pair is
    # admitted when its match bound, the LCS or past the LCS word the shorter
    # length, reaches the threshold over the longer length
    candidates, admitted = 0, []
    for start in range(0, len(ordered), dataprep.CLUSTER_BATCH):
        batch = range(start, min(start + dataprep.CLUSTER_BATCH, len(ordered)))
        pairs = [(ordered[b].residues, ordered[t].residues) for b in batch for t in [f for f in founders if f < start] + list(range(start, b))]
        candidates += len(pairs)
        admitted.append(
            sum(
                (min(len(q), len(t)) if len(q) > alignment.LCS_WORD else alignment_oracle.lcs(q, t)) / max(len(q), len(t))
                >= threshold
                for q, t in pairs
            )
        )
    assert searched == admitted
    assert sum(admitted) < 0.9 * candidates


def test_greedy_cluster_memory_grows_linearly():
    # each batch's pair arrays hold CLUSTER_BATCH x (representatives + CLUSTER_BATCH) rows
    peaks = {}
    for n in (200, 400):
        peps = random_peptides(n, np.random.default_rng(n))
        tracemalloc.start()
        try:
            greedy_cluster(peps, identity_threshold=0.4)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] <= 2.5 * peaks[200], peaks


def test_greedy_cluster_founding_order_is_longest_first():
    peps = [_pep("short", "KKKKKKKK"), _pep("long", "DDDDDDDDDDDDDDDDDDDD")]
    clusters = greedy_cluster(peps, identity_threshold=0.99)
    assert clusters[0].representative.id == "long"


def test_split_by_cluster_keeps_clusters_intact():
    rng = np.random.default_rng(3)
    peps = unique_random_peptides(60, rng)
    clusters = greedy_cluster(peps, identity_threshold=0.4)
    splits = split_by_cluster(clusters, fractions=(0.8, 0.1, 0.1), seed=0)
    assert sum(len(s) for s in splits) == 60
    ids_by_split = [set(p.id for p in s) for s in splits]
    for i in range(len(ids_by_split)):
        for j in range(i + 1, len(ids_by_split)):
            assert ids_by_split[i].isdisjoint(ids_by_split[j])
    member_split = {}
    for k, s in enumerate(splits):
        for p in s:
            member_split[p.id] = k
    for c in clusters:
        owners = {member_split[m.id] for m in c.members}
        assert len(owners) == 1, "cluster straddles splits"


def test_split_sizes_respect_fraction_tolerance():
    rng = np.random.default_rng(4)
    peps = unique_random_peptides(100, rng)
    clusters = greedy_cluster(peps, identity_threshold=0.4)
    largest = max(len(c.members) for c in clusters)
    splits = split_by_cluster(clusters, fractions=(0.8, 0.1, 0.1), seed=1)
    total = sum(len(s) for s in splits)
    for frac, split in zip((0.8, 0.1, 0.1), splits):
        assert abs(len(split) - frac * total) <= largest


def test_split_is_seed_deterministic():
    rng = np.random.default_rng(5)
    clusters = greedy_cluster(unique_random_peptides(30, rng), identity_threshold=0.4)
    a = split_by_cluster(clusters, seed=9)
    b = split_by_cluster(clusters, seed=9)
    c = split_by_cluster(clusters, seed=10)
    assert [[p.id for p in s] for s in a] == [[p.id for p in s] for s in b]
    assert [[p.id for p in s] for s in a] != [[p.id for p in s] for s in c]


def test_split_validation():
    clusters = greedy_cluster([_pep("a", "KKKKKKKK")], identity_threshold=0.4)
    with pytest.raises(ValueError, match="sum"):
        split_by_cluster(clusters, fractions=(0.5, 0.2))
    with pytest.raises(ValueError):
        split_by_cluster(clusters, fractions=(1.1, -0.1))
    with pytest.raises(ValueError, match="cluster"):
        split_by_cluster(clusters, fractions=(0.5, 0.3, 0.2))


def test_balance_equalizes_classes_per_length_bin():
    rng = np.random.default_rng(6)
    pos, neg = [], []
    seen = set()
    # same 10-14 residue bin, 3x as many negatives
    while len(pos) < 10 or len(neg) < 30:
        length = int(rng.integers(10, 15))
        residues = "".join(rng.choice(list("KRLW"), size=length))
        if residues in seen:
            continue
        seen.add(residues)
        if len(pos) < 10:
            pos.append(_pep(f"p{len(pos)}", residues))
        else:
            neg.append(_pep(f"n{len(neg)}", residues))
    out = balance(pos, neg, seed=0)
    labels = out.labels()
    assert labels.sum() == 10
    assert (labels == 0).sum() == 10
    # per-bin counts also match
    for p, y in out.items:
        assert 10 <= len(p.residues) <= 14


def test_balance_warns_and_drops_single_class_bins():
    pos = [_pep("p0", "K" * 10)]
    neg = [_pep("n0", "D" * 10), _pep("n1", "D" * 30)]  # the len-30 bin has no positives
    with pytest.warns(UserWarning, match="single class"):
        out = balance(pos, neg, seed=0)
    ids = [p.id for p, _ in out.items]
    assert "n1" not in ids
    assert sorted(ids) == ["n0", "p0"]


def test_balance_is_seed_deterministic():
    rng = np.random.default_rng(7)
    pos = unique_random_peptides(8, rng, min_len=10, max_len=14, prefix="p")
    neg = unique_random_peptides(20, rng, min_len=10, max_len=14, prefix="n")
    a = balance(pos, neg, seed=3)
    b = balance(pos, neg, seed=3)
    assert [(p.id, y) for p, y in a.items] == [(p.id, y) for p, y in b.items]


def test_balance_requires_overlap():
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            balance([_pep("p", "K" * 10)], [_pep("n", "D" * 40)], seed=0)


def test_read_cluster_assignments(tmp_path):
    peps = [_pep("a", "KKKKKKKKKK"), _pep("b", "KKKKKKKKKD"), _pep("c", "DDDDDDDDDD")]
    text = "# external clustering\na\tc1\nb\tc1\nc\tc2\n"
    clusters = read_cluster_assignments(io.StringIO(text), peps)
    assert sorted(len(c.members) for c in clusters) == [1, 2]
    big = max(clusters, key=lambda c: len(c.members))
    # equal lengths: the lexicographically smaller residue string represents
    assert big.representative.id == "b"


def test_read_cluster_assignments_errors():
    peps = [_pep("a", "KKKKKKKK")]
    with pytest.raises(ValueError, match="unknown"):
        read_cluster_assignments(io.StringIO("zz\tc1\n"), peps)
    with pytest.raises(ValueError, match="duplicate"):
        read_cluster_assignments(io.StringIO("a\tc1\na\tc2\n"), peps)
    with pytest.raises(ValueError, match="missing"):
        read_cluster_assignments(io.StringIO(""), peps)


def test_split_manifest_contents(tmp_path):
    peps = [_pep("a", "KKKKKKKK"), _pep("b", "DDDDDDDD")]
    path = tmp_path / "splits.json"
    write_split_manifest(path, ["train", "val"], [[peps[0]], [peps[1]]], (0.5, 0.5), seed=4)
    manifest = json.loads(path.read_text())
    assert manifest["seed"] == 4
    assert manifest["splits"]["train"]["count"] == 1
    assert manifest["splits"]["val"]["ids"] == ["b"]
