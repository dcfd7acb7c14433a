"""Tests for the four gadget builders, their verifier and the on-disk form."""

import itertools
import random

import pytest

from mcislab.corpus import random_clique_instance, random_three_partition
from mcislab.graphs import (
    MAX_VERTICES,
    Graph,
    SizeBoundError,
    VertexMapping,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    graph_stats,
    is_induced_isomorphism,
    path_graph,
)
from mcislab.reductions import (
    CliqueInstance,
    EquivalenceClassError,
    ReductionOutput,
    SoundnessError,
    ThreePartitionInstance,
    clique_to_incidence_isi,
    cross_compose,
    has_clique,
    incidence_graph,
    isi_to_mccis,
    read_reduction,
    three_partition_exists,
    three_partition_to_forest_isi,
    verify_reduction,
    write_reduction,
)
from mcislab.solvers import SolveQuery, isi_backtracking, mcis_bruteforce


# --- source-problem oracles -------------------------------------------------


def test_has_clique_examples():
    assert has_clique(complete_graph(4), 4)
    assert not has_clique(cycle_graph(5), 3)
    assert has_clique(cycle_graph(5), 2)
    assert has_clique(edgeless_graph(3), 1)
    assert not has_clique(edgeless_graph(3), 2)


def test_three_partition_oracle_examples():
    yes = ThreePartitionInstance((4, 4, 5, 4, 4, 5), 2, 13)
    no = ThreePartitionInstance((4, 4, 4, 4, 4, 6), 2, 13)
    assert three_partition_exists(yes)
    assert not three_partition_exists(no)


def test_three_partition_oracle_takes_a_thousand_triples_without_recursion():
    # one search level per triple: 1,000 levels, past the default recursion limit
    assert three_partition_exists(ThreePartitionInstance((5,) * 3000, 1000, 15))


def test_three_partition_instance_validation():
    with pytest.raises(ValueError):
        ThreePartitionInstance((1, 2), 1, 3)  # not 3m items
    with pytest.raises(ValueError):
        ThreePartitionInstance((1, 1, 2), 1, 3)  # wrong sum
    with pytest.raises(ValueError):
        ThreePartitionInstance((0, 1, 2), 1, 3)  # non-positive item


# --- clique -> incidence ISI -----------------------------------------------


def test_incidence_target_formula():
    out = clique_to_incidence_isi(complete_graph(3), 3)
    assert out.target == 6
    assert out.g1.n == 6 and out.g2.n == 6


def test_incidence_positive_instance():
    out = clique_to_incidence_isi(complete_graph(4), 3)
    assert isi_backtracking(out.g1, out.g2) is not None


def test_incidence_negative_instance():
    out = clique_to_incidence_isi(path_graph(3), 3)
    assert isi_backtracking(out.g1, out.g2) is None


def test_incidence_rejects_small_k():
    with pytest.raises(ValueError):
        clique_to_incidence_isi(complete_graph(3), 2)


def test_incidence_outputs_are_c4_free_bipartite():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_clique_instance(rng, 6, rng.randint(3, 4))
        out = clique_to_incidence_isi(inst.graph, inst.l)
        for g in (out.g1, out.g2):
            stats = graph_stats(g)
            assert stats.bipartite and stats.c4_free
            assert stats.girth is None or stats.girth >= 6


def test_incidence_equivalence_on_random_instances():
    rng = random.Random(32)
    for _ in range(20):
        inst = random_clique_instance(rng, 6, rng.randint(3, 4))
        out = clique_to_incidence_isi(inst.graph, inst.l)
        got = isi_backtracking(out.g1, out.g2) is not None
        assert got == has_clique(inst.graph, inst.l), (inst.graph.edges, inst.l)


# --- cross-composition ------------------------------------------------------


def test_cross_compose_sizes():
    insts = [CliqueInstance(complete_graph(4), 3), CliqueInstance(cycle_graph(4), 3)]
    out = cross_compose(insts)
    # host: 3 anchors + t selectors + C(4,2) pair nodes + 4 vertex nodes
    assert out.g2.n == 3 + 2 + 6 + 4
    # pattern: 4 anchors + C(3,2) pair nodes + 3 vertex nodes
    assert out.g1.n == 4 + 3 + 3
    assert out.target == out.g1.n
    assert out.certificates["z_size_formula"] == 4 * 3 // 2 + 2
    assert len(out.certificates["vertex_cover_z"]) == 8


def test_cross_compose_vertex_numbering_is_pinned():
    # the numbering is the on-disk form: manifest roles and edge-list ids
    out = cross_compose([CliqueInstance(path_graph(3), 3), CliqueInstance(complete_graph(3), 3)])
    assert out.roles["g1"] == ["p", "q", "r", "a", "e_1", "e_2", "e_3", "v_1", "v_2", "v_3"]
    assert sorted(out.g1.edges) == [
        (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6),
        (4, 7), (4, 8), (5, 7), (5, 9), (6, 8), (6, 9),
    ]
    assert out.roles["g2"] == [
        "p", "q", "r", "a_1", "a_2", "e_1_2", "e_1_3", "e_2_3", "v_1", "v_2", "v_3",
    ]
    assert sorted(out.g2.edges) == [
        (0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (3, 7), (4, 5),
        (4, 6), (4, 7), (5, 8), (5, 9), (6, 8), (6, 10), (7, 9), (7, 10),
    ]
    assert out.certificates["vertex_cover_z"] == [0, 2, 5, 6, 7]


def test_cross_compose_rejects_heterogeneous_batches():
    with pytest.raises(EquivalenceClassError):
        cross_compose(
            [CliqueInstance(complete_graph(4), 3), CliqueInstance(complete_graph(5), 3)]
        )
    with pytest.raises(EquivalenceClassError):
        cross_compose([])


def test_cross_compose_positive_iff_some_member_has_the_clique():
    rng = random.Random(33)
    for _ in range(8):
        n = rng.randint(3, 5)
        l = 3
        t = rng.randint(1, 3)
        insts = []
        for _ in range(t):
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ]
            insts.append(CliqueInstance(Graph.from_edges(n, edges), l))
        out = cross_compose(insts)
        got = isi_backtracking(out.g1, out.g2) is not None
        expected = any(has_clique(i.graph, l) for i in insts)
        assert got == expected, [i.graph.edges for i in insts]


def test_cross_compose_structure_certificates_hold():
    insts = [CliqueInstance(cycle_graph(5), 3)]
    out = cross_compose(insts)
    report = verify_reduction(out, source_answer=False)
    assert report.ok, report.failures()


# --- universal-vertex lift --------------------------------------------------


def test_universal_lift_separates_a_classic_pair():
    # two isolated vertices embed into two disjoint edges as a plain ISI,
    # but after the lift the match must stay connected through the hubs
    pattern = edgeless_graph(2)
    host = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert isi_backtracking(pattern, host) is not None
    out = isi_to_mccis(pattern, host)
    assert out.target == 3
    result = mcis_bruteforce(SolveQuery(out.g1, out.g2, connected=True))
    assert result.size >= out.target  # star on 2 leaves fits around one edge


def test_universal_lift_on_single_vertex():
    out = isi_to_mccis(edgeless_graph(1), edgeless_graph(1))
    assert out.target == 2
    assert out.g1.edges == path_graph(2).edges


def test_universal_lift_names_the_added_vertex_last():
    out = isi_to_mccis(path_graph(2), edgeless_graph(3))
    assert out.roles == {"g1": [None, None, "universal"], "g2": [None, None, None, "universal"]}
    assert out.g2.adj[3] == {0, 1, 2}


def test_universal_lift_refuses_an_input_at_the_size_bound():
    # the lift adds a vertex, so an input of MAX_VERTICES would build one over it
    at, below = path_graph(MAX_VERTICES), path_graph(MAX_VERTICES - 1)
    for g1, g2 in ((at, below), (below, at)):
        with pytest.raises(SizeBoundError, match=f"^the gadget would have {MAX_VERTICES + 1} vertices"):
            isi_to_mccis(g1, g2)
    assert isi_to_mccis(below, below).g2.n == MAX_VERTICES


def test_universal_lift_rejects_inputs_with_a_cycle():
    # a cycle survives the lift, so the fvs-at-most-1 certificate would be false
    for g1, g2 in ((cycle_graph(5), path_graph(3)), (path_graph(3), cycle_graph(3))):
        with pytest.raises(SoundnessError, match="has a cycle"):
            isi_to_mccis(g1, g2)
    # a forest with several components has m = n - components, and passes
    forest = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert isi_to_mccis(forest, forest).certificates["fvs_bound"] == 1


def test_universal_lift_equivalence_on_random_forests():
    rng = random.Random(34)
    from mcislab.corpus import random_forest

    for _ in range(15):
        g1 = random_forest(rng, 5)
        g2 = random_forest(rng, 6)
        source = isi_backtracking(g1, g2) is not None
        out = isi_to_mccis(g1, g2)
        report = verify_reduction(out, source)
        assert report.ok, (g1.edges, g2.edges, report.failures())


# --- 3-Partition -> forest ISI ---------------------------------------------


def test_three_partition_minimal_yes_instance():
    inst = ThreePartitionInstance((1, 1, 1), 1, 3)
    out = three_partition_to_forest_isi(inst)
    assert out.g2.edges == path_graph(5).edges
    assert isi_backtracking(out.g1, out.g2) is not None


def test_three_partition_range_violation_is_rejected():
    # the item of size 1 fails B/4 < a_i for B = 6
    inst = ThreePartitionInstance((1, 2, 3), 1, 6)
    assert not inst.satisfies_strict_range()
    with pytest.raises(SoundnessError):
        three_partition_to_forest_isi(inst)


def test_three_partition_designated_pair():
    yes = ThreePartitionInstance((4, 4, 5, 4, 4, 5), 2, 13)
    no = ThreePartitionInstance((4, 4, 4, 4, 4, 6), 2, 13)
    out_yes = three_partition_to_forest_isi(yes)
    out_no = three_partition_to_forest_isi(no)
    assert out_yes.certificates["host_len"] == 15
    assert isi_backtracking(out_yes.g1, out_yes.g2) is not None
    assert isi_backtracking(out_no.g1, out_no.g2) is None


def test_three_partition_outputs_are_forests():
    rng = random.Random(35)
    for _ in range(5):
        inst = random_three_partition(rng)
        out = three_partition_to_forest_isi(inst)
        assert graph_stats(out.g1).girth is None
        assert graph_stats(out.g2).girth is None
        assert out.g2.n == inst.m * (inst.B + 2)


def test_builders_refuse_gadgets_above_the_size_bound():
    # each output is sized from the inputs before anything is built: the
    # pattern of k = 800 once had 320,400 vertices, and the composed host
    # grows as n^2 whatever the instances hold
    with pytest.raises(SizeBoundError, match="^the gadget would have 320400 vertices"):
        clique_to_incidence_isi(path_graph(3), 800)
    with pytest.raises(SizeBoundError, match="^the gadget would have 125255 vertices"):
        cross_compose([CliqueInstance(edgeless_graph(500), 3)] * 2)
    with pytest.raises(SizeBoundError, match=f"^the gadget would have 300002 vertices, above the size bound {MAX_VERTICES}"):
        three_partition_to_forest_isi(ThreePartitionInstance((100_000,) * 3, 1, 300_000))


# --- the verifier -----------------------------------------------------------


def test_verifier_passes_on_honest_outputs():
    inst = CliqueInstance(complete_graph(4), 3)
    out = clique_to_incidence_isi(inst.graph, inst.l)
    report = verify_reduction(out, has_clique(inst.graph, inst.l))
    assert report.ok, report.failures()


def test_verifier_catches_tampering():
    out = cross_compose([CliqueInstance(complete_graph(4), 3)])
    # remove the anchor edge p-q: the unique-triangle certificate must fail
    broken_edges = {e for e in out.g2.edges if e != (0, 1)}
    broken = ReductionOutput(
        out.kind,
        out.g1,
        Graph(out.g2.n, frozenset(broken_edges)),
        out.target,
        out.certificates,
        out.roles,
    )
    report = verify_reduction(broken, source_answer=True)
    assert not report.ok
    assert any(c.name == "unique_triangle_pqr" for c in report.failures())


def test_verifier_catches_wrong_answer_claim():
    out = clique_to_incidence_isi(path_graph(3), 3)
    report = verify_reduction(out, source_answer=True)
    assert any(c.name == "isi_matches_source" for c in report.failures())


def test_verifier_rejects_unknown_kind():
    bogus = ReductionOutput("mystery", path_graph(2), path_graph(2), 1, {})
    assert not verify_reduction(bogus, True).ok


def test_verifier_rejects_unlabelled_graphs_without_assert():
    # the role lookup must hold under python -O, which strips assert statements
    out = isi_to_mccis(path_graph(2), path_graph(3))
    for roles in ({"g2": out.roles["g2"]}, {"g1": out.roles["g1"][1:], "g2": out.roles["g2"]}):
        unlabelled = ReductionOutput(out.kind, out.g1, out.g2, out.target, out.certificates, roles)
        with pytest.raises(ValueError, match="^g1 has no role per vertex"):
            verify_reduction(unlabelled, source_answer=True)


# --- on-disk form -----------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    out = clique_to_incidence_isi(complete_graph(4), 3)
    write_reduction(out, tmp_path / "red")
    again = read_reduction(tmp_path / "red")
    assert again.kind == out.kind
    assert again.target == out.target
    assert again.g1.edges == out.g1.edges and again.g2.edges == out.g2.edges
    assert again.roles == out.roles
    assert again.certificates == out.certificates


def test_written_files_exist(tmp_path):
    out = isi_to_mccis(path_graph(3), path_graph(4))
    outdir = write_reduction(out, tmp_path / "lift")
    for name in ("g1.edgelist", "g2.edgelist", "manifest.json"):
        assert (outdir / name).is_file()


# --- incidence graph helper -------------------------------------------------


def test_incidence_graph_of_triangle_is_c6():
    inc = incidence_graph(complete_graph(3))
    assert inc.n == 6 and inc.m == 6
    found = any(
        is_induced_isomorphism(
            cycle_graph(6), inc, VertexMapping(tuple(zip(range(6), perm)))
        )
        for perm in itertools.permutations(range(6))
    )
    assert found


def test_incidence_graph_labels_and_degrees():
    inc = incidence_graph(path_graph(3))
    assert sorted(inc.edges) == [(0, 3), (1, 3), (1, 4), (2, 4)]
    assert len(inc.adj[3]) == len(inc.adj[4]) == 2
    out = clique_to_incidence_isi(path_graph(3), 3)
    assert out.g2.edges == inc.edges
    assert out.roles["g2"] == ["v_1", "v_2", "v_3", "e_1_2", "e_2_3"]
