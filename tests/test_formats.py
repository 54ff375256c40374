import pytest
from hypothesis import given, settings

import networkx as nx

from graphcanon import (
    ColoredGraph,
    FormatError,
    InvalidGraphError,
    cg_dumps,
    cg_loads,
    enumerate_rotation_systems,
    gen_family,
    graph6_dumps,
    graph6_loads,
    platonic_rotation_system,
    rs_dumps,
    rs_loads,
)

from .test_graph import small_colored_graphs


class TestCg:
    def test_example_document(self):
        g = ColoredGraph(3, [(1, 2), (2, 3)], {1: {5}, 2: {0, 2}})
        text = cg_dumps(g)
        assert text == "cg 1\nn 3\ne 1 2\ne 2 3\nk 1 5\nk 2 0\nk 2 2\n"
        assert cg_loads(text) == g

    @settings(max_examples=120)
    @given(g=small_colored_graphs())
    def test_round_trip(self, g):
        assert cg_loads(cg_dumps(g)) == g

    @pytest.mark.parametrize(
        "bad",
        [
            "cg 1\nn 2\ne 2 1\n",            # u >= v
            "cg 1\nn 2\ne 1 1\n",            # loop
            "cg 1\nn 3\ne 2 3\ne 1 2\n",     # out of order
            "cg 1\nn 3\ne 1 2\ne 1 2\n",     # duplicate edge
            "cg 1\nn 3\nk 2 0\nk 1 0\n",     # colors out of order
            "cg 1\nn 3\nk 1 0\ne 1 2\n",     # edge after colors
            "cg 1\nn 3\ne 1 2",              # missing trailing newline
            "cg 2\nn 1\n",                   # wrong header
            "cg 1\nn 3\ne 1 4\n",            # endpoint out of range
            "cg 1\nn 03\n",                  # non-canonical integer
            "cg 1\nn 3\ne 1  2\n",           # stray whitespace
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            cg_loads(bad)


class TestRs:
    def test_round_trip_platonics(self):
        for name in ("k4", "cube", "octahedron"):
            rs = platonic_rotation_system(name)
            assert rs_loads(rs_dumps(rs)) == rs

    def test_round_trip_enumerated(self, k4):
        for rs in enumerate_rotation_systems(k4):
            assert rs_loads(rs_dumps(rs)) == rs

    def test_isolated_vertex_line(self):
        g = ColoredGraph(2)
        rs = next(enumerate_rotation_systems(g))
        text = rs_dumps(rs)
        assert text == "rs 1\nn 2\nr 1:\nr 2:\n"
        assert rs_loads(text) == rs

    def test_starting_vertex_normalization_enforced(self):
        rs = platonic_rotation_system("k4")
        text = rs_dumps(rs)
        # rotate vertex 1's cyclic listing away from its smallest neighbor
        lines = text.split("\n")
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("r 1:"))
        fields = lines[idx].split(" ")
        lines[idx] = " ".join(fields[:1] + [fields[1]] + fields[3:] + [fields[2]])
        with pytest.raises(FormatError):
            rs_loads("\n".join(lines))

    def test_rejects_incomplete_rotation(self):
        with pytest.raises(FormatError):
            rs_loads("rs 1\nn 2\ne 1 2\nr 1: 2\n")

    def test_rejects_wrong_neighborhood(self):
        with pytest.raises(FormatError):
            rs_loads("rs 1\nn 3\ne 1 2\ne 2 3\nr 1: 2 3\nr 2: 1 3\nr 3: 2\n")


class TestGraph6:
    def test_known_small_strings(self):
        # the published format description encodes the 5-vertex graph with
        # edges 0-2, 0-4, 1-3, 3-4 as "DQc"
        g = ColoredGraph(5, [(1, 3), (1, 5), (2, 4), (4, 5)])
        assert graph6_dumps(g) == "DQc"
        assert graph6_loads("DQc") == g

    def test_header_accepted(self):
        g = ColoredGraph(5, [(1, 3), (1, 5), (2, 4), (4, 5)])
        assert graph6_loads(">>graph6<<DQc") == g

    @settings(max_examples=120)
    @given(g=small_colored_graphs())
    def test_round_trip_and_networkx_agreement(self, g):
        bare = ColoredGraph(g.n, g.edges)
        text = graph6_dumps(bare)
        assert graph6_loads(text) == bare
        ref = nx.from_graph6_bytes(text.encode("ascii"))
        assert set(ref.nodes) == {v - 1 for v in bare.vertices}
        assert {(min(u, v) + 1, max(u, v) + 1) for u, v in ref.edges} == set(bare.edges)

    def test_matches_networkx_writer(self):
        for seed in range(10):
            g = gen_family("random_gnp", n=9, p=0.45, seed=seed)
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from((u - 1, v - 1) for u, v in g.edges)
            expected = nx.to_graph6_bytes(ref, header=False).strip().decode()
            assert graph6_dumps(g) == expected

    def test_large_n_size_block(self):
        g = ColoredGraph(63)
        text = graph6_dumps(g)
        assert text.startswith("~")
        assert graph6_loads(text) == g

    def test_colors_rejected(self):
        with pytest.raises(InvalidGraphError):
            graph6_dumps(ColoredGraph(2, [], {1: {0}}))

    @pytest.mark.parametrize("bad", ["", "B\x1f", "C~~~~", "B"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            graph6_loads(bad)


@pytest.mark.parametrize(
    "parse,text",
    [
        (cg_loads, "cg 1\nn \u00e9\n"),
        (cg_loads, "cg 1\nn 1\nk 1 \u0663\n"),
        (rs_loads, "rs 1\nn 1\nr 1:\u00a0\n"),
        (graph6_loads, "D\u00e9c"),
        (graph6_loads, ">>graph6<<\u2603"),
    ],
    ids=["cg-count", "cg-digit", "rs-space", "graph6-body", "graph6-header"],
)
def test_non_ascii_str_is_a_format_error(parse, text):
    # str input is encoded to ASCII first; a non-ASCII character there is
    # malformed input, not a UnicodeEncodeError
    with pytest.raises(FormatError):
        parse(text)
