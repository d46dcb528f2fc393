import itertools
import re

import numpy as np
import pytest

from frontdoor_lab.causal_graph import (
    Dag,
    bidirected_path_exists,
    d_separated,
    dag_from_text,
    frontdoor_dag,
    frontdoor_design_dag,
    frontdoor_identifiable,
    load_graph,
    mar_holds,
)
from frontdoor_lab.errors import FrontdoorLabError

from oracles import (
    bidirected_path_bruteforce,
    d_separated_bruteforce,
    random_dag,
)


def cycle_in(error: FrontdoorLabError) -> list[str]:
    """The node names of a ``cycle detected: A -> B -> A`` message."""
    return str(error).removeprefix("cycle detected: ").split(" -> ")


class TestBuildDag:
    """`Dag(nodes, edges)` and the checks it makes."""

    def test_confounded_mediation_graph_is_valid(self):
        g = frontdoor_dag()
        assert g.node_names == {"U", "X", "Z", "Y"}
        assert g.is_latent("U") and not g.is_latent("X")
        assert g.children("X") == {"Z"}
        assert g.parents("Y") == {"U", "Z"}

    def test_empty_graph(self):
        g = Dag([], [])
        assert g.node_names == frozenset()
        assert g.edges == frozenset()

    def test_two_cycle_rejected(self):
        with pytest.raises(FrontdoorLabError, match="^cycle detected: ") as exc:
            Dag([("A", "observed"), ("B", "observed")], [("A", "B"), ("B", "A")])
        cycle = cycle_in(exc.value)
        assert cycle[0] == cycle[-1] and set(cycle) == {"A", "B"}

    def test_longer_cycle_reported(self):
        with pytest.raises(FrontdoorLabError, match="^cycle detected: ") as exc:
            Dag(
                [(n, "observed") for n in "ABCD"],
                [("A", "B"), ("B", "C"), ("C", "D"), ("D", "B")],
            )
        assert set(cycle_in(exc.value)) == {"B", "C", "D"}

    def test_self_loop_rejected(self):
        with pytest.raises(FrontdoorLabError, match="^cycle detected: A -> A$"):
            Dag([("A", "observed")], [("A", "A")])

    def test_unknown_endpoint(self):
        with pytest.raises(FrontdoorLabError, match="^edge endpoint not declared: 'B'$"):
            Dag([("A", "observed")], [("A", "B")])

    def test_duplicate_edge(self):
        with pytest.raises(FrontdoorLabError, match="^duplicate edge: A -> B$"):
            Dag(
                [("A", "observed"), ("B", "observed")],
                [("A", "B"), ("A", "B")],
            )

    def test_duplicate_node_name(self):
        with pytest.raises(FrontdoorLabError, match="^node declared twice: 'A'$"):
            Dag([("A", "observed"), ("A", "latent")], [])

    def test_empty_node_name(self):
        with pytest.raises(FrontdoorLabError, match="^node names must be nonempty$"):
            Dag([("", "observed")], [])

    @pytest.mark.parametrize("kind", ["hidden", "Latent", True], ids=repr)
    def test_unknown_kind(self, kind):
        message = f"node kind must be 'observed' or 'latent', got {kind!r} for 'U'"
        with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
            Dag([("U", kind)], [])

    @pytest.mark.parametrize(
        "nodes, edges, message",
        [
            ([("A",)], [], "node must be a (name, kind) pair with a str name, got ('A',)"),
            ([("A", "observed")], [("A",)], "edge must be a pair of node names, got ('A',)"),
            (
                [(["A"], "observed")], [],
                "node must be a (name, kind) pair with a str name, got (['A'], 'observed')",
            ),
            (
                [(5, "observed")], [],
                "node must be a (name, kind) pair with a str name, got (5, 'observed')",
            ),
        ],
        ids=["short_node", "short_edge", "list_name", "int_name"],
    )
    def test_malformed_item_rejected(self, nodes, edges, message):
        with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
            Dag(nodes, edges)

    def test_unknown_parent_endpoint(self):
        with pytest.raises(FrontdoorLabError, match="^edge endpoint not declared: 'B'$"):
            Dag([("A", "observed")], [("B", "A")])

    def test_equality_needs_the_same_kinds_and_edges(self):
        nodes = [("A", "observed"), ("B", "observed")]
        g = Dag(nodes, [("A", "B")])
        assert g == Dag(list(reversed(nodes)), [("A", "B")])
        assert g != Dag(nodes, [("B", "A")])
        assert g != Dag([("A", "latent"), ("B", "observed")], [("A", "B")])
        # another type is left to decide the comparison itself
        assert g.__eq__(nodes) is NotImplemented and g != nodes

    def test_repr_lists_sorted_nodes_and_edges(self):
        g = Dag([("B", "latent"), ("A", "observed")], [("B", "A")])
        assert repr(g) == "Dag(nodes=['A', 'B'], edges=[('B', 'A')])"


class TestDSeparation:
    def test_mediation_graph_x_y_given_z_not_separated(self):
        # the latent fork keeps X and Y connected after conditioning on Z
        g = frontdoor_dag()
        assert d_separated(g, {"X"}, {"Y"}, {"Z"}) is False
        assert d_separated_bruteforce(g, {"X"}, {"Y"}, {"Z"}) is False

    def test_mediation_graph_z_u_given_x_separated(self):
        g = frontdoor_dag()
        assert d_separated(g, {"Z"}, {"U"}, {"X"}) is True
        assert d_separated_bruteforce(g, {"Z"}, {"U"}, {"X"}) is True

    def test_edgeless_nodes_separated(self):
        g = Dag([("A", "observed"), ("B", "observed")], [])
        assert d_separated(g, {"A"}, {"B"}, set()) is True

    def test_collider_opens_when_conditioned(self):
        g = Dag(
            [("A", "observed"), ("B", "observed"), ("C", "observed")],
            [("A", "C"), ("B", "C")],
        )
        assert d_separated(g, {"A"}, {"B"}, set()) is True
        assert d_separated(g, {"A"}, {"B"}, {"C"}) is False

    def test_collider_descendant_opens(self):
        g = Dag(
            [(n, "observed") for n in "ABCD"],
            [("A", "C"), ("B", "C"), ("C", "D")],
        )
        assert d_separated(g, {"A"}, {"B"}, {"D"}) is False

    def test_overlapping_sets_rejected(self):
        g = frontdoor_dag()
        with pytest.raises(FrontdoorLabError, match="^query sets must be pairwise disjoint$"):
            d_separated(g, {"X"}, {"X"}, set())
        with pytest.raises(FrontdoorLabError, match="^query sets must be pairwise disjoint$"):
            d_separated(g, {"X"}, {"Y"}, {"X"})

    def test_unknown_node_rejected(self):
        g = frontdoor_dag()
        with pytest.raises(FrontdoorLabError, match="^unknown node in second set: 'missing'$"):
            d_separated(g, {"X"}, {"missing"}, set())

    def test_empty_query_set_is_separated(self):
        g = frontdoor_dag()
        assert d_separated(g, set(), {"Y"}, set()) is True

    @pytest.mark.parametrize(
        "sets, label",
        [(("XZ", {"Y"}, ()), "first set"), (({"X"}, "Y", ()), "second set"),
         (({"X"}, {"Y"}, "Z"), "conditioning set")],
        ids=["first", "second", "conditioning"],
    )
    def test_a_bare_string_is_not_a_set_of_names(self, sets, label):
        # a str iterates over its characters, which may happen to be node names
        shown = next(s for s in sets if isinstance(s, str))
        with pytest.raises(
            FrontdoorLabError, match=f"^{label} must be a set of node names, got '{shown}'$"
        ):
            d_separated(frontdoor_dag(), *sets)


class TestDSeparationProperties:
    """Seeded corpus comparisons against the path-enumeration oracle."""

    def test_agrees_with_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(20231115)
        for _ in range(120):
            n_nodes = int(rng.integers(2, 7))
            g = random_dag(rng, n_nodes, p_edge=float(rng.uniform(0.1, 0.7)), p_latent=0.3)
            names = sorted(g.node_names)
            for a, b in itertools.permutations(names, 2):
                others = [n for n in names if n not in (a, b)]
                for r in range(len(others) + 1):
                    for c in itertools.combinations(others, r):
                        got = d_separated(g, {a}, {b}, set(c))
                        want = d_separated_bruteforce(g, {a}, {b}, set(c))
                        assert got == want, (g, a, b, c)

    def test_symmetry_in_first_two_arguments(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = random_dag(rng, int(rng.integers(3, 7)), 0.4, 0.25)
            names = sorted(g.node_names)
            a, b = names[0], names[1]
            c = set(names[2:3])
            assert d_separated(g, {a}, {b}, c) == d_separated(g, {b}, {a}, c)

    def test_isolated_node_does_not_change_answers(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            g = random_dag(rng, 5, 0.4, 0.25)
            augmented = Dag(
                [(n, "latent" if g.is_latent(n) else "observed") for n in sorted(g.node_names)]
                + [("lonely", "observed")],
                sorted(g.edges),
            )
            names = sorted(g.node_names)
            for a, b in itertools.permutations(names, 2):
                for c in ({}, {names[2]} - {a, b}):
                    cond = set(c) - {a, b}
                    assert d_separated(g, {a}, {b}, cond) == d_separated(
                        augmented, {a}, {b}, cond
                    )


class TestMarHolds:
    def test_design_graph_mar_given_outcome(self):
        g = frontdoor_design_dag()
        assert mar_holds(g, "X", "M_X", {"Y"}) is True
        assert mar_holds(g, "Z", "M_Z", {"Y"}) is True

    def test_bare_string_conditioning_set_rejected(self):
        message = r"^conditioning set must be a set of node names, got 'Y\*'$"
        with pytest.raises(FrontdoorLabError, match=message):
            mar_holds(frontdoor_design_dag(), "X", "M_X", "Y*")

    def test_design_graph_not_mar_unconditionally(self):
        # M_X <- Y <- Z <- X stays open without conditioning
        g = frontdoor_design_dag()
        assert mar_holds(g, "X", "M_X", set()) is False
        assert mar_holds(g, "Z", "M_Z", set()) is False

    def test_matches_bruteforce_on_design_graph(self):
        g = frontdoor_design_dag()
        for value, ind in (("X", "M_X"), ("Z", "M_Z")):
            for cond in (set(), {"Y"}, {"Y", "U"}):
                assert mar_holds(g, value, ind, cond) == d_separated_bruteforce(
                    g, {ind}, {value}, cond
                )


class TestBidirectedPaths:
    def test_latent_fork_connects_x_and_y(self):
        g = frontdoor_dag()
        assert bidirected_path_exists(g, "X", "Y") is True
        assert bidirected_path_bruteforce(g, "X", "Y") is True

    def test_mediator_shielded_from_latent(self):
        g = frontdoor_dag()
        assert bidirected_path_exists(g, "X", "Z") is False

    def test_isolated_nodes(self):
        g = Dag([("A", "observed"), ("B", "observed")], [])
        assert bidirected_path_exists(g, "A", "B") is False

    def test_latent_query_node_rejected(self):
        g = frontdoor_dag()
        with pytest.raises(FrontdoorLabError, match="^query node must be observed: 'U'$"):
            bidirected_path_exists(g, "U", "X")

    def test_agrees_with_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(80):
            g = random_dag(rng, int(rng.integers(3, 7)), 0.4, 0.4)
            observed = [n for n in sorted(g.node_names) if not g.is_latent(n)]
            for a, b in itertools.combinations(observed, 2):
                assert bidirected_path_exists(g, a, b) == bidirected_path_bruteforce(g, a, b)
                checked += 1
        assert checked > 100


class TestFrontdoorIdentifiable:
    def test_mediation_graph_identifiable(self):
        assert frontdoor_identifiable(frontdoor_dag(), "X") is True

    def test_latent_edge_to_mediator_breaks_identifiability(self):
        g = Dag(
            [("U", "latent"), ("X", "observed"), ("Z", "observed")],
            [("U", "X"), ("U", "Z"), ("X", "Z")],
        )
        assert frontdoor_identifiable(g, "X") is False

    def test_childless_node_vacuously_identifiable(self):
        g = frontdoor_dag()
        assert frontdoor_identifiable(g, "Y") is True

    def test_extra_confounder_edge_on_full_graph(self):
        g = Dag(
            [("U", "latent"), ("X", "observed"), ("Z", "observed"), ("Y", "observed")],
            [("U", "X"), ("U", "Y"), ("U", "Z"), ("X", "Z"), ("Z", "Y")],
        )
        assert frontdoor_identifiable(g, "X") is False

    def test_latent_child_breaks_identifiability(self):
        g = Dag(
            [("X", "observed"), ("L", "latent")],
            [("X", "L")],
        )
        assert frontdoor_identifiable(g, "X") is False

    def test_unknown_node(self):
        with pytest.raises(FrontdoorLabError, match="^unknown node: 'Q'$"):
            frontdoor_identifiable(frontdoor_dag(), "Q")

    def test_agrees_with_child_criterion_on_random_graphs(self):
        # the graphs of TestBidirectedPaths's brute-force comparison
        rng = np.random.default_rng(4)
        outcomes = []
        for _ in range(80):
            g = random_dag(rng, int(rng.integers(3, 7)), 0.4, 0.4)
            for x in sorted(n for n in g.node_names if not g.is_latent(n)):
                blocked = any(
                    g.is_latent(child) or bidirected_path_bruteforce(g, x, child)
                    for child in g.children(x)
                )
                assert frontdoor_identifiable(g, x) is not blocked, (g, x)
                outcomes.append(blocked)
        assert len(outcomes) > 100 and 0 < sum(outcomes) < len(outcomes)


class TestTextFormat:
    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nnode A observed\nnode B latent\nedge B A\n"
        g = dag_from_text(text)
        assert g.node_names == {"A", "B"}
        assert g.is_latent("B")

    def test_bad_line_rejected(self):
        with pytest.raises(FrontdoorLabError, match="^line 2: cannot parse 'edge A'$"):
            dag_from_text("node A observed\nedge A\n")
        with pytest.raises(FrontdoorLabError, match="^line 1: cannot parse 'node A sometimes'$"):
            dag_from_text("node A sometimes\n")

    def test_bundled_files_match_builtins(self):
        import frontdoor_lab

        root = __import__("pathlib").Path(frontdoor_lab.__file__).parent / "graphs"
        assert load_graph(root / "frontdoor.graph") == frontdoor_dag()
        assert load_graph(root / "frontdoor_design.graph") == frontdoor_design_dag()

