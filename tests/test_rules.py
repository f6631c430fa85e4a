"""Unit tests for view building and rule generation (myRules)."""

from repro.core.rules import RuleGenerator, build_view
from repro.core.tags import Tag
from repro.net.topology import NodeKind
from repro.switch.commands import QueryReply


def reply(node, neighbors, kind="switch"):
    return QueryReply(
        node=node, neighbors=tuple(neighbors), managers=(), rules=(), kind=kind
    )


T = Tag("c0", 1)
T2 = Tag("c0", 2)


def test_build_view_nodes_and_edges():
    view = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"]), reply("s2", ["s1"])])
    assert set(view.nodes) == {"c0", "s1", "s2"}
    assert ("s1", "s2") in view.links or ("s2", "s1") in view.links
    assert view.has_link("c0", "s1")


def test_build_view_owner_is_controller():
    view = build_view("c0", [], [])
    assert view.is_controller("c0")


def test_build_view_controller_kind_from_reply():
    view = build_view("c0", ["c1"], [reply("c1", ["c0"], kind="controller")])
    assert view.is_controller("c1")


def test_build_view_unknown_nodes_are_switches():
    view = build_view("c0", ["s1"], [reply("s1", ["mystery"])])
    assert view.is_switch("mystery")


def test_build_view_deduplicates_edges():
    view = build_view(
        "c0", ["s1"], [reply("s1", ["s2"]), reply("s2", ["s1"])]
    )
    assert len(view.links) == 2  # c0-s1 and s1-s2 exactly once


def test_rules_for_view_covers_reachable_targets():
    view = build_view(
        "c0",
        ["s1"],
        [reply("s1", ["c0", "s2"]), reply("s2", ["s1", "s3"]), reply("s3", ["s2"])],
    )
    gen = RuleGenerator("c0", kappa=0)
    per_switch = gen.rules_for_view(view, T)
    # Forwarding to s2/s3 requires rules at s1 and s2 at least.
    assert "s1" in per_switch and "s2" in per_switch
    dsts = {r.dst for rules in per_switch.values() for r in rules}
    assert {"s2", "s3"} <= dsts


def test_rules_cached_per_view_and_tag():
    """The plan is cached per view; a new round's tag on the same view
    re-tags the cached rules without re-planning any route."""
    view = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"]), reply("s2", ["s1"])])
    gen = RuleGenerator("c0", kappa=0)
    first = gen.rules_for_view(view, T)
    assert gen.rules_for_view(view, T) is first
    assert gen.computations == 1
    retagged = gen.rules_for_view(view, T2)  # new round, same view
    assert gen.computations == 1
    assert {sid: [r.key() for r in rules] for sid, rules in retagged.items()} == {
        sid: [r.key() for r in rules] for sid, rules in first.items()
    }
    assert all(r.tag == T2 for rules in retagged.values() for r in rules)
    assert all(r.tag == T for rules in first.values() for r in rules)
    assert all(r.tag == T2 for r in gen.my_rules(view, "s1", T2))
    # A changed view still recomputes, tagged with the current round.
    grown = build_view(
        "c0",
        ["s1"],
        [reply("s1", ["c0", "s2"]), reply("s2", ["s1", "s3"]), reply("s3", ["s2"])],
    )
    regrown = gen.rules_for_view(grown, T2)
    assert gen.computations == 2
    assert "s3" in {r.dst for rules in regrown.values() for r in rules}
    assert all(r.tag == T2 for rules in regrown.values() for r in rules)


def test_cache_invalidated_on_view_change():
    gen = RuleGenerator("c0", kappa=0)
    view1 = build_view("c0", ["s1"], [reply("s1", ["c0"])])
    gen.rules_for_view(view1, T)
    view2 = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"])])
    gen.rules_for_view(view2, T)
    assert gen.computations == 2


def test_my_rules_owned_and_tagged():
    view = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"]), reply("s2", ["s1"])])
    gen = RuleGenerator("c0", kappa=0)
    for r in gen.my_rules(view, "s1", T):
        assert r.cid == "c0"
        assert r.tag == T
        assert r.sid == "s1"


def test_my_rules_deduplicates_by_key():
    view = build_view(
        "c0",
        ["s1"],
        [reply("s1", ["c0", "s2"]), reply("s2", ["s1", "s3"]), reply("s3", ["s2"])],
    )
    gen = RuleGenerator("c0", kappa=0)
    rules = gen.my_rules(view, "s1", T)
    keys = [r.key() for r in rules]
    assert len(keys) == len(set(keys))


def test_no_rules_installed_on_controllers():
    view = build_view(
        "c0", ["s1"], [reply("s1", ["c0", "c1"]), reply("c1", ["s1"], kind="controller")]
    )
    gen = RuleGenerator("c0", kappa=0)
    per_switch = gen.rules_for_view(view, T)
    assert "c1" not in per_switch


def test_invalidate_clears_cache():
    view = build_view("c0", ["s1"], [reply("s1", ["c0"])])
    gen = RuleGenerator("c0", kappa=0)
    gen.rules_for_view(view, T)
    gen.invalidate()
    gen.rules_for_view(view, T)
    assert gen.computations == 2
