"""Value contract of ``Rule`` and ``Tag``: immutable tuples compared, hashed
and printed field by field, built once by the planner and passed by
reference into the switch table."""

import pytest

from repro.api.phases import describe_fault_plan
from repro.core.config import RenaissanceConfig
from repro.core.rules import RuleGenerator
from repro.core.tags import Tag
from repro.core.variants import ThreeTagController
from repro.net.topologies import attach_controllers
from repro.scenarios.generators import parse_topology
from repro.sim.faults import FaultPlan
from repro.switch.abstract_switch import BOTTOM
from repro.switch.commands import QueryReply, UpdateRules, make_batch
from repro.switch.flow_table import META_PRIORITY, FlowTable, Rule

T1 = Tag("c0", 1)
T2 = Tag("c0", 2)

FIELDS = ("c0", "s1", "c0", "s9", 999, "s2", T1, 3, True)
RULE = Rule(*FIELDS)

#: Another value for each field of ``RULE``, in field order.
OTHER = ("c1", "s2", "c1", "s8", 998, "s3", T2, 4, False)


def test_rule_fields_and_defaults():
    rule = Rule(cid="c0", sid="s1", src="a", dst="b", priority=5, forward_to="s2")
    assert rule == Rule("c0", "s1", "a", "b", 5, "s2", None, None, False)
    assert (rule.tag, rule.detour, rule.detour_start) == (None, None, False)
    assert Rule._fields == (
        "cid", "sid", "src", "dst", "priority", "forward_to", "tag", "detour",
        "detour_start",
    )


@pytest.mark.parametrize("field", range(len(FIELDS)))
def test_rule_equality_and_hash_cover_every_field(field):
    changed = Rule(*FIELDS[:field], OTHER[field], *FIELDS[field + 1:])
    assert changed != RULE
    assert hash(changed) != hash(RULE)
    assert Rule(*FIELDS) == RULE and hash(Rule(*FIELDS)) == hash(RULE)


def test_hashes_equal_the_field_tuples():
    # A frozen dataclass hashed the tuple of its fields; set and dict
    # iteration orders depend on these values staying the same.
    assert hash(RULE) == hash(FIELDS)
    assert hash(T1) == hash(("c0", 1))


@pytest.mark.parametrize("changed", [Tag("c1", 1), Tag("c0", 2)])
def test_tag_equality_and_hash_cover_every_field(changed):
    assert changed != T1 and hash(changed) != hash(T1)
    assert Tag("c0", 1) == T1 and hash(Tag("c0", 1)) == hash(T1)


def test_key_and_is_meta():
    assert RULE.key() == ("c0", "c0", "s9", 999, "s2", 3)
    # The tag and detour_start are metadata, not identity.
    assert RULE._replace(tag=T2, detour_start=False).key() == RULE.key()
    assert not RULE.is_meta
    meta = Rule("c0", "s1", BOTTOM, BOTTOM, META_PRIORITY, None, T1)
    assert meta.is_meta
    assert not meta._replace(priority=1).is_meta
    assert not meta._replace(forward_to="s2").is_meta


def test_reprs_are_unchanged():
    assert repr(T1) == "Tag(c0:1)"
    assert str(T1) == "Tag(c0:1)"
    assert f"{T1}" == "Tag(c0:1)"
    assert repr(RULE) == (
        "Rule(cid='c0', sid='s1', src='c0', dst='s9', priority=999, "
        "forward_to='s2', tag=Tag(c0:1), detour=3, detour_start=True)"
    )


def test_tag_ordering():
    tags = [Tag("c1", 0), Tag("c0", 7), Tag("c0", 2)]
    assert sorted(tags) == [Tag("c0", 2), Tag("c0", 7), Tag("c1", 0)]
    assert Tag("c0", 9) < Tag("c1", 0)
    assert max(tags) == Tag("c1", 0)


def test_fault_plan_description_folds_rules_whole():
    """Run identities embed corruption payloads by ``repr``; a named tuple
    must not fold field by field."""
    plan = FaultPlan().corrupt_switch(1.0, "s1", rules=(RULE,), managers=("zz",))
    assert describe_fault_plan(plan) == [
        [1.0, "corrupt_switch", ["s1", [repr(RULE)], ["zz"], False]]
    ]


def test_corrupt_with_rewrites_sid():
    table = FlowTable("s7", max_rules=4)
    table.corrupt_with([RULE])
    (stored,) = table.rules()
    assert stored == RULE._replace(sid="s7")
    assert stored.sid == "s7" and RULE.sid == "s1"


def test_rules_pass_by_reference_into_the_table():
    rules = (RULE._replace(sid="s0"), RULE._replace(sid="s0", dst="s8"))
    batch = make_batch("c0", T1, new_rules=rules)
    (update,) = [c for c in batch.commands if isinstance(c, UpdateRules)]
    assert update.rules is rules
    table = FlowTable("s0", max_rules=4)
    table.replace_rules_of("c0", update.rules)
    assert all(table._rules[r.key()] is r for r in rules)


def _view():
    view = parse_topology("fattree:4", seed=0)
    attach_controllers(view, 2, seed=0)
    return view


def test_replan_under_same_tag_reuses_unchanged_rules():
    view = _view()
    owner = view.controllers[0]
    gen = RuleGenerator(owner, kappa=1)
    before = dict(gen.rules_for_view(view, T1))
    changed = view.copy()
    u, v = next(
        (u, v) for u, v in changed.links if changed.is_switch(u) and changed.is_switch(v)
    )
    changed.remove_link(u, v)
    after = gen.rules_for_view(changed, T1)
    assert gen.computations == 2
    old = {r: r for rules in before.values() for r in rules}
    reused = fresh = 0
    for sid, rules in after.items():
        assert isinstance(rules, tuple)
        assert gen.my_rules(changed, sid, T1) is rules
        for rule in rules:
            if rule in old:
                assert rule is old[rule]
                reused += 1
            else:
                fresh += 1
    assert reused and fresh


def test_retag_returns_new_objects_with_the_new_tag():
    view = _view()
    gen = RuleGenerator(view.controllers[0], kappa=1)
    before = dict(gen.rules_for_view(view, T1))
    after = gen.rules_for_view(view, T2)
    assert gen.computations == 1
    assert after.keys() == before.keys()
    for sid, rules in after.items():
        assert [r._replace(tag=T1) for r in rules] == list(before[sid])
        assert all(r.tag == T2 for r in rules)
        assert not any(new is old for new, old in zip(rules, before[sid]))


def test_three_tag_merges_fresh_and_retained_rules():
    config = RenaissanceConfig.for_network(2, 4, kappa=1)
    controller = ThreeTagController("c0", config, alive_neighbors=lambda: ["s1"])
    controller.corrupt_tags(prev=T1, curr=T2)
    view = parse_topology("ring:4", seed=0)
    view.add_controller("c0")
    view.add_link("c0", view.switches[0])
    sid = view.switches[0]
    fresh = controller.rulegen.my_rules(view, sid, T2)
    assert fresh
    clash = fresh[0]._replace(tag=T1)  # same key as a fresh rule
    kept = Rule("c0", sid, "c0", "elsewhere", 1000, view.switches[1], T1)
    older = kept._replace(dst="older", tag=Tag("c0", 0))
    foreign = kept._replace(cid="c1", dst="foreign")
    meta = Rule("c0", sid, BOTTOM, BOTTOM, META_PRIORITY, None, T1)
    reply = QueryReply(
        node=sid, neighbors=(), managers=(), rules=(clash, older, kept, foreign, meta)
    )
    merged = controller._rules_to_install(view, reply)
    assert merged == fresh + (kept,)
    assert all(a is b for a, b in zip(merged, fresh))
