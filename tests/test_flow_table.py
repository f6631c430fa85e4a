"""Unit tests for the bounded flow table (Section 2.1.1)."""

import pytest

from repro.switch.flow_table import FlowTable, Rule, META_PRIORITY, _event_kind


def rule(cid="c0", sid="s0", src="c0", dst="s9", prt=5, fwd="s1", tag=None, **kw):
    return Rule(
        cid=cid, sid=sid, src=src, dst=dst, priority=prt, forward_to=fwd, tag=tag, **kw
    )


def meta(cid="c0", sid="s0", tag="t1"):
    return Rule(
        cid=cid, sid=sid, src="⊥", dst="⊥", priority=META_PRIORITY, forward_to=None, tag=tag
    )


def test_install_and_lookup():
    table = FlowTable("s0", max_rules=10)
    table.install(rule())
    assert len(table) == 1
    assert table.matching("c0", "s9")[0].forward_to == "s1"


def test_wrong_switch_rejected():
    table = FlowTable("s0", max_rules=10)
    with pytest.raises(ValueError):
        table.install(rule(sid="other"))


def test_reinstall_same_rule_idempotent():
    table = FlowTable("s0", max_rules=10)
    table.install(rule())
    table.install(rule())
    assert len(table) == 1


def test_matching_sorted_by_priority():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(prt=1, fwd="low"))
    table.install(rule(prt=9, fwd="high"))
    hits = table.matching("c0", "s9")
    assert [r.forward_to for r in hits] == ["high", "low"]


def test_meta_rules_not_matched():
    table = FlowTable("s0", max_rules=10)
    table.install(meta())
    assert table.matching("⊥", "⊥") == []


def test_eviction_least_recently_updated():
    table = FlowTable("s0", max_rules=2)
    table.install(rule(dst="d1", fwd="a"))
    table.install(rule(dst="d2", fwd="b"))
    table.install(rule(dst="d1", fwd="a"))  # refresh d1
    table.install(rule(dst="d3", fwd="c"))  # evicts d2 (stalest)
    dsts = {r.dst for r in table.rules()}
    assert dsts == {"d1", "d3"}
    assert table.evictions == 1


def test_refreshing_controller_never_evicted():
    """Lemma 1's premise: a controller that keeps refreshing its rules
    keeps them despite other controllers clogging the table."""
    table = FlowTable("s0", max_rules=4)
    keeper = rule(cid="c0", dst="d0", fwd="x")
    table.install(keeper)
    for i in range(20):
        table.install(keeper)  # c0 refreshes
        table.install(rule(cid="c1", dst=f"d{i}", fwd="y"))
    assert any(r.cid == "c0" for r in table.rules())


def test_replace_rules_of_removes_old():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(dst="d1", fwd="a"))
    table.install(meta())
    table.replace_rules_of("c0", [rule(dst="d2", fwd="b")])
    dsts = {r.dst for r in table.rules() if not r.is_meta}
    assert dsts == {"d2"}
    # Meta rule survives replacement (newRound manages it).
    assert any(r.is_meta for r in table.rules())


def test_replace_rejects_foreign_rules():
    table = FlowTable("s0", max_rules=10)
    with pytest.raises(ValueError):
        table.replace_rules_of("c0", [rule(cid="c1")])


def test_delete_rules_of():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(cid="c0", dst="d1"))
    table.install(rule(cid="c1", dst="d1", fwd="z"))
    table.install(meta(cid="c0"))
    removed = table.delete_rules_of("c0")
    assert removed == 2
    assert table.controllers_present() == ["c1"]


def test_delete_rules_keep_meta():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(cid="c0", dst="d1"))
    table.install(meta(cid="c0"))
    table.delete_rules_of("c0", include_meta=False)
    assert [r.is_meta for r in table.rules_of("c0")] == [True]


def test_match_index_consistent_after_mutations():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(dst="d1", fwd="a", prt=5))
    table.install(rule(dst="d1", fwd="b", prt=4))
    table.delete_rules_of("c0")
    assert table.matching("c0", "d1") == []
    table.install(rule(dst="d1", fwd="c", prt=3))
    assert [r.forward_to for r in table.matching("c0", "d1")] == ["c"]


def test_unambiguous_single_rule_per_match():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(prt=5, fwd="a"))
    table.install(rule(prt=4, fwd="b"))
    assert table.is_unambiguous()


def test_ambiguous_same_priority_different_action():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(cid="c0", prt=5, fwd="a"))
    table.install(rule(cid="c1", prt=5, fwd="b"))
    assert not table.is_unambiguous()


def test_unambiguous_with_operational_filter():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(cid="c0", prt=5, fwd="a"))
    table.install(rule(cid="c1", prt=5, fwd="b"))
    # Only one of the conflicting out-ports is usable.
    assert table.is_unambiguous(operational=["a"])


def test_detour_rules_have_distinct_keys():
    table = FlowTable("s0", max_rules=10)
    table.install(rule(prt=5, fwd="a", detour=None))
    table.install(rule(prt=5, fwd="a", detour=1))
    assert len(table) == 2


def test_clear():
    table = FlowTable("s0", max_rules=10)
    table.install(rule())
    table.clear()
    assert len(table) == 0
    assert table.matching("c0", "s9") == []


def test_corrupt_with_respects_bound():
    table = FlowTable("s0", max_rules=3)
    table.corrupt_with([rule(dst=f"d{i}") for i in range(10)])
    assert len(table) <= 3


# -- idempotent refresh fast path ------------------------------------------------


def test_idempotent_refreshes_keep_lru_victim():
    table = FlowTable("s0", max_rules=3)
    a, b, c = (rule(dst=d, fwd="x") for d in ("d1", "d2", "d3"))
    for r in (a, b, c):
        table.install(r)
    table.install(a)  # same object
    table.install(rule(dst="d2", fwd="x"))  # equal, distinct object
    table.install(a)
    table.install(rule(dst="d4", fwd="x"))  # overflow
    assert {r.dst for r in table.rules()} == {"d1", "d2", "d4"}  # d3 was stalest
    assert table.evictions == 1


def test_idempotent_refresh_is_silent():
    table = FlowTable("s0", max_rules=10)
    events = []
    table.add_version_listener(lambda sid, evs: events.append(evs))
    table.install(rule(dst="d1"))
    table.install(meta())
    version, seen = table.version, len(events)
    table.install(rule(dst="d1"))
    table.install(meta())
    table.replace_rules_of("c0", [rule(dst="d1")])
    assert table.version == version
    assert len(events) == seen
    # A tag-only change is not forwarding-relevant either, but is stored.
    table.install(rule(dst="d1", tag="t2"))
    assert table.version == version
    assert table.rules_of("c0")[0].tag == "t2"


def test_stale_rules_deleted_despite_meta_rule():
    table = FlowTable("s0", max_rules=10)
    table.install(meta())
    table.replace_rules_of("c0", [rule(dst="d1"), rule(dst="d2")])
    table.replace_rules_of("c0", [rule(dst="d1")])
    assert sorted(r.dst for r in table.rules_of("c0") if not r.is_meta) == ["d1"]
    assert sum(r.is_meta for r in table.rules()) == 1


def test_stale_rules_deleted_after_corruption():
    table = FlowTable("s0", max_rules=10)
    table.install(meta())
    table.replace_rules_of("c0", [rule(dst="d1")])
    # Planted rules claiming c0's ownership, one of them a second meta-rule.
    planted_meta = rule(src="x", dst="y", prt=META_PRIORITY, fwd=None, tag="bogus")
    table.corrupt_with([rule(dst="d7"), rule(dst="d8", prt=2), planted_meta])
    table.replace_rules_of("c0", [rule(dst="d1")])
    assert [r.dst for r in table.rules_of("c0") if not r.is_meta] == ["d1"]
    assert sum(r.is_meta for r in table.rules_of("c0")) == 2  # newRound's concern


def test_matching_tie_order_follows_latest_refresh():
    """Two rules tying on (priority, cid, forward_to) are matched least
    recently updated first; an idempotent refresh counts as an update."""
    table = FlowTable("s0", max_rules=10)
    first = rule(prt=7, fwd="a", detour=1, detour_start=True)
    second = rule(prt=7, fwd="a", detour=2, detour_start=True)
    table.install(first)
    table.install(second)
    assert [r.detour for r in table.matching("c0", "s9")] == [1, 2]
    table.install(first)
    assert [r.detour for r in table.matching("c0", "s9")] == [2, 1]
    table.replace_rules_of("c0", [second, first, second])
    assert [r.detour for r in table.matching("c0", "s9")] == [1, 2]


class _ReferenceTable(FlowTable):
    """The table without its fast paths: every install re-indexes, every
    update scans the whole table for stale rules."""

    def install(self, rule):
        key = rule.key()
        prior = self._rules.get(key)
        if prior is None and len(self._rules) >= self.max_rules:
            self._evict_one()
        if prior is not None:
            self._index_remove(key, prior)
        self._rules[key] = rule
        self._touched[key] = next(self._clock)
        self._index_add(key, rule)
        self._match_cache.pop((rule.src, rule.dst), None)
        if prior is None:
            self._owner_counts[rule.cid] = self._owner_counts.get(rule.cid, 0) + 1
            if rule.is_meta:
                self._meta_counts[rule.cid] = self._meta_counts.get(rule.cid, 0) + 1
        if prior is None or prior.detour_start != rule.detour_start:
            kind = _event_kind(rule)
            if prior is not None:
                kind = min(kind, _event_kind(prior))
            self._bump_version(((rule.src, rule.dst, kind),))

    def replace_rules_of(self, cid, new_rules):
        incoming = list(new_rules)
        keep = {r.key() for r in incoming}
        for key in [
            k
            for k, r in self._rules.items()
            if r.cid == cid and not r.is_meta and k not in keep
        ]:
            self._delete_key(key)
        for r in incoming:
            self.install(r)


def _random_rule(rng, cid=None):
    return Rule(
        cid=cid or rng.choice(["c0", "c1"]),
        sid="s0",
        src=rng.choice(["c0", "c1"]),
        dst=rng.choice(["d1", "d2"]),
        priority=rng.choice([META_PRIORITY, 5, 7]),
        forward_to=rng.choice([None, "a", "b"]),
        tag=rng.choice(["t1", "t2"]),
        detour=rng.choice([None, 1, 2]),
        detour_start=rng.random() < 0.5,
    )


@pytest.mark.parametrize("seed", range(20))
def test_fast_paths_match_reference_table(seed):
    import random

    rng = random.Random(seed)
    tables = [FlowTable("s0", max_rules=8), _ReferenceTable("s0", max_rules=8)]
    logs = [[], []]
    for table, log in zip(tables, logs):
        table.add_version_listener(lambda sid, evs, log=log: log.append(evs))
    pool = [_random_rule(rng) for _ in range(12)]
    for _ in range(300):
        op = rng.random()
        if op < 0.45:
            chosen = rng.choice(pool)
            for table in tables:
                table.install(chosen)
        elif op < 0.7:
            cid = rng.choice(["c0", "c1"])
            batch = [r for r in pool if r.cid == cid and rng.random() < 0.5]
            if rng.random() < 0.3:
                batch = [r._replace() for r in batch]  # equal, not identical
            for table in tables:
                table.replace_rules_of(cid, batch)
        elif op < 0.85:
            # Resubmit each table's own stored objects (identical refreshes),
            # in shuffled order and mixed with pool rules.
            cid = rng.choice(["c0", "c1"])
            stored = len(tables[0].rules_of(cid))
            picks = [i for i in range(stored) if rng.random() < 0.7]
            rng.shuffle(picks)
            extra = [r for r in pool if r.cid == cid and rng.random() < 0.2]
            for table in tables:
                own = table.rules_of(cid)
                table.replace_rules_of(cid, [own[i] for i in picks] + extra)
        elif op < 0.95:
            planted = [_random_rule(rng) for _ in range(2)]
            for table in tables:
                table.corrupt_with(planted)
        else:
            cid = rng.choice(["c0", "c1"])
            include_meta = rng.random() < 0.5
            for table in tables:
                table.delete_rules_of(cid, include_meta=include_meta)
        fast, ref = tables
        assert fast.rules() == ref.rules()
        assert fast.version == ref.version and fast.evictions == ref.evictions
        # Same clock values (so the same LRU victim) and bucket order.
        assert fast._touched == ref._touched
        assert fast._by_match == ref._by_match
        assert logs[0] == logs[1]
        assert fast.controllers_present() == ref.controllers_present()
        for src in ("c0", "c1"):
            for dst in ("d1", "d2"):
                assert fast.matching(src, dst) == ref.matching(src, dst)
                assert [r.tag for r in fast.matching(src, dst)] == [
                    r.tag for r in ref.matching(src, dst)
                ]
