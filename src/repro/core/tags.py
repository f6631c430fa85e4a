"""Self-stabilizing bounded unique-tag generation (paper Section 4.2).

Renaissance synchronizes configuration rounds with tags from a *finite*
domain, following Alon et al. [20]: during a legal execution ``next_tag()``
returns a tag that does not currently exist anywhere in the system.

Our generator models the practically-stabilizing construction: a tag is
``(owner, value)`` with ``value`` from a bounded integer domain.  The owner
advances a counter, skipping any value it has *observed* to be alive in the
system (replyDB entries, switch meta-rules — fed back by the controller).
Because each controller runs one round at a time and the domain exceeds the
number of simultaneously-live tags, a fresh value is always found.  After a
transient fault plants arbitrary tags, at most ``DELTA_SYNCH`` rounds are
needed before tags are unique again — the bound the paper calls Δsynch.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Set

#: Paper's Δsynch: rounds for the tag/round-synchronization layer to
#: stabilize after the last transient fault (a small constant in [20]).
DELTA_SYNCH = 3


class Tag(NamedTuple):
    """A bounded-domain round tag, unique per owner during legal runs."""

    owner: str
    value: int

    def __repr__(self) -> str:
        return f"Tag({self.owner}:{self.value})"


class TagGenerator:
    """Per-controller tag source with observed-tag avoidance."""

    def __init__(self, owner: str, domain: int = 65_536, start: int = 0) -> None:
        if domain < 8:
            raise ValueError("tag domain too small")
        self.owner = owner
        self.domain = domain
        self._counter = start % domain
        self.generated = 0

    def next_tag(self, observed: Optional[Iterable[Tag]] = None) -> Tag:
        """Return a tag not among ``observed`` (the live tags the controller
        can see).  Raises if the whole domain is observed — impossible when
        the domain is sized per Section 4.2."""
        in_use: Set[int] = {
            t.value for t in (observed or ()) if isinstance(t, Tag) and t.owner == self.owner
        }
        if len(in_use) >= self.domain:
            raise RuntimeError("tag domain exhausted; configure a larger domain")
        for _ in range(self.domain):
            self._counter = (self._counter + 1) % self.domain
            if self._counter not in in_use:
                self.generated += 1
                return Tag(self.owner, self._counter)
        raise RuntimeError("unreachable: domain scan found no free tag")

    def corrupt(self, counter: int) -> None:
        """Transient-fault hook: overwrite the counter arbitrarily."""
        self._counter = counter % self.domain


__all__ = ["Tag", "TagGenerator", "DELTA_SYNCH"]
