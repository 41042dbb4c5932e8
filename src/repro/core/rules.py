"""Rule definitions and stratification.

A rule (Figure 2) is defined on one table and triggered by insertions,
deletions, or updates (optionally restricted to named columns).  Event
checking happens at the end of each transaction prior to commit by scanning
the transaction's log (sections 2 and 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import CreateRuleError, RuleError
from repro.sql import ast
from repro.txn.log import DELETE, INSERT, UPDATE


@dataclass
class Rule:
    """One STRIP rule.

    ``condition`` queries determine whether the action fires (all must
    return at least one row; an empty condition is always true);
    ``evaluate`` queries only pass data.  Queries with ``bind_as`` have
    their results passed to the action transaction as bound tables.

    ``compact_on`` opts the rule into the delta-compaction fast path: bound
    tables accumulated by a pending unique task are folded to net effect
    per distinct combination of the named columns (see
    :mod:`repro.core.net_effect`).  It requires ``unique`` — compaction
    acts on the batch a unique task accumulates — and is off by default,
    preserving the paper's no-net-effect semantics (section 2).

    ``maintenance`` tags the rule with the derived-view maintenance
    strategy it implements (``incremental``, ``dred``, or ``recompute``;
    empty for ordinary rules).  The tag is informational for the engine —
    the strategy lives in the rule's evaluate queries and action function —
    but it is surfaced in :class:`~repro.core.task.Task` attribution so
    per-strategy cost rollups come for free.

    ``writes`` declares the tables this rule's action mutates.  It is the
    edge set of the rule dependency graph: when a declared write target is
    itself the trigger table of other rules, this rule's action cascades
    into those rules, and :func:`stratify` orders the program bottom-up.
    A rule with an empty write set is a leaf (the pre-cascade behaviour).

    ``stratum`` is derived state, assigned by :func:`stratify` when the
    rule is installed: 1 for rules fed only by base-table writes, and one
    more than the deepest rule writing this rule's trigger table otherwise.
    """

    name: str
    table: str
    events: tuple[ast.Event, ...]
    condition: tuple[ast.RuleQuery, ...] = ()
    evaluate: tuple[ast.RuleQuery, ...] = ()
    function: str = ""
    unique: bool = False
    unique_on: tuple[str, ...] = ()
    compact_on: tuple[str, ...] = ()
    after: float = 0.0
    enabled: bool = True
    maintenance: str = ""
    writes: tuple[str, ...] = ()
    stratum: int = field(default=1, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.function:
            raise RuleError(f"rule {self.name!r} has no EXECUTE function")
        if self.maintenance not in ("", "incremental", "dred", "recompute"):
            raise RuleError(
                f"rule {self.name!r}: unknown maintenance strategy "
                f"{self.maintenance!r}"
            )
        if self.unique_on and not self.unique:
            raise RuleError(f"rule {self.name!r}: UNIQUE ON requires UNIQUE")
        if self.compact_on and not self.unique:
            raise RuleError(f"rule {self.name!r}: COMPACT ON requires UNIQUE")
        if self.after < 0:
            raise RuleError(f"rule {self.name!r}: negative AFTER delay")
        if not self.events:
            raise RuleError(f"rule {self.name!r} has no triggering events")
        seen_kinds = set()
        for event in self.events:
            if event.kind not in (INSERT + "ed", DELETE + "d", UPDATE + "d"):
                raise RuleError(f"rule {self.name!r}: bad event kind {event.kind!r}")
            if event.kind in seen_kinds and event.kind != "updated":
                raise RuleError(f"rule {self.name!r}: duplicate event {event.kind!r}")
            seen_kinds.add(event.kind)
        duplicates = [name for name in self.bind_names() if self.bind_names().count(name) > 1]
        if duplicates:
            raise RuleError(f"rule {self.name!r}: duplicate bound table {duplicates[0]!r}")
        if len(set(self.writes)) != len(self.writes):
            raise RuleError(f"rule {self.name!r}: duplicate WRITES table")

    @classmethod
    def from_ast(cls, stmt: ast.CreateRule) -> "Rule":
        return cls(
            name=stmt.name,
            table=stmt.table,
            events=stmt.events,
            condition=stmt.condition,
            evaluate=stmt.evaluate,
            function=stmt.function,
            unique=stmt.unique,
            unique_on=tuple(column.split(".")[-1] for column in stmt.unique_on),
            compact_on=tuple(column.split(".")[-1] for column in stmt.compact_on),
            after=stmt.after,
            writes=stmt.writes,
        )

    # ------------------------------------------------------------ metadata

    def bind_names(self) -> list[str]:
        """Names of the bound tables this rule passes to its action."""
        return [
            query.bind_as
            for query in (*self.condition, *self.evaluate)
            if query.bind_as is not None
        ]

    def all_queries(self) -> tuple[ast.RuleQuery, ...]:
        return (*self.condition, *self.evaluate)

    def __repr__(self) -> str:
        parts = [f"Rule({self.name!r} on {self.table!r} -> {self.function!r}"]
        if self.writes:
            parts.append(f", writes {list(self.writes)}")
        if self.unique:
            parts.append(
                f", unique on {list(self.unique_on)}" if self.unique_on else ", unique"
            )
        if self.compact_on:
            parts.append(f", compact on {list(self.compact_on)}")
        if self.after:
            parts.append(f", after {self.after}s")
        return "".join(parts) + ")"


# -------------------------------------------------------------- stratification


def stratify(rules: Iterable[Rule]) -> dict[str, int]:
    """Assign every rule its stratum in the rule dependency graph.

    The graph has an edge ``W -> R`` whenever ``R``'s trigger table appears
    in ``W``'s declared write set: a firing of ``W``'s action can produce
    the events that trigger ``R``.  A rule fed only by base-table writes
    sits in stratum 1; otherwise its stratum is one more than the deepest
    rule writing its trigger table — a valid bottom-up evaluation order
    for the whole program, as in stratified Datalog maintenance.

    The result is deterministic (rules are visited in name order, and a
    rule's stratum depends only on the graph, not the visit order).  A
    cyclic program — any rule reachable from its own trigger table,
    including a rule that writes the table it triggers on — has no
    stratification and raises :class:`CreateRuleError` naming the cycle.
    """
    ordered = sorted(rules, key=lambda rule: rule.name)
    writers: dict[str, list[Rule]] = {}
    for rule in ordered:
        for table in rule.writes:
            writers.setdefault(table, []).append(rule)
    strata: dict[str, int] = {}
    path: list[str] = []
    on_path: set[str] = set()

    def visit(rule: Rule) -> int:
        cached = strata.get(rule.name)
        if cached is not None:
            return cached
        if rule.name in on_path:
            at = path.index(rule.name)
            cycle = " -> ".join(path[at:] + [rule.name])
            raise CreateRuleError(
                f"rule program is cyclic and cannot be stratified: {cycle}"
            )
        path.append(rule.name)
        on_path.add(rule.name)
        level = 1
        for upstream in writers.get(rule.table, ()):
            level = max(level, visit(upstream) + 1)
        path.pop()
        on_path.discard(rule.name)
        strata[rule.name] = level
        return level

    for rule in ordered:
        visit(rule)
    return strata
