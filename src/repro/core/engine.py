"""Commit-time rule processing (paper section 6.3).

When a transaction commits, its log is scanned to find triggered rules.
For each triggered rule:

1. the transition tables a matched rule names are built (once per table,
   shared across rules),
2. the condition queries run; the condition holds iff there are no queries
   or every query returns at least one row,
3. query results marked ``bind as`` become bound tables (with the
   ``commit_time`` pseudo column instantiated at bind time),
4. if the condition holds, ``evaluate`` queries run and are bound too,
5. the unique manager creates a new action task — or appends the bound
   rows onto a pending unique task — and new tasks enter the delay or
   ready queue with release time ``commit + after``.

All of it runs as one generated program per trigger table (and namespace
shape): the masks, the transition build, each hit rule's queries through
their compiled firing functions and one ``UniqueManager.dispatch`` per
firing, with every charge in the order above (DESIGN.md 6a, "Prepared
firings").

Rule actions run in their own transaction via :meth:`make_action_body`;
because conditions are side-effect-free queries, condition evaluation can
never trigger further rules, and rule consideration order is immaterial.
Action *transactions*, however, go through the same commit-time scan, so a
rule whose trigger table is written by another rule's action cascades: the
dispatch carries the upstream task as ``origin`` and the downstream task
lands in a higher stratum (see :func:`repro.core.rules.stratify`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.functions import FunctionContext
from repro.core.rules import Rule
from repro.core.transition import TRANSITION_NAMES, TransitionShape
from repro.core.unique import Route
from repro.errors import CreateRuleError, FunctionError
from repro.sql import executor
from repro.sql.ast import RuleQuery, table_names
from repro.sql.executor import namespace_key
from repro.sql.planner import ExecState
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.temptable import generate
from repro.txn.log import INSERT, UPDATE, LogEntry
from repro.txn.tasks import Task
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database


class PreparedRule:
    """One rule as its firings run it, decided against its table's schema
    once: the change kinds that trigger it and the offsets ``updated c1, c2``
    names (an update triggers only if one of those values changed; a column
    the table lacks is a :class:`CreateRuleError`, at CREATE RULE), the
    transition tables its queries name, and each query with whether it is a
    condition (an empty result stops the firing)."""

    __slots__ = ("rule", "inserted", "deleted", "any_update", "offsets", "reads", "queries")

    def __init__(self, rule: Rule, schema: Schema) -> None:
        self.rule = rule
        kinds = [event.kind for event in rule.events]
        self.inserted, self.deleted = "inserted" in kinds, "deleted" in kinds
        self.any_update = any(e.kind == "updated" and not e.columns for e in rule.events)
        columns = {c for e in rule.events if e.kind == "updated" for c in e.columns}
        unknown = sorted(columns - set(schema.names()))
        if unknown:
            raise CreateRuleError(f"rule {rule.name!r}: {rule.table} has no column {unknown[0]!r}")
        self.offsets = tuple(sorted(schema.offset(column) for column in columns))
        queries = rule.all_queries()
        named = set().union(*(table_names(query.select) for query in queries))
        self.reads = [name for name in TRANSITION_NAMES if name in named]
        self.queries = [(query, at < len(rule.condition)) for at, query in enumerate(queries)]

    def hit(self, entries: list[LogEntry]) -> bool:
        """True if any of one table's logged changes triggers the rule."""
        for entry in entries:
            if entry.kind == UPDATE:
                if self.any_update:
                    return True
                old, new = entry.old_record.values, entry.new_record.values
                for offset in self.offsets:
                    if old[offset] != new[offset]:
                        return True
            elif self.inserted if entry.kind == INSERT else self.deleted:
                return True
        return False


class TableProgram:
    """One trigger table's rules as its commits fire them: the shape of its
    transition tables, its rules in creation order, the names their queries
    read beside the transition tables (``loose``), and per namespace shape
    (``executor.namespace_key`` of ``loose`` over a cascade's upstream bound
    tables; ``()`` for everything from the catalog) the generated firing
    program and the dispatch route it resolved per rule."""

    __slots__ = ("shape", "rules", "loose", "fires", "routes")

    def __init__(self, table: Table, rules: list[PreparedRule]) -> None:
        self.shape = TransitionShape(table)
        self.rules = rules
        names = set().union(
            *(table_names(query.select) for each in rules for query, _ in each.queries)
        )
        self.loose = sorted(names.difference(TRANSITION_NAMES))
        self.fires: dict[tuple, Callable] = {}
        self.routes: dict[tuple, list[Optional[Route]]] = {}


def _first_run(names: dict[str, Any], slot: str, db: "Database", query: RuleQuery) -> Callable:
    """The stand-in for a rule query's firing function until its first run:
    it plans the query against that firing's namespace, puts the function in
    the program's globals — every later firing calls it directly — and runs
    it.  A query never reached plans nothing; one that fails to plan fails
    its firing, every time it is reached."""

    def plan(state: ExecState, meter: Any, cost: Any) -> Any:
        # ``executor.plan_select`` is looked up per call: the statement
        # path's plan seam (the e2e tracer's sql.plan_build).
        select = executor.plan_select(db, query.select, state.namespace)
        fire = names[slot] = select.firing(db, query.bind_as)
        return fire(state, meter, cost)

    return plan


def _write_program(engine: "RuleEngine", program: TableProgram, key: tuple) -> Callable:
    """Write and compile one trigger table's firing program for one namespace
    shape: ``fire(txn, entries, pseudo, upstream, fired) -> (checks,
    firings)`` runs every rule on the table over one commit's ``entries``,
    in the order and with the charges of paper §6.3's commit-time scan.

    The masks run first (they charge nothing) over the enabled rules —
    ``rule.enabled`` is read per commit — so that the transition tables
    built, at the first rule that hit, are the ones some hit rule names.
    Per enabled rule, ``rule_log_scan`` for every entry; per hit rule, per
    query: ``condition_base``, then the query's firing function (S-locks,
    its nest's own charges, ``row_output`` / ``bind_row``), stopping at an
    empty condition.  A rule whose condition held hands its bound tables to
    ``UniqueManager.dispatch`` (looked up per call), one call per firing,
    with the ``Route`` this program resolved at the rule's first firing.
    The meter and the cost table are read once per program run; a bound
    table no task took is retired, and so are the transition tables,
    whatever raised."""
    db = engine.db
    routes = program.routes[key] = [None] * len(program.rules)
    names: dict[str, Any] = {
        "db": db, "SHAPE": program.shape, "ExecState": ExecState, "Route": Route,
        "ROUTES": routes, "make_body": engine.make_action_body, "paired": engine.paired_commits,
    }
    lines = ["def fire(txn, entries, pseudo, upstream, fired):"]
    for j, prepared in enumerate(program.rules):
        names[f"P{j}"], names[f"R{j}"], names[f"READS{j}"] = prepared, prepared.rule, prepared.reads
        lines.append(f"    h{j} = P{j}.hit(entries) if R{j}.enabled else None")
    reads = ", ".join(f"*(READS{j} if h{j} else ())" for j in range(len(program.rules)))
    lines += [
        "    meter, cost = db.metering()",
        "    ops = meter.ops",
        "    count = len(entries)",
        "    scan = cost['rule_log_scan'] * count  # what charge('rule_log_scan', count) adds",
        "    c_condition_base = cost['condition_base']",
        "    checks = firings = 0",
        "    transitions = None",
        "    try:",
    ]
    queries = 0
    for j, prepared in enumerate(program.rules):
        lines += [
            f"        if h{j} is not None:",
            "            meter.total += scan",
            "            ops['rule_log_scan'] += count",
            f"            if h{j}:",
            "                checks += 1",
            "                if db.tracer.enabled:",
            f"                    db.tracer.rule_check(R{j}.name, txn.txn_id, db.clock.now())",
            "                if transitions is None:",
            f"                    transitions = SHAPE.build(db, entries, {{{reads}}})",
            "                    namespace = transitions",
            "                    if upstream is not None:  # a cascade: transition tables first",
            "                        namespace = {**upstream, **transitions}",
            "                    state = ExecState(db, txn, {}, pseudo, namespace)",
            "                bound = {}",
            "                try:",
        ]
        depth = 5
        for query, condition in prepared.queries:
            slot = f"Q{queries}"
            names[slot] = _first_run(names, slot, db, query)
            queries += 1
            pad = "    " * depth
            lines += [
                f"{pad}meter.total += c_condition_base",
                f"{pad}ops['condition_base'] += 1",
                f"{pad}result = {slot}(state, meter, cost)",
            ]
            if query.bind_as is not None:
                names[f"B{slot}"] = query.bind_as
                lines.append(f"{pad}bound[B{slot}] = result")
            if condition:  # the rest runs only while the condition holds
                lines.append(f"{pad}if result:")
                depth += 1
        pad = "    " * depth
        lines += [
            f"{pad}route = ROUTES[{j}]",
            f"{pad}if route is None:",
            f"{pad}    route = ROUTES[{j}] = Route(R{j}, bound, make_body)",
            f"{pad}tasks = db.unique_manager.dispatch(route, bound, txn)",
            f"{pad}bound = None",
            f"{pad}firings += 1",
            f"{pad}function = R{j}.function",
            f"{pad}if function in fired:",
            f"{pad}    paired.setdefault(function, set()).add(txn.commit_seq)",
            f"{pad}fired.add(function)",
            f"{pad}if db.tracer.enabled:",
            f"{pad}    db.tracer.rule_fire(R{j}.name, txn.txn_id, len(tasks), db.clock.now())",
            "                except Exception:",
            "                    if bound:",
            "                        for table in bound.values():",
            "                            table.retire()",
            "                    raise",
            "                if bound:  # a condition stopped the firing",
            "                    for table in bound.values():",
            "                        table.retire()",
        ]
    lines += [
        "    finally:",
        "        if transitions is not None:",
        "            for table in transitions.values():",
        "                table.retire()",
        "    return checks, firings",
    ]
    fire = program.fires[key] = generate(lines, "fire", "<firing program>", names)
    return fire


class RuleEngine:
    """Event detection, condition evaluation, binding, task creation."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        #: Per table with rules (the ``Table`` object, never its name).
        self._programs: dict[Table, TableProgram] = {}
        self._version = -1  # the catalog version the programs were built at
        self.firing_count = 0  # conditions that evaluated to true
        self.check_count = 0  # rules whose events matched (condition ran)
        #: Per user function, the commit sequences at which two or more of
        #: its rules fired: a maintained view's commits that changed two of
        #: its tables, whose change pairs each rule's delta would count.
        self.paired_commits: dict[str, set[int]] = {}

    def programs(self) -> dict[Table, TableProgram]:
        """The prepared programs, rebuilt when the catalog version moved."""
        catalog = self.db.catalog
        if self._version != catalog.version:
            rules: dict[Table, list[PreparedRule]] = {}
            for rule in catalog.rules():
                table = catalog.table(rule.table)
                rules.setdefault(table, []).append(PreparedRule(rule, table.schema))
            self._programs = {table: TableProgram(table, each) for table, each in rules.items()}
            self._version = catalog.version
        return self._programs

    # ------------------------------------------------------ commit hook

    def process_commit(self, txn: Transaction) -> None:
        """Run rule processing for a committing transaction: per touched
        table with rules, its firing program for the namespace the commit
        gives its queries.  A firing from an action transaction (a cascade)
        sees the upstream task's bound tables behind the transition tables
        of the same name, so the program is the one for their shapes.  What
        the firings do to pending work lands on ``txn.effects``, for the
        commit to enqueue — or, if any rule fails, to take back;
        ``check_count`` and ``firing_count`` grow once every rule ran (never
        for a failed commit)."""
        catalog = self.db.catalog
        programs = self.programs()
        checks = firings = 0
        pseudo = {"commit_time": txn.commit_time, "commit_seq": txn.commit_seq}
        fired: set[str] = set()  # the user functions of the rules fired so far
        task = txn.task
        upstream = task.bound_tables if task is not None and task.bound_tables else None
        for name in txn.log.tables_touched():
            program = programs.get(catalog.table(name)) if catalog.has_table(name) else None
            if program is None:
                continue
            key = namespace_key(program.loose, upstream)
            fire = program.fires.get(key) or _write_program(self, program, key)
            more = fire(txn, txn.log.for_table(name), pseudo, upstream if key else None, fired)
            checks += more[0]
            firings += more[1]
        self.check_count += checks
        self.firing_count += firings

    # ----------------------------------------------------- action bodies

    def make_action_body(self, function_name: str) -> Callable[[Task], None]:
        """The task body that runs one user function in a new transaction."""
        db = self.db

        def body(task: Task) -> None:
            db.charge("user_func_base")
            fn = db.functions.get(function_name)
            with db.begin(task) as txn:
                ctx = FunctionContext(db, task, txn)
                try:
                    fn(ctx)
                except Exception as exc:
                    # Only the function's error is wrapped, never the commit's.
                    raise FunctionError(
                        f"user function {function_name!r} failed: {exc}"
                    ) from exc

        return body
