"""Plan-time compilation of SELECT and DML statements.

The planner sits between the parser and the executor.  For a supported
SELECT it produces a :class:`SelectPlan` that

* resolves every column reference to a positional slot (via
  :mod:`repro.engine.compiler`) so execution never builds per-row dicts
  or performs string lookups,
* chooses index point, prefix and range scans from the pushed-down
  predicates,
* pushes single-source WHERE conjuncts below joins (never onto the
  null-supplying side of a LEFT join),
* detects multi-key equi-joins and picks the hash-join build side by
  estimated cardinality, or, on a snapshot read joining on one column
  of a small base table, probes the hash of it the database keeps
  (``Database.join_hash``),
* reads a view in FROM, on either side of a join, as a source whose
  rows are its body run through ``Database._run_select``, and
* renders itself as an ``EXPLAIN`` result set.

The plan is the only way a SELECT runs, and INSERT, UPDATE and DELETE
plan too (:func:`plan_dml`).  Name and aggregate errors (unknown or
ambiguous columns, an ON clause naming a table joined later, an
aggregate outside a grouped query) raise here, at plan time, with the
text of the reference interpreter in ``tests/reference.py``.  It meets
a name only in a row, so over zero rows it raises nothing: the one
divergence, and it applies only to invalid SQL.
"""

from __future__ import annotations

import operator
import sys
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.compiler import (
    CompiledExpr,
    Scope,
    SlotMap,
    compile_expression,
)
from repro.engine.expressions import (
    AggregateCall,
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    Parameter,
    Star,
    find_aggregates,
)
from repro.engine.parser import (
    InsertStatement,
    Join,
    SelectItem,
    SelectStatement,
    TableRef,
)
from repro.engine.indexes import unordered
from repro.engine.types import orders_with, sort_key
from repro.errors import EngineError


#: Parameter sets one plan remembers a result for (LRU beyond this).
RESULT_CACHE_PARAM_SETS = 64
#: A result larger than this is never remembered: reuse is for
#: aggregates, whose output is small relative to their input.
RESULT_CACHE_MAX_ROWS = 1024
#: Whether ``sum(values, total)`` continues a float total exactly as
#: one ``sum`` over both batches would: true before Python 3.12, whose
#: ``sum`` compensates float rounding within a call.
_FLOAT_SUMS_RESUME = sys.version_info < (3, 12)


# -- predicate rendering (EXPLAIN) --------------------------------------------

def predicate_text(expr: Expression) -> str:
    """A compact SQL-ish rendering of a predicate for EXPLAIN output."""
    from repro.engine import expressions as ex

    if isinstance(expr, ex.Star):
        return "*"
    if isinstance(expr, ex.ColumnRef):
        return expr.name.lower()
    if isinstance(expr, ex.Literal):
        return "NULL" if expr.value is None else repr(expr.value)
    if isinstance(expr, ex.Parameter):
        return "?"
    if isinstance(expr, ex.BinaryOp):
        return (f"{predicate_text(expr.left)} {expr.op} "
                f"{predicate_text(expr.right)}")
    if isinstance(expr, ex.UnaryOp):
        return f"{expr.op} {predicate_text(expr.operand)}"
    if isinstance(expr, ex.IsNull):
        tail = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{predicate_text(expr.operand)} {tail}"
    if isinstance(expr, ex.InList):
        options = ", ".join(predicate_text(o) for o in expr.options)
        word = "NOT IN" if expr.negated else "IN"
        return f"{predicate_text(expr.operand)} {word} ({options})"
    if isinstance(expr, ex.Between):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (f"{predicate_text(expr.operand)} {word} "
                f"{predicate_text(expr.low)} AND {predicate_text(expr.high)}")
    if isinstance(expr, ex.Like):
        word = "NOT LIKE" if expr.negated else "LIKE"
        return f"{predicate_text(expr.operand)} {word} " \
               f"{predicate_text(expr.pattern)}"
    if isinstance(expr, ex.CaseExpr):
        parts = [f"WHEN {predicate_text(c)} THEN {predicate_text(r)}"
                 for c, r in expr.branches]
        if expr.default is not None:
            parts.append(f"ELSE {predicate_text(expr.default)}")
        return "CASE " + " ".join(parts) + " END"
    if isinstance(expr, ex.FunctionCall):
        inner = ", ".join(predicate_text(a) for a in expr.args)
        return f"{expr.name.upper()}({inner})"
    if isinstance(expr, ex.AggregateCall):
        arg = predicate_text(expr.argument)
        flag = "DISTINCT " if expr.distinct else ""
        return f"{expr.name.upper()}({flag}{arg})"
    return repr(expr)


def split_conjuncts(expr: Optional[Expression]) -> List[Expression]:
    """Flatten an AND tree into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def output_name(item: SelectItem, index: int) -> str:
    """The result-set column name of one SELECT item."""
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ColumnRef):
        return expression.name.split(".")[-1]
    if isinstance(expression, AggregateCall):
        return expression.result_key().replace("__agg_", "")
    return f"column{index + 1}"


def row_marker(row: Sequence[Any]) -> tuple:
    """What DISTINCT and UNION tell rows apart by: each value keyed
    with its type name, so ``1``, ``1.0`` and TRUE stay apart while
    ``0.0`` and ``-0.0`` are one value; an unhashable value by its
    ``repr``."""
    return tuple([(type(v).__name__, v) if v.__hash__ else repr(v)
                  for v in row])


# -- plan nodes ----------------------------------------------------------------

class ScanNode:
    """One FROM source: full scan or index point/prefix/range scan +
    filters."""

    def __init__(self, alias: str, table: str, storage, width: int):
        self.alias = alias
        self.table = table
        self.storage = storage
        self.width = width
        self.index = None
        self.point = False
        # Equality values for a leading run of the index's columns ...
        self.key_fns: List[CompiledExpr] = []
        # ... then optional ``(fn, inclusive)`` bounds on the next one,
        # whose SQL type a bound value must compare with.
        self.low: Optional[Tuple[CompiledExpr, bool]] = None
        self.high: Optional[Tuple[CompiledExpr, bool]] = None
        self.bound_type = None
        self.key_text = ""
        # Locally-compiled pushed predicates (slot 0 = first own column).
        self.filters: List[Tuple[CompiledExpr, str]] = []
        self._filter_fns: Optional[List[CompiledExpr]] = None
        self.est_rows = 0 if storage is None else len(storage)
        # An UPDATE's SET list (plan_dml): (column position, value).
        self.assignments: List[Tuple[int, CompiledExpr]] = []

    # -- execution ---------------------------------------------------------

    def _seekable(self, prefix: tuple, low, high) -> Optional[bool]:
        """Whether the index can seek these evaluated key values: False
        when no row can match them (a NULL or NaN), None when a bound's
        type does not compare with the column's — the table is scanned
        then, so the full WHERE raises the engine's own error."""
        bounds = [bound[0] for bound in (low, high) if bound is not None]
        if any(value is not None and not orders_with(self.bound_type, value)
               for value in bounds):
            return None
        return not (any(map(unordered, prefix))
                    or any(map(unordered, bounds)))

    def _probe(self, params: Sequence[Any]) -> Optional[List[int]]:
        """The index candidates for ``params`` in rowid order, or None
        when the table must be scanned instead.  Candidates may be MVCC
        tombstones or lie outside a range the filters state more
        tightly: callers apply the filters to the row version they
        fetch."""
        empty: Sequence[Any] = ()
        prefix = tuple([fn(empty, params) for fn in self.key_fns])
        low = high = None
        if self.low is not None:
            low = (self.low[0](empty, params), self.low[1])
        if self.high is not None:
            high = (self.high[0](empty, params), self.high[1])
        seekable = self._seekable(prefix, low, high)
        if not seekable:
            return None if seekable is None else []
        return self.index.seek(prefix, low, high)

    def rows(self, params: Sequence[Any], snapshot=None,
             rowids: Optional[Sequence[int]] = None) -> List[list]:
        """Candidate rows after pushed filters.

        ``snapshot`` pins the scan to one commit number (lock-free
        MVCC read); ``None`` reads the live rows under the exclusive
        lock.  ``rowids`` fetches just those rows, in that order,
        instead of probing or scanning (a fold's appended rows).  Rows
        flow through the plan as the storage's own row
        lists — never copied — and every combination downstream
        (joins, group representatives) builds fresh lists, so storage
        is never aliased by anything that outlives execution.
        """
        return self.filter(self._candidates(params, snapshot, rowids),
                           params)

    def filter(self, candidates: List[list],
               params: Sequence[Any]) -> List[list]:
        """The ``candidates`` every pushed filter accepts, in order."""
        fns = self._filter_fns
        if fns is None:
            # Lazily frozen: ON-clause pushes land after construction.
            fns = self._filter_fns = [fn for fn, _text in self.filters]
        if not fns:
            return candidates
        if len(fns) == 1:
            first = fns[0]
            return [row for row in candidates
                    if first(row, params) is True]
        if len(fns) == 2:
            first, second = fns
            return [row for row in candidates
                    if first(row, params) is True
                    and second(row, params) is True]
        out: List[list] = []
        for row in candidates:
            for fn in fns:
                if fn(row, params) is not True:
                    break
            else:
                out.append(row)
        return out

    def _candidates(self, params: Sequence[Any], snapshot,
                    rowids: Optional[Sequence[int]]) -> List[list]:
        """The rows :meth:`rows` filters."""
        if rowids is None and self.index is not None:
            rowids = self._probe(params)
        if rowids is not None:
            if snapshot is not None:
                return self.storage.fetch(rowids, snapshot.cn)
            table_rows = self.storage.rows
            fetched = [table_rows.get(rowid) for rowid in rowids]
            return [row for row in fetched if row is not None]
        if snapshot is None:
            return list(self.storage.rows.values())
        return [row for _rowid, row
                in self.storage.snapshot_rows(snapshot.cn)]

    def live_targets(self, params: Sequence[Any]) \
            -> Iterator[Tuple[int, list]]:
        """Live ``(rowid, row)`` pairs every filter accepts, in
        live-scan order: how UPDATE and DELETE choose their target
        rows, under the writer lock.

        The candidates are fixed before the first pair is yielded, so
        the caller may evaluate and mutate as it goes.  Index
        candidates come in rowid order, which is the live-scan order
        only while the table is in rowid order; otherwise (after a
        rolled-back delete, until the next collection) the whole
        table is the candidate set.  An empty table evaluates nothing.
        """
        storage = self.storage
        table_rows = storage.rows
        if not table_rows:
            return
        rowids = None
        if self.index is not None and storage.in_rowid_order:
            rowids = self._probe(params)
        if rowids is not None:
            candidates = [(rowid, row) for rowid in rowids
                          if (row := table_rows.get(rowid)) is not None]
        else:
            candidates = list(table_rows.items())
        fns = [fn for fn, _text in self.filters]
        for rowid, row in candidates:
            for fn in fns:
                if fn(row, params) is not True:
                    break
            else:
                yield rowid, row

    # -- display -----------------------------------------------------------

    def describe(self) -> str:
        if self.index is not None:
            if self.point:
                kind = "point"
            elif self.low is not None or self.high is not None:
                kind = "range"
            else:
                kind = "prefix"
            return (f"index {kind} scan {self.index.name} "
                    f"({self.key_text}) (~{self.est_scan_rows()} rows)")
        return f"full scan (~{self.est_rows} rows)"

    def est_scan_rows(self) -> int:
        """Rows the scan reads: an index scan's count comes from its
        seek's bisect positions, with a constant where the statement
        has one, the index's median key for a parameter equality and an
        open end for a parameter bound."""
        index = self.index
        if index is None:
            return self.est_rows
        sample = index.sample()
        if sample is None:
            return 1
        prefix = tuple([getattr(fn, "_const", sample[position])
                        for position, fn in enumerate(self.key_fns)])
        low, high = [
            (bound[0]._const, bound[1])
            if bound is not None and hasattr(bound[0], "_const") else None
            for bound in (self.low, self.high)]
        seekable = self._seekable(prefix, low, high)
        if seekable is None:
            return self.est_rows
        return max(1, index.estimate(prefix, low, high) if seekable else 0)

    def explain_lines(self) -> List[str]:
        lines = [f"scan {self.table} {self.alias}: {self.describe()}"]
        for _fn, text in self.filters:
            lines.append(f"  filter [pushed]: {text}")
        return lines


class ViewScanNode(ScanNode):
    """A view in FROM: the rows of its body, run through
    ``Database._run_select`` at the reader's snapshot (the live rows
    inside a transaction), then the pushed filters.  It has no index
    and no commit stamps; the body's own plan reuses and folds."""

    def __init__(self, alias: str, name: str, database,
                 body_plan: SelectPlan):
        super().__init__(alias, name, None, len(body_plan.columns))
        self.database = database
        self.body = body_plan.statement
        self.est_rows = body_plan.scans[0].est_scan_rows() \
            if body_plan.scans else 1

    def _candidates(self, params: Sequence[Any], snapshot,
                    rowids: Optional[Sequence[int]]) -> List[list]:
        result = self.database._run_select(self.body, params, snapshot)
        return [list(row) for row in result.rows]

    def describe(self) -> str:
        return f"view scan (~{self.est_rows} rows)"


class JoinNode:
    """One left-deep join step combining the pipeline with a new scan."""

    def __init__(self, kind: str, scan: ScanNode, left_width: int):
        self.kind = kind  # 'INNER' | 'LEFT' | 'CROSS'
        self.scan = scan
        self.left_width = left_width
        self.null_row = [None] * scan.width
        # Hash-join keys; empty means nested loop.
        self.left_key_fns: List[CompiledExpr] = []
        self.right_key_fns: List[CompiledExpr] = []
        self.key_text = ""
        # Residual ON conjuncts over the combined row.
        self.condition: Optional[CompiledExpr] = None
        self.condition_text = ""
        self.est_left = 0
        # Set by the planner when the join is on one column of a fully
        # scanned base table: the database that keeps that table's
        # hash for snapshot reads, the (table, column) it is kept
        # under, and the column's slot.
        self.database = None
        self.kept_key: Optional[Tuple[str, str]] = None
        self.right_slot: Optional[int] = None

    @property
    def is_hash(self) -> bool:
        return bool(self.left_key_fns)

    def use_kept_hash(self, database) -> None:
        """Probe a hash of the whole right table kept on ``database``
        when the join is on one of its columns and it is fully
        scanned."""
        scan = self.scan
        if len(self.right_key_fns) != 1 or scan.storage is None \
                or scan.index is not None:
            return
        slot = getattr(self.right_key_fns[0], "_slot", None)
        if slot is None:
            return
        schema = scan.storage.schema
        self.database = database
        self.kept_key = (schema.name.lower(),
                         schema.columns[slot].name.lower())
        self.right_slot = slot

    def build_side(self, left_count: int, right_count: int) -> str:
        """Hash build side by estimated cardinality.

        Builds on the smaller input; the 4x hysteresis avoids paying the
        per-left accumulation overhead of a left build on near-ties.
        Output row order is left-major either way.
        """
        return "left" if left_count * 4 < right_count else "right"

    def run(self, left_rows: List[list],
            params: Sequence[Any], snapshot=None) -> List[list]:
        scan = self.scan
        if snapshot is not None and self.kept_key is not None \
                and len(scan.storage.rows) <= RESULT_CACHE_MAX_ROWS:
            buckets = self.database.join_hash(
                self.kept_key, scan.storage, self.right_slot, snapshot.cn)
            return self._probe(left_rows,
                               self._matched(left_rows, buckets, params),
                               params)
        right_rows = scan.rows(params, snapshot)
        if not self.is_hash:
            return self._run_loop(left_rows, right_rows, params)
        if len(self.left_key_fns) == 1:
            return self._hash_single(left_rows, right_rows, params)
        return self._hash_multi(left_rows, right_rows, params)

    def _hash_single(self, left_rows, right_rows, params):
        """Hash join on one key: the raw value is the bucket key and
        column keys index the row directly, skipping per-row closures
        and 1-tuple allocations."""
        condition = self.condition
        left_join = self.kind == "LEFT"
        null_row = self.null_row
        left_fn = self.left_key_fns[0]
        right_fn = self.right_key_fns[0]
        left_slot = getattr(left_fn, "_slot", None)
        right_slot = getattr(right_fn, "_slot", None)
        out: List[list] = []
        append = out.append
        if self.build_side(len(left_rows), len(right_rows)) == "left":
            # Build on the (smaller) left; probe with right rows but
            # accumulate per left row so output stays left-major with
            # matches in right-scan order — identical to a right build.
            buckets: Dict[Any, List[int]] = {}
            for position, left in enumerate(left_rows):
                key = left[left_slot] if left_slot is not None \
                    else left_fn(left, params)
                if key is not None:
                    buckets.setdefault(key, []).append(position)
            acc: List[Optional[List[list]]] = [None] * len(left_rows)
            get = buckets.get
            for right in right_rows:
                key = right[right_slot] if right_slot is not None \
                    else right_fn(right, params)
                if key is None:
                    continue
                positions = get(key)
                if positions is None:
                    continue
                for position in positions:
                    combined = left_rows[position] + right
                    if condition is None \
                            or condition(combined, params) is True:
                        matches = acc[position]
                        if matches is None:
                            acc[position] = matches = []
                        matches.append(combined)
            extend = out.extend
            for position, matches in enumerate(acc):
                if matches:
                    extend(matches)
                elif left_join:
                    append(left_rows[position] + null_row)
            return out
        buckets = {}
        if right_slot is not None:
            for right in right_rows:
                key = right[right_slot]
                if key is not None:
                    buckets.setdefault(key, []).append(right)
        else:
            for right in right_rows:
                key = right_fn(right, params)
                if key is not None:
                    buckets.setdefault(key, []).append(right)
        return self._probe(left_rows, buckets, params)

    def _matched(self, left_rows: List[list],
                 buckets: Dict[Any, List[list]],
                 params: Sequence[Any]) -> Dict[Any, List[list]]:
        """The kept ``buckets`` of the whole right table as a build over
        its filtered scan would hold them: with pushed filters, just the
        keys ``left_rows`` probe, each bucket filtered in its order.  So
        the filters run on matched rows only, as a WHERE over the
        joined rows does."""
        scan = self.scan
        if not scan.filters:
            return buckets
        left_fn = self.left_key_fns[0]
        left_slot = getattr(left_fn, "_slot", None)
        if left_slot is not None:
            probed = dict.fromkeys([left[left_slot] for left in left_rows])
        else:
            probed = dict.fromkeys([left_fn(left, params)
                                    for left in left_rows])
        matched: Dict[Any, List[list]] = {}
        get = buckets.get
        for key in probed:  # first-probe order; a NULL key has no bucket
            rows = get(key)
            if rows is not None:
                matched[key] = scan.filter(rows, params)
        return matched

    def _probe(self, left_rows: List[list],
               buckets: Dict[Any, List[list]],
               params: Sequence[Any]) -> List[list]:
        """Probe a right-side single-key hash with each left row, in
        left-major order."""
        condition = self.condition
        left_join = self.kind == "LEFT"
        null_row = self.null_row
        left_fn = self.left_key_fns[0]
        left_slot = getattr(left_fn, "_slot", None)
        out: List[list] = []
        append = out.append
        get = buckets.get
        if condition is None and not left_join and left_slot is not None:
            # The hottest shape: plain equi-INNER join on a column.
            for left in left_rows:
                key = left[left_slot]
                if key is None:
                    continue
                matches = get(key)
                if matches is not None:
                    for right in matches:
                        append(left + right)
            return out
        for left in left_rows:
            key = left[left_slot] if left_slot is not None \
                else left_fn(left, params)
            matches = get(key, ()) if key is not None else ()
            matched = False
            for right in matches:
                combined = left + right
                if condition is None or condition(combined, params) is True:
                    matched = True
                    append(combined)
            if left_join and not matched:
                append(left + null_row)
        return out

    def _hash_multi(self, left_rows, right_rows, params):
        condition = self.condition
        left_join = self.kind == "LEFT"
        null_row = self.null_row
        out: List[list] = []
        if self.build_side(len(left_rows), len(right_rows)) == "left":
            buckets: Dict[tuple, List[int]] = {}
            for position, left in enumerate(left_rows):
                key = tuple(fn(left, params) for fn in self.left_key_fns)
                if any(part is None for part in key):
                    continue
                buckets.setdefault(key, []).append(position)
            acc: List[List[list]] = [[] for _ in left_rows]
            for right in right_rows:
                key = tuple(fn(right, params)
                            for fn in self.right_key_fns)
                if any(part is None for part in key):
                    continue
                for position in buckets.get(key, ()):
                    combined = left_rows[position] + right
                    if condition is None \
                            or condition(combined, params) is True:
                        acc[position].append(combined)
            for position, matches in enumerate(acc):
                if matches:
                    out.extend(matches)
                elif left_join:
                    out.append(left_rows[position] + null_row)
            return out
        buckets = {}
        for right in right_rows:
            key = tuple(fn(right, params) for fn in self.right_key_fns)
            if any(part is None for part in key):
                continue
            buckets.setdefault(key, []).append(right)
        for left in left_rows:
            key = tuple(fn(left, params) for fn in self.left_key_fns)
            if any(part is None for part in key):
                matches: Sequence[list] = ()
            else:
                matches = buckets.get(key, ())
            matched = False
            for right in matches:
                combined = left + right
                if condition is None or condition(combined, params) is True:
                    matched = True
                    out.append(combined)
            if left_join and not matched:
                out.append(left + null_row)
        return out

    def _run_loop(self, left_rows, right_rows, params):
        condition = self.condition
        left_join = self.kind == "LEFT"
        null_row = self.null_row
        out: List[list] = []
        for left in left_rows:
            matched = False
            for right in right_rows:
                combined = left + right
                if condition is None or condition(combined, params) is True:
                    matched = True
                    out.append(combined)
            if left_join and not matched:
                out.append(left + null_row)
        return out

    def explain_lines(self) -> List[str]:
        lines = []
        scan = self.scan
        if self.is_hash:
            side = self.build_side(self.est_left, scan.est_scan_rows())
            head = (f"hash join {self.kind} {scan.table} {scan.alias}: "
                    f"{self.key_text} (build={side}, "
                    f"~{self.est_left} x ~{scan.est_scan_rows()} rows)")
        else:
            head = (f"nested loop {self.kind} {scan.table} {scan.alias} "
                    f"(~{self.est_left} x ~{scan.est_scan_rows()} rows)")
        lines.append(head)
        lines.append(f"  {scan.explain_lines()[0]}")
        for _fn, text in scan.filters:
            lines.append(f"    filter [pushed]: {text}")
        if self.condition is not None:
            lines.append(f"  on-filter: {self.condition_text}")
        return lines


class CompiledAggregate:
    """One unique aggregate of a grouped query, with a compiled argument.

    Its value over a group is a left fold in scan order: :meth:`fold`
    continues a state over more member rows and :meth:`final` reads the
    value off it, so folding two batches one after the other leaves the
    state one pass over both would, bit for bit.  The states: COUNT an
    int; SUM and AVG ``(total, n)``, continued with ``sum(values,
    total)``; MIN and MAX the first best value so far (None before
    one); a DISTINCT aggregate the distinct values seen, by marker.
    """

    __slots__ = ("name", "distinct", "arg_fn", "arg_slot", "text")

    def __init__(self, name: str, distinct: bool,
                 arg_fn: Optional[CompiledExpr], text: str):
        self.name = name
        self.distinct = distinct
        self.arg_fn = arg_fn
        self.arg_slot = getattr(arg_fn, "_slot", None)
        self.text = text

    def fold(self, members: List[list], params: Sequence[Any],
             prev: Any = None) -> Any:
        """The state after ``members``, continuing ``prev`` (None: the
        empty state).  ``prev`` itself is never modified."""
        if self.arg_fn is None:  # COUNT(*)
            return len(members) + (prev or 0)
        slot = self.arg_slot
        if slot is not None:  # plain column argument: index directly
            values = [value for row in members
                      if (value := row[slot]) is not None]
        else:
            arg_fn = self.arg_fn
            values = []
            for row in members:
                value = arg_fn(row, params)
                if value is not None:
                    values.append(value)
        if self.distinct:
            seen = dict(prev or ())
            for value in values:
                seen.setdefault((type(value).__name__, value), value)
            return seen
        return self._accumulate(values, prev)

    def _accumulate(self, values: List[Any], prev: Any) -> Any:
        name = self.name
        if name == "COUNT":
            return len(values) + (prev or 0)
        if name == "SUM" or name == "AVG":
            total, count = prev or (0, 0)
            return sum(values, total), count + len(values)
        if prev is not None:
            values.insert(0, prev)
        if not values:
            return None
        if name == "MIN":
            return min(values, key=sort_key)
        if name == "MAX":
            return max(values, key=sort_key)
        raise EngineError(f"unknown aggregate {name!r}")  # pragma: no cover

    def final(self, state: Any) -> Any:
        """The aggregate's value in ``state``."""
        if self.distinct:
            state = self._accumulate(list(state.values()), None)
        name = self.name
        if name == "SUM" or name == "AVG":
            total, count = state
            if not count:
                return None
            return total if name == "SUM" else total / count
        return state


class SelectPlan:
    """A fully compiled SELECT, ready to execute against live storages."""

    def __init__(self, statement: SelectStatement):
        self.statement = statement
        self.columns: List[str] = []
        self.no_from = statement.from_clause is None
        self.scans: List[ScanNode] = []
        self.joins: List[JoinNode] = []
        self.residuals: List[Tuple[CompiledExpr, str]] = []
        self.grouped = False
        self.group_key_fns: List[CompiledExpr] = []
        self.group_texts: List[str] = []
        self.aggregates: List[CompiledAggregate] = []
        self.having_fn: Optional[CompiledExpr] = None
        self.having_text = ""
        self.source_width = 0
        self.item_fns: List[CompiledExpr] = []
        # When every item is a plain slot read, projection collapses to
        # one operator.itemgetter call per row.
        self.project_getter: Optional[Callable[[Sequence[Any]], tuple]] \
            = None
        self.distinct = statement.distinct
        # (fn over ctx_row + out_row, ascending, text)
        self.order_specs: List[Tuple[CompiledExpr, bool, str]] = []
        self.limit_fn: Optional[CompiledExpr] = None
        self.offset_fn: Optional[CompiledExpr] = None
        # Whether a remembered group state may be continued over rows
        # appended to the driving table (scans[0]): the plan groups, no
        # aggregate is DISTINCT, and the driving table is read once.
        # Set by the planner.
        self.foldable = False
        # Last result per parameter set, for Database._run_reusable:
        # params key -> (table stamps at execution, driving-table rowid
        # watermark, payload, group state or None), least recently used
        # first.  The plan is owned by its database's plan cache and
        # dies with its entry there, so DDL drops these with the plan;
        # readers share them under that database's state mutex.
        self.results: "OrderedDict[tuple, Tuple[tuple, int, Any, Any]]" \
            = OrderedDict()  # guarded-by: engine-state

    # -- result reuse ------------------------------------------------------

    @property
    def cacheable(self) -> bool:
        """Whether a result of this plan may be remembered: it
        aggregates or is DISTINCT (output small relative to input) and
        every source is a base table, whose commit stamps say when it
        last changed."""
        return (self.grouped or self.distinct) and bool(self.scans) \
            and not any(isinstance(scan, ViewScanNode)
                        for scan in self.scans)

    def stamps(self) -> Tuple[int, ...]:
        """The commit number each scanned table was last stamped with."""
        return tuple([scan.storage._last_version_cn
                      for scan in self.scans])

    def watermark(self) -> int:
        """The driving table's next rowid (read before :meth:`stamps`:
        storage rule (3))."""
        return self.scans[0].storage._next_rowid

    def reusable_result(self, key: tuple, stamps: tuple, cn: int):  # requires: engine-state
        """What is remembered for ``key``, judged by the tables' current
        ``stamps`` for a reader at commit number ``cn``: ``(payload,
        None)`` when the payload is what executing would produce;
        ``(None, (watermark, groups))`` when only rows appended to the
        driving table from rowid ``watermark`` on separate the
        remembered group state from it; else ``(None, None)``.

        Either needs every stamp ``<= cn`` and no table rewritten after
        its remembered stamp (``TableStorage._rewritten_cn``: besides
        deletes and updates, a collection that re-sorts a table's scan
        order, which moves no stamp)."""
        remembered = self.results.get(key)
        if remembered is None or any(stamp > cn for stamp in stamps):
            return None, None
        then, watermark, payload, groups = remembered
        if any(scan.storage._rewritten_cn > stamp
               for scan, stamp in zip(self.scans, then)):
            return None, None
        if then == stamps:
            self.results.move_to_end(key)
            return payload, None
        if groups is not None and then[1:] == stamps[1:]:
            return None, (watermark, groups)
        return None, None

    def remember_result(self, key, stamps, watermark, payload, groups):  # requires: engine-state
        if not (self.foldable and len(groups) <= RESULT_CACHE_MAX_ROWS
                and self._resumable(groups)):
            groups = None
        self.results[key] = (stamps, watermark, payload, groups)
        self.results.move_to_end(key)
        if len(self.results) > RESULT_CACHE_PARAM_SETS:
            self.results.popitem(last=False)

    def _resumable(self, groups: Dict[Any, list]) -> bool:
        """Whether ``sum`` can continue every SUM and AVG total exactly.
        From Python 3.12 it compensates float rounding within one call,
        so only an int total resumes bit for bit there."""
        if _FLOAT_SUMS_RESUME:
            return True
        positions = [position + 1
                     for position, agg in enumerate(self.aggregates)
                     if agg.name in ("SUM", "AVG")]
        return not any(state[position][0].__class__ is float
                       for state in groups.values()
                       for position in positions)

    # -- execution ---------------------------------------------------------

    def execute(self, params: Sequence[Any], snapshot=None):
        """Run the statement at ``snapshot`` (None: the live rows)."""
        return self.run(params, snapshot)[0]

    def run(self, params: Sequence[Any], snapshot=None,
            rowids: Optional[Sequence[int]] = None,
            groups: Optional[Dict[Any, list]] = None):
        """Execute, returning ``(result, groups)``: the group state an
        aggregate's result was finalized from (None when the plan does
        not group).  With ``rowids`` the driving table contributes just
        those rows and ``groups`` is the state they continue — a fold,
        whose caller vouches that nothing else changed
        (``Database._run_reusable``)."""
        if self.no_from:
            rows: List[list] = [[]]
        else:
            rows = self.scans[0].rows(params, snapshot, rowids)
            for join in self.joins:
                rows = join.run(rows, params, snapshot)

        for fn, _text in self.residuals:
            rows = [row for row in rows if fn(row, params) is True]

        if not self.grouped:
            return self._project(rows, params), None
        groups = self._fold(rows, params, groups)
        return self._project(self._final(groups, params), params), groups

    def _project(self, rows: List[list], params: Sequence[Any]):
        """Projection, DISTINCT, ORDER BY and OFFSET/LIMIT."""
        from repro.engine.executor import ResultSet

        getter = self.project_getter
        if getter is not None:
            produced = [(getter(row), row) for row in rows]
        else:
            item_fns = self.item_fns
            produced = [
                (tuple(fn(row, params) for fn in item_fns), row)
                for row in rows
            ]

        if self.distinct:
            seen: Set[Any] = set()
            unique = []
            for out_row, ctx in produced:
                marker = row_marker(out_row)
                if marker not in seen:
                    seen.add(marker)
                    unique.append((out_row, ctx))
            produced = unique

        if self.order_specs:
            keyed = [(out_row, ctx + list(out_row))
                     for out_row, ctx in produced]
            for fn, ascending, _text in reversed(self.order_specs):
                keyed.sort(
                    key=lambda pair: sort_key(fn(pair[1], params)),
                    reverse=not ascending)
            out_rows = [out_row for out_row, _order_row in keyed]
        else:
            out_rows = [out_row for out_row, _ctx in produced]

        empty: Sequence[Any] = ()
        if self.offset_fn is not None:
            out_rows = out_rows[int(self.offset_fn(empty, params)):]
        if self.limit_fn is not None:
            out_rows = out_rows[:int(self.limit_fn(empty, params))]
        return ResultSet(list(self.columns), out_rows)

    def _buckets(self, rows: List[list],
                 params: Sequence[Any]) -> Dict[Any, List[list]]:
        """``rows`` by group key, in first-appearance order (one lone
        group, however empty, without GROUP BY)."""
        if not self.group_key_fns:
            return {(): rows}
        key_fns = self.group_key_fns
        groups: Dict[Any, List[list]] = {}
        if len(key_fns) == 1:
            fn = key_fns[0]
            slot = getattr(fn, "_slot", None)
            # One key: group on sort_key of the value directly (no
            # per-row 1-tuple), indexing the slot when possible.
            if slot is not None:
                for row in rows:
                    key = sort_key(row[slot])
                    bucket = groups.get(key)
                    if bucket is None:
                        groups[key] = bucket = []
                    bucket.append(row)
            else:
                for row in rows:
                    key = sort_key(fn(row, params))
                    bucket = groups.get(key)
                    if bucket is None:
                        groups[key] = bucket = []
                    bucket.append(row)
        else:
            for row in rows:
                key = tuple(sort_key(fn(row, params)) for fn in key_fns)
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = bucket = []
                bucket.append(row)
        return groups

    def _fold(self, rows: List[list], params: Sequence[Any],
              groups: Optional[Dict[Any, list]] = None) \
            -> Dict[Any, list]:
        """Fold ``rows`` into a group state continuing ``groups`` (which
        is left as it was): group key -> ``[representative, aggregate
        state, ...]`` in first-appearance order.  The representative is
        the group's first row — None while the lone group of an
        aggregate without GROUP BY has none."""
        folded = dict(groups or ())
        aggregates = self.aggregates
        empty = [None] * (len(aggregates) + 1)
        for key, members in self._buckets(rows, params).items():
            prev = folded.get(key, empty)
            representative = prev[0]
            if representative is None and members:
                representative = members[0]
            folded[key] = [representative] + [
                agg.fold(members, params, state)
                for agg, state in zip(aggregates, prev[1:])]
        return folded

    def _final(self, groups: Dict[Any, list],
               params: Sequence[Any]) -> List[list]:
        """One row per group — representative plus aggregate values —
        that passes HAVING.  An empty lone group's representative is
        its sources' null row."""
        null_rep = [None] * self.source_width
        aggregates = self.aggregates
        ext_rows: List[list] = []
        for state in groups.values():
            representative = state[0]
            ext_rows.append(
                (null_rep if representative is None else representative)
                + [agg.final(value)
                   for agg, value in zip(aggregates, state[1:])])
        if self.having_fn is not None:
            having = self.having_fn
            ext_rows = [row for row in ext_rows
                        if having(row, params) is True]
        return ext_rows

    # -- display -----------------------------------------------------------

    def explain_lines(self) -> List[str]:
        lines: List[str] = []
        if self.no_from:
            lines.append("no FROM clause: constant row")
        else:
            lines.extend(self.scans[0].explain_lines())
            for join in self.joins:
                lines.extend(join.explain_lines())
        for _fn, text in self.residuals:
            lines.append(f"filter: {text}")
        if self.grouped:
            keys = ", ".join(self.group_texts) if self.group_texts \
                else "(all rows)"
            aggs = ", ".join(agg.text for agg in self.aggregates)
            lines.append(f"group by: {keys}  aggregates: {aggs}")
            if self.having_fn is not None:
                lines.append(f"having: {self.having_text}")
        if self.distinct:
            lines.append("distinct")
        if self.order_specs:
            parts = [f"{text} {'asc' if ascending else 'desc'}"
                     for _fn, ascending, text in self.order_specs]
            lines.append("order by: " + ", ".join(parts))
        if self.offset_fn is not None:
            lines.append("offset: "
                         + predicate_text(self.statement.offset))
        if self.limit_fn is not None:
            lines.append("limit: " + predicate_text(self.statement.limit))
        lines.append("project: " + ", ".join(self.columns))
        return lines


# -- the planner ----------------------------------------------------------------

def plan_dml(database, statement):
    """Plan an INSERT, UPDATE or DELETE.

    An INSERT plans to its VALUES rows, each a list of closures
    compiled against no columns.  An UPDATE or DELETE plans to the scan
    node SELECT would build for the same WHERE — index point, prefix or
    range scan from its conjuncts — with the whole WHERE compiled as
    the one filter, evaluated both sides of every AND included; an
    UPDATE's node also carries its SET list as ``(column position,
    closure)`` pairs over the target row.  Name and aggregate errors
    raise here, whether or not any row matches.
    """
    if isinstance(statement, InsertStatement):
        scope = Scope(SlotMap())
        return [[compile_expression(expr, scope) for expr in row]
                for row in statement.rows]
    storage = database.storage(statement.table)
    schema = storage.schema
    scan = ScanNode(statement.table, statement.table, storage,
                    len(schema.columns))
    slots = SlotMap()
    slots.add_source(statement.table, schema.column_names)
    if statement.where is not None:
        scan.filters.append((
            compile_expression(statement.where, Scope(slots)),
            predicate_text(statement.where)))
        _index_for_scan(scan, schema, split_conjuncts(statement.where))
    for column, expr in getattr(statement, "assignments", ()):
        value = compile_expression(expr, Scope(slots))
        scan.assignments.append((schema.column_index(column), value))
    return scan


def _flatten_from(node) \
        -> Tuple[List[TableRef], List[Tuple[str, Optional[Expression]]]]:
    """Left-deep FROM tree -> ordered table refs + join (kind, cond)."""
    if isinstance(node, Join):
        refs, joins = _flatten_from(node.left)
        refs.append(node.right)
        joins.append((node.kind, node.condition))
        return refs, joins
    return [node], []


def _expand_stars(items: List[SelectItem],
                  sources: List[Tuple[str, List[str]]]) -> List[SelectItem]:
    expanded: List[SelectItem] = []
    for item in items:
        if not isinstance(item.expression, Star):
            expanded.append(item)
            continue
        if not sources:
            raise EngineError("SELECT * requires a FROM clause")
        qualifier = None
        if item.alias and item.alias.endswith(".*"):
            qualifier = item.alias[:-2].lower()
        for alias, column_names in sources:
            if qualifier is not None and alias.lower() != qualifier:
                continue
            for column in column_names:
                expanded.append(
                    SelectItem(ColumnRef(f"{alias}.{column}"), column))
    return expanded


def _conjunct_source(conjunct: Expression, slots: SlotMap) -> Set[int]:
    """The set of FROM-source indexes a conjunct references."""
    return {
        slots.source_of_slot(slots.resolve(name))
        for name in conjunct.column_refs()
    }


#: ``value < column`` is ``column > value``.
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _own_column(expr: Expression, scan: ScanNode, schema) -> Optional[str]:
    """The lowercased name of the scan's column ``expr`` reads, if any."""
    if not isinstance(expr, ColumnRef):
        return None
    name = expr.name.lower()
    if "." in name:
        prefix, name = name.split(".", 1)
        if prefix != scan.alias.lower():
            return None
    return name if schema.has_column(name) else None


def _index_for_scan(scan: ScanNode, schema,
                    pushed: List[Expression]) -> None:
    """Pick the best index scan: equality conjuncts on a leading run of
    an index's columns, then ``<``, ``<=``, ``>``, ``>=`` or
    ``BETWEEN`` bounds on the next column.  A point scan beats a longer
    prefix, which beats a shorter one; bounds break ties."""
    values = (Literal, Parameter)
    equal: Dict[str, Expression] = {}
    # column -> (value, inclusive)
    lows: Dict[str, Tuple[Expression, bool]] = {}
    highs: Dict[str, Tuple[Expression, bool]] = {}
    for conjunct in pushed:
        if isinstance(conjunct, Between):
            column = _own_column(conjunct.operand, scan, schema)
            if column is not None and not conjunct.negated \
                    and isinstance(conjunct.low, values) \
                    and isinstance(conjunct.high, values):
                lows.setdefault(column, (conjunct.low, True))
                highs.setdefault(column, (conjunct.high, True))
            continue
        if not isinstance(conjunct, BinaryOp) or conjunct.op not in _FLIPPED:
            continue
        op, value = conjunct.op, conjunct.right
        column = _own_column(conjunct.left, scan, schema)
        if column is None:
            op, value = _FLIPPED[op], conjunct.left
            column = _own_column(conjunct.right, scan, schema)
        if column is None or not isinstance(value, values):
            continue
        if op == "=":
            equal.setdefault(column, value)
        elif op[0] == ">":
            lows.setdefault(column, (value, op == ">="))
        else:
            highs.setdefault(column, (value, op == "<="))
    best = None  # (rank, index, columns)
    # list() is one atomic copy: planning may run lock-free on the
    # MVCC read path while a writer adds/drops an index.
    for index in list(scan.storage.indexes.values()):
        columns = [column.lower() for column in index.column_names]
        covered = 0
        while covered < len(columns) and columns[covered] in equal:
            covered += 1
        ranged = covered < len(columns) and (
            columns[covered] in lows or columns[covered] in highs)
        if not (covered or ranged):
            continue
        rank = (covered == len(columns), covered, ranged)
        if best is None or rank > best[0]:
            best = (rank, index, columns)
    if best is None:
        return
    (scan.point, covered, ranged), index, columns = best
    empty_scope = Scope(SlotMap())
    scan.index = index
    scan.key_fns = [compile_expression(equal[column], empty_scope)
                    for column in columns[:covered]]
    texts = [f"{column} = {predicate_text(equal[column])}"
             for column in columns[:covered]]
    if ranged:
        column = columns[covered]
        scan.bound_type = schema.column(column).type
        for side, bounds, op in (("low", lows, ">"), ("high", highs, "<")):
            if column in bounds:
                value, inclusive = bounds[column]
                setattr(scan, side, (
                    compile_expression(value, empty_scope), inclusive))
                op += "=" if inclusive else ""
                texts.append(f"{column} {op} {predicate_text(value)}")
    scan.key_text = ", ".join(texts)


def plan_select(database, statement: SelectStatement) -> SelectPlan:
    """Plan one SELECT; raises its name and aggregate errors."""
    plan = SelectPlan(statement)

    # -- sources and slots -------------------------------------------------
    slots = SlotMap()
    sources: List[Tuple[str, List[str]]] = []  # (alias, column names)
    refs, joins = [], []
    if statement.from_clause is not None:
        refs, joins = _flatten_from(statement.from_clause)
    for ref in refs:
        body = database.views.get(ref.name.lower())
        if body is not None:
            body_plan = database.plan_for(body)
            scan: ScanNode = ViewScanNode(ref.alias, ref.name, database,
                                          body_plan)
            columns = body_plan.columns
        else:
            storage = database.storage(ref.name)
            columns = storage.schema.column_names
            scan = ScanNode(ref.alias, ref.name, storage, len(columns))
        slots.add_source(ref.alias, columns)
        sources.append((ref.alias, columns))
        plan.scans.append(scan)
    plan.source_width = slots.width

    # Which sources sit on the null-supplying side of a LEFT join?
    null_supplying = {
        position + 1
        for position, (kind, _condition) in enumerate(joins)
        if kind == "LEFT"
    }

    # -- WHERE: push single-source conjuncts, keep the rest ----------------
    source_scope = Scope(slots)
    pushed_raw: List[List[Expression]] = [[] for _ in plan.scans]
    for conjunct in split_conjuncts(statement.where):
        owners = _conjunct_source(conjunct, slots)
        if len(owners) == 1:
            owner = next(iter(owners))
            if owner not in null_supplying:
                pushed_raw[owner].append(conjunct)
                continue
        plan.residuals.append((
            compile_expression(conjunct, source_scope),
            predicate_text(conjunct)))

    # -- scans: local filters + index choice -------------------------------
    local_scopes = []
    for position, scan in enumerate(plan.scans):
        local_slots = SlotMap()
        local_slots.add_source(*sources[position])
        local_scope = Scope(local_slots)
        local_scopes.append(local_scope)
        for conjunct in pushed_raw[position]:
            scan.filters.append((
                compile_expression(conjunct, local_scope),
                predicate_text(conjunct)))
        if scan.storage is not None:  # a view has no index
            _index_for_scan(scan, scan.storage.schema,
                            pushed_raw[position])

    # -- joins -------------------------------------------------------------
    # An ON clause sees only the sources joined so far, so a reference
    # to a later table is an unknown column, as in the interpreter.
    joined = SlotMap()
    if sources:
        joined.add_source(*sources[0])
    est_rows = plan.scans[0].est_scan_rows() if plan.scans else 1
    for position, (kind, condition) in enumerate(joins):
        right_scan = plan.scans[position + 1]
        right_start = joined.add_source(*sources[position + 1])
        join = JoinNode(kind, right_scan, right_start)
        join.est_left = est_rows
        residual_parts: List[Expression] = []
        key_texts: List[str] = []
        for conjunct in split_conjuncts(condition):
            if _try_hash_key(conjunct, join, joined,
                             local_scopes[position + 1], right_start):
                key_texts.append(predicate_text(conjunct))
                continue
            if kind in ("INNER", "CROSS"):
                owners = _conjunct_source(conjunct, joined)
                if owners == {position + 1}:
                    # INNER ON-filter over the new source only: push
                    # into its scan (ON == WHERE for inner joins).
                    right_scan.filters.append((
                        compile_expression(
                            conjunct, local_scopes[position + 1]),
                        predicate_text(conjunct)))
                    continue
            residual_parts.append(conjunct)
        if residual_parts:
            on_scope = Scope(joined)
            fns = [compile_expression(part, on_scope)
                   for part in residual_parts]

            def combined(row, params, fns=fns):
                result: Any = True
                for fn in fns:
                    verdict = fn(row, params)
                    if verdict is False:
                        return False
                    if verdict is not True:
                        result = None
                return result
            join.condition = combined
            join.condition_text = " AND ".join(
                predicate_text(part) for part in residual_parts)
        join.key_text = " AND ".join(key_texts)
        join.use_kept_hash(database)
        plan.joins.append(join)
        est_rows = max(1, est_rows) * max(1, right_scan.est_scan_rows()) \
            if not join.is_hash else max(est_rows,
                                         right_scan.est_scan_rows())

    # -- items / aggregates / grouping ------------------------------------
    items = _expand_stars(statement.items, sources)
    plan.columns = [output_name(item, index)
                    for index, item in enumerate(items)]

    aggregates: List[AggregateCall] = []
    for item in items:
        aggregates.extend(find_aggregates(item.expression))
    if statement.having is not None:
        aggregates.extend(find_aggregates(statement.having))
    for expr, _ascending in statement.order_by:
        aggregates.extend(find_aggregates(expr))

    plan.grouped = bool(statement.group_by) or bool(aggregates)
    agg_slots: Dict[str, int] = {}
    if plan.grouped:
        unique: Dict[str, AggregateCall] = {}
        for aggregate in aggregates:
            unique.setdefault(aggregate.result_key(), aggregate)
        for offset, (key, aggregate) in enumerate(unique.items()):
            agg_slots[key] = slots.width + offset
            if isinstance(aggregate.argument, Star):
                if aggregate.name != "COUNT":
                    raise EngineError(f"{aggregate.name}(*) is not valid")
                arg_fn = None
            else:
                arg_fn = compile_expression(
                    aggregate.argument, source_scope)
            plan.aggregates.append(CompiledAggregate(
                aggregate.name, aggregate.distinct, arg_fn,
                predicate_text(aggregate)))
        for expr in statement.group_by:
            plan.group_key_fns.append(
                compile_expression(expr, source_scope))
            plan.group_texts.append(predicate_text(expr))

    # Post-grouping expressions see source slots (representative row)
    # plus the appended aggregate slots.
    output_scope = Scope(slots, agg_slots=agg_slots)
    item_fns = [
        compile_expression(item.expression, output_scope)
        for item in items
    ]
    item_slots = [getattr(fn, "_slot", None) for fn in item_fns]
    if item_slots and all(slot is not None for slot in item_slots):
        # The getter replaces the per-item closures, which a cached
        # plan would otherwise keep for nothing.
        if len(item_slots) == 1:
            only = item_slots[0]
            plan.project_getter = lambda row, _slot=only: (row[_slot],)
        else:
            plan.project_getter = operator.itemgetter(*item_slots)
    else:
        plan.item_fns = item_fns
    if plan.grouped and statement.having is not None:
        plan.having_fn = compile_expression(statement.having, output_scope)
        plan.having_text = predicate_text(statement.having)

    # ORDER BY additionally sees output aliases (appended last), with
    # source columns taking precedence like the interpreter's setdefault.
    ctx_width = slots.width + len(plan.aggregates)
    alias_slots: Dict[str, int] = {}
    for position, name in enumerate(plan.columns):
        alias_slots.setdefault(name.lower(), ctx_width + position)
    order_scope = Scope(slots, agg_slots=agg_slots,
                        alias_slots=alias_slots)
    for expr, ascending in statement.order_by:
        plan.order_specs.append((
            compile_expression(expr, order_scope), ascending,
            predicate_text(expr)))

    empty_scope = Scope(SlotMap())
    if statement.limit is not None:
        plan.limit_fn = compile_expression(statement.limit, empty_scope)
    if statement.offset is not None:
        plan.offset_fn = compile_expression(statement.offset, empty_scope)

    storages = [scan.storage for scan in plan.scans]
    plan.foldable = plan.cacheable and plan.grouped \
        and storages.count(storages[0]) == 1 \
        and not any(agg.distinct for agg in plan.aggregates)
    return plan


def _try_hash_key(conjunct: Expression, join: JoinNode, joined: SlotMap,
                  right_scope: Scope, right_start: int) -> bool:
    """Register ``conjunct`` as a hash-join key when it equates an
    expression over the sources joined before with one over the new
    source (its slots start at ``right_start``)."""
    if join.kind not in ("INNER", "LEFT"):
        return False
    if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
        return False
    sides = []
    for expr in (conjunct.left, conjunct.right):
        probe = Scope(joined)
        fn = compile_expression(expr, probe)
        touched = probe.touched_source_slots
        if not touched or min(touched) < right_start <= max(touched):
            return False
        sides.append((min(touched) >= right_start, fn, expr))
    (left_new, left_fn, left_expr), (right_new, right_fn, right_expr) = sides
    if left_new == right_new:
        return False
    if left_new:
        left_fn, right_expr = right_fn, left_expr
    join.left_key_fns.append(left_fn)
    join.right_key_fns.append(compile_expression(right_expr, right_scope))
    return True
