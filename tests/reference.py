"""The reference interpreter: the oracle compiled plans are tested against.

:func:`evaluate` walks an expression per row against a dict context
keyed by lowercased ``alias.column`` and ``column`` names;
:func:`execute_select` runs a SELECT over full scans, with left-deep
joins (hash joins on ``left.col = right.col``, nested loops otherwise);
:class:`ReferenceDatabase` is a Database whose SELECTs, DML targets,
VALUES and SET run here.  Only the value helpers (comparison,
arithmetic, LIKE, scalar functions, ``sort_key``, the row marker, star
expansion, output names) are the engine's.  Names resolve per row, so
an unknown column over zero rows returns no rows (or updates none)
here, where the engine raises when it plans.
"""

from typing import Any, Dict, List, Sequence

import repro.engine.expressions as ex
from repro.engine import Database
from repro.engine.executor import ResultSet
from repro.engine.parser import InsertStatement, SelectStatement, TableRef
from repro.engine.planner import _expand_stars, output_name, row_marker
from repro.engine.types import sort_key
from repro.errors import EngineError

_AMBIGUOUS = object()


class EvalContext:
    """One row's values by name (a bare name two sources share is
    ambiguous) and the statement parameters."""

    def __init__(self, values: Dict[str, Any], params: Sequence[Any] = ()):
        self.values = values
        self.params = params

    def lookup(self, name: str) -> Any:
        key = name.lower()
        if key not in self.values:
            raise EngineError(f"unknown column {name!r} in expression")
        if self.values[key] is _AMBIGUOUS:
            raise EngineError(f"ambiguous column reference {name!r}")
        return self.values[key]


# -- expressions ---------------------------------------------------------------

def evaluate(expr: ex.Expression, ctx: EvalContext) -> Any:
    """The value of ``expr`` in one row context."""
    return _EVALUATORS[type(expr)](expr, ctx)


def _parameter(expr, ctx):
    try:
        return ctx.params[expr.index]
    except IndexError as exc:
        raise EngineError(
            f"statement needs parameter #{expr.index + 1} "
            f"but only {len(ctx.params)} were supplied") from exc


def _raise(message):
    raise EngineError(message)


def _binary(expr, ctx):
    # Both sides always, so errors surface as on the compiled path.
    left, right = evaluate(expr.left, ctx), evaluate(expr.right, ctx)
    if expr.op == "AND":
        return ex._three_valued_and(left, right)
    if expr.op == "OR":
        return ex._three_valued_or(left, right)
    if expr.op in ("=", "!=", "<>", "<", "<=", ">", ">="):
        return ex._compare(expr.op, left, right)
    return ex._arith(expr.op, left, right)


def _unary(expr, ctx):
    value = evaluate(expr.operand, ctx)
    if value is None or expr.op == "+":
        return value
    if expr.op == "NOT":
        return not value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise EngineError("unary '-' requires a numeric operand")
    return -value


def _in_list(expr, ctx):
    value = evaluate(expr.operand, ctx)
    if value is None:
        return None
    saw_null = False
    for option in expr.options:
        candidate = evaluate(option, ctx)
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return not expr.negated
    return None if saw_null else expr.negated


def _between(expr, ctx):
    value = evaluate(expr.operand, ctx)
    result = ex._three_valued_and(
        ex._compare(">=", value, evaluate(expr.low, ctx)),
        ex._compare("<=", value, evaluate(expr.high, ctx)))
    return None if result is None else result is not expr.negated


def _like(expr, ctx):
    value = evaluate(expr.operand, ctx)
    pattern = evaluate(expr.pattern, ctx)
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise EngineError("LIKE requires TEXT operands")
    return (ex._like_to_regex(pattern).match(value) is not None) \
        is not expr.negated


def _case(expr, ctx):
    for condition, result in expr.branches:
        if evaluate(condition, ctx) is True:
            return evaluate(result, ctx)
    return None if expr.default is None else evaluate(expr.default, ctx)


def _function(expr, ctx):
    fn = ex._SCALAR_FUNCTIONS.get(expr.name.upper())
    if fn is None:
        raise EngineError(f"unknown function {expr.name!r}")
    return fn(*[evaluate(arg, ctx) for arg in expr.args])


def _aggregate(expr, ctx):
    """A grouped row carries each aggregate's value under its key."""
    if expr.result_key() in ctx.values:
        return ctx.values[expr.result_key()]
    raise EngineError(f"aggregate {expr.name} used outside a grouped query")


_EVALUATORS = {
    ex.Literal: lambda expr, ctx: expr.value,
    ex.Parameter: _parameter,
    ex.ColumnRef: lambda expr, ctx: ctx.lookup(expr.name),
    ex.Star: lambda expr, ctx: _raise("'*' cannot be evaluated as a value"),
    ex.BinaryOp: _binary,
    ex.UnaryOp: _unary,
    ex.IsNull: lambda expr, ctx:
        (evaluate(expr.operand, ctx) is None) is not expr.negated,
    ex.InList: _in_list,
    ex.Between: _between,
    ex.Like: _like,
    ex.CaseExpr: _case,
    ex.FunctionCall: _function,
    ex.AggregateCall: _aggregate,
}

_FOLDS = {"SUM": sum, "AVG": lambda values: sum(values) / len(values),
          "MIN": lambda values: min(values, key=sort_key),
          "MAX": lambda values: max(values, key=sort_key)}


def compute(aggregate: ex.AggregateCall, contexts: List[EvalContext]) -> Any:
    """``aggregate`` over the member rows of one group."""
    if isinstance(aggregate.argument, ex.Star):
        if aggregate.name != "COUNT":
            raise EngineError(f"{aggregate.name}(*) is not valid")
        return len(contexts)
    values = [value for ctx in contexts
              if (value := evaluate(aggregate.argument, ctx)) is not None]
    if aggregate.distinct:
        unique: Dict[tuple, Any] = {}
        for value in values:
            unique.setdefault(row_marker((value,)), value)
        values = list(unique.values())
    if aggregate.name == "COUNT":
        return len(values)
    return _FOLDS[aggregate.name](values) if values else None


# -- FROM ----------------------------------------------------------------------

class Source:
    """One FROM source: a table's scan at ``snapshot`` (None: the live
    rows), or a view's result ``rows``."""

    def __init__(self, alias, column_names, storage=None, snapshot=None,
                 rows=None):
        self.alias, self.column_names = alias, column_names
        self.storage, self.snapshot, self.rows = storage, snapshot, rows
        self._keys = [(f"{alias.lower()}.{name.lower()}", name.lower())
                      for name in column_names]

    def contexts(self):
        if self.rows is not None:
            rows = self.rows
        elif self.snapshot is not None:
            rows = (row for _rowid, row
                    in self.storage.snapshot_rows(self.snapshot.cn))
        else:
            rows = (row for _rowid, row in self.storage.scan())
        return (self.row_context(row) for row in rows)

    def row_context(self, row) -> Dict[str, Any]:
        values: Dict[str, Any] = {}
        for (qualified, name), value in zip(self._keys, row):
            values[qualified] = values[name] = value
        return values

    def null_context(self) -> Dict[str, Any]:
        return self.row_context([None] * len(self.column_names))


def _merge(left: Dict[str, Any], right: Dict[str, Any]) -> Dict[str, Any]:
    merged = dict(left)
    for key, value in right.items():
        ambiguous = "." not in key and key in merged
        merged[key] = _AMBIGUOUS if ambiguous else value
    return merged


def _resolve(db, ref: TableRef, params, snapshot) -> Source:
    """A table, or a view whose defining SELECT runs once here."""
    select = db.views.get(ref.name.lower())
    if select is not None:
        result = db._run_select(select, params, snapshot)
        return Source(ref.alias, result.columns, rows=result.rows)
    storage = db.storage(ref.name)
    return Source(ref.alias, storage.schema.column_names, storage, snapshot)


def _from_contexts(db, node, sources: List[Source], params, snapshot):
    if isinstance(node, TableRef):
        _add_source(sources, _resolve(db, node, params, snapshot))
        return sources[-1].contexts()
    left = list(_from_contexts(db, node.left, sources, params, snapshot))
    _add_source(sources, _resolve(db, node.right, params, snapshot))
    return _join(left, sources[-1], node.kind, node.condition, params)


def _add_source(sources: List[Source], source: Source) -> None:
    if any(other.alias.lower() == source.alias.lower() for other in sources):
        raise EngineError(f"duplicate table alias {source.alias!r}")
    sources.append(source)


def _join(left_contexts, right: Source, kind, condition, params):
    keys = _equi_join_keys(condition, left_contexts, right)
    if keys is not None and kind in ("INNER", "LEFT"):
        yield from _hash_join(left_contexts, right, kind, keys, params)
        return
    right_contexts = list(right.contexts())
    for left_values in left_contexts:
        matched = False
        for right_values in right_contexts:
            merged = _merge(left_values, right_values)
            if condition is None or evaluate(
                    condition, EvalContext(merged, params)) is True:
                matched = True
                yield merged
        if kind == "LEFT" and not matched:
            yield _merge(left_values, right.null_context())


def _equi_join_keys(condition, left_contexts, right: Source):
    """``(left key, right key)`` for ``left.col = right.col``."""
    if not isinstance(condition, ex.BinaryOp) or condition.op != "=" \
            or not isinstance(condition.left, ex.ColumnRef) \
            or not isinstance(condition.right, ex.ColumnRef):
        return None
    sample = left_contexts[0] if left_contexts else {}

    def side(ref):
        key = ref.name.lower()
        if "." in key:
            if key.startswith(right.alias.lower() + "."):
                return "right"
            return "left" if key in sample or not left_contexts else None
        if any(name == key for _qualified, name in right._keys):
            # Ambiguous: a nested loop raises the lookup's error.
            return None if key in sample else "right"
        return "left"

    sides = (side(condition.left), side(condition.right))
    if sides == ("left", "right"):
        return condition.left, condition.right
    if sides == ("right", "left"):
        return condition.right, condition.left
    return None


def _hash_join(left_contexts, right: Source, kind, keys, params):
    left_key, right_key = keys
    buckets: Dict[Any, List[Dict[str, Any]]] = {}
    for right_values in right.contexts():
        key = evaluate(right_key, EvalContext(right_values, params))
        if key is not None:
            buckets.setdefault(key, []).append(right_values)
    for left_values in left_contexts:
        key = evaluate(left_key, EvalContext(left_values, params))
        matches = buckets.get(key, []) if key is not None else []
        for right_values in matches:
            yield _merge(left_values, right_values)
        if not matches and kind == "LEFT":
            yield _merge(left_values, right.null_context())


# -- SELECT --------------------------------------------------------------------

def execute_select(db: Database, statement: SelectStatement,
                   params: Sequence[Any], snapshot=None) -> ResultSet:
    """Run ``statement`` on ``db``'s storages, at ``snapshot`` (None:
    the live rows); a view in FROM runs through ``db._run_select``."""
    sources: List[Source] = []
    contexts: List[Dict[str, Any]] = [{}]
    if statement.from_clause is not None:
        contexts = list(_from_contexts(
            db, statement.from_clause, sources, params, snapshot))

    def holds(condition, values) -> bool:
        return evaluate(condition, EvalContext(values, params)) is True

    if statement.where is not None:
        contexts = [values for values in contexts
                    if holds(statement.where, values)]
    items = _expand_stars(statement.items,
                          [(s.alias, s.column_names) for s in sources])
    exprs = [item.expression for item in items]
    if statement.having is not None:
        exprs.append(statement.having)
    exprs += [expr for expr, _ascending in statement.order_by]
    aggregates = [agg for expr in exprs for agg in ex.find_aggregates(expr)]
    if statement.group_by or aggregates or statement.having is not None:
        contexts = _group(contexts, statement.group_by, aggregates, params,
                          sources)
        if statement.having is not None:
            contexts = [values for values in contexts
                        if holds(statement.having, values)]

    columns = [output_name(item, index) for index, item in enumerate(items)]
    # Each output row keeps its source context, so ORDER BY may read
    # columns it does not project as well as the output names.
    produced = []
    for values in contexts:
        context = EvalContext(values, params)
        row = tuple(evaluate(item.expression, context) for item in items)
        order_values = dict(values)
        for name, value in zip(columns, row):
            order_values.setdefault(name.lower(), value)
        produced.append((row, order_values))
    if statement.distinct:
        unique: Dict[tuple, Any] = {}
        for pair in produced:
            unique.setdefault(row_marker(pair[0]), pair)
        produced = list(unique.values())
    for expr, ascending in reversed(statement.order_by):
        produced.sort(key=lambda pair: sort_key(
            evaluate(expr, EvalContext(pair[1], params))),
            reverse=not ascending)

    rows = [row for row, _values in produced]
    empty = EvalContext({}, params)
    if statement.offset is not None:
        rows = rows[int(evaluate(statement.offset, empty)):]
    if statement.limit is not None:
        rows = rows[:int(evaluate(statement.limit, empty))]
    return ResultSet(columns, rows)


def _group(contexts, group_by, aggregates, params, sources):
    """One context per group: its first member's, or for an empty lone
    group its sources' null row, plus the aggregate values."""
    groups: Dict[tuple, List[Dict[str, Any]]] = {} if group_by else {(): []}
    for values in contexts:
        context = EvalContext(values, params)
        key = tuple(sort_key(evaluate(expr, context)) for expr in group_by)
        groups.setdefault(key, []).append(values)
    unique = {aggregate.result_key(): aggregate for aggregate in aggregates}
    result = []
    for members in groups.values():
        representative: Dict[str, Any] = dict(members[0]) if members else {}
        if not members:
            for source in sources:
                representative = _merge(representative,
                                        source.null_context())
        member_contexts = [EvalContext(m, params) for m in members]
        for key, aggregate in unique.items():
            representative[key] = compute(aggregate, member_contexts)
        result.append(representative)
    return result


# -- DML -----------------------------------------------------------------------

def _interpreted(expr, source=None):
    """``expr`` as a ``(row, params)`` closure that evaluates it per
    call, against ``source``'s names for the row (none without)."""
    def run(row, params):
        values = {} if source is None else source.row_context(row)
        return evaluate(expr, EvalContext(values, params))
    return run


class FullScanTargets:
    """An UPDATE's or DELETE's plan, interpreted: every live row in
    scan order where the WHERE is TRUE, and the SET list."""

    def __init__(self, db: Database, statement):
        storage = db.storage(statement.table)
        self.source = Source(statement.table, storage.schema.column_names,
                             storage)
        self.where = statement.where
        self.assignments = [
            (storage.schema.column_index(column),
             _interpreted(expr, self.source))
            for column, expr in getattr(statement, "assignments", ())]

    def live_targets(self, params):
        source, where = self.source, self.where
        return ((rowid, row) for rowid, row in list(source.storage.scan())
                if where is None or evaluate(where, EvalContext(
                    source.row_context(row), params)) is True)


class _ShownPlan:
    """A compiled SELECT plan as EXPLAIN on the reference shows it: the
    reference never reuses a result, so none is eligible."""

    cacheable = False

    def __init__(self, plan):
        self._plan = plan

    def __getattr__(self, name: str) -> Any:
        return getattr(self._plan, name)


class ReferenceDatabase(Database):
    """A Database run by the reference interpreter.

    Every SELECT (view bodies, UNION parts, CTAS and view validation
    included) runs :func:`execute_select`, so no result is remembered;
    INSERT, UPDATE and DELETE take interpreted VALUES, targets and SET
    from :meth:`plan_for`, never an index.  Storage, MVCC, the WAL and
    :meth:`load`/:meth:`recover` (which build this class) are the
    engine's own.
    """

    def _run_select(self, statement, params, snapshot=None) -> ResultSet:
        return execute_select(self, statement, params, snapshot)

    def plan_for(self, statement: Any):
        if isinstance(statement, SelectStatement):
            return _ShownPlan(super().plan_for(statement))
        if isinstance(statement, InsertStatement):
            return [[_interpreted(expr) for expr in row]
                    for row in statement.rows]
        return FullScanTargets(self, statement)
