"""SQL tokenizer and recursive-descent parser.

The grammar covers the SQL subset the ODBIS services use: CREATE/DROP
TABLE, CREATE/DROP INDEX, INSERT (multi-row), SELECT (joins, WHERE,
GROUP BY/HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT, aggregates), UPDATE,
DELETE and transaction control.  Parameters are ``?`` placeholders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.engine.expressions import (
    AGGREGATE_NAMES,
    AggregateCall,
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Parameter,
    Star,
    UnaryOp,
)
from repro.engine.schema import Column
from repro.engine.types import SqlType
from repro.errors import SqlSyntaxError

# --- tokens -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><>|!=|<=|>=|\|\||[=<>+\-*/%(),.?;])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "ASC", "DESC", "DISTINCT", "AS", "AND", "OR", "NOT", "NULL",
    "IS", "IN", "BETWEEN", "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "DROP",
    "TABLE", "INDEX", "UNIQUE", "PRIMARY", "KEY", "DEFAULT", "IF", "EXISTS",
    "JOIN", "INNER", "LEFT", "OUTER", "ON", "TRUE", "FALSE", "BEGIN",
    "COMMIT", "ROLLBACK", "CROSS", "ALTER", "ADD", "COLUMN", "VIEW",
    "UNION", "ALL", "EXPLAIN",
}


@dataclass
class Token:
    kind: str  # 'number' | 'string' | 'name' | 'keyword' | 'op' | 'eof'
    text: str
    position: int
    line: int = 1
    column: int = 1


def line_column(sql: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of a character offset in ``sql``."""
    prefix = sql[:offset]
    line = prefix.count("\n") + 1
    last_newline = prefix.rfind("\n")
    return line, offset - last_newline


def tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    length = len(sql)
    while position < length:
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            line, column = line_column(sql, position)
            if sql[position] == "'":
                raise SqlSyntaxError(
                    f"unterminated string literal at line {line}, "
                    f"column {column}",
                    line=line, column=column, offset=position)
            raise SqlSyntaxError(
                f"unexpected character {sql[position]!r} at line {line}, "
                f"column {column}",
                line=line, column=column, offset=position)
        position = match.end()
        kind = match.lastgroup
        if kind in ("space", "comment"):
            continue
        text = match.group()
        line, column = line_column(sql, match.start())
        if kind == "name" and text.upper() in _KEYWORDS:
            tokens.append(Token("keyword", text.upper(), match.start(),
                                line, column))
        else:
            tokens.append(Token(kind, text, match.start(), line, column))
    line, column = line_column(sql, length)
    tokens.append(Token("eof", "", length, line, column))
    return tokens


# --- statement AST -----------------------------------------------------------

@dataclass
class TableRef:
    name: str
    alias: str
    # Source offset of the table name (for analyzer spans); excluded
    # from equality so AST comparisons stay position-insensitive.
    position: Optional[int] = field(default=None, compare=False,
                                    repr=False)


@dataclass
class Join:
    left: Any  # TableRef | Join
    right: TableRef
    kind: str  # 'INNER' | 'LEFT' | 'CROSS'
    condition: Optional[Expression]


@dataclass
class SelectItem:
    expression: Expression
    alias: Optional[str]


@dataclass
class SelectStatement:
    items: List[SelectItem]
    from_clause: Optional[Any]  # TableRef | Join | None
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[Tuple[Expression, bool]] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False


@dataclass
class CompoundSelect:
    """``SELECT ... UNION [ALL] SELECT ...`` chains.

    Each part is a full SelectStatement (its own WHERE/GROUP/ORDER are
    applied per part); dedup semantics follow the flag between parts.
    """

    parts: List[SelectStatement]
    all_flags: List[bool]  # flag i applies between part i and i+1


@dataclass
class InsertStatement:
    table: str
    columns: List[str]
    rows: List[List[Expression]]
    position: Optional[int] = field(default=None, compare=False,
                                    repr=False)


@dataclass
class UpdateStatement:
    table: str
    assignments: List[Tuple[str, Expression]]
    where: Optional[Expression]
    position: Optional[int] = field(default=None, compare=False,
                                    repr=False)


@dataclass
class DeleteStatement:
    table: str
    where: Optional[Expression]
    position: Optional[int] = field(default=None, compare=False,
                                    repr=False)


@dataclass
class CreateTableStatement:
    name: str
    columns: List[Column]
    if_not_exists: bool


@dataclass
class CreateTableAsStatement:
    name: str
    select: "SelectStatement"
    if_not_exists: bool


@dataclass
class DropTableStatement:
    name: str
    if_exists: bool


@dataclass
class CreateViewStatement:
    name: str
    select: "SelectStatement"
    if_not_exists: bool


@dataclass
class DropViewStatement:
    name: str
    if_exists: bool


@dataclass
class AlterTableAddColumn:
    table: str
    column: Column


@dataclass
class CreateIndexStatement:
    name: str
    table: str
    columns: List[str]
    unique: bool


@dataclass
class TransactionStatement:
    action: str  # 'BEGIN' | 'COMMIT' | 'ROLLBACK'


@dataclass
class ExplainStatement:
    """``EXPLAIN <select>`` — render the query plan as a result set."""

    statement: Any


Statement = Any

#: The statement classes that cannot mutate — the one definition of
#: "is this a read?" for the engine's lock-free path and the front
#: door's routing alike.  Decided on the *outermost* class:
#: ``EXPLAIN <anything>`` only renders a plan (or a typed error) and
#: never runs the wrapped DML.
READ_ONLY_STATEMENTS = (SelectStatement, CompoundSelect, ExplainStatement)


# --- parser ------------------------------------------------------------------

class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0
        self._param_count = 0

    # -- token helpers --------------------------------------------------------

    def _error(self, message: str, token: Token) -> SqlSyntaxError:
        """A SqlSyntaxError pinned to ``token``'s source position."""
        return SqlSyntaxError(
            f"{message} at line {token.line}, column {token.column}",
            line=token.line, column=token.column, offset=token.position)

    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        return token.kind == "keyword" and token.text in keywords

    def _accept_keyword(self, *keywords: str) -> Optional[str]:
        if self._check_keyword(*keywords):
            return self._advance().text
        return None

    def _expect_keyword(self, keyword: str) -> None:
        token = self._advance()
        if token.kind != "keyword" or token.text != keyword:
            raise self._error(
                f"expected {keyword} but found {token.text!r}", token)

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token.kind == "op" and token.text == op:
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        token = self._advance()
        if token.kind != "op" or token.text != op:
            raise self._error(
                f"expected {op!r} but found {token.text!r}", token)

    def _expect_name(self) -> str:
        token = self._advance()
        if token.kind == "name":
            return token.text
        # Allow non-reserved words that happen to be keywords in other
        # positions (e.g. a column named "key") — only for a safe subset.
        if token.kind == "keyword" and token.text in ("KEY", "INDEX", "SET"):
            return token.text.lower()
        raise self._error(
            f"expected identifier but found {token.text!r}", token)

    # -- entry point ----------------------------------------------------------

    def parse(self) -> Statement:
        statement = self._parse_statement()
        self._accept_op(";")
        token = self._peek()
        if token.kind != "eof":
            raise self._error(
                f"unexpected trailing input {token.text!r}", token)
        return statement

    def _parse_statement(self) -> Statement:
        if self._accept_keyword("EXPLAIN"):
            return ExplainStatement(self._parse_statement())
        if self._check_keyword("SELECT"):
            statement = self._parse_select()
            if not self._check_keyword("UNION"):
                return statement
            parts = [statement]
            all_flags: List[bool] = []
            while self._accept_keyword("UNION"):
                all_flags.append(bool(self._accept_keyword("ALL")))
                parts.append(self._parse_select())
            return CompoundSelect(parts, all_flags)
        if self._accept_keyword("INSERT"):
            return self._parse_insert()
        if self._accept_keyword("UPDATE"):
            return self._parse_update()
        if self._accept_keyword("DELETE"):
            return self._parse_delete()
        if self._accept_keyword("CREATE"):
            return self._parse_create()
        if self._accept_keyword("DROP"):
            return self._parse_drop()
        if self._accept_keyword("ALTER"):
            return self._parse_alter()
        if self._accept_keyword("BEGIN"):
            return TransactionStatement("BEGIN")
        if self._accept_keyword("COMMIT"):
            return TransactionStatement("COMMIT")
        if self._accept_keyword("ROLLBACK"):
            return TransactionStatement("ROLLBACK")
        token = self._peek()
        raise self._error(
            f"cannot parse statement starting with {token.text!r}", token)

    # -- SELECT ---------------------------------------------------------------

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())

        from_clause = None
        if self._accept_keyword("FROM"):
            from_clause = self._parse_from()

        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()

        group_by: List[Expression] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._accept_op(","):
                group_by.append(self._parse_expression())

        having = None
        if self._accept_keyword("HAVING"):
            having = self._parse_expression()

        order_by: List[Tuple[Expression, bool]] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_op(","):
                order_by.append(self._parse_order_item())

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_expression()
        if self._accept_keyword("OFFSET"):
            offset = self._parse_expression()

        return SelectStatement(
            items=items, from_clause=from_clause, where=where,
            group_by=group_by, having=having, order_by=order_by,
            limit=limit, offset=offset, distinct=distinct)

    def _parse_select_item(self) -> SelectItem:
        if self._peek().kind == "op" and self._peek().text == "*":
            self._advance()
            return SelectItem(Star(), None)
        # qualified star: alias.*
        if (self._peek().kind == "name"
                and self.index + 2 < len(self.tokens)
                and self.tokens[self.index + 1].text == "."
                and self.tokens[self.index + 2].text == "*"):
            qualifier = self._advance().text
            self._advance()  # .
            self._advance()  # *
            return SelectItem(Star(), qualifier + ".*")
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_name()
        elif self._peek().kind == "name":
            alias = self._advance().text
        return SelectItem(expression, alias)

    def _parse_order_item(self) -> Tuple[Expression, bool]:
        expression = self._parse_expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return expression, ascending

    def _parse_from(self) -> Any:
        node: Any = self._parse_table_ref()
        while True:
            if self._accept_keyword("CROSS"):
                self._expect_keyword("JOIN")
                right = self._parse_table_ref()
                node = Join(node, right, "CROSS", None)
                continue
            kind = None
            if self._accept_keyword("INNER"):
                kind = "INNER"
            elif self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                kind = "LEFT"
            if kind is not None:
                self._expect_keyword("JOIN")
            elif self._accept_keyword("JOIN"):
                kind = "INNER"
            else:
                break
            right = self._parse_table_ref()
            self._expect_keyword("ON")
            condition = self._parse_expression()
            node = Join(node, right, kind, condition)
        return node

    def _parse_table_ref(self) -> TableRef:
        position = self._peek().position
        name = self._expect_name()
        alias = name
        if self._accept_keyword("AS"):
            alias = self._expect_name()
        elif self._peek().kind == "name":
            alias = self._advance().text
        return TableRef(name, alias, position=position)

    # -- INSERT / UPDATE / DELETE ----------------------------------------------

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INTO")
        table_token = self._peek()
        table = self._expect_name()
        columns: List[str] = []
        if self._accept_op("("):
            columns.append(self._expect_name())
            while self._accept_op(","):
                columns.append(self._expect_name())
            self._expect_op(")")
        self._expect_keyword("VALUES")
        rows = [self._parse_value_tuple(columns)]
        while self._accept_op(","):
            rows.append(self._parse_value_tuple(columns))
        return InsertStatement(table, columns, rows,
                               position=table_token.position)

    def _parse_value_tuple(self,
                           columns: List[str]) -> List[Expression]:
        open_token = self._peek()
        self._expect_op("(")
        values = [self._parse_expression()]
        while self._accept_op(","):
            values.append(self._parse_expression())
        self._expect_op(")")
        # When a column list is given the arity of every tuple is known
        # syntactically — reject mismatches here with a position rather
        # than letting the executor fail mid-insert.
        if columns and len(values) != len(columns):
            raise self._error(
                f"INSERT lists {len(columns)} columns but the VALUES "
                f"tuple has {len(values)} values", open_token)
        return values

    def _parse_update(self) -> UpdateStatement:
        table_token = self._peek()
        table = self._expect_name()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_op(","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return UpdateStatement(table, assignments, where,
                               position=table_token.position)

    def _parse_assignment(self) -> Tuple[str, Expression]:
        column = self._expect_name()
        self._expect_op("=")
        return column, self._parse_expression()

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("FROM")
        table_token = self._peek()
        table = self._expect_name()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return DeleteStatement(table, where,
                               position=table_token.position)

    # -- DDL --------------------------------------------------------------------

    def _parse_create(self) -> Statement:
        unique = bool(self._accept_keyword("UNIQUE"))
        if self._accept_keyword("TABLE"):
            if unique:
                raise SqlSyntaxError("CREATE UNIQUE TABLE is not valid")
            return self._parse_create_table()
        if self._accept_keyword("VIEW"):
            if unique:
                raise SqlSyntaxError("CREATE UNIQUE VIEW is not valid")
            return self._parse_create_view()
        if self._accept_keyword("INDEX"):
            return self._parse_create_index(unique)
        token = self._peek()
        raise self._error(f"cannot CREATE {token.text!r}", token)

    def _parse_create_table(self) -> CreateTableStatement:
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        name = self._expect_name()
        if self._accept_keyword("AS"):
            select = self._parse_select()
            return CreateTableAsStatement(name, select, if_not_exists)
        self._expect_op("(")
        columns = [self._parse_column_def()]
        while self._accept_op(","):
            columns.append(self._parse_column_def())
        self._expect_op(")")
        return CreateTableStatement(name, columns, if_not_exists)

    def _parse_column_def(self) -> Column:
        name = self._expect_name()
        type_token = self._advance()
        if type_token.kind != "name":
            raise self._error(
                f"expected a type name after column {name!r}", type_token)
        sql_type = SqlType.from_sql(type_token.text)
        # Swallow optional length/precision such as VARCHAR(255).
        if self._accept_op("("):
            while not self._accept_op(")"):
                self._advance()
        nullable = True
        primary_key = False
        unique = False
        default: Any = None
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
            elif self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                nullable = False
            elif self._accept_keyword("NULL"):
                nullable = True
            elif self._accept_keyword("UNIQUE"):
                unique = True
            elif self._accept_keyword("DEFAULT"):
                default = self._parse_literal_value()
            else:
                break
        return Column(name=name, type=sql_type, nullable=nullable,
                      primary_key=primary_key, unique=unique, default=default)

    def _parse_literal_value(self) -> Any:
        token = self._advance()
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "keyword" and token.text == "TRUE":
            return True
        if token.kind == "keyword" and token.text == "FALSE":
            return False
        if token.kind == "keyword" and token.text == "NULL":
            return None
        if token.kind == "op" and token.text == "-":
            value = self._parse_literal_value()
            return -value
        raise self._error(
            f"expected a literal, found {token.text!r}", token)

    def _parse_create_view(self) -> CreateViewStatement:
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        name = self._expect_name()
        self._expect_keyword("AS")
        select = self._parse_select()
        return CreateViewStatement(name, select, if_not_exists)

    def _parse_create_index(self, unique: bool) -> CreateIndexStatement:
        name = self._expect_name()
        self._expect_keyword("ON")
        table = self._expect_name()
        self._expect_op("(")
        columns = [self._expect_name()]
        while self._accept_op(","):
            columns.append(self._expect_name())
        self._expect_op(")")
        return CreateIndexStatement(name, table, columns, unique)

    def _parse_alter(self) -> Statement:
        self._expect_keyword("TABLE")
        table = self._expect_name()
        self._expect_keyword("ADD")
        self._accept_keyword("COLUMN")
        column = self._parse_column_def()
        if column.primary_key:
            raise SqlSyntaxError(
                "cannot add a PRIMARY KEY column with ALTER TABLE")
        return AlterTableAddColumn(table, column)

    def _parse_drop(self) -> Statement:
        if self._accept_keyword("TABLE"):
            if_exists = False
            if self._accept_keyword("IF"):
                self._expect_keyword("EXISTS")
                if_exists = True
            name = self._expect_name()
            return DropTableStatement(name, if_exists)
        if self._accept_keyword("VIEW"):
            if_exists = False
            if self._accept_keyword("IF"):
                self._expect_keyword("EXISTS")
                if_exists = True
            name = self._expect_name()
            return DropViewStatement(name, if_exists)
        token = self._peek()
        raise self._error(f"cannot DROP {token.text!r}", token)

    # -- expressions --------------------------------------------------------------
    # precedence: OR < AND < NOT < comparison < additive < multiplicative < unary

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        node = self._parse_and()
        while self._accept_keyword("OR"):
            node = BinaryOp("OR", node, self._parse_and())
        return node

    def _parse_and(self) -> Expression:
        node = self._parse_not()
        while self._accept_keyword("AND"):
            node = BinaryOp("AND", node, self._parse_not())
        return node

    def _parse_not(self) -> Expression:
        if self._accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        node = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.text in (
                "=", "!=", "<>", "<", "<=", ">", ">="):
            op = self._advance().text
            return BinaryOp(op, node, self._parse_additive())
        negated = False
        if self._check_keyword("NOT"):
            following = self.tokens[self.index + 1]
            if following.kind == "keyword" and following.text in (
                    "IN", "BETWEEN", "LIKE"):
                self._advance()
                negated = True
        if self._accept_keyword("IS"):
            is_negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return IsNull(node, negated=is_negated)
        if self._accept_keyword("IN"):
            self._expect_op("(")
            options = [self._parse_expression()]
            while self._accept_op(","):
                options.append(self._parse_expression())
            self._expect_op(")")
            return InList(node, options, negated=negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(node, low, high, negated=negated)
        if self._accept_keyword("LIKE"):
            pattern = self._parse_additive()
            return Like(node, pattern, negated=negated)
        if negated:
            raise self._error("dangling NOT in expression", self._peek())
        return node

    def _parse_additive(self) -> Expression:
        node = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("+", "-", "||"):
                op = self._advance().text
                node = BinaryOp(op, node, self._parse_multiplicative())
            else:
                return node

    def _parse_multiplicative(self) -> Expression:
        node = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("*", "/", "%"):
                op = self._advance().text
                node = BinaryOp(op, node, self._parse_unary())
            else:
                return node

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind == "op" and token.text in ("-", "+"):
            op = self._advance().text
            return UnaryOp(op, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._advance()
        if token.kind == "number":
            if "." in token.text:
                return Literal(float(token.text))
            return Literal(int(token.text))
        if token.kind == "string":
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "op" and token.text == "?":
            param = Parameter(self._param_count)
            self._param_count += 1
            return param
        if token.kind == "op" and token.text == "(":
            inner = self._parse_expression()
            self._expect_op(")")
            return inner
        if token.kind == "keyword":
            if token.text == "NULL":
                return Literal(None)
            if token.text == "TRUE":
                return Literal(True)
            if token.text == "FALSE":
                return Literal(False)
            if token.text == "CASE":
                return self._parse_case()
            raise self._error(
                f"unexpected keyword {token.text!r} in expression", token)
        if token.kind == "name":
            return self._parse_name_expression(token.text,
                                               token.position)
        raise self._error(
            f"unexpected token {token.text!r}", token)

    def _parse_case(self) -> Expression:
        branches: List[Tuple[Expression, Expression]] = []
        default: Optional[Expression] = None
        while self._accept_keyword("WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            result = self._parse_expression()
            branches.append((condition, result))
        if self._accept_keyword("ELSE"):
            default = self._parse_expression()
        self._expect_keyword("END")
        if not branches:
            raise SqlSyntaxError("CASE requires at least one WHEN branch")
        return CaseExpr(branches, default)

    def _parse_name_expression(self, name: str,
                               position: Optional[int] = None) \
            -> Expression:
        # function call?
        if self._peek().kind == "op" and self._peek().text == "(":
            self._advance()
            upper = name.upper()
            if upper in AGGREGATE_NAMES:
                distinct = bool(self._accept_keyword("DISTINCT"))
                if self._peek().kind == "op" and self._peek().text == "*":
                    self._advance()
                    self._expect_op(")")
                    return AggregateCall(upper, Star(), distinct=False)
                argument = self._parse_expression()
                self._expect_op(")")
                return AggregateCall(upper, argument, distinct=distinct)
            args: List[Expression] = []
            if not self._accept_op(")"):
                args.append(self._parse_expression())
                while self._accept_op(","):
                    args.append(self._parse_expression())
                self._expect_op(")")
            return FunctionCall(upper, args)
        # qualified column?
        if self._peek().kind == "op" and self._peek().text == ".":
            self._advance()
            column = self._expect_name()
            return ColumnRef(f"{name}.{column}", position=position)
        return ColumnRef(name, position=position)


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement into its AST."""
    return Parser(sql).parse()
