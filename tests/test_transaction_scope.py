"""One transaction scope: ``Database.transaction()`` is the engine's
only unit of atomic work.

A scope marks the write log under the writer lock and, if its body
raises, unwinds the log back to that mark.  Every write statement,
every ``executemany`` batch, an ETL load and an ORM flush each run as
one scope; inside the calling thread's own transaction a scope nests,
and ROLLBACK is the unwind to mark 0.  A transaction belongs to the
thread holding the writer lock, so what another thread's transaction
does never changes what this thread's batch does.

The cross-thread tests below each fail when ``in_transaction`` answers
for the database instead of for the calling thread.
"""

import threading

import pytest

from repro.engine import Database
from repro.errors import ConstraintViolation, JobExecutionError, \
    TransactionError
from repro.etl import EtlJob, JobRunner, Load, RowsSource
from repro.orm import Entity, FieldSpec, Session, create_schema, entity

WAIT = 30.0


def _items():
    database = Database("scope")
    database.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)")
    database.execute("INSERT INTO items VALUES (1, 'widget')")
    return database


def ids(database, table="items"):
    return [row[0] for row in
            database.execute(f"SELECT id FROM {table} ORDER BY id").rows]


def run_while_held(database, work):
    """Run ``work`` on a second thread while this thread holds an open
    transaction on ``database`` (which inserts item 2).  The holder
    commits once the second thread asks for the writer lock, or after
    a short wait if it never does.  Returns what ``work`` raised, or
    None."""
    holder = threading.get_ident()
    asked = threading.Event()
    acquire = database._lock.acquire_write

    def spy():
        if threading.get_ident() != holder:
            asked.set()
        acquire()

    outcome = []

    def body():
        try:
            work()
        except Exception as exc:  # handed back to the test thread
            outcome.append(exc)
        else:
            outcome.append(None)

    database.begin()
    database.execute("INSERT INTO items VALUES (2, 'held')")
    database._lock.acquire_write = spy
    worker = threading.Thread(target=body)
    try:
        worker.start()
        asked.wait(2.0)
    finally:
        database.commit()
        worker.join(WAIT)
        del database._lock.acquire_write
    assert not worker.is_alive()
    return outcome[0]


@entity(table="tags", fields=[
    FieldSpec("id", "INTEGER", primary_key=True, generated=True),
    FieldSpec("label", "TEXT", nullable=False, unique=True),
])
class Tag(Entity):
    pass


class TestCrossThreadScopes:
    """Thread A holds a transaction; thread B's work fails part-way.
    B's work is atomic: none of it is committed, A's is.  (B's
    ``executemany`` is ``tests/test_bugfix_regressions.py::
    TestExecutemanyAtomicity::test_batch_on_another_thread_stays_atomic``.)"""

    def test_another_threads_transaction_is_not_mine(self):
        database = _items()
        seen = []
        database.begin()
        try:
            worker = threading.Thread(
                target=lambda: seen.append(database.in_transaction))
            worker.start()
            worker.join(WAIT)
            assert database.in_transaction
        finally:
            database.rollback()
        assert seen == [False]

    def test_save_waits_for_the_lock(self, tmp_path):
        database = _items()
        path = tmp_path / "items.snapshot"
        error = run_while_held(database, lambda: database.save(path))
        assert error is None
        # The snapshot was taken after A's commit, not refused.
        assert ids(Database.load(path)) == [1, 2]

    def test_etl_load_stays_atomic(self):
        database = _items()
        job = EtlJob("load", RowsSource(
            [{"id": 10}, {"id": 11}, {"id": 10}]),
            load=Load(database, "items"))
        error = run_while_held(database, lambda: JobRunner().run(job))
        assert isinstance(error, JobExecutionError)
        assert isinstance(error.__cause__, ConstraintViolation)
        assert ids(database) == [1, 2]

    def test_orm_flush_stays_atomic(self):
        database = _items()
        create_schema(database, [Tag])
        session = Session(database)
        session.add(Tag(label="first"))
        session.add(Tag(label="twice"))
        session.add(Tag(label="twice"))
        error = run_while_held(database, session.flush)
        assert isinstance(error, ConstraintViolation)
        assert ids(database, "tags") == []
        assert ids(database) == [1, 2]


class TestNestedScopes:
    def test_a_scope_inside_begin_nests(self):
        database = _items()
        database.begin()
        database.execute("INSERT INTO items VALUES (2, 'kept')")
        with pytest.raises(ConstraintViolation):
            with database.transaction():
                database.execute("INSERT INTO items VALUES (3, 'gone')")
                database.execute("INSERT INTO items VALUES (1, 'dup')")
        # The inner scope unwound to its mark; the transaction is open.
        assert database.in_transaction
        assert ids(database) == [1, 2]
        database.commit()
        assert ids(database) == [1, 2]

    def test_nested_scopes_unwind_only_their_own_work(self):
        database = _items()
        with database.transaction():
            database.execute("INSERT INTO items VALUES (2, 'outer')")
            with pytest.raises(RuntimeError):
                with database.transaction():
                    database.execute("DROP TABLE items")
                    raise RuntimeError("abandon the inner scope")
            database.execute("INSERT INTO items VALUES (3, 'outer')")
        assert not database.in_transaction
        assert ids(database) == [1, 2, 3]

    def test_a_failed_statement_inside_begin_is_atomic(self):
        database = _items()
        database.execute("BEGIN")
        database.execute("INSERT INTO items VALUES (2, 'kept')")
        with pytest.raises(ConstraintViolation):
            database.execute(
                "INSERT INTO items VALUES (3, 'a'), (4, 'b'), (1, 'dup')")
        database.execute("COMMIT")
        assert ids(database) == [1, 2]

    def test_explicit_begin_inside_a_scope_raises(self):
        database = _items()
        with database.transaction():
            with pytest.raises(TransactionError):
                database.execute("BEGIN")
            database.execute("INSERT INTO items VALUES (2, 'kept')")
        assert not database.in_transaction
        assert ids(database) == [1, 2]

    def test_rollback_unwinds_every_scope(self):
        database = _items()
        database.begin()
        with database.transaction():
            database.execute("INSERT INTO items VALUES (2, 'inner')")
        database.execute("INSERT INTO items VALUES (3, 'outer')")
        database.rollback()
        assert ids(database) == [1]
        assert database._pending == []

    def test_commit_inside_a_scope_raises_and_keeps_the_scope(self):
        database = _items()
        with database.transaction():
            database.execute("INSERT INTO items VALUES (2, 'kept')")
            with pytest.raises(TransactionError, match="COMMIT"):
                database.execute("COMMIT")
            with pytest.raises(TransactionError, match="COMMIT"):
                database.commit()
            assert database.in_transaction
            database.execute("INSERT INTO items VALUES (3, 'kept')")
        assert not database.in_transaction
        assert database._lock.owner() is None
        assert ids(database) == [1, 2, 3]

    def test_rollback_inside_a_scope_raises_and_unwinds_the_scope(self):
        database = _items()
        with pytest.raises(TransactionError, match="ROLLBACK"):
            with database.transaction():
                database.rollback()
                database.execute("INSERT INTO items VALUES (2, 'never')")
                raise ValueError("not reached")
        assert database._lock.owner() is None
        assert ids(database) == [1]

    def test_commit_inside_a_scope_nested_in_begin_raises(self):
        database = _items()
        database.begin()
        with database.transaction():
            database.execute("INSERT INTO items VALUES (2, 'kept')")
            with pytest.raises(TransactionError):
                database.execute("ROLLBACK")
        database.execute("COMMIT")
        assert ids(database) == [1, 2]
