"""Unit-of-work session with an identity map.

The Session tracks new, loaded and deleted entities; ``flush`` writes
pending changes to the engine inside one SQL transaction, and
``commit``/``rollback`` finish the unit of work.  Loaded instances are
cached per identity so the same row always yields the same object —
the identity-map behaviour ODBIS relies on for its domain model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.engine.database import Database
from repro.errors import EntityNotFound, OrmError, StaleSessionError
from repro.orm.mapping import (
    EntityMapping,
    mapping_of,
    resolve_pending_references,
)


class Session:
    """A unit of work over one :class:`~repro.engine.database.Database`."""

    def __init__(self, database: Database):
        self.database = database
        self._identity_map: Dict[Tuple[Type, Any], Any] = {}
        self._loaded_state: Dict[int, Dict[str, Any]] = {}
        self._new: List[Any] = []
        self._deleted: List[Any] = []
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        self.close()
        return False

    def close(self) -> None:
        self._closed = True
        self._identity_map.clear()
        self._loaded_state.clear()
        self._new.clear()
        self._deleted.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise StaleSessionError("session is closed")

    # -- registration ---------------------------------------------------------------

    def add(self, instance: Any) -> Any:
        """Register a transient instance for insertion at the next flush."""
        self._check_open()
        mapping_of(type(instance))  # validate the class is mapped
        if id(instance) in self._loaded_state:
            raise OrmError("instance is already persistent in this session")
        if not self._contains(self._new, instance):
            self._new.append(instance)
        instance._session = self
        return instance

    @staticmethod
    def _contains(bucket: List[Any], instance: Any) -> bool:
        return any(existing is instance for existing in bucket)

    @staticmethod
    def _remove(bucket: List[Any], instance: Any) -> None:
        for position, existing in enumerate(bucket):
            if existing is instance:
                del bucket[position]
                return

    def add_all(self, instances: Sequence[Any]) -> None:
        for instance in instances:
            self.add(instance)

    def delete(self, instance: Any) -> None:
        """Register a persistent instance for deletion at the next flush."""
        self._check_open()
        if self._contains(self._new, instance):
            self._remove(self._new, instance)
            return
        if id(instance) not in self._loaded_state:
            raise OrmError(
                "cannot delete an instance the session never loaded")
        if not self._contains(self._deleted, instance):
            self._deleted.append(instance)

    # -- loading -----------------------------------------------------------------------

    def get(self, entity_class: Type, primary_key: Any) -> Optional[Any]:
        """Load one entity by primary key (or return None)."""
        self._check_open()
        mapping = mapping_of(entity_class)
        cached = self._identity_map.get((entity_class, primary_key))
        if cached is not None:
            return cached
        rows = self.database.query(
            f"SELECT * FROM {mapping.table} "
            f"WHERE {mapping.primary_key.name} = ?",
            (primary_key,))
        if not rows:
            return None
        return self._register_loaded(mapping, rows[0])

    def require(self, entity_class: Type, primary_key: Any) -> Any:
        """Like :meth:`get` but raises EntityNotFound when missing."""
        instance = self.get(entity_class, primary_key)
        if instance is None:
            raise EntityNotFound(
                f"{entity_class.__name__} with key {primary_key!r} not found")
        return instance

    def find(self, entity_class: Type) -> "CriteriaQuery":
        """Start a criteria query over an entity class."""
        from repro.orm.query import CriteriaQuery

        self._check_open()
        return CriteriaQuery(self, entity_class)

    def _register_loaded(self, mapping: EntityMapping,
                         row: Dict[str, Any]) -> Any:
        key = (mapping.entity_class, row[mapping.primary_key.name])
        cached = self._identity_map.get(key)
        if cached is not None:
            return cached
        instance = mapping.instantiate(row)
        instance._session = self
        self._identity_map[key] = instance
        self._loaded_state[id(instance)] = mapping.state_of(instance)
        return instance

    # -- flushing -----------------------------------------------------------------------

    def _next_key(self, mapping: EntityMapping) -> int:
        current = self.database.query_value(
            f"SELECT MAX({mapping.primary_key.name}) FROM {mapping.table}")
        return 1 if current is None else int(current) + 1

    def flush(self) -> None:
        """Write all pending inserts, updates and deletes to the engine."""
        self._check_open()
        with self.database.transaction():
            self._flush_inserts()
            self._flush_updates()
            self._flush_deletes()

    def _flush_inserts(self) -> None:
        for instance in list(self._new):
            mapping = mapping_of(type(instance))
            if mapping.primary_key.generated \
                    and mapping.identity_of(instance) is None:
                setattr(instance, mapping.primary_key.name,
                        self._next_key(mapping))
            resolve_pending_references(instance)
            state = mapping.state_of(instance)
            columns = ", ".join(state)
            placeholders = ", ".join("?" for _ in state)
            self.database.execute(
                f"INSERT INTO {mapping.table} ({columns}) "
                f"VALUES ({placeholders})",
                tuple(state.values()))
            self._remove(self._new, instance)
            key = (type(instance), mapping.identity_of(instance))
            self._identity_map[key] = instance
            self._loaded_state[id(instance)] = state

    def _flush_updates(self) -> None:
        for key, instance in list(self._identity_map.items()):
            if self._contains(self._deleted, instance):
                continue
            previous = self._loaded_state.get(id(instance))
            if previous is None:
                continue
            mapping = mapping_of(type(instance))
            resolve_pending_references(instance)
            current = mapping.state_of(instance)
            changed = {
                name: value for name, value in current.items()
                if previous.get(name) != value
            }
            if not changed:
                continue
            assignments = ", ".join(f"{name} = ?" for name in changed)
            params = tuple(changed.values()) + (previous[mapping.primary_key.name],)
            self.database.execute(
                f"UPDATE {mapping.table} SET {assignments} "
                f"WHERE {mapping.primary_key.name} = ?",
                params)
            self._loaded_state[id(instance)] = current
            new_identity = mapping.identity_of(instance)
            if key[1] != new_identity:
                del self._identity_map[key]
                self._identity_map[(key[0], new_identity)] = instance

    def _flush_deletes(self) -> None:
        for instance in list(self._deleted):
            mapping = mapping_of(type(instance))
            identity = mapping.identity_of(instance)
            self.database.execute(
                f"DELETE FROM {mapping.table} "
                f"WHERE {mapping.primary_key.name} = ?",
                (identity,))
            self._remove(self._deleted, instance)
            self._identity_map.pop((type(instance), identity), None)
            self._loaded_state.pop(id(instance), None)

    def commit(self) -> None:
        """Flush pending work and end the unit of work successfully."""
        self.flush()

    def rollback(self) -> None:
        """Discard all pending (unflushed) changes."""
        self._check_open()
        self._new.clear()
        self._deleted.clear()
        # Revert in-memory modifications on loaded instances.
        for instance in self._identity_map.values():
            previous = self._loaded_state.get(id(instance))
            if previous is None:
                continue
            for name, value in previous.items():
                setattr(instance, name, value)

    # -- introspection -----------------------------------------------------------------

    @property
    def pending_new(self) -> int:
        return len(self._new)

    def is_loaded(self, instance: Any) -> bool:
        return id(instance) in self._loaded_state
