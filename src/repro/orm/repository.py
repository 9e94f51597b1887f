"""Generic repositories over mapped entities.

Repositories give ODBIS services a focused CRUD surface per aggregate,
in the spirit of Spring Data repositories layered on JPA.
"""

from __future__ import annotations

from typing import Any, List, Optional, Type

from repro.orm.mapping import mapping_of
from repro.orm.session import Session


class Repository:
    """CRUD operations for one entity class bound to a session."""

    def __init__(self, session: Session, entity_class: Type):
        self.session = session
        self.entity_class = entity_class
        self.mapping = mapping_of(entity_class)

    def save(self, instance: Any) -> Any:
        """Insert a transient instance (or flush changes on a loaded one)."""
        if not self.session.is_loaded(instance):
            self.session.add(instance)
        self.session.flush()
        return instance

    def find_by_id(self, primary_key: Any) -> Optional[Any]:
        return self.session.get(self.entity_class, primary_key)

    def require(self, primary_key: Any) -> Any:
        return self.session.require(self.entity_class, primary_key)

    def find_all(self) -> List[Any]:
        return self.session.find(self.entity_class).list()

    def find_by(self, **criteria: Any) -> List[Any]:
        return self.session.find(self.entity_class) \
            .filter_by(**criteria).list()

    def count(self) -> int:
        return self.session.find(self.entity_class).count()

    def delete(self, instance: Any) -> None:
        self.session.delete(instance)
        self.session.flush()

    def delete_by_id(self, primary_key: Any) -> bool:
        instance = self.find_by_id(primary_key)
        if instance is None:
            return False
        self.delete(instance)
        return True
