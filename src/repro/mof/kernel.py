"""The reflective metamodeling kernel.

Meta-levels, following the paper's Section 3.2:

* **M3** — :class:`MetaClass`, :class:`MetaAttribute`,
  :class:`MetaReference`: the constructs metamodels are made of.
* **M2** — :class:`Metamodel`: a named, validated set of metaclasses
  (CWM, CWMX and ODM are expressed at this level).
* **M1** — :class:`MofElement` instances living in a
  :class:`ModelExtent`: the designed models (CIM/PIM/PSM viewpoints).
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import MetamodelError, ModelConstraintError

_ATTRIBUTE_TYPES = {"string", "integer", "float", "boolean", "any"}


class MetaAttribute:
    """A typed attribute slot on a metaclass."""

    def __init__(self, name: str, type_name: str = "string",
                 required: bool = False, default: Any = None):
        if type_name not in _ATTRIBUTE_TYPES:
            raise MetamodelError(
                f"attribute {name!r}: unknown type {type_name!r}")
        self.name = name
        self.type_name = type_name
        self.required = required
        self.default = default

    def __repr__(self) -> str:
        return f"MetaAttribute({self.name!r}, {self.type_name!r})"

    def accepts(self, value: Any) -> bool:
        if value is None:
            return not self.required
        if self.type_name == "any":
            return True
        if self.type_name == "string":
            return isinstance(value, str)
        if self.type_name == "integer":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.type_name == "float":
            return isinstance(value, (int, float)) \
                and not isinstance(value, bool)
        if self.type_name == "boolean":
            return isinstance(value, bool)
        return False  # pragma: no cover


class MetaReference:
    """A reference slot pointing at instances of another metaclass.

    ``composite=True`` marks ownership: a model element may have at most
    one composite owner (checked by :meth:`ModelExtent.validate`).
    """

    def __init__(self, name: str, target: str, many: bool = False,
                 composite: bool = False, required: bool = False):
        self.name = name
        self.target = target
        self.many = many
        self.composite = composite
        self.required = required

    def __repr__(self) -> str:
        flags = "*" if self.many else "1"
        return f"MetaReference({self.name!r} -> {self.target}[{flags}])"


class MetaClass:
    """An M2 metaclass with single inheritance."""

    def __init__(self, name: str,
                 attributes: Sequence[MetaAttribute] = (),
                 references: Sequence[MetaReference] = (),
                 superclass: Optional[str] = None,
                 abstract: bool = False):
        self.name = name
        self.attributes = list(attributes)
        self.references = list(references)
        self.superclass = superclass
        self.abstract = abstract

    def __repr__(self) -> str:
        return f"MetaClass({self.name!r})"


class Metamodel:
    """A named, closed set of metaclasses (an M2 model, e.g. CWM)."""

    def __init__(self, name: str, classes: Sequence[MetaClass],
                 version: str = "1.0"):
        self.name = name
        self.version = version
        self._classes: Dict[str, MetaClass] = {}
        for metaclass in classes:
            if metaclass.name in self._classes:
                raise MetamodelError(
                    f"duplicate metaclass {metaclass.name!r} "
                    f"in metamodel {name!r}")
            self._classes[metaclass.name] = metaclass
        self._validate()

    def _validate(self) -> None:
        for metaclass in self._classes.values():
            if metaclass.superclass is not None \
                    and metaclass.superclass not in self._classes:
                raise MetamodelError(
                    f"{metaclass.name}: unknown superclass "
                    f"{metaclass.superclass!r}")
            for reference in metaclass.references:
                if reference.target not in self._classes:
                    raise MetamodelError(
                        f"{metaclass.name}.{reference.name}: unknown "
                        f"target metaclass {reference.target!r}")
        # Reject inheritance cycles.
        for metaclass in self._classes.values():
            seen = set()
            cursor: Optional[str] = metaclass.name
            while cursor is not None:
                if cursor in seen:
                    raise MetamodelError(
                        f"inheritance cycle through {cursor!r}")
                seen.add(cursor)
                cursor = self._classes[cursor].superclass

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._classes

    def class_names(self) -> List[str]:
        return sorted(self._classes)

    def metaclass(self, name: str) -> MetaClass:
        metaclass = self._classes.get(name)
        if metaclass is None:
            raise MetamodelError(
                f"metamodel {self.name!r} has no class {name!r}")
        return metaclass

    def lineage(self, name: str) -> List[MetaClass]:
        """The metaclass and its ancestors, most-derived first."""
        chain: List[MetaClass] = []
        cursor: Optional[str] = name
        while cursor is not None:
            metaclass = self.metaclass(cursor)
            chain.append(metaclass)
            cursor = metaclass.superclass
        return chain

    def all_attributes(self, name: str) -> Dict[str, MetaAttribute]:
        merged: Dict[str, MetaAttribute] = {}
        for metaclass in reversed(self.lineage(name)):
            for attribute in metaclass.attributes:
                merged[attribute.name] = attribute
        return merged

    def all_references(self, name: str) -> Dict[str, MetaReference]:
        merged: Dict[str, MetaReference] = {}
        for metaclass in reversed(self.lineage(name)):
            for reference in metaclass.references:
                merged[reference.name] = reference
        return merged

    def is_kind_of(self, name: str, ancestor: str) -> bool:
        return any(metaclass.name == ancestor
                   for metaclass in self.lineage(name))


class MofElement:
    """A reflective M1 model element.

    Attribute and reference slots are accessed via :meth:`get`,
    :meth:`set`, :meth:`link` and :meth:`unlink` — the JMI-style
    reflective API.
    """

    def __init__(self, extent: "ModelExtent", element_id: str,
                 class_name: str):
        self.extent = extent
        self.element_id = element_id
        self.class_name = class_name
        self._values: Dict[str, Any] = {}
        self._links: Dict[str, List["MofElement"]] = {}
        metamodel = extent.metamodel
        for attribute in metamodel.all_attributes(class_name).values():
            if attribute.default is not None:
                self._values[attribute.name] = attribute.default

    def __repr__(self) -> str:
        label = self._values.get("name")
        suffix = f" name={label!r}" if label is not None else ""
        return f"<{self.class_name} #{self.element_id}{suffix}>"

    # -- attribute slots ---------------------------------------------------------

    def _attribute(self, name: str) -> MetaAttribute:
        attributes = self.extent.metamodel.all_attributes(self.class_name)
        attribute = attributes.get(name)
        if attribute is None:
            raise MetamodelError(
                f"{self.class_name} has no attribute {name!r}")
        return attribute

    def set(self, name: str, value: Any) -> "MofElement":
        attribute = self._attribute(name)
        if not attribute.accepts(value):
            raise ModelConstraintError(
                f"{self.class_name}.{name}: value {value!r} does not "
                f"match type {attribute.type_name!r}")
        self._values[name] = value
        return self

    def get(self, name: str) -> Any:
        self._attribute(name)
        return self._values.get(name)

    @property
    def name(self) -> Optional[str]:
        """Shortcut for the conventional ``name`` attribute."""
        return self._values.get("name")

    def attribute_values(self) -> Dict[str, Any]:
        return dict(self._values)

    # -- reference slots ------------------------------------------------------------

    def _reference(self, name: str) -> MetaReference:
        references = self.extent.metamodel.all_references(self.class_name)
        reference = references.get(name)
        if reference is None:
            raise MetamodelError(
                f"{self.class_name} has no reference {name!r}")
        return reference

    def link(self, name: str, target: "MofElement") -> "MofElement":
        reference = self._reference(name)
        if not self.extent.metamodel.is_kind_of(
                target.class_name, reference.target):
            raise ModelConstraintError(
                f"{self.class_name}.{name} expects {reference.target}, "
                f"got {target.class_name}")
        bucket = self._links.setdefault(name, [])
        if not reference.many:
            bucket.clear()
        if target not in bucket:
            bucket.append(target)
        return self

    def unlink(self, name: str, target: "MofElement") -> "MofElement":
        self._reference(name)
        bucket = self._links.get(name, [])
        if target in bucket:
            bucket.remove(target)
        return self

    def refs(self, name: str) -> List["MofElement"]:
        self._reference(name)
        return list(self._links.get(name, []))

    def ref(self, name: str) -> Optional["MofElement"]:
        targets = self.refs(name)
        return targets[0] if targets else None

    def reference_values(self) -> Dict[str, List["MofElement"]]:
        return {name: list(bucket) for name, bucket in self._links.items()}

    def is_kind_of(self, class_name: str) -> bool:
        return self.extent.metamodel.is_kind_of(self.class_name, class_name)


class ModelExtent:
    """A container of model elements conforming to one metamodel.

    The extent plays the role of a JMI *package extent* in MDR: it is
    the unit of creation, lookup, validation and XMI interchange.
    """

    def __init__(self, metamodel: Metamodel, name: str = "extent"):
        self.metamodel = metamodel
        self.name = name
        self._elements: Dict[str, MofElement] = {}
        self._counter = itertools.count(1)

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterable[MofElement]:
        return iter(list(self._elements.values()))

    def create(self, class_name: str, element_id: Optional[str] = None,
               **attributes: Any) -> MofElement:
        """Instantiate a (non-abstract) metaclass."""
        metaclass = self.metamodel.metaclass(class_name)
        if metaclass.abstract:
            raise ModelConstraintError(
                f"cannot instantiate abstract metaclass {class_name!r}")
        if element_id is None:
            element_id = f"{class_name.lower()}.{next(self._counter)}"
        if element_id in self._elements:
            raise ModelConstraintError(
                f"duplicate element id {element_id!r}")
        element = MofElement(self, element_id, class_name)
        for name, value in attributes.items():
            element.set(name, value)
        self._elements[element_id] = element
        return element

    def element(self, element_id: str) -> MofElement:
        element = self._elements.get(element_id)
        if element is None:
            raise ModelConstraintError(
                f"extent {self.name!r} has no element {element_id!r}")
        return element

    def delete(self, element: MofElement) -> None:
        """Remove an element and every link pointing at it."""
        self._elements.pop(element.element_id, None)
        for other in self._elements.values():
            for name, bucket in other._links.items():
                if element in bucket:
                    bucket.remove(element)

    def instances_of(self, class_name: str,
                     exact: bool = False) -> List[MofElement]:
        if exact:
            return [element for element in self._elements.values()
                    if element.class_name == class_name]
        return [element for element in self._elements.values()
                if element.is_kind_of(class_name)]

    def find_by_name(self, class_name: str, name: str) \
            -> Optional[MofElement]:
        for element in self.instances_of(class_name):
            if element.get("name") == name:
                return element
        return None

    def problems(self) -> List[Tuple[str, str]]:
        """Well-formedness problems as ``(kind, message)`` pairs.

        ``kind`` is ``"required"`` (a required slot is unset or empty),
        ``"dangling"`` (a link whose target is not this extent's own
        element) or ``"owners"`` (an element with two composite
        owners).
        """
        problems: List[Tuple[str, str]] = []
        composite_owner: Dict[str, str] = {}
        for element in self._elements.values():
            attributes = self.metamodel.all_attributes(element.class_name)
            for attribute in attributes.values():
                if attribute.required \
                        and element._values.get(attribute.name) is None:
                    problems.append((
                        "required",
                        f"{element!r}: required attribute "
                        f"{attribute.name!r} is unset"))
            references = self.metamodel.all_references(element.class_name)
            for reference in references.values():
                bucket = element._links.get(reference.name, [])
                if reference.required and not bucket:
                    problems.append((
                        "required",
                        f"{element!r}: required reference "
                        f"{reference.name!r} is empty"))
                for target in bucket:
                    if self._elements.get(target.element_id) is not target:
                        problems.append((
                            "dangling",
                            f"{element!r}: reference {reference.name!r} "
                            f"points to {target!r} outside extent "
                            f"{self.name!r}"))
                    if reference.composite:
                        owner = composite_owner.get(target.element_id)
                        if owner is not None \
                                and owner != element.element_id:
                            problems.append((
                                "owners",
                                f"{target!r} has two composite owners"))
                        composite_owner[target.element_id] = \
                            element.element_id
        return problems

    def validate(self) -> List[str]:
        """Check well-formedness; returns a list of problem strings."""
        return [message for _kind, message in self.problems()]

    def check_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ModelConstraintError("; ".join(problems))
