"""Model linting for CWM/MDA artifacts (ODB2xx diagnostics).

Checks a :class:`~repro.mof.kernel.ModelExtent` for structural
problems the transformation engine would otherwise hit at runtime.
Dangling references (ODB201), unset required slots (ODB205) and
conflicting composite owners (ODB206) are the kernel's own
:meth:`~repro.mof.kernel.ModelExtent.problems` — the walk behind
``validate()``, which the MDA transformations gate on — mapped to
codes.  Orphan composite children (ODB202), cycles through CWM
Transformation chains (ODB203) and cube/dimension resolution (ODB204)
are checked here; a code-generated :class:`~repro.olap.model.CubeSchema`
is resolved against a relational catalog by its own
``validate_against``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import DiagnosticCollector
from repro.errors import MofError
from repro.mof.kernel import ModelExtent, MofElement


def _label(element: MofElement) -> str:
    name = element.name
    if name:
        return f"{element.class_name} {name!r}"
    return f"{element.class_name} #{element.element_id}"


def _find_cycle(nodes: Sequence[str],
                edges: Dict[str, List[str]]) -> Optional[List[str]]:
    """One cycle (as a node path) in a directed graph, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in nodes}
    parent: Dict[str, Optional[str]] = {}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(root, 0)]
        color[root] = GREY
        parent[root] = None
        while stack:
            node, cursor = stack[-1]
            successors = edges.get(node, [])
            if cursor < len(successors):
                stack[-1] = (node, cursor + 1)
                successor = successors[cursor]
                if successor not in color:
                    continue
                if color[successor] == GREY:
                    cycle = [successor, node]
                    walker = parent.get(node)
                    while walker is not None and walker != successor:
                        cycle.append(walker)
                        walker = parent.get(walker)
                    cycle.reverse()
                    return cycle
                if color[successor] == WHITE:
                    color[successor] = GREY
                    parent[successor] = node
                    stack.append((successor, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return None


#: :meth:`ModelExtent.problems` kind -> diagnostic code.
_PROBLEM_CODES = {"dangling": "ODB201", "required": "ODB205",
                  "owners": "ODB206"}


def lint_model(extent: ModelExtent,
               collector: Optional[DiagnosticCollector] = None,
               source: Optional[str] = None) -> DiagnosticCollector:
    """Lint one model extent.

    Dangling links, unset required slots and conflicting composite
    owners are the kernel's own :meth:`ModelExtent.problems` (ODB201,
    ODB205, ODB206); orphans, cycles and cube resolution are checked
    here.
    """
    collector = collector if collector is not None \
        else DiagnosticCollector(source)
    for kind, message in extent.problems():
        collector.error(_PROBLEM_CODES[kind], message, source=source)
    _lint_orphans(extent, collector, source)
    _lint_transformation_cycles(extent, collector, source)
    if "Cube" in extent.metamodel:
        _lint_cubes(extent, collector, source)
    return collector


def _lint_orphans(extent: ModelExtent, collector: DiagnosticCollector,
                  source: Optional[str]) -> None:
    metamodel = extent.metamodel
    # Orphan detection only considers composite references whose
    # target class is concrete: broad abstract targets such as
    # Namespace.ownedElement -> ModelElement would otherwise flag
    # every legitimately top-level element.
    composite_targets = set()
    for class_name in metamodel.class_names():
        for reference in metamodel.metaclass(class_name).references:
            if reference.composite \
                    and not metamodel.metaclass(reference.target).abstract:
                composite_targets.add(reference.target)

    elements = list(extent)
    owned = {target.element_id
             for element in elements
             for reference in metamodel.all_references(
                 element.class_name).values()
             if reference.composite
             for target in element.refs(reference.name)}
    for element in elements:
        if element.element_id in owned:
            continue
        if any(metamodel.is_kind_of(element.class_name, target)
               for target in composite_targets
               if target in metamodel):
            collector.warning(
                "ODB202",
                f"{_label(element)} is an orphan: its class is "
                f"composite-owned but no element owns it",
                source=source)


# -- CWM Transformation cycles ---------------------------------------------

def _lint_transformation_cycles(extent: ModelExtent,
                                collector: DiagnosticCollector,
                                source: Optional[str]) -> None:
    metamodel = extent.metamodel

    if "TransformationStep" in metamodel:
        steps = extent.instances_of("TransformationStep")
        nodes = [step.element_id for step in steps]
        by_id = {step.element_id: step for step in steps}
        edges = {
            step.element_id: [
                predecessor.element_id
                for predecessor in step.refs("precedence")
                if predecessor.element_id in by_id
            ]
            for step in steps
        }
        cycle = _find_cycle(nodes, edges)
        if cycle is not None:
            path = " -> ".join(_label(by_id[node])
                               for node in cycle)
            collector.error(
                "ODB203",
                f"transformation step precedence cycle: {path}",
                source=source)

    if "Transformation" in metamodel:
        # Chained transformations: an element produced by one
        # transformation feeding another.  A cycle means no valid
        # execution order exists.
        transformations = extent.instances_of("Transformation")
        edges: Dict[str, List[str]] = {}
        nodes: List[str] = []
        labels: Dict[str, MofElement] = {}
        for transformation in transformations:
            for item in (transformation.refs("source")
                         + transformation.refs("target")):
                if item.element_id not in labels:
                    labels[item.element_id] = item
                    nodes.append(item.element_id)
            for source_element in transformation.refs("source"):
                bucket = edges.setdefault(
                    source_element.element_id, [])
                for target_element in transformation.refs("target"):
                    bucket.append(target_element.element_id)
        cycle = _find_cycle(nodes, edges)
        if cycle is not None:
            path = " -> ".join(_label(labels[node])
                               for node in cycle)
            collector.error(
                "ODB203",
                f"transformation chain cycle: {path}",
                source=source)


# -- CWM OLAP cube resolution ----------------------------------------------

def _lint_cubes(extent: ModelExtent, collector: DiagnosticCollector,
                source: Optional[str]) -> None:
    for cube in extent.instances_of("Cube"):
        fact = cube.ref("factTable")
        if fact is None:
            collector.error(
                "ODB204",
                f"{_label(cube)} has no factTable", source=source)
        fact_columns = set()
        if fact is not None:
            try:
                fact_columns = {column.element_id
                                for column in fact.refs("feature")}
            except MofError:
                fact_columns = set()
        for association in cube.refs("cubeDimensionAssociation"):
            dimension = association.ref("dimension")
            if dimension is None:
                continue  # ODB205 already flags the required ref
            if dimension.ref("dimensionTable") is None:
                collector.error(
                    "ODB204",
                    f"{_label(cube)}: {_label(dimension)} has no "
                    f"dimensionTable", source=source)
            foreign_key = association.ref("foreignKeyColumn")
            if foreign_key is not None and fact is not None \
                    and foreign_key.element_id not in fact_columns:
                collector.error(
                    "ODB204",
                    f"{_label(cube)}: foreign key "
                    f"{_label(foreign_key)} is not a column of "
                    f"fact table {_label(fact)}", source=source)
        for feature in cube.refs("feature"):
            if feature.class_name != "Measure":
                continue
            column = feature.ref("column")
            if column is not None and fact is not None \
                    and column.element_id not in fact_columns:
                collector.error(
                    "ODB204",
                    f"{_label(cube)}: measure column "
                    f"{_label(column)} is not a column of fact "
                    f"table {_label(fact)}", source=source)


def lint_cube_schema(definition: Any, catalog: Any,
                     collector: Optional[DiagnosticCollector] = None,
                     source: Optional[str] = None) -> DiagnosticCollector:
    """Validate a cube definition against a relational catalog.

    ``definition`` is a :class:`~repro.olap.model.CubeSchema` or the
    plain dict the MDA code generator emits; ``catalog`` is an
    :class:`~repro.engine.schema.Catalog`.  Every resolution failure is
    an ODB204.
    """
    from repro.errors import CubeDefinitionError
    from repro.olap.model import CubeSchema

    collector = collector if collector is not None \
        else DiagnosticCollector(source)
    if isinstance(definition, dict):
        try:
            definition = CubeSchema.from_definition(definition)
        except CubeDefinitionError as exc:
            collector.error("ODB204", str(exc), source=source)
            return collector
    for problem in definition.validate_against(catalog):
        collector.error("ODB204", f"cube {definition.name!r}: {problem}",
                        source=source)
    return collector
    fact_schema = catalog.table(definition.fact_table)
    for measure in definition.measures:
        if not fact_schema.has_column(measure.column):
            collector.error(
                "ODB204",
                f"cube {definition.name!r}: fact table lacks measure "
                f"column {measure.column!r}", source=source)
    for dimension in definition.dimensions:
        if not fact_schema.has_column(dimension.key):
            collector.error(
                "ODB204",
                f"cube {definition.name!r}: fact table lacks key "
                f"column {dimension.key!r} for dimension "
                f"{dimension.name!r}", source=source)
        if not catalog.has_table(dimension.table):
            collector.error(
                "ODB204",
                f"cube {definition.name!r}: missing dimension table "
                f"{dimension.table!r}", source=source)
            continue
        dim_schema = catalog.table(dimension.table)
        if not dim_schema.has_column(dimension.key):
            collector.error(
                "ODB204",
                f"cube {definition.name!r}: dimension table "
                f"{dimension.table!r} lacks key column "
                f"{dimension.key!r}", source=source)
        for level in dimension.levels:
            if not dim_schema.has_column(level):
                collector.error(
                    "ODB204",
                    f"cube {definition.name!r}: dimension table "
                    f"{dimension.table!r} lacks level column "
                    f"{level!r}", source=source)
    return collector
