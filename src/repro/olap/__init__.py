"""OLAP substrate (the Mondrian-style analysis engine).

The analysis service (AS) defines OLAP cubes over star schemas stored
in the embedded engine, evaluates multidimensional queries, parses an
MDX-lite query language, and supports interactive navigation
(drill-down / roll-up / slice / dice):

* :mod:`repro.olap.model` — cube schema over a star schema
* :mod:`repro.olap.engine` — aggregation engine and cell sets
* :mod:`repro.olap.query` — MDX-lite parser and executor
* :mod:`repro.olap.navigation` — stateful cube browsing
"""

from repro.olap.engine import CellSet, OlapEngine
from repro.olap.model import CubeDimension, CubeSchema, Measure
from repro.olap.navigation import CubeNavigator
from repro.olap.query import MdxQuery, parse_mdx

__all__ = [
    "CellSet",
    "CubeDimension",
    "CubeNavigator",
    "CubeSchema",
    "MdxQuery",
    "Measure",
    "OlapEngine",
    "parse_mdx",
]
