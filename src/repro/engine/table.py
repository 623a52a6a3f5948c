"""In-memory table storage: columns, rows, and value profiling.

Tables store rows as tuples aligned with the column list. The GenEdit
pre-processing phase profiles every column for its most frequent values
(the paper augments schema information with the top-5 values per attribute,
§2.1); that profiling lives here next to the data it describes.
"""

from __future__ import annotations

import datetime
from collections import Counter
from dataclasses import dataclass, field

from .errors import TypeMismatchError, UnknownColumnError
from .values import canonical_type, type_of

#: Exact Python type expected per canonical column type. ``type(value) is
#: expected`` is the common-case insert check; anything else (bool-as-int,
#: datetime-as-date, widenings) goes through the full :func:`type_of` path
#: with identical semantics.
_EXACT_TYPE = {
    "INTEGER": int,
    "FLOAT": float,
    "TEXT": str,
    "BOOLEAN": bool,
    "DATE": datetime.date,
}


@dataclass(frozen=True)
class Column:
    """A column definition: name, canonical type, optional description.

    ``description`` carries catalog documentation; the schema-linking
    operator surfaces it to the generation prompt the same way data-catalog
    documents do in the paper's pre-processing inputs.
    """

    name: str
    type: str
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "type", canonical_type(self.type))


class Table:
    """A named table with typed columns and tuple rows."""

    def __init__(self, name, columns, rows=None, description=""):
        self.name = name
        self.columns = list(columns)
        self.description = description
        self._column_index = {
            column.name.upper(): position
            for position, column in enumerate(self.columns)
        }
        if len(self._column_index) != len(self.columns):
            raise TypeMismatchError(
                f"Duplicate column names in table {name!r}"
            )
        self.rows = []
        self.version = 0
        self._arrays_cache = None
        self._top_values_cache = None
        for row in rows or []:
            self.insert(row)

    @property
    def column_names(self):
        return [column.name for column in self.columns]

    def column_position(self, name):
        position = self._column_index.get(name.upper())
        if position is None:
            raise UnknownColumnError(
                f"Table {self.name!r} has no column {name!r}"
            )
        return position

    def column(self, name):
        return self.columns[self.column_position(name)]

    def has_column(self, name):
        return name.upper() in self._column_index

    def insert(self, row):
        """Insert one row, validating arity and (loosely) types.

        Values must match the declared column type or be NULL; integers are
        accepted into FLOAT columns and widened.
        """
        if isinstance(row, dict):
            row = tuple(row.get(column.name) for column in self.columns)
        else:
            row = tuple(row)
        if len(row) != len(self.columns):
            raise TypeMismatchError(
                f"Row arity {len(row)} does not match table "
                f"{self.name!r} with {len(self.columns)} columns"
            )
        converted = []
        for value, column in zip(row, self.columns):
            converted.append(self._check_value(value, column))
        self.rows.append(tuple(converted))
        self.version += 1

    def _check_value(self, value, column):
        if value is None:
            return None
        if type(value) is _EXACT_TYPE.get(column.type):
            return value
        actual = type_of(value)
        if actual == column.type:
            return value
        if column.type == "FLOAT" and actual == "INTEGER":
            return float(value)
        if column.type == "TEXT":
            # Permit numeric codes stored as text to be loaded from numbers.
            return str(value)
        raise TypeMismatchError(
            f"Column {self.name}.{column.name} is {column.type}, "
            f"got {actual} value {value!r}"
        )

    def column_arrays(self):
        """Per-column value arrays keyed by upper-case name, version-cached.

        The columnar executor reads tables through this transpose; caching
        it on the table version means the cost is paid once per mutation,
        not once per query — the bench loop executes the same handful of
        tables thousands of times. The row count rides along in the cache
        key so out-of-band appends to ``rows`` (which bypass ``insert`` and
        the version counter) are still seen; replacing a row tuple in place
        additionally needs a version bump to invalidate.
        """
        cached = self._arrays_cache
        if (
            cached is not None
            and cached[0] == self.version
            and cached[1] == len(self.rows)
        ):
            return cached[2]
        arrays = {
            column.name.upper(): [row[position] for row in self.rows]
            for position, column in enumerate(self.columns)
        }
        self._arrays_cache = (self.version, len(self.rows), arrays)
        return arrays

    def top_values(self, column_name, k=5):
        """Return the ``k`` most frequent non-NULL values of a column.

        Ties break deterministically by value text so profiling is stable
        across runs — the knowledge set snapshots these into schema elements.
        Memoized per ``(COLUMN, k)`` under the same ``(version, row count)``
        key as :meth:`column_arrays` (the knowledge linter re-checks every
        schema element's values on each gate run); each call returns a
        fresh list.
        """
        cached = self._top_values_cache
        if (
            cached is None
            or cached[0] != self.version
            or cached[1] != len(self.rows)
        ):
            cached = self._top_values_cache = (
                self.version, len(self.rows), {}
            )
        memo = cached[2]
        key = (column_name.upper(), k)
        values = memo.get(key)
        if values is None:
            position = self.column_position(column_name)
            counts = Counter(
                row[position] for row in self.rows
                if row[position] is not None
            )
            ranked = sorted(
                counts.items(), key=lambda item: (-item[1], str(item[0]))
            )
            values = memo[key] = tuple(
                value for value, _count in ranked[:k]
            )
        return list(values)

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"Table({self.name!r}, {len(self.columns)} cols, {len(self.rows)} rows)"


@dataclass
class TableProfile:
    """Snapshot of one table's statistics used by pre-processing."""

    table_name: str
    row_count: int
    column_types: dict = field(default_factory=dict)
    top_values: dict = field(default_factory=dict)


def profile_table(table, k=5):
    """Profile a table: row count, types, and top-k values per column."""
    return TableProfile(
        table_name=table.name,
        row_count=len(table),
        column_types={column.name: column.type for column in table.columns},
        top_values={
            column.name: table.top_values(column.name, k)
            for column in table.columns
        },
    )
