"""Exceptions shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class DegenerateIdealError(ValueError):
    """The zero or unit ideal was passed where a proper nonzero ideal is required.

    Newton-polyhedron operations have no meaningful answer for these inputs,
    so they are rejected instead of silently given a convention.
    """


class GeneratorBudgetError(RuntimeError):
    """A computation would pass a size cap: more generators than its budget,
    or a scan or bitset larger than the fixed limit of its module."""
