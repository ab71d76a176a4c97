"""Exception hierarchy for the workbench.

CLI exit-code mapping: SchemaError (and its InconsistentReport) -> 2 (usage /
malformed input), InvariantViolation and any other WorkbenchError -> 1
(verification failure).
"""


class WorkbenchError(Exception):
    """Base class for all workbench failures."""


class SchemaError(WorkbenchError):
    """A file or payload does not match the documented JSON schema."""


class InconsistentReport(SchemaError):
    """A stored report row has a pass flag its residual and tolerance deny."""


class InvariantViolation(WorkbenchError):
    """A mathematical precondition or invariant failed numerically."""
