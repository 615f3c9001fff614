"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.
"""

from __future__ import annotations


class StacacheError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(StacacheError):
    """Operands are inconsistent (vector lengths, matrix dims) or out of range."""


class DegenerateVectorError(StacacheError):
    """A zero-norm vector was passed where a direction is required."""


class EmptySupportError(StacacheError):
    """An attention call has no key to attend to."""


class VoxelRangeError(StacacheError):
    """A coordinate falls outside the encodable voxel index range."""


class ConfigError(StacacheError):
    """A cache or policy configuration failed validation."""


class TraceFormatError(StacacheError):
    """A trace file is malformed: bad magic, version, shape, or truncation."""


class InvariantViolation(StacacheError):
    """A runtime audit found internal state that contradicts a documented invariant."""
