"""Exception hierarchy shared across the package.

Everything derives from SkelotError so callers can catch one base class.
Names mirror the operation contracts that raise them.
"""

from __future__ import annotations


class SkelotError(RuntimeError):
    """Base class for all package errors."""


# -- polyhedral ------------------------------------------------------------

class NonRationalVertex(SkelotError):
    pass


class InconsistentGluing(SkelotError):
    pass


class UnsupportedFaceDimension(SkelotError):
    pass


class ResolutionTooCoarse(SkelotError):
    pass


# -- tropical --------------------------------------------------------------

class PointOffFace(SkelotError):
    pass


class TieOnRegion(SkelotError):
    pass


# -- cost ------------------------------------------------------------------

class DimensionMismatch(SkelotError):
    pass


class MissingLevel(SkelotError):
    pass


class WindowNotConverged(SkelotError):
    pass


# -- transport -------------------------------------------------------------

class EmptyGrid(SkelotError):
    pass


class GridMismatch(SkelotError):
    pass


class NotConverged(SkelotError):
    pass


class SizeCapExceeded(SkelotError):
    pass


class InfeasibleMarginals(SkelotError):
    pass


# -- diagnostics -----------------------------------------------------------

class TruncationInsufficient(SkelotError):
    pass


# -- families --------------------------------------------------------------

class NotReflexive(SkelotError):
    pass


class InvariantViolation(SkelotError):
    pass


class SeriesDepthExceeded(SkelotError):
    pass


# -- cli -------------------------------------------------------------------

class ConfigError(SkelotError):
    pass


class SolverNotConverged(SkelotError):
    pass


class AssertionFailed(SkelotError):
    pass


class IncompleteRun(SkelotError):
    pass
