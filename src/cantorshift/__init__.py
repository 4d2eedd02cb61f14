"""Certified puzzle-piece trees and shift-space coding for polynomial maps
with Cantor Julia sets."""

from .coding import (
    ChiResult,
    FiberTable,
    SymbolAssignment,
    VerificationReport,
    assign_symbols,
    chi,
    cylinder_component,
    fibers,
    verify_semiconjugacy,
)
from .covers import Frame, PavedCover, paved_clusters
from .errors import (
    BudgetExceeded,
    CantorshiftError,
    HypothesisViolation,
    InconsistentTree,
    NotInCover,
    PrecisionExceeded,
    ResolutionExceeded,
    Undecided,
)
from .maps import (
    CriticalPoint,
    DomainDisk,
    PolynomialMap,
    RestrictionReport,
    derive_critical_points,
    escape_radius,
    validate_restriction,
)
from .oracle import brute_force_fibers, generate
from .tree import (
    AbstractTree,
    CantorDiagnostic,
    Component,
    PuzzleTree,
    ResolutionPolicy,
    build_tree,
    cantor_diagnostic,
    locate,
)

__version__ = "0.1.0"
