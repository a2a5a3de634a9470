"""Exact vertex counting for Gelfand-Zetlin polytopes.

Counts vertices by several independent routes (operator fixed point,
direct polyhedral enumeration, fiber recursion, closed formulas) and
machine-verifies the generating-function identities relating them, all
in exact arithmetic.

The names below are loaded lazily: ``import gzcount`` imports no
submodule, and ``gzcount.build_G`` imports ``gzcount.genfun`` on first
use.  A ``gzcount count`` (default method, with or without a cache file),
``table``, ``cache`` or ``g4-explore`` process loads only ``gzcount``,
``gzcount.cli``, ``gzcount.counting``, ``gzcount.limits`` and
``gzcount.records``: ``counting`` imports ``polyseries`` inside the
functions that build polynomials, so neither the series nor the oracle
code, nor ``fractions`` or ``decimal``, is loaded.  No module imports
``dataclasses``: the five record types derive from ``records.Frozen``,
so no command loads ``dataclasses`` or the ``inspect`` module behind it.
"""

import importlib

_EXPORTS = {
    "counting": (
        "CacheFormatError",
        "CountCache",
        "MultiplicityVector",
        "SHARED_CACHE",
        "TriTable",
        "a_infinity",
        "a_infinity_unnormalized",
        "apply_A",
        "binomial_formula_V",
        "coeff_theorem_V",
        "count_by_fiber_recursion",
        "g4_explore",
        "g_polynomial",
        "h_polynomial",
        "recurrence_V3",
        "tri_table",
        "vertex_count",
    ),
    "genfun": (
        "ResidualReport",
        "build_E",
        "build_G",
        "closed_form_E2",
        "closed_form_G3",
        "closed_form_H",
        "dde_residual",
        "g3_roots",
        "h_slice",
        "pde_residual",
        "verify_dde_G",
        "verify_e2",
        "verify_g3",
        "verify_h",
        "verify_pde_E",
    ),
    "limits": ("DEFAULT_LIMIT_DIM", "ResourceLimitError"),
    "oracle": (
        "DimensionLimitError",
        "GZShape",
        "HRep",
        "OracleError",
        "build_hrep",
        "enumerate_vertices",
        "oracle_count",
    ),
    "polyseries": ("Monomial", "SparsePoly", "TruncSeries", "divide_exact", "format_rational"),
}

# Exported name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in the package namespace: each lookup reads the
    # submodule's current attribute, so a name replaced there (a test's
    # monkeypatch, a tracer's wrapper) is seen here too, and restored.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
