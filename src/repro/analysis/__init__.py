"""Analysis utilities: energy model, report tables, sweeps, and the
content-addressed result cache."""

from repro.analysis.cache import ResultCache, canonical_rows, stable_key
from repro.analysis.energy import EnergyModel, EnergyReport
from repro.analysis.reports import format_table, runlength_table, to_csv
from repro.analysis.sweep import SweepPointError, geomean, grid, normalize, sweep

__all__ = [
    "EnergyModel",
    "EnergyReport",
    "ResultCache",
    "SweepPointError",
    "canonical_rows",
    "format_table",
    "runlength_table",
    "to_csv",
    "grid",
    "stable_key",
    "sweep",
    "geomean",
    "normalize",
]
