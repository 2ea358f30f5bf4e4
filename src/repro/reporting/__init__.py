"""Reporting helpers: text tables, (x, y) series and engineering formatting."""

from .._exports import lazy_exports

__all__ = ["Series", "TextTable", "format_engineering"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tables": ("Series", "TextTable", "format_engineering"),
    },
)
