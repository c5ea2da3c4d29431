"""Text rendering of experiment results and telemetry."""

from .render import render_table, render_telemetry

__all__ = [
    "render_table",
    "render_telemetry",
]
