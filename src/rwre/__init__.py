"""Random walks in random environments on regular trees: simulation,
regeneration analysis, and statistical verification tools."""

__version__ = "0.1.0"
