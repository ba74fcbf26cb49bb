"""Complex event recognition and forecasting over streams with symbolic
register automata.

Import each name from the module that defines it; the README's module map
lists them."""

__version__ = "0.1.0"
