"""Rule families.  Each module exposes ``RULES`` (code -> description)
and ``check(module) -> Iterable[Violation]``.  Adding a family is: write
the module, append it to ``FAMILIES``."""

from iwarplint.rules import determinism, fsm, layering, metrics

FAMILIES = (layering, fsm, determinism, metrics)

__all__ = ["FAMILIES", "layering", "fsm", "determinism", "metrics"]
