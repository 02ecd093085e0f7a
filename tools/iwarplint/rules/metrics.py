"""IW5xx — metric naming: registry factory calls vs the naming scheme.

Every string-literal metric name passed to a registry instrument
factory (``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)``)
must follow the ``layer.component.name`` scheme; IW501 passes it to
the registry's own :func:`repro.obs.metrics.validate_name`.  The runtime
raises ``RegistryError`` for the same violations, but only on code
paths a test happens to execute with metrics enabled; IW501 catches the
literal at lint time.

Non-literal names are left to the runtime check, which runs on every
``collect()``.  The names classes declare in their ``OBS_FIELDS``
tables are checked by ``tests/obs/test_obs_fields.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from iwarplint import invariants as inv
from iwarplint.driver import SourceModule, Violation
from repro.obs.metrics import RegistryError, validate_name

RULES = {
    "IW501": "metric name violates the layer.component.name scheme",
}

#: Only repro code (and fixtures shaped like it) is in scope; the tools
#: themselves and loose scripts are not.
_WATCHED_PREFIX = "repro"


def _watched(name: Optional[str]) -> bool:
    return name is not None and (
        name == _WATCHED_PREFIX or name.startswith(_WATCHED_PREFIX + ".")
    )


def check(module: SourceModule) -> Iterator[Violation]:
    if not _watched(module.name):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in inv.METRIC_FACTORIES):
            continue
        if not node.args:
            continue
        name_node = node.args[0]
        if not (isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)):
            continue  # computed names are validated at runtime
        try:
            validate_name(name_node.value)
        except RegistryError as exc:
            yield module.violation("IW501", node, str(exc))
