"""Static check of every declared ``OBS_FIELDS`` table.

iwarplint's IW501 validates the literal names passed to the registry's
instrument factories; the names classes declare in ``OBS_FIELDS`` rows
are not factory-call literals, so this test is what checks them without
running a simulation: it imports every ``repro`` module, collects each
class's own table and passes every name through the registry's
``validate_name``.
"""

import importlib
import inspect
import pkgutil

import repro
from repro.obs.metrics import validate_name


def _declared_tables():
    tables = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and "OBS_FIELDS" in vars(cls):
                tables[f"{info.name}.{name}"] = cls.OBS_FIELDS
    return tables


def test_every_declared_name_follows_the_scheme():
    for owner, fields in _declared_tables().items():
        for row in fields:
            name, kind, path, *extra = row
            assert kind in ("counter", "gauge"), (owner, row)
            assert isinstance(path, str) and len(extra) <= 1, (owner, row)
            # A trailing dot marks a prefix that dict keys complete.
            validate_name(name + "key" if name.endswith(".") else name)


def test_walk_finds_every_exporting_class():
    assert set(_declared_tables()) == {
        "repro.simnet.nic.NicPort",
        "repro.simnet.link.Link",
        "repro.transport.tcp.connection.TcpConnection",
        "repro.transport.rudp.RudpSocket",
        "repro.core.verbs.cq.CompletionQueue",
        "repro.core.verbs.qp.QueuePair",
        "repro.core.verbs.qp.UdQp",
        "repro.core.verbs.qp.RcQp",
    }
