"""The names the benchmark's tracer and probe use must exist in the package.

``perfbench/trace_stage.py`` replaces names on ``cli`` and ``ribstore`` with timing
wrappers, and ``perfbench/probe.py`` calls the package directly. Neither is run by
the tests, so a renamed or removed name would break only the benchmark. The two
scripts are read with ``ast``; they are not imported.
"""

import ast
from datetime import datetime, timezone
from ipaddress import ip_network
from pathlib import Path

import pytest

from wikiv6 import analytics, cli, ingest, netaddr, ribstore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = ("trace_stage.py", "probe.py")
MODULES = {"analytics": analytics, "cli": cli, "ingest": ingest, "netaddr": netaddr, "ribstore": ribstore}

pytestmark = pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench directory")


def used_names(path: Path) -> set[tuple[str, ...]]:
    """Every dotted name, such as ``("ribstore", "RibTimeline", "from_files")``, that
    `path` reads or assigns on a package module it imports by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "wikiv6"
        for alias in node.names
    }
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in imported & MODULES.keys():
            names.add((node.id, *reversed(parts)))
    return names


def _missing(names) -> list[str]:
    missing = []
    for root, *attrs in names:
        obj = MODULES[root]
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(".".join((root, *attrs)))
                break
            obj = getattr(obj, attr)
    return sorted(missing)


@pytest.mark.parametrize("script", SCRIPTS)
def test_module_names_exist(script):
    names = used_names(PERFBENCH / script)
    assert ("ribstore", "build_lpm") in names  # the collector finds what both scripts use
    assert _missing(names) == []


def test_table_builders_exist_on_cli():
    # The tracer wraps cli.table_<name> for each table's builder; one
    # table_eui64_weekly call builds both EUI-64 tables.
    builders = [name for name in analytics.TABLE_NAMES if name != "eui64_fraction"]
    assert _missing(("cli", f"table_{name}") for name in builders) == []


def test_instance_surface(monkeypatch):
    t = datetime(2020, 1, 1, tzinfo=timezone.utc)
    origin = ribstore.OriginAs.from_asn(64500)
    snapshot = ribstore.RibSnapshot(t, [(ip_network("2001:db8::/32"), origin), (ip_network("10.0.0.0/8"), origin)])
    assert len(snapshot.entries) == 2
    assert len(snapshot.entries) == snapshot.counters()["routes"]
    # The tracer counts builds by replacing ribstore.build_lpm: TimelineEntry.index() must call it by name.
    built = []
    build_lpm = ribstore.build_lpm
    monkeypatch.setattr(ribstore, "build_lpm", lambda snap: built.append(snap) or build_lpm(snap))
    entry = ribstore.TimelineEntry(t, lambda: snapshot)
    timeline = ribstore.RibTimeline([entry])
    assert timeline.entries[0].captured_at == t
    assert timeline.nearest_position(t) == 0
    index = timeline.entries[timeline.nearest_position(t)].index()
    assert built == [snapshot]
    assert index.lookup(netaddr.parse_ip("2001:db8::1")) == origin
    assert index.lookup(netaddr.parse_ip("2001:db9::1")) == ribstore.UNROUTED
