"""Mine anonymous-editor IP addresses from MediaWiki dumps into IPv6 adoption reports."""

__version__ = "0.1.0"

from .ingest import EditRecord, SiteId, parse_dump_stream, write_records
from .netaddr import (
    Mac48,
    OuiDatabase,
    canonical_text,
    embed_mac,
    extract_mac,
    is_eui64,
    load_oui_database,
    parse_ip,
)
from .ribstore import (
    AttributedRecord,
    LpmIndex,
    OriginAs,
    RibSnapshot,
    RibTimeline,
    attribute,
    build_lpm,
    load_prefix_table,
    parse_mrt_rib,
)

__all__ = [
    "__version__",
    "EditRecord",
    "SiteId",
    "parse_dump_stream",
    "write_records",
    "Mac48",
    "OuiDatabase",
    "canonical_text",
    "embed_mac",
    "extract_mac",
    "is_eui64",
    "load_oui_database",
    "parse_ip",
    "AttributedRecord",
    "LpmIndex",
    "OriginAs",
    "RibSnapshot",
    "RibTimeline",
    "attribute",
    "build_lpm",
    "load_prefix_table",
    "parse_mrt_rib",
]
