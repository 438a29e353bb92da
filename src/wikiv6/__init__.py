"""Mine anonymous-editor IP addresses from MediaWiki dumps into IPv6 adoption reports."""

__version__ = "0.1.0"
