#!/usr/bin/env python3
"""Parse a synthetic multi-GB dump generated on the fly; report peak RSS and speed.

Run as a subprocess by the acceptance suite: the dump never touches disk and
the process RSS reflects only the streaming parse. ``parse_s`` is the wall
time of that one pass, including generating the dump, and ``mb_per_s`` the
dump bytes (10^6 per MB) over it.

usage: memharness.py [target_bytes]
"""

import io
import json
import resource
import sys
import time

from wikiv6.ingest import ParseStats, SiteId, parse_dump_stream

HEADER = b'<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.11/">\n<siteinfo><dbname>synthwiki</dbname></siteinfo>\n'
FOOTER = b"</page>\n</mediawiki>\n"
FILLER = b"x" * 96


def chunks(target_bytes):
    produced = 0
    yield HEADER
    produced += len(HEADER)
    page = 0
    rev = 0
    budget = target_bytes - len(FOOTER)
    open_page = False
    while produced < budget:
        if not open_page:
            blob = f"<page><title>P{page}</title><ns>0</ns><id>{page + 1}</id>\n".encode()
            open_page = True
            page += 1
        else:
            rev += 1
            if rev % 3 == 0:
                contributor = f"<contributor><ip>2001:db8:{page % 0xFFFF:x}::{rev % 0xFFFF:x}</ip></contributor>"
            elif rev % 3 == 1:
                contributor = f"<contributor><username>U{rev}</username><id>{rev}</id></contributor>"
            else:
                contributor = f"<contributor><ip>10.{page % 250}.{rev % 250}.{(rev // 251) % 250}</ip></contributor>"
            body = FILLER * 20
            blob = (
                f"<revision><id>{rev}</id>"
                f"<timestamp>20{10 + rev % 15:02d}-{1 + rev % 12:02d}-{1 + rev % 28:02d}T12:00:00Z</timestamp>"
                f"{contributor}"
                f'<text bytes="{len(body)}">{body.decode()}</text></revision>\n'
            ).encode()
            if rev % 64 == 0:
                blob += b"</page>\n"
                open_page = False
        produced += len(blob)
        yield blob
    if not open_page:
        yield b"<page><title>tail</title><ns>0</ns><id>0</id>\n"
    yield FOOTER


class ChunkStream(io.RawIOBase):
    def __init__(self, gen):
        self._gen = gen
        self._buf = b""
        self.bytes_read = 0

    def read(self, n=-1):
        while len(self._buf) < n or n < 0:
            try:
                self._buf += next(self._gen)
            except StopIteration:
                break
        out, self._buf = self._buf[:n] if n >= 0 else self._buf, self._buf[n:] if n >= 0 else b""
        self.bytes_read += len(out)
        return out


def main():
    target = int(sys.argv[1]) if len(sys.argv) > 1 else 1 << 30
    stats = ParseStats()
    stream = ChunkStream(chunks(target))
    count = 0
    start = time.perf_counter()
    for _record in parse_dump_stream(stream, SiteId.from_code("synthwiki"), stats=stats):
        count += 1
    parse_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "target_bytes": target,
                "records": count,
                "revisions": stats.revisions,
                "maxrss_kb": maxrss_kb,
                "parse_s": round(parse_s, 3),
                "mb_per_s": round(stream.bytes_read / 1e6 / parse_s, 1),
            }
        )
    )


if __name__ == "__main__":
    main()
