import io
import json
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address, IPv6Address, ip_address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_parse_dump, scan_dump_lines
from wikiv6.ingest import (
    RECORD_HEADER,
    BadRow,
    EditRecord,
    ParseStats,
    SiteId,
    StreamMalformed,
    format_record,
    format_timestamp,
    parse_dump_stream,
    parse_timestamp,
    read_records,
    write_records,
)
from wikiv6.netaddr import canonical_text, parse_ip
from wikiv6.ribstore import (
    ATTRIBUTED_HEADER,
    AttributedRecord,
    OriginAs,
    RibTimeline,
    attribute,
    load_prefix_table,
    read_attributed,
    write_attributed,
)


class TestSiteId:
    @pytest.mark.parametrize(
        "code,language,family",
        [
            ("enwiki", "en", "wikipedia"),
            ("dewiki", "de", "wikipedia"),
            ("hiwiki", "hi", "wikipedia"),
            ("enwiktionary", "en", "wiktionary"),
            ("dewikibooks", "de", "wikibooks"),
            ("aswikiquote", "as", "wikiquote"),
            ("frwikisource", "fr", "wikisource"),
            ("enwikinews", "en", "wikinews"),
            ("itwikivoyage", "it", "wikivoyage"),
            ("enwikiversity", "en", "wikiversity"),
            ("bdwikimedia", "bd", "wikimedia"),
            ("commonswiki", "", "wikipedia"),
            ("fixturewiki", "", "wikipedia"),
            ("specieswiki", "", "wikipedia"),
            ("wikidatawiki", "", "wikipedia"),
            ("mediawikiwiki", "", "wikipedia"),
            ("somethingelse", "", "other"),
        ],
    )
    def test_family_and_language(self, code, language, family):
        site = SiteId.from_code(code)
        assert site.code == code
        assert site.language == language
        assert site.family == family

    @pytest.mark.parametrize("bad", ["", "ENWIKI", "en wiki", "en-wiki", "wikié"])
    def test_invalid_codes(self, bad):
        with pytest.raises(ValueError):
            SiteId.from_code(bad)


UTC_NOON = datetime(2015, 6, 1, 12, 0, 0, tzinfo=timezone.utc)


class TestParseTimestamp:
    @pytest.mark.parametrize(
        "text",
        [
            "2015-06-01T12:00:00Z",
            "2015-06-01t12:00:00z",
            "2015-06-01T14:00:00+02:00",
            "2015-06-01T07:30:00-04:30",
            "  2015-06-01T12:00:00Z\n",
        ],
    )
    def test_accepted_as_utc(self, text):
        ts = parse_timestamp(text)
        assert ts == UTC_NOON
        assert ts.tzinfo == timezone.utc

    @pytest.mark.parametrize(
        "text",
        [
            "2015-06-01T12:00:00",  # naive: no zone
            "2015-6-1T12:0:0Z",  # fields not zero-padded
            "2015-06-01T12:00:00 UTC",
            "garbage",
            "Z",
            "",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_timestamp(text)

    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00+05:00", "9999-12-31T23:59:59-05:00"])
    def test_out_of_range_in_utc_is_value_error(self, text):
        # The offset moves the instant outside datetime's years 1-9999.
        with pytest.raises(ValueError, match="out of range"):
            parse_timestamp(text)


class TestFormatTimestamp:
    @pytest.mark.parametrize("year", [1, 999, 1000, 2024, 9999])
    def test_roundtrip_zero_padded_year(self, year):
        ts = datetime(year, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
        text = format_timestamp(ts)
        assert text == f"{year:04d}-12-31T23:59:59Z"
        assert parse_timestamp(text) == ts

    def test_converts_to_utc_and_drops_fraction(self):
        ts = parse_timestamp("2015-06-01T14:00:00.75+02:00")
        assert format_timestamp(ts) == "2015-06-01T12:00:00Z"

    def test_pre_1000_dump_timestamp_survives_extract_and_reread(self):
        dump = _mini_dump(
            "    <revision><id>1</id><timestamp>0999-12-31T23:59:59Z</timestamp>"
            "<contributor><ip>192.0.2.1</ip></contributor></revision>\n"
        )
        records = list(parse_dump_stream(io.BytesIO(dump), SiteId.from_code("enwiki")))
        sink = io.BytesIO()
        write_records(records, sink)
        reread = list(read_records(sink.getvalue().decode().splitlines(keepends=True)))
        assert reread == records
        assert sink.getvalue().splitlines()[1].startswith(b"0999-12-31T23:59:59Z\t")


def _mini_dump(revisions: str) -> bytes:
    return (
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.11/">\n'
        "  <siteinfo><dbname>enwiki</dbname></siteinfo>\n"
        "  <page><title>T</title><ns>0</ns><id>1</id>\n" + revisions + "  </page>\n</mediawiki>\n"
    ).encode()


REV_ANON = (
    "    <revision><id>1</id><timestamp>2015-06-01T12:00:00Z</timestamp>"
    "<contributor><ip>2001:DB8::1</ip></contributor><text>x</text></revision>\n"
)
REV_REG = (
    "    <revision><id>2</id><timestamp>2015-06-01T13:00:00Z</timestamp>"
    "<contributor><username>Alice</username><id>7</id></contributor><text>x</text></revision>\n"
)


class TestParseDumpStream:
    @pytest.mark.parametrize(
        "contributor,counter",
        [
            ('<contributor deleted="deleted"/>', "skipped_deleted"),
            ("<contributor><ip>192.0.2.7</ip></contributor>", "anonymous"),
            ("<contributor><username>Eve</username><ip>192.0.2.7</ip></contributor>", "anonymous"),
            ("<contributor><username>192.0.2.7</username><id>9</id></contributor>", "skipped_registered"),
            ("<contributor></contributor>", "skipped_deleted"),
            ("<contributor><id>9</id></contributor>", "skipped_deleted"),
        ],
        ids=["deleted-attr", "ip", "ip-and-username", "ip-shaped-username", "empty", "id-only"],
    )
    def test_contributor_classification(self, contributor, counter):
        rev = (
            "    <revision><id>5</id><timestamp>2015-06-01T12:00:00Z</timestamp>"
            f"{contributor}<text>x</text></revision>\n"
        )
        stats = ParseStats()
        list(parse_dump_stream(io.BytesIO(_mini_dump(rev)), SiteId.from_code("enwiki"), stats=stats))
        counts = stats.as_dict()
        assert counts.pop("revisions") == 1
        assert counts == {name: int(name == counter) for name in counts}

    def test_spec_examples(self):
        site = SiteId.from_code("enwiki")
        records = list(parse_dump_stream(io.BytesIO(_mini_dump(REV_ANON + REV_REG)), site))
        assert len(records) == 1
        rec = records[0]
        assert rec.timestamp == parse_timestamp("2015-06-01T12:00:00Z")
        assert rec.site.code == "enwiki"
        assert str(rec.ip) == "2001:db8::1"

    def test_fixture_golden_records(self, fixture_dump, golden_records):
        site = SiteId.from_code("fixturewiki")
        stats = ParseStats()
        sink = io.BytesIO()
        with open(fixture_dump, "rb") as fh:
            count = write_records(parse_dump_stream(fh, site, stats=stats), sink)
        assert count == 37
        assert sink.getvalue() == golden_records.read_bytes()

    def test_fixture_golden_stats(self, fixture_dump, golden_stats):
        site = SiteId.from_code("fixturewiki")
        stats = ParseStats()
        with open(fixture_dump, "rb") as fh:
            for _ in parse_dump_stream(fh, site, stats=stats):
                pass
        assert stats.as_dict() == json.loads(golden_stats.read_text())

    def test_golden_matches_independent_scan(self, fixture_dump, golden_records, golden_stats):
        with open(fixture_dump, encoding="utf-8") as fh:
            rows, stats = scan_dump_lines(fh, "fixturewiki")
        expected = "timestamp\tsite\tip\n" + "\n".join(rows) + "\n"
        assert expected == golden_records.read_text()
        assert stats == json.loads(golden_stats.read_text())

    def test_count_conservation(self, fixture_dump):
        stats = ParseStats()
        with open(fixture_dump, "rb") as fh:
            emitted = sum(1 for _ in parse_dump_stream(fh, SiteId.from_code("fixturewiki"), stats=stats))
        assert emitted == stats.anonymous
        total = (
            stats.anonymous
            + stats.skipped_registered
            + stats.skipped_deleted
            + stats.skipped_malformed_ip
            + stats.skipped_missing_timestamp
            + stats.skipped_namespace
        )
        assert total == stats.revisions == 200

    def test_idempotent(self, fixture_dump):
        site = SiteId.from_code("fixturewiki")
        with open(fixture_dump, "rb") as fh:
            first = list(parse_dump_stream(fh, site))
        with open(fixture_dump, "rb") as fh:
            second = list(parse_dump_stream(fh, site))
        assert first == second

    def test_records_in_document_order(self, fixture_dump, golden_records):
        site = SiteId.from_code("fixturewiki")
        with open(fixture_dump, "rb") as fh:
            records = list(parse_dump_stream(fh, site))
        golden_rows = golden_records.read_text().splitlines()[1:]
        got_rows = [
            f"{r.timestamp.strftime('%Y-%m-%dT%H:%M:%SZ')}\t{r.site.code}\t{r.ip}" for r in records
        ]
        assert got_rows == golden_rows

    def test_malformed_xml_aborts_with_position(self):
        bad = b"<mediawiki><page><revision></page></mediawiki>"
        with pytest.raises(StreamMalformed) as err:
            list(parse_dump_stream(io.BytesIO(bad), SiteId.from_code("enwiki")))
        assert err.value.byte_index > 0
        assert err.value.line == 1

    def test_missing_timestamp_counted(self):
        rev = "    <revision><id>3</id><contributor><ip>10.0.0.1</ip></contributor></revision>\n"
        stats = ParseStats()
        records = list(
            parse_dump_stream(io.BytesIO(_mini_dump(rev)), SiteId.from_code("enwiki"), stats=stats)
        )
        assert records == []
        assert stats.skipped_missing_timestamp == 1

    def test_malformed_ip_counted(self):
        rev = (
            "    <revision><id>3</id><timestamp>2015-06-01T12:00:00Z</timestamp>"
            "<contributor><ip>999.1.2.3</ip></contributor></revision>\n"
        )
        stats = ParseStats()
        records = list(
            parse_dump_stream(io.BytesIO(_mini_dump(rev)), SiteId.from_code("enwiki"), stats=stats)
        )
        assert records == []
        assert stats.skipped_malformed_ip == 1

    def test_siteinfo_conflict_counter(self):
        stats = ParseStats()
        list(
            parse_dump_stream(
                io.BytesIO(_mini_dump(REV_ANON)), SiteId.from_code("dewiki"), stats=stats
            )
        )
        assert stats.siteinfo_conflicts == 1

    def test_namespace_filter(self, fixture_dump):
        # fixture pages: 4 in ns 0, 1 in ns 1, 1 in ns 2
        site = SiteId.from_code("fixturewiki")
        stats_all = ParseStats()
        with open(fixture_dump, "rb") as fh:
            all_records = list(parse_dump_stream(fh, site, stats=stats_all))
        stats_main = ParseStats()
        with open(fixture_dump, "rb") as fh:
            main_records = list(parse_dump_stream(fh, site, namespaces=[0], stats=stats_main))
        assert stats_main.skipped_namespace > 0
        assert len(main_records) < len(all_records)
        assert stats_main.revisions == stats_all.revisions == 200
        kept = {r for r in main_records}
        assert kept <= set(all_records)

    def test_ip_element_outside_contributor_ignored(self):
        rev = (
            "    <revision><id>4</id><timestamp>2015-06-01T12:00:00Z</timestamp>"
            "<contributor><username>Bob</username></contributor>"
            "<text>look <ip>6.6.6.6</ip> here</text></revision>\n"
        )
        stats = ParseStats()
        records = list(
            parse_dump_stream(io.BytesIO(_mini_dump(rev)), SiteId.from_code("enwiki"), stats=stats)
        )
        assert records == []
        assert stats.skipped_registered == 1


class _Trickle:
    """A byte stream whose reads return short chunks, their sizes cycling through `sizes`."""

    def __init__(self, data: bytes, sizes: list[int]):
        self._data = data
        self._sizes = sizes
        self._pos = 0
        self._reads = 0

    def read(self, n: int = -1) -> bytes:
        size = min(n, self._sizes[self._reads % len(self._sizes)])
        self._reads += 1
        out = self._data[self._pos : self._pos + size]
        self._pos += len(out)
        return out


def _decode(stream, namespaces):
    """parse_dump_stream's output in the reference decoder's (records, stats, error) form."""
    stats = ParseStats()
    records = []
    error = None
    try:
        for record in parse_dump_stream(stream, SiteId.from_code("enwiki"), namespaces, stats):
            assert record.site.code == "enwiki"
            records.append((record.timestamp, record.ip))
    except StreamMalformed as exc:
        error = (exc.line, exc.column, exc.byte_index)
    return records, stats.as_dict(), error


def _assert_matches_reference(doc: bytes, sizes: list[int], namespaces=None) -> None:
    ns = set(namespaces) if namespaces is not None else None
    for make in (lambda: io.BytesIO(doc), lambda: _Trickle(doc, sizes)):
        expected = oracle_parse_dump(make(), "enwiki", parse_timestamp, parse_ip, ns)
        assert _decode(make(), namespaces) == expected


_LEAF_VALUES = {
    "ip": ["192.0.2.7", "2001:db8::1", "2001:DB8:0:0:0:0:0:A", " 2001:db8::2\n", "999.1.2.3", "10.0.0.1:80", ""],
    "timestamp": ["2015-06-01T12:00:00Z", "2015-06-01T12:00:00+02:00", " 2016-02-29T23:59:59Z\n", "2015-06-01", "x"],
    "username": ["Alice", "192.0.2.9", ""],
    "ns": ["0", "1", " 2 ", "x", ""],
    "dbname": ["enwiki", "  enwiki\n", "dewiki", ""],
}


# sampled_from draws its first element most often and shrinks towards it.
_USUALLY = st.sampled_from([True] * 7 + [False])
_RARELY = st.sampled_from([False] * 7 + [True])


@st.composite
def _encoded(draw, text: str) -> str:
    """`text` as element content: plain, CDATA or character references, with comments between parts."""
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)))
    parts = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    out = []
    for part in parts:
        how = draw(st.sampled_from(["plain", "cdata", "charref", "comment"]))
        if how == "cdata":
            out.append(f"<![CDATA[{part}]]>")
        elif how == "charref":
            out.append("".join(f"&#x{ord(c):X};" for c in part))
        elif how == "comment":
            out.append(f"<!-- c -->{part}")
        else:
            out.append(part)
    return "".join(out)


@st.composite
def _leaf(draw, name: str) -> str:
    values = _LEAF_VALUES[name]
    text = values[0] if draw(_USUALLY) else draw(st.sampled_from(values))
    shape = draw(st.sampled_from(["plain", "plain", "plain", "plain", "empty", "nested", "child"]))
    if shape == "empty":
        return f"<{name}/>"
    body = draw(_encoded(text))
    if shape == "nested":
        inner = draw(_encoded(draw(st.sampled_from(_LEAF_VALUES[name]))))
        return f"<{name}>{body}<{name}>{inner}</{name}>tail</{name}>"
    if shape == "child":
        return f"<{name}>{body}<b>mixed</b>{draw(_encoded(text))}</{name}>"
    return f"<{name}>{body}</{name}>"


_SPACE = st.sampled_from(["", "\n", "\n    ", " text "])


@st.composite
def _contributor(draw) -> str:
    deleted = ' deleted="deleted"' if draw(_RARELY) else ""
    children = [draw(st.sampled_from(["ip", "ip", "username"]).flatmap(_leaf))]
    if draw(_RARELY):
        children.append(draw(st.one_of(_leaf("ip"), _leaf("username"), st.just("<id>7</id>"))))
    if draw(_RARELY):
        return f"<contributor{deleted}/>"
    return f"<contributor{deleted}>" + "".join(children) + "</contributor>"


_ODD_REVISION_CHILDREN = st.one_of(
    _leaf("timestamp"),  # a second timestamp
    _contributor(),  # a second contributor
    _leaf("ns"),  # under the wrong parent
    _leaf("ip"),  # under the wrong parent
)


@st.composite
def _revision(draw) -> str:
    """A usual revision (either of its two leaves may be missing) with odd children inserted."""
    children = ["<id>1</id>"]
    if draw(_USUALLY):
        children.append(draw(_leaf("timestamp")))
    if draw(_USUALLY):
        children.append(draw(_contributor()))
    children.append("<text>body &amp; more</text>")
    for odd in draw(st.lists(_ODD_REVISION_CHILDREN, max_size=2)):
        children.insert(draw(st.integers(0, len(children))), odd)
    return "<revision>" + draw(_SPACE).join(children) + "</revision>"


@st.composite
def _page(draw) -> str:
    parts = ["<title>T</title>"]
    if draw(_USUALLY):
        parts.append(draw(_leaf("ns")))
    parts += draw(st.lists(_revision(), min_size=1, max_size=4))
    if draw(_RARELY):
        upload = f"<upload>{draw(_leaf('timestamp'))}{draw(_contributor())}</upload>"
        parts.insert(draw(st.integers(1, len(parts))), upload)
    return "<page>" + draw(_SPACE).join(parts) + "</page>"


@st.composite
def _dump(draw) -> bytes:
    parts = []
    if draw(_USUALLY):
        parts.append(f"<siteinfo>{draw(_leaf('dbname'))}</siteinfo>")
    if draw(_RARELY):
        parts.append(draw(_contributor()))  # outside any revision
    parts += draw(st.lists(_page(), min_size=1, max_size=3))
    doc = ("<mediawiki>" + draw(_SPACE).join(parts) + "</mediawiki>\n").encode()
    damage = draw(st.sampled_from(["none", "none", "none", "truncate", "stray-close"]))
    at = draw(st.integers(0, len(doc)))
    if damage == "truncate":
        doc = doc[:at]
    elif damage == "stray-close":
        doc = doc[:at] + b"</x>" + doc[at:]
    return doc


class TestHandlerMatchesReference:
    """parse_dump_stream against the reference decoder in tests/oracles.py."""

    @pytest.mark.parametrize(
        "revision",
        [
            "<upload><timestamp>2015-06-01T12:00:00Z</timestamp></upload>",
            "<revision><ns>5</ns><timestamp>2015-06-01T12:00:00Z</timestamp>"
            "<contributor><ip>192.0.2.7</ip></contributor></revision>",
            "<revision><timestamp>2015-06-01T12:00:00Z</timestamp>"
            "<contributor><ip>10.0.0.1<ip>192.0.2.7</ip>tail</ip></contributor></revision>",
            "<revision><timestamp>2015-06-01T12:00:00Z</timestamp>"
            "<contributor><ip>2001:db8<b>x</b>::1</ip></contributor></revision>",
            "<revision><timestamp>2015-06-01T<![CDATA[12:00]]>:00Z</timestamp>"
            "<contributor><ip>2001&#x3A;db8<!-- c -->::1</ip></contributor></revision>",
            '<revision><timestamp>2015-06-01T12:00:00Z</timestamp>'
            '<contributor deleted="deleted"><ip>192.0.2.7</ip></contributor></revision>',
            "<revision><timestamp>2015-06-01T12:00:00Z</timestamp><contributor><ip/></contributor></revision>",
            "<revision><timestamp>2015-06-01T12:00:00Z</timestamp><contributor><ip>192.0.2.7</ip>",
            "<revision><timestamp>2015-06-01T12:00:00Z</timestamp><contributor><ip>192.0.2.7</ip>"
            "</contributor></revision></page></mediawiki>",
        ],
        ids=[
            "timestamp-in-upload", "ns-in-revision", "nested-ip", "ip-with-child",
            "cdata-charref-comment", "deleted-with-ip", "empty-ip", "unclosed-revision",
            "content-after-root",
        ],
    )
    @pytest.mark.parametrize("sizes", [[65536], [1], [3, 7, 2]], ids=["whole", "bytewise", "mixed"])
    def test_examples(self, revision, sizes):
        doc = (
            "<mediawiki><siteinfo><dbname> enwiki\n</dbname></siteinfo>\n"
            "<contributor><ip>192.0.2.1</ip></contributor>\n"
            f"<page><title>T</title><ns>0</ns>\n{revision}\n<revision><text>filler</text>"
            "<timestamp>2016-01-01T00:00:00Z</timestamp><contributor><ip>2001:db8::7</ip></contributor>"
            "</revision></page></mediawiki>\n"
        ).encode()
        _assert_matches_reference(doc, sizes)
        _assert_matches_reference(doc[: len(doc) // 2], sizes)  # truncated

    @settings(max_examples=300, deadline=None)
    @given(
        doc=_dump(),
        sizes=st.lists(st.integers(1, 7), min_size=1, max_size=8),
        namespaces=st.sampled_from([None, [0], [1, 2]]),
    )
    def test_generated_documents(self, doc, sizes, namespaces):
        _assert_matches_reference(doc, sizes, namespaces)


class TestRecordTsv:
    def test_empty_stream_header_only(self):
        sink = io.BytesIO()
        assert write_records([], sink) == 0
        assert sink.getvalue() == b"timestamp\tsite\tip\n"

    def test_rows_in_input_order(self):
        site = SiteId.from_code("enwiki")
        records = [
            EditRecord(parse_timestamp("2015-06-01T12:00:00Z"), site, ip_address("10.0.0.2")),
            EditRecord(parse_timestamp("2014-06-01T12:00:00Z"), site, ip_address("2001:db8::1")),
            EditRecord(parse_timestamp("2016-06-01T12:00:00Z"), site, ip_address("10.0.0.1")),
        ]
        sink = io.BytesIO()
        assert write_records(records, sink) == 3
        lines = sink.getvalue().decode().splitlines()
        assert lines[1].startswith("2015-")
        assert lines[2].startswith("2014-")
        assert lines[3].startswith("2016-")

    def test_round_trip(self, fixture_dump):
        site = SiteId.from_code("fixturewiki")
        with open(fixture_dump, "rb") as fh:
            records = list(parse_dump_stream(fh, site))
        sink = io.BytesIO()
        write_records(records, sink)
        back = list(read_records(io.StringIO(sink.getvalue().decode())))
        assert back == records


_TS = "2015-06-01T12:00:00Z"


class TestReadRows:
    @pytest.mark.parametrize(
        "reader,row",
        [
            (read_records, f"{_TS}\tenwiki"),
            (read_records, f"2015-13-01T12:00:00Z\tenwiki\t10.0.0.1"),
            (read_records, f"{_TS}\tenwiki\tnot-an-ip"),
            (read_records, f"{_TS}\tEN WIKI\t10.0.0.1"),
            (read_records, f"{_TS}\tenwiki\t10.0.0.1\udcff"),
            (read_attributed, f"{_TS}\tenwiki\t10.0.0.1\t64500"),
            (read_attributed, f"2015-13-01T12:00:00Z\tenwiki\t10.0.0.1\t64500\t0"),
            (read_attributed, f"{_TS}\tenwiki\tnot-an-ip\t64500\t0"),
            (read_attributed, f"{_TS}\tEN WIKI\t10.0.0.1\t64500\t0"),
            (read_attributed, f"{_TS}\tenwiki\t10.0.0.1\tAS64500\t0"),
            (read_attributed, f"{_TS}\tenwiki\t10.0.0.1\t64500\t1.5"),
        ],
        ids=[
            "records-columns", "records-timestamp", "records-ip", "records-site", "records-undecodable",
            "attributed-columns", "attributed-timestamp", "attributed-ip", "attributed-site",
            "attributed-origin", "attributed-delta",
        ],
    )
    def test_bad_row_names_its_line(self, reader, row):
        if reader is read_records:
            header, good = RECORD_HEADER, f"{_TS}\tenwiki\t10.0.0.1"
        else:
            header, good = ATTRIBUTED_HEADER, f"{_TS}\tenwiki\t10.0.0.1\t64500\t0"
        rows = reader(io.StringIO(f"{header}\n{good}\n{row}\n"))
        assert next(rows).ip == ip_address("10.0.0.1")
        with pytest.raises(BadRow) as err:
            next(rows)
        assert err.value.lineno == 3
        assert str(err.value).startswith("line 3: ")

    @settings(max_examples=300, deadline=None)
    @given(
        reader=st.sampled_from([read_records, read_attributed]),
        lines=st.lists(
            st.one_of(
                st.sampled_from([
                    RECORD_HEADER, ATTRIBUTED_HEADER, "", f"{_TS}\tenwiki\t10.0.0.1",
                    f"{_TS}\tenwiki\t2001:db8::1\t64500\t0",
                ]),
                st.lists(
                    st.sampled_from([
                        _TS, "2015-13-01T12:00:00Z", "0001-01-01T00:00:00+01:00", "2015-06-01",
                        "enwiki", "EN WIKI", "x\udcff",
                        "10.0.0.1", "2001:db8::1", "fe80::1%eth0", "not-an-ip",
                        "64500", "set:1,2", "unrouted", "set:", "0", "-5", "1.5",
                    ])
                    | st.text(),
                    min_size=1,
                    max_size=6,
                ).map("\t".join),
                st.text(),
            ).map(lambda line: line + "\n"),
            max_size=8,
        ),
    )
    def test_any_lines_give_rows_or_a_bad_row(self, reader, lines):
        try:
            rows = list(reader(lines))
        except BadRow as exc:
            assert 1 <= exc.lineno <= len(lines)
            return
        assert len(rows) <= len(lines)


# Timestamp spellings parse_timestamp accepts: canonical, and ones it rewrites.
_TS_SPELLINGS = st.sampled_from([
    "{}", " {}", "{z}", "{plus0}", "{plus2}",
    "2006-01-02T03:04,05Z", "2010-01-02T03404305Z", "2015-06-01T12:00:00.000Z",
])


def _spell_timestamp(moment: datetime, spelling: str) -> str:
    text = format_timestamp(moment)
    local = moment.astimezone(timezone(timedelta(hours=2))).isoformat()[:19]
    if spelling in ("{}", " {}"):
        return spelling.format(text)
    return spelling.format(z=text[:-1] + "z", plus0=text[:-1] + "+00:00", plus2=local + "+02:00")


def _spell_ip(value: int, v6: bool, spelling: str) -> str:
    ip = IPv6Address(value) if v6 else IPv4Address(value & 0xFFFFFFFF)
    text = canonical_text(ip)
    if spelling == "upper":
        return text.upper()
    if spelling == "exploded":
        return ip.exploded  # zero-padded v6 groups
    if spelling == "padded":
        return f" {text} "
    if spelling == "cr":
        return text + "\r"
    if spelling == "mapped":
        return f"::ffff:{IPv4Address(value & 0xFFFFFFFF)}"
    return text


_IP_SPELLINGS = st.sampled_from(["canonical", "canonical", "upper", "exploded", "padded", "cr", "mapped"])
_MOMENTS = st.datetimes(
    min_value=datetime(2001, 1, 1), max_value=datetime(2030, 1, 1), timezones=st.just(timezone.utc)
).map(lambda moment: moment.replace(microsecond=0))
_ROWS = st.lists(
    st.tuples(
        _MOMENTS,
        _TS_SPELLINGS,
        st.integers(0, 2**128 - 1),
        st.booleans(),
        _IP_SPELLINGS,
    ),
    min_size=1,
    max_size=12,
)


def _formatted_anew(record: EditRecord) -> str:
    """The row text of a record built by the public constructor, which keeps no input text."""
    return format_record(EditRecord(record.timestamp, record.site, record.ip))


class TestCanonicalPassThrough:
    """A record keeps its input text only when writing it anew gives the same text."""

    @settings(max_examples=200, deadline=None)
    @given(rows=_ROWS, crlf=st.booleans())
    def test_record_rows_write_as_formatted(self, rows, crlf):
        lines = [
            f"{_spell_timestamp(moment, ts_spelling)}\tenwiki\t{_spell_ip(value, v6, ip_spelling)}"
            + ("\r\n" if crlf else "\n")
            for moment, ts_spelling, value, v6, ip_spelling in rows
        ]
        for line, record in zip(lines, read_records([RECORD_HEADER + "\n", *lines])):
            assert format_record(record) == _formatted_anew(record)
            if not crlf and format_record(record) == line[:-1]:  # canonical input is kept as it came
                assert record._text == format_record(record)

    @settings(max_examples=100, deadline=None)
    @given(rows=_ROWS)
    def test_attributed_rows_write_as_formatted(self, rows):
        lines = [
            f"{_spell_timestamp(moment, ts_spelling)}\tenwiki\t{_spell_ip(value, v6, ip_spelling)}\n"
            for moment, ts_spelling, value, v6, ip_spelling in sorted(rows)
        ]
        timeline = RibTimeline.from_snapshots([load_prefix_table([
            "# captured_at=2015-01-01T00:00:00Z\n", "0.0.0.0/1\t64500\n", "2000::/3\tset:1,2\n",
        ])])
        records = list(read_records(lines))
        records.sort(key=lambda record: record.timestamp)
        through = io.StringIO()
        write_attributed(attribute(records, timeline), through)
        anew = io.StringIO()
        write_attributed(
            (AttributedRecord(r.timestamp, r.site, r.ip, r.origin, r.snapshot_delta_s)
             for r in attribute(records, timeline)),
            anew,
        )
        assert through.getvalue() == anew.getvalue()

    @pytest.mark.parametrize("ts_text,ip_text,passes", [
        ("2015-06-01T12:00:00Z", "2001:db8::1", True),
        ("2015-06-01T12:00:00Z", "10.0.0.1", True),
        ("2015-06-01T12:00:00Z", "::ffff:102:304", True),
        ("2006-01-02T03:04,05Z", "2001:db8::1", False),
        ("2010-01-02T03404305Z", "2001:db8::1", False),
        ("2015-06-01T12:00:00z", "2001:db8::1", False),
        ("2015-06-01T12:00:00+00:00", "2001:db8::1", False),
        ("2015-06-01T14:00:00+02:00", "2001:db8::1", False),
        ("2015-06-01T12:00:00Z", "2001:DB8::1", False),
        ("2015-06-01T12:00:00Z", "2001:0db8::1", False),
        ("2015-06-01T12:00:00Z", "::ffff:1.2.3.4", False),
        ("2015-06-01T12:00:00Z", " 10.0.0.1", False),
        ("2015-06-01T12:00:00Z", "10.0.0.1\r", False),
    ])
    def test_spellings(self, ts_text, ip_text, passes):
        line = f"{ts_text}\tenwiki\t{ip_text}"
        (record,) = read_records([line + "\n"])
        assert format_record(record) == _formatted_anew(record)
        assert (record._text is not None) == passes
        with io.BytesIO() as sink:  # extract writes the same bytes from the dump's text
            xml = _mini_dump(
                f"    <revision><id>1</id><timestamp>{ts_text}</timestamp>"
                f"<contributor><ip>{ip_text}</ip></contributor></revision>\n"
            )
            write_records(parse_dump_stream(io.BytesIO(xml), SiteId.from_code("enwiki")), sink)
            assert sink.getvalue().decode().splitlines()[1] == _formatted_anew(record)

    def test_zone_index_is_a_bad_row(self):
        rows = read_records([RECORD_HEADER + "\n", f"{_TS}\tenwiki\t10.0.0.1\n", f"{_TS}\tenwiki\tfe80::1%eth0\n"])
        next(rows)
        with pytest.raises(BadRow) as err:
            next(rows)
        assert err.value.lineno == 3


class TestRecordApi:
    """EditRecord and AttributedRecord keep the frozen-dataclass behaviour of their public fields."""

    SITE = SiteId.from_code("enwiki")
    TS = datetime(2015, 6, 1, 12, tzinfo=timezone.utc)

    @pytest.mark.parametrize("ip", [ip_address("10.0.0.1"), ip_address("2001:db8::1"), ip_address("::1"),
                                    ip_address("::ffff:1.2.3.4"), ip_address("0.0.0.1")])
    def test_edit_record(self, ip):
        record = EditRecord(self.TS, self.SITE, ip)
        assert (record.timestamp, record.site, record.ip) == (self.TS, self.SITE, ip)
        assert type(record.ip) is type(ip)
        same = EditRecord(self.TS, self.SITE, ip_address(str(ip)))
        assert record == same and hash(record) == hash(same)
        assert hash(record) == hash((self.TS, self.SITE, ip))
        assert record != EditRecord(self.TS + timedelta(seconds=1), self.SITE, ip)
        assert repr(record) == f"EditRecord(timestamp={self.TS!r}, site={self.SITE!r}, ip={ip!r})"
        for name in ("timestamp", "site", "ip"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_versions_stay_apart(self):
        v4 = EditRecord(self.TS, self.SITE, ip_address("0.0.0.1"))
        v6 = EditRecord(self.TS, self.SITE, ip_address("::1"))
        assert v4 != v6 and v4.key != v6.key
        assert len({v4, v6}) == 2

    def test_decoded_equals_constructed(self):
        (decoded,) = read_records([f"{_TS}\tenwiki\t2001:db8::1\n"])
        assert decoded == EditRecord(parse_timestamp(_TS), self.SITE, ip_address("2001:db8::1"))

    def test_attributed_record(self):
        origin = OriginAs.from_asn(64500)
        ip = ip_address("2001:db8::1")
        record = AttributedRecord(self.TS, self.SITE, ip, origin, -5)
        assert (record.timestamp, record.site, record.ip, record.origin, record.snapshot_delta_s) == (
            self.TS, self.SITE, ip, origin, -5
        )
        same = AttributedRecord(self.TS, self.SITE, ip_address("2001:db8::1"), OriginAs.parse("64500"), -5)
        assert record == same and hash(record) == hash(same)
        assert hash(record) == hash((self.TS, self.SITE, ip, origin, -5))
        assert record != AttributedRecord(self.TS, self.SITE, ip, origin, 5)
        assert record != EditRecord(self.TS, self.SITE, ip)
        assert repr(record) == (
            f"AttributedRecord(timestamp={self.TS!r}, site={self.SITE!r}, ip={ip!r}, "
            f"origin={origin!r}, snapshot_delta_s=-5)"
        )
        for name in ("timestamp", "site", "ip", "origin", "snapshot_delta_s"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        (read,) = read_attributed([f"{_TS}\tenwiki\t2001:db8::1\t64500\t-5\n"])
        assert read == AttributedRecord(parse_timestamp(_TS), self.SITE, ip, origin, -5)
