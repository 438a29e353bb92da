import hashlib
import json
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timedelta, timezone
from ipaddress import ip_address, ip_network
from pathlib import Path

import pytest

import mrt_synth as synth
import oracles
from corpus import synth_corpus, synth_hitlist
from wikiv6 import analytics, cli, forkjobs, netaddr, ribstore
from wikiv6.cli import (
    ConfigError,
    PipelineConfig,
    external_sort_lines,
    infer_site,
    load_config,
    main,
    parse_namespaces,
    validate_config,
)
from wikiv6.netaddr import load_oui_database


# The workers block of a stage's stats when no child was started.
IN_PROCESS = {"children_started": 0, "blocked_s": 0, "children_cpu_s": 0}


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_load_and_overrides(self, tmp_path, fixture_dump, oui_csv):
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(
            "# comment\n"
            f"dump = {fixture_dump}\n"
            f"oui = {oui_csv}\n"
            f"out = {tmp_path / 'out'}\n"
            "top_k = 3\n"
            "top_vendors = 2\n"
            "namespaces = 0,1\n"
            f"site.{fixture_dump.name} = enwiki\n",
            encoding="utf-8",
        )
        cfg = load_config(str(cfg_path))
        assert cfg.dumps == [str(fixture_dump)]
        assert cfg.top_k == 3
        assert cfg.namespaces == [0, 1]
        assert infer_site(str(fixture_dump), cfg.site_overrides).code == "enwiki"
        validate_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("nonsense = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(cfg_path))

    def test_missing_paths_rejected(self, tmp_path):
        cfg = PipelineConfig(dumps=[str(tmp_path / "nope.xml")])
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_negative_top_k_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(PipelineConfig(top_k=-1))

    def test_namespace_parse(self):
        assert parse_namespaces("0,1,2") == [0, 1, 2]
        with pytest.raises(ConfigError):
            parse_namespaces("0,x")

    @pytest.mark.parametrize(
        "line", ["top_k = abc", "top_vendors = 1.5", "namespaces = 1,x", "top_k = -1", "top_vendors = -3"]
    )
    def test_bad_value_names_its_file_and_line(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"# comment\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(str(cfg_path))
        key, _, value = line.partition(" = ")
        message = "must be >= 0" if value.startswith("-") else "invalid literal for int()"
        assert str(info.value).startswith(f"{cfg_path}:2: {key}: ") and message in str(info.value)
        assert run_cli("report", "all", "--config", str(cfg_path), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"wikiv6: {info.value}\n"

    def test_site_inference(self):
        assert infer_site("dumps/enwiki-20241201-pages-meta-history1.xml", {}).code == "enwiki"
        assert infer_site("fixturewiki.xml", {}).code == "fixturewiki"


class TestExternalSort:
    def test_matches_in_memory_sort(self, tmp_path):
        import random

        rng = random.Random(3)
        lines = [f"{rng.randrange(10**9):09d}\tsite\t10.0.0.{i % 250}\n" for i in range(5000)]
        src_a = tmp_path / "a.tsv"
        src_b = tmp_path / "b.tsv"
        src_a.write_text("h\n" + "".join(lines[:2500]), encoding="utf-8")
        src_b.write_text("h\n" + "".join(lines[2500:]), encoding="utf-8")
        out = tmp_path / "merged.tsv"
        total = external_sort_lines([str(src_a), str(src_b)], str(out), "h", chunk_lines=700)
        assert total == 5000
        got = out.read_text(encoding="utf-8").splitlines()
        assert got[0] == "h"
        assert got[1:] == sorted(line.rstrip("\n") for line in lines)

    @pytest.mark.parametrize("chunk_lines", [2000, 500, 64], ids=["no-spill", "exact-multiple", "many-spills"])
    def test_chunk_sizes_merge_and_remove_spills(self, tmp_path, monkeypatch, chunk_lines):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        lines = [f"{i * 7919 % 1000:03d}\tsite\n" for i in range(1000)]
        src_a = tmp_path / "a.tsv"
        src_b = tmp_path / "b.tsv"
        src_a.write_text("h\n" + "".join(lines[:600]), encoding="utf-8")
        src_b.write_text("h\n" + "".join(lines[600:]), encoding="utf-8")
        out = tmp_path / "merged.tsv"
        assert external_sort_lines([str(src_a), str(src_b)], str(out), "h", chunk_lines=chunk_lines) == 1000
        assert out.read_text(encoding="utf-8") == "h\n" + "".join(sorted(lines))
        assert not list(tmp_path.glob("wikiv6-sort-*"))

    def test_failing_source_removes_spills(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        good = tmp_path / "a.tsv"
        good.write_text("h\n1\n2\n3\n4\n5\n", encoding="utf-8")
        bad = tmp_path / "b.tsv"
        bad.write_bytes(b"h\n\xff\n")
        with pytest.raises(UnicodeDecodeError):
            external_sort_lines([str(good), str(bad)], str(tmp_path / "merged.tsv"), "h", chunk_lines=2)
        assert not list(tmp_path.glob("wikiv6-sort-*"))


class TestExtract:
    def test_fixture_golden(self, tmp_path, fixture_dump, golden_records, golden_stats):
        out = tmp_path / "out"
        stats_path = tmp_path / "stats.json"
        code = run_cli("extract", str(fixture_dump), "--out", str(out), "--stats", str(stats_path))
        assert code == 0
        per_dump = out / (fixture_dump.stem + ".records.tsv")
        assert per_dump.read_bytes() == golden_records.read_bytes()
        stats = json.loads(stats_path.read_text())
        assert stats["files"][fixture_dump.name] == json.loads(golden_stats.read_text())
        assert (out / "manifest.json").exists()

    def test_zero_inputs_is_usage_error(self, tmp_path, capsys):
        code = run_cli("extract", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "no inputs" in capsys.readouterr().err

    def test_two_dumps_merge_sorted(self, tmp_path, fixture_dump, dewiki_dump):
        out = tmp_path / "out"
        code = run_cli(
            "extract", str(fixture_dump), str(dewiki_dump),
            "--out", str(out), "--stats", str(tmp_path / "s.json"),
        )
        assert code == 0
        merged = (out / "records.tsv").read_text(encoding="utf-8").splitlines()
        assert merged[0] == "timestamp\tsite\tip"
        body = merged[1:]
        assert body == sorted(body)  # (timestamp, site, ip) lexicographic == tuple order
        assert len(body) == 42  # 37 + 5

    def test_malformed_dump_fails(self, tmp_path, fixture_dump):
        bad = tmp_path / "npwiki-bad.xml"
        bad.write_text("<mediawiki><page><revision></page>", encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli("extract", str(bad), "--out", str(out), "--stats", str(tmp_path / "s.json"))
        assert code == 1

    def test_dump_read_error_fails_cleanly(self, tmp_path, fixture_dump, monkeypatch, capsys):
        def failing_parse(xml, site, namespaces=None, stats=None):
            raise OSError(5, "Input/output error")
            yield

        monkeypatch.setattr(cli, "parse_dump_stream", failing_parse)
        out = tmp_path / "out"
        code = run_cli("extract", str(fixture_dump), "--out", str(out), "--stats", str(tmp_path / "s.json"))
        assert code == 1
        assert f"extract: {fixture_dump}: [Errno 5] Input/output error" in capsys.readouterr().err

    def test_keep_going_past_failures(self, tmp_path, fixture_dump):
        bad = tmp_path / "npwiki-bad.xml"
        bad.write_text("<mediawiki><page><revision></page>", encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            "extract", str(bad), str(fixture_dump), "--keep-going",
            "--out", str(out), "--stats", str(tmp_path / "s.json"),
        )
        assert code == 1  # failure reported even though the run continued
        merged = (out / "records.tsv").read_text(encoding="utf-8").splitlines()
        assert len(merged) == 38  # header + fixture records
        assert not (out / "npwiki-bad.records.tsv").exists()
        assert not list(out.glob("*.tmp"))

    def test_dumps_that_share_an_output_name_are_a_usage_error(self, tmp_path, fixture_dump, capsys):
        other = tmp_path / "elsewhere" / fixture_dump.name
        other.parent.mkdir()
        other.write_bytes(fixture_dump.read_bytes())
        out = tmp_path / "out"
        assert run_cli("extract", str(fixture_dump), str(other), "--out", str(out)) == 2
        name = fixture_dump.stem + ".records.tsv"
        assert capsys.readouterr().err == (
            f"extract: {other}: its records would overwrite {name}, written for {fixture_dump}\n"
        )
        assert not out.exists()

    def test_manifest_digests_read_each_dump_once(self, tmp_path, fixture_dump, dewiki_dump, monkeypatch):
        bad = tmp_path / "npwiki-bad.xml"
        bad.write_bytes(b"<mediawiki><page><revision></page>" + b"<!-- trailing bytes past the error -->" * 5000)
        dumps = [str(fixture_dump), str(bad), str(dewiki_dump)]
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        out = tmp_path / "out"
        code = run_cli("extract", *dumps, "--keep-going", "--out", str(out), "--stats", str(tmp_path / "s.json"))
        assert code == 1
        assert sorted(path for path in opened if path in dumps) == sorted(dumps)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {
            path: "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in dumps
        }


def _write_ribs(tmp_path):
    """Two prefix-table snapshots bracketing the fixture timestamps."""
    early = tmp_path / "rib-2014.tsv"
    early.write_text(
        "# captured_at=2014-01-01T00:00:00Z\n"
        "2001:db8::/32\t64500\n"
        "84.160.0.0/16\t3320\n",
        encoding="utf-8",
    )
    late = tmp_path / "rib-2020.tsv"
    late.write_text(
        "# captured_at=2020-01-01T00:00:00Z\n"
        "2001:db8::/32\t64501\n"
        "2409:4042::/32\t55836\n"
        "2600:1700::/28\t7018\n"
        "2405:201::/32\tset:55836,55837\n",
        encoding="utf-8",
    )
    return [str(early), str(late)]


class TestAttribute:
    def test_against_nested_loop_oracle(self, tmp_path, fixture_dump, dewiki_dump):
        out = tmp_path / "out"
        assert run_cli(
            "extract", str(fixture_dump), str(dewiki_dump),
            "--out", str(out), "--stats", str(tmp_path / "s.json"),
        ) == 0
        ribs = _write_ribs(tmp_path)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("".join(f"rib = {r}\n" for r in ribs) + f"out = {out}\n", encoding="utf-8")
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json")) == 0

        snapshots = []
        for rib in ribs:
            lines = Path(rib).read_text(encoding="utf-8").splitlines()
            captured = datetime.strptime(lines[0].split("=")[1], "%Y-%m-%dT%H:%M:%SZ").replace(
                tzinfo=timezone.utc
            )
            entries = []
            for line in lines[1:]:
                prefix, origin = line.split("\t")
                entries.append((ip_network(prefix), origin))
            snapshots.append((captured, entries))

        got = (out / "attributed.tsv").read_text(encoding="utf-8").splitlines()
        assert got[0] == "timestamp\tsite\tip\torigin\tdelta_s"
        for line in got[1:]:
            ts_text, _site, ip_text, origin_text, delta_text = line.split("\t")
            ts = datetime.strptime(ts_text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
            captured, entries = min(
                snapshots, key=lambda s: (abs((s[0] - ts).total_seconds()), s[0])
            )
            ip = ip_address(ip_text)
            best, best_len = "unrouted", -1
            for prefix, origin in entries:
                if prefix.version == ip.version and ip in prefix and prefix.prefixlen > best_len:
                    best, best_len = origin, prefix.prefixlen
            assert origin_text == best, line
            assert int(delta_text) == int((ts - captured).total_seconds())

    def test_all_unrouted_valid_with_note(self, tmp_path, fixture_dump):
        out = tmp_path / "out"
        run_cli("extract", str(fixture_dump), "--out", str(out), "--stats", str(tmp_path / "s.json"))
        rib = tmp_path / "empty.tsv"
        rib.write_text("# captured_at=2018-01-01T00:00:00Z\n", encoding="utf-8")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"rib = {rib}\nout = {out}\n", encoding="utf-8")
        stats_path = tmp_path / "a.json"
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(stats_path)) == 0
        summary = json.loads(stats_path.read_text())
        assert summary["records"] == 37
        assert summary["unrouted"] == 37
        assert summary["unrouted_fraction"] == 1.0

    def test_missing_ribs_is_usage_error(self, tmp_path, fixture_dump, capsys):
        out = tmp_path / "out"
        run_cli("extract", str(fixture_dump), "--out", str(out), "--stats", str(tmp_path / "s.json"))
        code = run_cli("attribute", "--out", str(out))
        assert code == 2
        assert "timeline" in capsys.readouterr().err

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        records = _write_records(tmp_path, b"2015-05-01T12:00:00Z\tenwiki\t2001:db8::2")  # older than row 1
        out = tmp_path / "out"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"rib = {_write_ribs(tmp_path)[0]}\nrecords = {records}\nout = {out}\n", encoding="utf-8"
        )
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json")) == 1
        assert capsys.readouterr().err == (
            f"attribute: {records}: record at 2015-05-01T12:00:00Z after 2015-06-01T12:00:00Z;"
            " run extract's merge step first\n"
        )
        assert [p.name for p in out.iterdir()] == []
        assert run_cli("report", "weekly_by_as", "--config", str(cfg)) == 2

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 4: report reads the attributed.tsv of the last good attribute run after a failed rerun",
    )
    def test_report_after_a_failed_rerun_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "p.cfg"
        records = _write_records(tmp_path, b"2015-06-02T12:00:00Z\tenwiki\t2001:db8::2")
        cfg.write_text(f"rib = {_write_ribs(tmp_path)[0]}\nrecords = {records}\nout = {out}\n", encoding="utf-8")
        first = run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json"))
        _write_records(tmp_path, b"2015-05-01T12:00:00Z\tenwiki\t2001:db8::2")  # older than row 1
        second = run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json"))
        if (first, second) != (0, 1):
            pytest.fail(f"attribute exited {first}, then {second}")
        # Today report exits 0, and weekly_by_as.csv holds the first run's "2015-W23,64500,2".
        assert run_cli("report", "weekly_by_as", "--config", str(cfg)) == 1

    def test_two_hourly_snapshots_keep_median_delta_under_hour(self, tmp_path):
        start = datetime(2021, 5, 1, tzinfo=timezone.utc)
        rib_paths = []
        for i in range(13):
            captured = start + timedelta(hours=2 * i)
            path = tmp_path / f"rib{i:02d}.tsv"
            path.write_text(
                f"# captured_at={captured.strftime('%Y-%m-%dT%H:%M:%SZ')}\n2001:db8::/32\t64500\n",
                encoding="utf-8",
            )
            rib_paths.append(path)
        records = tmp_path / "records.tsv"
        import random

        rng = random.Random(10)
        rows = sorted(
            start + timedelta(seconds=rng.randrange(0, 24 * 3600)) for _ in range(500)
        )
        records.write_text(
            "timestamp\tsite\tip\n"
            + "".join(
                f"{t.strftime('%Y-%m-%dT%H:%M:%SZ')}\tenwiki\t2001:db8::{i:x}\n"
                for i, t in enumerate(rows, 1)
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        out.mkdir()
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "".join(f"rib = {p}\n" for p in rib_paths) + f"out = {out}\nrecords = {records}\n",
            encoding="utf-8",
        )
        stats_path = tmp_path / "a.json"
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(stats_path)) == 0
        summary = json.loads(stats_path.read_text())
        assert summary["abs_delta_s"]["median"] <= 3600
        assert summary["abs_delta_s"]["max"] <= 3600  # full coverage: never beyond midpoint

    def test_abs_delta_buckets(self, tmp_path):
        rib = tmp_path / "rib.tsv"
        rib.write_text("# captured_at=2015-01-01T00:00:00Z\n2001:db8::/32\t64500\n", encoding="utf-8")
        records = tmp_path / "records.tsv"
        records.write_text(
            "timestamp\tsite\tip\n"
            "2015-01-01T02:00:00Z\tenwiki\t2001:db8::1\n"  # 2 h after the snapshot
            "2015-01-03T00:00:00Z\tenwiki\t2001:db8::2\n"  # 2 d
            "2015-02-10T00:00:00Z\tenwiki\t2001:db8::3\n",  # 40 d
            encoding="utf-8",
        )
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"rib = {rib}\nrecords = {records}\nout = {tmp_path / 'out'}\n", encoding="utf-8")
        stats_path = tmp_path / "a.json"
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(stats_path)) == 0
        deltas = json.loads(stats_path.read_text(encoding="utf-8"))["abs_delta_s"]
        assert deltas["buckets"] == {"le_1h": 0, "le_1d": 1, "le_30d": 1, "gt_30d": 1}
        assert (deltas["min"], deltas["median"], deltas["max"]) == (7200, 2 * 86_400, 40 * 86_400)


class TestReport:
    @pytest.fixture
    def pipeline(self, tmp_path, fixture_dump, dewiki_dump, oui_csv, hitlist_tsv):
        out = tmp_path / "out"
        assert run_cli(
            "extract", str(fixture_dump), str(dewiki_dump),
            "--out", str(out), "--stats", str(tmp_path / "s.json"),
        ) == 0
        ribs = _write_ribs(tmp_path)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "".join(f"rib = {r}\n" for r in ribs)
            + f"out = {out}\noui = {oui_csv}\nhitlist = {hitlist_tsv}\n",
            encoding="utf-8",
        )
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json")) == 0
        return cfg, out

    def test_report_all_matches_oracle(self, pipeline, oui_csv, hitlist_tsv):
        cfg, out = pipeline
        assert run_cli("report", "all", "--config", str(cfg)) == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert len(csvs) == 10
        expected = oracles.oracle_all_tables(
            (out / "attributed.tsv").read_text(encoding="utf-8"),
            oui_csv.read_text(encoding="utf-8"),
            hitlist_tsv.read_text(encoding="utf-8").splitlines(keepends=True),
            top_k=5,
            top_vendors=8,
        )
        for name, want in expected.items():
            got = (out / f"{name}.csv").read_text(encoding="utf-8")
            assert got == want, f"table {name} diverges from oracle"

    def test_records_out_of_time_order_give_the_same_tables(self, pipeline, tmp_path):
        cfg, out = pipeline
        assert run_cli("report", "all", "--config", str(cfg)) == 0
        header, *rows = (out / "attributed.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(9).shuffle(rows)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text(header + "".join(rows), encoding="utf-8")
        assert shuffled.read_bytes() != (out / "attributed.tsv").read_bytes()
        unsorted_out = tmp_path / "unsorted"
        unsorted_cfg = tmp_path / "unsorted.cfg"
        unsorted_cfg.write_text(
            cfg.read_text(encoding="utf-8") + f"attributed = {shuffled}\nout = {unsorted_out}\n", encoding="utf-8"
        )
        assert run_cli("report", "all", "--config", str(unsorted_cfg)) == 0
        for name in analytics.TABLE_NAMES:
            for suffix in (".csv", ".json"):
                assert (unsorted_out / f"{name}{suffix}").read_bytes() == (out / f"{name}{suffix}").read_bytes()

    def test_records_from_a_fifo(self, pipeline, tmp_path):
        # Read once, as it streams, and left unhashed in the manifest.
        cfg, out = pipeline
        assert run_cli("report", "weekly_by_version", "--config", str(cfg)) == 0
        fifo = tmp_path / "attributed.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=((out / "attributed.tsv").read_bytes(),), daemon=True)
        writer.start()
        piped = tmp_path / "piped"
        fifo_cfg = tmp_path / "fifo.cfg"
        fifo_cfg.write_text(cfg.read_text(encoding="utf-8") + f"attributed = {fifo}\nout = {piped}\n", encoding="utf-8")
        assert run_cli("report", "weekly_by_version", "--config", str(fifo_cfg)) == 0
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert (piped / "weekly_by_version.csv").read_bytes() == (out / "weekly_by_version.csv").read_bytes()
        manifest = json.loads((piped / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {str(fifo): "unhashed:not-a-regular-file"}

    def test_cumulative_series_built_once(self, pipeline, monkeypatch):
        cfg, out = pipeline
        real, calls = cli.cumulative_by_week, []
        monkeypatch.setattr(cli, "cumulative_by_week", lambda agg: calls.append(agg) or real(agg))
        assert run_cli("report", "all", "--config", str(cfg)) == 0
        assert len(calls) == 1
        together = {name: (out / f"{name}.csv").read_bytes() for name in ("cumulative_prefixes", "ratio_per_48")}
        for name, table in together.items():
            assert run_cli("report", name, "--config", str(cfg)) == 0
            assert (out / f"{name}.csv").read_bytes() == table

    def test_stats_path_is_written(self, pipeline, oui_csv, hitlist_tsv, capsys):
        cfg, out = pipeline
        capsys.readouterr()
        stats_path = out.parent / "r.json"
        assert run_cli("report", "all", "--config", str(cfg), "--stats", str(stats_path)) == 0
        # Only the fixture's two bad hitlist rows are reported on stderr; the stats are not.
        assert capsys.readouterr().err == "report: skipped 2 malformed hitlist row(s)\n"
        summary = json.loads(stats_path.read_text(encoding="utf-8"))
        rows = (out / "attributed.tsv").read_text(encoding="utf-8").splitlines()[1:]
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        with open(hitlist_tsv, encoding="utf-8") as fh:
            entries, skipped = analytics.read_hitlist(fh)
        assert summary == {
            "records": len(rows),
            "oui": {"entries": len(db), "bad_rows": db.bad_rows, "duplicate_rows": db.duplicate_rows},
            "hitlist": {"entries": len(entries), "skipped_rows": skipped},
            "workers": IN_PROCESS,
        }
        assert summary["records"] > 0 and summary["oui"]["entries"] > 0 and summary["hitlist"]["entries"] > 0

    def test_single_table(self, pipeline):
        cfg, out = pipeline
        for stale in out.glob("*.csv"):
            stale.unlink()
        assert run_cli("report", "weekly_by_version", "--config", str(cfg)) == 0
        assert [p.name for p in out.glob("*.csv")] == ["weekly_by_version.csv"]

    def test_rerun_byte_identical(self, pipeline):
        cfg, out = pipeline
        assert run_cli("report", "all", "--config", str(cfg)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert run_cli("report", "all", "--config", str(cfg)) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert first == second

    def test_unknown_table_lists_valid_names(self, pipeline, capsys):
        cfg, _out = pipeline
        code = run_cli("report", "nope", "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert "weekly_by_version" in err and "hitlist_overlap" in err

    def test_compare_hitlist_alias(self, pipeline):
        cfg, out = pipeline
        for stale in out.glob("*.csv"):
            stale.unlink()
        assert run_cli("compare-hitlist", "--config", str(cfg)) == 0
        assert (out / "hitlist_overlap.csv").exists()

    def test_weekly_by_as_needs_attributed(self, tmp_path, fixture_dump, capsys):
        out = tmp_path / "out"
        run_cli("extract", str(fixture_dump), "--out", str(out), "--stats", str(tmp_path / "s.json"))
        code = run_cli("report", "weekly_by_as", "--out", str(out))
        assert code == 2
        assert "attribute" in capsys.readouterr().err

    def test_json_outputs_parse(self, pipeline):
        cfg, out = pipeline
        assert run_cli("report", "all", "--config", str(cfg)) == 0
        for path in out.glob("*.json"):
            if path.name == "manifest.json":
                continue
            rows = json.loads(path.read_text(encoding="utf-8"))
            assert isinstance(rows, list)

    def test_manifest_contents(self, pipeline):
        cfg, out = pipeline
        assert run_cli("report", "all", "--config", str(cfg)) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["tool"] == "wikiv6"
        assert manifest["command"] == "report"
        assert all(digest.startswith("sha256:") for digest in manifest["inputs"].values())

    @pytest.mark.parametrize("failing", ["builder", "render"])
    def test_failed_report_leaves_no_partial_output(self, pipeline, monkeypatch, failing):
        cfg, out = pipeline

        def fail(*args, **kwargs):
            raise RuntimeError("table failed")

        if failing == "builder":
            monkeypatch.setattr(cli, "table_lifetimes", fail)
        else:
            monkeypatch.setattr(analytics.ReportTable, "to_json", fail)
        before = sorted(p.name for p in out.iterdir())
        with pytest.raises(RuntimeError):
            run_cli("report", "lifetimes", "--config", str(cfg))
        after = sorted(p.name for p in out.iterdir())
        assert not list(out.glob("*.tmp"))
        assert after == before  # a failed run commits none of its outputs


class TestUnwritableOutput:
    """An output that cannot be written ends in exit 1 and one `<stage>:` line."""

    def _fails_cleanly(self, argv, capsys, blocked):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{argv[0]}: ") and blocked.name in err[0], err
        assert blocked.is_dir()
        assert not [p for p in blocked.parent.glob("*.tmp") if p.is_file()]

    @pytest.mark.parametrize("name", ["records.tsv.tmp", "manifest.json", "st.json"])
    def test_extract(self, tmp_path, fixture_dump, capsys, name):
        out = tmp_path / "out"
        # A stats path that is itself a directory is a usage error (TestStatsPathChecked),
        # so the stats output is blocked where it is written: at its .tmp.
        blocked = tmp_path / "st.json.tmp" if name == "st.json" else out / name
        blocked.mkdir(parents=True)
        argv = ["extract", str(fixture_dump), "--out", str(out), "--stats", str(tmp_path / "st.json")]
        self._fails_cleanly(argv, capsys, blocked)
        if name == "st.json":  # the stats are written before the merged records attribute reads
            assert not (out / "records.tsv").exists()

    def test_attribute_stats(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"rib = {_write_ribs(tmp_path)[0]}\nrecords = {_write_records(tmp_path)}\nout = {out}\n",
                       encoding="utf-8")
        blocked = tmp_path / "st.json.tmp"
        blocked.mkdir()
        self._fails_cleanly(["attribute", "--config", str(cfg), "--stats", str(tmp_path / "st.json")], capsys, blocked)
        # The stats are written before attributed.tsv is committed for report to read.
        assert list(out.iterdir()) == []

    def test_report(self, tmp_path, fixture_dump, capsys):
        out = tmp_path / "out"
        assert run_cli("extract", str(fixture_dump), "--out", str(out), "--stats", str(tmp_path / "s.json")) == 0
        # The first table's first file, then the second table's last file, after the first table is written.
        for tables, name in (
            (["weekly_by_version"], "weekly_by_version.csv.tmp"),
            (["weekly_by_version", "site_fraction"], "site_fraction.json.tmp"),
        ):
            blocked = out / name
            blocked.mkdir()
            self._fails_cleanly(["report", *tables, "--out", str(out)], capsys, blocked)
            blocked.rmdir()
            assert not list(out.glob("weekly_by_version.*"))


class TestStatsPathChecked:
    """A --stats path that is a directory, or whose directory does not exist, is a
    usage error found before the stage starts: no output or .tmp is written."""

    STAGES = {"extract": [], "attribute": [], "report": ["weekly_by_version"]}

    @staticmethod
    def _files(out):
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}

    @pytest.mark.parametrize("where", ["missing-directory", "output-directory", "other-directory"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_usage_error_and_outputs_untouched(self, tmp_path, fixture_dump, capsys, stage, where):
        out = tmp_path / "out"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"dump = {fixture_dump}\nrib = {_write_ribs(tmp_path)[0]}\nout = {out}\n", encoding="utf-8")
        for setup, args in self.STAGES.items():
            assert run_cli(setup, *args, "--config", str(cfg), "--stats", str(tmp_path / f"{setup}.json")) == 0
        (tmp_path / "other").mkdir()
        stats = {"missing-directory": tmp_path / "missing" / "s.json", "output-directory": out,
                 "other-directory": tmp_path / "other"}[where]
        before = self._files(out)
        capsys.readouterr()
        assert run_cli(stage, *self.STAGES[stage], "--config", str(cfg), "--stats", str(stats)) == 2
        assert capsys.readouterr().err == f"wikiv6: --stats must name a file in an existing directory: {stats}\n"
        assert self._files(out) == before
        assert not list(tmp_path.rglob("*.tmp"))

    def test_file_in_the_output_directory_the_stage_creates(self, tmp_path, fixture_dump):
        out = tmp_path / "fresh" / "out"
        assert run_cli("extract", str(fixture_dump), "--out", str(out), "--stats", str(out / "s.json")) == 0
        assert fixture_dump.name in json.loads((out / "s.json").read_text(encoding="utf-8"))["files"]


class _Renames:
    """``os.replace``, patched to list the names it renames to and to call `fail` at call `at`."""

    def __init__(self, monkeypatch):
        self.names, self.at, self.fail = [], 0, None
        real = os.replace

        def replace(src, dst):
            self.names.append(Path(dst).name)
            if len(self.names) == self.at:
                self.fail()
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    def arm(self, at, fail):
        self.names, self.at, self.fail = [], at, fail


def _injected_error():
    raise OSError(5, "Input/output error")


class TestCrashPoints:
    """Each stage after a good run A, with run B on other inputs cut at every rename
    of its commit: the persistence points of Pillai et al., "All File Systems Are
    Not Created Equal" (OSDI 2014), limited to process crashes. A rename that
    raises leaves each file whole, A's or B's, and A's manifest; a hard exit at a
    rename leaves what a rerun of B replaces with the bytes of a clean B run."""

    # Each stage's outputs, in the order they are committed: after the stats, before the manifest.
    STAGES = {
        "extract": [
            "fixturewiki-20241201-pages-meta-history1.records.tsv",
            "dewiki-20241201-pages-meta-history1.records.tsv",
            "records.tsv",
        ],
        "attribute": ["attributed.tsv"],
        "report": ["weekly_by_version.csv", "weekly_by_version.json", "site_fraction.csv", "site_fraction.json"],
    }

    @staticmethod
    def _runs(stage, tmp_path, fixture_dump, dewiki_dump):
        """The argv of runs A and B of `stage`, which write the same files from other inputs."""
        out = tmp_path / "out"
        stats = ["--stats", str(out / "s.json")]
        runs = []
        for run in ("a", "b"):
            folder = tmp_path / run
            folder.mkdir()
            if stage == "extract":
                for seed, dump in enumerate((fixture_dump, dewiki_dump), 1):
                    site = dump.name.partition("-")[0]
                    xml = dump.read_bytes() if run == "a" else _dump_xml(site, 4, seed).encode()
                    (folder / dump.name).write_bytes(xml)
                runs.append(["extract", *(str(folder / d.name) for d in (fixture_dump, dewiki_dump)),
                             "--out", str(out), *stats])
                continue
            records = folder / "records.tsv"
            text = _records_text([0]) if run == "a" else _records_text([1, 9]).replace("enwiki\t10.0", "dewiki\t10.0")
            records.write_text(text, encoding="utf-8")
            cfg = folder / "p.cfg"
            ribs = "".join(f"rib = {rib}\n" for rib in _write_ribs(folder))
            cfg.write_text(f"{ribs}records = {records}\nout = {out}\n", encoding="utf-8")
            tables = ["weekly_by_version", "site_fraction"] if stage == "report" else []
            runs.append([stage, *tables, "--config", str(cfg), *stats])
        return (*runs, out)

    @staticmethod
    def _files(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def _setup(self, stage, tmp_path, monkeypatch, fixture_dump, dewiki_dump):
        """Runs A and B, the names B renames to in order, B's files from a clean
        run, and the patched ``os.replace``."""
        run_a, run_b, out = self._runs(stage, tmp_path, fixture_dump, dewiki_dump)
        renames = _Renames(monkeypatch)
        assert run_cli(*run_b) == 0
        order = renames.names
        assert order == ["s.json", *self.STAGES[stage], "manifest.json"]
        clean_b = self._files(out)
        assert sorted(clean_b) == sorted(order)
        return run_a, run_b, out, renames, order, clean_b

    def _after_run_a(self, run_a, out):
        shutil.rmtree(out)
        assert run_cli(*run_a) == 0
        return self._files(out)

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_rename_that_raises(self, tmp_path, monkeypatch, capsys, fixture_dump, dewiki_dump, stage):
        run_a, run_b, out, renames, order, clean_b = self._setup(stage, tmp_path, monkeypatch, fixture_dump, dewiki_dump)
        for k in range(1, len(order) + 1):
            good = self._after_run_a(run_a, out)
            assert all(good[name] != clean_b[name] for name in good)
            capsys.readouterr()
            renames.arm(k, _injected_error)
            assert run_cli(*run_b) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"{stage}: "), err
            assert not list(tmp_path.rglob("*.tmp"))
            now = self._files(out)
            assert now.keys() == good.keys() and now["manifest.json"] == good["manifest.json"]
            assert all(now[name] in (good[name], clean_b[name]) for name in now)
            assert {name for name in now if now[name] == clean_b[name]} == set(order[: k - 1])

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_hard_exit_at_a_rename(self, tmp_path, monkeypatch, fixture_dump, dewiki_dump, stage):
        run_a, run_b, out, renames, order, clean_b = self._setup(stage, tmp_path, monkeypatch, fixture_dump, dewiki_dump)
        for k in range(1, len(order) + 1):
            self._after_run_a(run_a, out)
            pid = os.fork()
            if pid == 0:
                try:
                    renames.arm(k, lambda: os._exit(7))
                    run_cli(*run_b)
                finally:
                    os._exit(0)
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 7
            renames.arm(0, None)
            assert run_cli(*run_b) == 0
            assert not list(tmp_path.rglob("*.tmp"))
            assert self._files(out) == clean_b


def _write_records(tmp_path, *extra_rows: bytes):
    records = tmp_path / "records.tsv"
    records.write_bytes(
        b"timestamp\tsite\tip\n2015-06-01T12:00:00Z\tenwiki\t2001:db8::1\n"
        + b"".join(row + b"\n" for row in extra_rows)
    )
    return records


class TestMalformedInput:
    """Unusable input ends in exit 1 and one stderr line naming the file."""

    @pytest.mark.parametrize("stage", ["attribute", "report"])
    @pytest.mark.parametrize(
        "row",
        [b"2015-06-02T12:00:00Z\tenwiki\tnot-an-ip", b"2015-06-02T12:00:00Z\tenwiki\t10.0.0.1\xff"],
        ids=["not-an-ip", "not-utf8"],
    )
    def test_bad_record_row_names_its_line(self, tmp_path, capsys, stage, row):
        records = _write_records(tmp_path, row)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"rib = {_write_ribs(tmp_path)[0]}\nrecords = {records}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        tables = ["weekly_by_version"] if stage == "report" else []
        assert run_cli(stage, *tables, "--config", str(cfg), "--stats", str(tmp_path / "s.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{stage}: {records}: line 3: ")
        assert err.count("\n") == 1

    def test_truncated_snapshot_fails_cleanly(self, tmp_path, capsys):
        rib = tmp_path / "rib.mrt"
        rib.write_bytes(struct.pack(">IHHI", 1433160000, 13, 1, 100) + b"abc")  # 15 bytes
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"rib = {rib}\nrecords = {_write_records(tmp_path)}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json")) == 1
        assert capsys.readouterr().err == f"attribute: {rib}: truncated MRT record at byte 0\n"

    @pytest.mark.parametrize(
        "key,table,make",
        [
            ("oui", "vendor_counts", lambda p: p.write_text("foo,bar\n1,2\n", encoding="utf-8")),
            ("oui", "vendor_counts", lambda p: p.mkdir()),
            ("hitlist", "hitlist_overlap", lambda p: p.mkdir()),
            (
                "oui",
                "vendor_counts",
                lambda p: p.write_bytes(b"Registry,Assignment,Organization Name\nMA-L,001122,Caf\xe9\n"),
            ),
            (
                "oui",
                "vendor_counts",
                lambda p: p.write_text(
                    'Registry,Assignment,Organization Name\nMA-L,001122,"' + "x" * 131073 + '"\n',
                    encoding="utf-8",
                ),
            ),
        ],
        ids=["oui-bad-header", "oui-directory", "hitlist-directory", "oui-not-utf8", "oui-oversized-field"],
    )
    def test_unusable_report_input(self, tmp_path, capsys, key, table, make):
        bad = tmp_path / key
        make(bad)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"{key} = {bad}\nrecords = {_write_records(tmp_path)}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert run_cli("report", table, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"report: {bad}: ")
        assert err.count("\n") == 1

    def test_bad_oui_unread_by_the_requested_table(self, tmp_path, capsys):
        oui = tmp_path / "badoui.csv"
        oui.write_text("foo,bar\n1,2\n", encoding="utf-8")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"oui = {oui}\nrecords = {_write_records(tmp_path)}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert run_cli("report", "weekly_by_version", "--config", str(cfg)) == 0
        # stderr holds only the stage stats, and they show no OUI database was loaded.
        assert json.loads(capsys.readouterr().err) == {"records": 1, "workers": IN_PROCESS}
        assert (tmp_path / "out" / "weekly_by_version.csv").read_text(encoding="utf-8").startswith("week,")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert str(oui) not in manifest["inputs"]

    def test_short_snapshot_names_its_file(self, tmp_path, capsys):
        rib = tmp_path / "short.mrt"
        rib.write_bytes(b"\x00\x01\x02")  # shorter than one MRT header
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"rib = {rib}\nrecords = {_write_records(tmp_path)}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json")) == 1
        assert capsys.readouterr().err == f"attribute: {rib}: truncated MRT record at byte 0\n"

    def test_clashing_capture_times_name_both_files(self, tmp_path, capsys):
        first = _write_ribs(tmp_path)[0]
        second = tmp_path / "copy.tsv"
        second.write_text(Path(first).read_text(encoding="utf-8"), encoding="utf-8")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"rib = {first}\nrib = {second}\nrecords = {_write_records(tmp_path)}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert first in err and str(second) in err and "2014-01-01T00:00:00Z" in err

    def test_non_utf8_hitlist_row_is_skipped(self, tmp_path, capsys):
        hitlist = tmp_path / "hitlist.tsv"
        hitlist.write_bytes(b"2015-06-01\t2001:db8::/32\n2015-06-01\t2001:db8:\xff::/48\n")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"hitlist = {hitlist}\nrecords = {_write_records(tmp_path)}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert run_cli("report", "hitlist_overlap", "--config", str(cfg)) == 0
        message, _, stats = capsys.readouterr().err.partition("\n")
        assert message == "report: skipped 1 malformed hitlist row(s)"
        assert json.loads(stats) == {"records": 1, "hitlist": {"entries": 1, "skipped_rows": 1}, "workers": IN_PROCESS}
        assert (tmp_path / "out" / "hitlist_overlap.csv").read_text(encoding="utf-8") == (
            "month,wikimedia_48s,overlap_48s\n2015-06,1,1\n"
        )

    def test_non_utf8_prefix_table_row_is_skipped(self, tmp_path, capsys):
        table = tmp_path / "rib.tsv"
        table.write_bytes(
            b"# captured_at=2015-06-01T00:00:00Z\n2001:db8::/32\t64500\n2001:db9::/32\t645\xff0\n"
        )
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"rib = {table}\nrecords = {_write_records(tmp_path)}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(tmp_path / "a.json")) == 0
        lines = (tmp_path / "out" / "attributed.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[1].split("\t")[3] == "64500"


def _mrt_with_one_cut_blob(path, ts=1433160000):
    """2001:db8::/32 from three peers; the second peer's AS_PATH is cut two bytes short."""
    good = synth.as_path([(synth.AS_SEQUENCE, [64500, 64501])])
    entries = [synth.rib_entry(0, 0, good), synth.rib_entry(1, 0, good[:-2]), synth.rib_entry(2, 0, good)]
    path.write_bytes(
        synth.mrt_record(ts, 13, 1, synth.peer_index_body(peers=3))
        + synth.mrt_record(ts, 13, 4, synth.rib_unicast_body(1, bytes.fromhex("20010db8"), 32, entries))
    )
    return path


class TestSnapshotStats:
    """attribute's stats carry one row of parse counters per snapshot it loaded."""

    def _run(self, tmp_path):
        mrt = _mrt_with_one_cut_blob(tmp_path / "rib.mrt")  # 2015-06-01T12:00:00Z
        table = tmp_path / "rib-2020.tsv"
        table.write_text("# captured_at=2020-01-01T00:00:00Z\n2001:db8::/32\t64502\nbad row\n", encoding="utf-8")
        unused = tmp_path / "rib-2025.tsv"
        unused.write_text("# captured_at=2025-01-01T00:00:00Z\n", encoding="utf-8")
        records = _write_records(tmp_path, b"2019-12-30T00:00:00Z\tenwiki\t2001:db8::2")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"rib = {mrt}\nrib = {table}\nrib = {unused}\nrecords = {records}\nout = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        stats = tmp_path / "a.json"
        assert run_cli("attribute", "--config", str(cfg), "--stats", str(stats)) == 0
        return json.loads(stats.read_text(encoding="utf-8"))

    EXPECTED = [
        {
            "captured_at": "2015-06-01T12:00:00Z",
            "routes": 1,
            "peer_count": 3,
            "malformed_records": 0,
            "malformed_attributes": 1,
            "skipped_types": 0,
            "skipped_subtypes": 0,
            "bad_rows": 0,
        },
        {
            "captured_at": "2020-01-01T00:00:00Z",
            "routes": 1,
            "peer_count": 0,
            "malformed_records": 0,
            "malformed_attributes": 0,
            "skipped_types": 0,
            "skipped_subtypes": 0,
            "bad_rows": 1,
        },
    ]

    def test_one_row_per_loaded_snapshot(self, tmp_path):
        summary = self._run(tmp_path)
        assert summary["snapshots"] == self.EXPECTED
        assert (summary["records"], summary["unrouted"]) == (2, 0)

    def test_rows_from_timeline_entries_built_by_hand(self, tmp_path, monkeypatch):
        # As a caller with its own loaders would build the timeline.
        def loader(path):
            def load():
                with open(path, "rb") as fh:
                    if fh.read(1) != b"#":
                        fh.seek(0)
                        return ribstore.parse_mrt_rib(fh)
                with open(path, "r", encoding="utf-8") as fh:
                    return ribstore.load_prefix_table(fh)

            return load

        class HandBuilt:
            @staticmethod
            def from_files(paths):
                return ribstore.RibTimeline([
                    ribstore.TimelineEntry(ribstore.RibTimeline.from_files([p]).entries[0].captured_at, loader(p))
                    for p in paths
                ])

        monkeypatch.setattr(cli, "RibTimeline", HandBuilt)
        assert self._run(tmp_path)["snapshots"] == self.EXPECTED


DAY = 86_400
T0 = 1433160000  # 2015-06-01T12:00:00Z


def _stamp(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _records_text(days, ips=("10.1.7.1", "10.0.0.9", "2001:db8:0:2::1", "2001:db8:1::1", "192.0.2.1")) -> str:
    """A record TSV with one row per address in `ips` on each of `days`, seconds apart."""
    return "timestamp\tsite\tip\n" + "".join(
        f"{_stamp(T0 + int(day * DAY) + n)}\tenwiki\t{ip}\n" for day in days for n, ip in enumerate(ips)
    )


class TestJobOutcomes:
    """Jobs through ``cli._job_outcomes``, as every stage runs them."""

    def test_results_in_job_order_and_no_idle_child(self):
        def run(job):
            time.sleep(0.05 * (3 - job))  # later jobs end first
            return ("ok", sum(range(200_000)) + job)

        jobs = forkjobs.ForkedJobs(run, 2)
        outcomes = cli._job_outcomes(jobs, [None] * 3, run, None)
        got = []
        for outcome in outcomes:
            got.append(outcome)
            if len(got) == 3:  # every result taken, before close: no child is left idle
                _assert_no_child_process()
        assert got == [("ok", sum(range(200_000)) + job) for job in range(3)]
        assert jobs.stats.children_started == 2 and jobs.stats.children_cpu_s > 0

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("keep_going", [False, True])
    def test_a_failed_job_stops_the_run_unless_keep_going(self, forked, keep_going):
        def run(job):
            return ("failed", f"job {job} failed") if job == 1 else ("ok", job)

        jobs = forkjobs.ForkedJobs(run, 2) if forked else None
        got = list(cli._job_outcomes(jobs, [None] * 4, run, None, keep_going))
        assert got == [("ok", 0), ("failed", "job 1 failed")] + ([("ok", 2), ("ok", 3)] if keep_going else [])
        _assert_no_child_process()

    def test_a_lost_child_stops_the_run_even_with_keep_going(self, tmp_path):
        parts = [str(tmp_path / f"part{job}") for job in range(4)]

        def run(job):
            Path(f"{parts[job]}.tmp").write_text("partial", encoding="utf-8")
            if job == 0:
                deadline = time.monotonic() + 30
                while not Path(f"{parts[1]}.tmp").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # until the parent kills this child
            return ("ok", job)

        jobs = forkjobs.ForkedJobs(run, 2)
        got = list(cli._job_outcomes(jobs, parts, run, lambda job, exc: f"job {job} {exc}", keep_going=True))
        assert got == [("lost", "job 0 ended without a result (exit status -9)")]
        assert jobs.stats.children_started == 2  # jobs 0 and 1; jobs 2 and 3 never start
        _assert_no_child_process()
        assert list(tmp_path.glob("part*")) == []

    def test_a_none_part_is_never_unlinked(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("None.tmp").write_text("kept", encoding="utf-8")

        def run(job):
            if job == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # until the parent kills this child
            return ("ok", job)

        # Job 0's child is lost, job 1's is killed, and the run stops before job 2.
        jobs = forkjobs.ForkedJobs(run, 2)
        assert list(cli._job_outcomes(jobs, [None] * 3, run, lambda job, exc: "lost")) == [("lost", "lost")]
        _assert_no_child_process()
        assert Path("None.tmp").read_text(encoding="utf-8") == "kept"


_FROM_FILES = ribstore.RibTimeline.from_files


class TestChildSlices:
    """Each snapshot's slice of the records attributed in a forked child gives what the
    in-process run gives: rows, stats but the decode block, stderr, exit code and manifest."""

    @staticmethod
    def _attribute(tmp_path, monkeypatch, cpus, ribs, days=None, damage=None, records=None, floor=0, tag="", fifo=False):
        """Run attribute in a fresh directory with `cpus` usable CPUs and a size floor of
        `floor` bytes; `damage(paths)` runs after from_files, `records` (bytes) replaces
        the TSV of `days`, and with `fifo` the TSV is a FIFO a thread writes it to.
        Returns (exit code, output directory, stats or None, children forked)."""
        run = tmp_path / f"cpus{cpus}{tag}"
        run.mkdir()
        paths = []
        for i, make in enumerate(ribs):
            path = run / f"rib{i:02d}"
            path.write_bytes(make(T0 + i * DAY))
            paths.append(str(path))
        data = records if records is not None else _records_text(days).encode()
        writer = None
        if fifo:
            os.mkfifo(run / "records.tsv")
            writer = threading.Thread(target=(run / "records.tsv").write_bytes, args=(data,), daemon=True)
            writer.start()
        else:
            (run / "records.tsv").write_bytes(data)
        out = run / "out"
        cfg = run / "p.cfg"
        cfg.write_text("".join(f"rib = {p}\n" for p in paths) + f"records = {run / 'records.tsv'}\nout = {out}\n", encoding="utf-8")
        if damage is not None:
            # On the class, so that cli.RibTimeline stays unpatched and the stage may slice.
            def damaged(cls, files):
                timeline = _FROM_FILES(files)
                damage(paths)
                return timeline

            monkeypatch.setattr(ribstore.RibTimeline, "from_files", classmethod(damaged))
        monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "_SLICE_MIN_BYTES", floor)
        forked = []
        real_jobs = cli._forked_jobs

        def jobs_seen(*args):
            forked.append(real_jobs(*args))
            return forked[-1]

        monkeypatch.setattr(cli, "_forked_jobs", jobs_seen)
        stats = run / "a.json"
        code = run_cli("attribute", "--config", str(cfg), "--stats", str(stats))
        if writer is not None:
            writer.join(timeout=30)
            assert not writer.is_alive()
        summary = json.loads(stats.read_text(encoding="utf-8")) if code == 0 else None
        return code, out, summary, sum(jobs.stats.children_started for jobs in forked if jobs is not None)

    def _both(self, tmp_path, monkeypatch, capsys, ribs, days=None, records=None, children=2, tag=""):
        """Run at 2 and at 1 CPUs and check that the runs agree: exit code, stderr, stats
        but the decode block, and the bytes of every output, the manifest's too. Returns
        (exit code, stderr, stats); `children` are expected to be forked at 2 CPUs."""
        runs = []
        for cpus in (2, 1):
            code, out, summary, started = self._attribute(tmp_path, monkeypatch, cpus, ribs, days, records=records, tag=tag)
            assert started == (children if cpus == 2 else 0)
            name = f"cpus{cpus}{tag}"
            err = capsys.readouterr().err.replace(name, "cpusN")
            outputs = {p.name: p.read_bytes().replace(name.encode(), b"cpusN") for p in out.iterdir()}
            if summary is not None:
                summary.pop("decode")
            runs.append((code, err, summary, outputs))
        assert runs[0] == runs[1]
        _assert_no_child_process()
        return runs[0][:3]

    @staticmethod
    def _table(seed):
        return lambda ts: synth.nested_table(ts, random.Random(seed))

    def test_same_rows_and_stats_as_in_process(self, tmp_path, monkeypatch):
        # Eight snapshots; records reach 0, 1, 3 and 5, skip 2 and 4, and stop before the last two.
        ribs = [self._table(seed) for seed in range(8)]
        days = [0, 0.3, 1.1, 2.9, 3.2, 5, 5.4]
        runs = {cpus: self._attribute(tmp_path, monkeypatch, cpus, ribs, days) for cpus in (2, 1)}
        (code2, out2, forked, started), (code1, out1, in_process, _) = runs[2], runs[1]
        assert code2 == code1 == 0
        assert (out2 / "attributed.tsv").read_bytes() == (out1 / "attributed.tsv").read_bytes()
        assert len((out1 / "attributed.tsv").read_text(encoding="utf-8").splitlines()) == 1 + 5 * len(days)
        assert [row["captured_at"] for row in forked["snapshots"]] == [_stamp(T0 + d * DAY) for d in (0, 1, 3, 5)]
        # Four slices in two children, each loading its own snapshot.
        assert (started, forked["decode"]["children_started"], forked["decode"]["snapshots_adopted"]) == (2, 2, 4)
        assert forked["decode"]["children_cpu_s"] > 0
        assert in_process["decode"] == {"children_started": 0, "snapshots_adopted": 0, "blocked_s": 0, "children_cpu_s": 0}
        assert {k: v for k, v in forked.items() if k != "decode"} == {k: v for k, v in in_process.items() if k != "decode"}
        manifests = [(out / "manifest.json").read_text(encoding="utf-8").replace(f"cpus{c}", "cpusN") for c, out in ((2, out2), (1, out1))]
        assert manifests[0] == manifests[1]
        assert sorted(p.name for p in out2.iterdir()) == ["attributed.tsv", "manifest.json"]
        _assert_no_child_process()

    @staticmethod
    def _truncated(ts):
        data = synth.nested_table(ts, random.Random(0))
        return data[:-3]

    @staticmethod
    def _no_peer_index(ts):
        data = synth.nested_table(ts, random.Random(0))
        first = struct.unpack_from(">I", data, 8)[0] + 12  # the PEER_INDEX_TABLE record's length
        return data[first:]

    @staticmethod
    def _prefix_table(ts):
        return f"# captured_at={_stamp(ts)}\n2001:db8::/32\t64500\n".encode()

    @staticmethod
    def _drop_header(paths):
        Path(paths[1]).write_text("2001:db8::/32\t64500\n", encoding="utf-8")

    @staticmethod
    def _remove(paths):
        os.unlink(paths[1])

    @staticmethod
    def _garble_header(paths):
        Path(paths[1]).write_text("# captured_at=garbage\n2001:db8::/32\t64500\n", encoding="utf-8")

    CASES = {
        "truncated-mrt": (_truncated.__func__, None, "truncated MRT record at byte "),
        "no-peer-index": (_no_peer_index.__func__, None, "RIB record at byte 0 before PEER_INDEX_TABLE"),
        "no-header": (_prefix_table.__func__, _drop_header.__func__, "missing '# captured_at=' header"),
        "removed": (_prefix_table.__func__, _remove.__func__, "No such file or directory"),
        "bad-header-time": (_prefix_table.__func__, _garble_header.__func__, "Invalid isoformat string: 'garbage'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_when_a_record_reaches_the_snapshot(self, tmp_path, monkeypatch, capsys, case):
        make, damage, message = self.CASES[case]
        ribs = [self._table(0), make, self._table(2)]
        errors = []
        for cpus in (2, 1):
            code, out, _, started = self._attribute(tmp_path, monkeypatch, cpus, ribs, [0, 1], damage)
            assert code == 1 and started == (2 if cpus > 1 else 0)
            err = capsys.readouterr().err
            assert err.startswith("attribute: ") and err.count("\n") == 1 and message in err
            assert str(tmp_path / f"cpus{cpus}" / "rib01") in err
            errors.append(err.replace(f"cpus{cpus}", "cpusN"))
            assert sorted(p.name for p in out.iterdir()) == []
            _assert_no_child_process()
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_of_a_snapshot_no_record_reaches_is_ignored(self, tmp_path, monkeypatch, case):
        make, damage, _ = self.CASES[case]
        ribs = [self._table(0), make, self._table(2)]
        code, out, summary, _ = self._attribute(tmp_path, monkeypatch, 2, ribs, [0, 2], damage)
        assert code == 0
        assert [row["captured_at"] for row in summary["snapshots"]] == [_stamp(T0), _stamp(T0 + 2 * DAY)]
        assert (summary["decode"]["children_started"], summary["decode"]["snapshots_adopted"]) == (2, 2)
        _assert_no_child_process()

    def test_child_that_dies_without_a_result(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_attribute_range", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        code, out, _, started = self._attribute(tmp_path, monkeypatch, 2, [self._table(0), self._table(1)], [0, 1])
        assert code == 1 and started == 2
        records = tmp_path / "cpus2" / "records.tsv"
        assert capsys.readouterr().err == (
            f"attribute: {records}: the slice from byte 0 ended without a result (exit status -9)\n"
        )
        assert sorted(p.name for p in out.iterdir()) == []
        _assert_no_child_process()

    def test_interrupt_leaves_no_child_and_no_output(self, tmp_path, monkeypatch):
        out = tmp_path / "cpus2" / "out"
        real = cli._attribute_range

        def slow(*args):
            outcome = real(*args)
            time.sleep(60)  # until the parent kills this child
            return outcome

        def interrupted(path):
            # Ctrl-C while the children work, once both have written their part files.
            deadline = time.monotonic() + 30
            while len(list(out.glob("attributed.tsv*.tmp"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_attribute_range", slow)
        monkeypatch.setattr(cli, "_sha256", interrupted)
        code, out, _, started = self._attribute(tmp_path, monkeypatch, 2, [self._table(s) for s in range(4)], [0, 1, 2, 3])
        assert code == 1 and started == 2
        assert sorted(p.name for p in out.iterdir()) == []
        _assert_no_child_process()

    @pytest.mark.parametrize("lineno", [14, 12], ids=["inside-a-slice", "first-row-of-a-slice"])
    def test_bad_row_in_a_later_slice_keeps_its_line_number(self, tmp_path, monkeypatch, capsys, lineno):
        # Rows 2-6, 7-11 and 12-16 are the three slices; a blank line after row 8 moves the later ones down.
        lines = _records_text([0, 1, 2]).splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].rsplit("\t", 1)[0] + "\tnot-an-ip\n"
        lines.insert(8, "\n")
        code, err, _ = self._both(tmp_path, monkeypatch, capsys, [self._table(s) for s in range(3)], records="".join(lines).encode())
        records = tmp_path / "cpusN" / "records.tsv"
        assert (code, err) == (1, f"attribute: {records}: line {lineno + 1}: not an IPv4 or IPv6 address: 'not-an-ip'\n")

    @pytest.mark.parametrize("where", ["inside-a-slice", "across-a-boundary"])
    def test_regression(self, tmp_path, monkeypatch, capsys, where):
        ribs = [self._table(s) for s in range(3)]
        lines = _records_text([0, 1, 2]).splitlines(keepends=True)
        if where == "inside-a-slice":
            lines[7], lines[8] = lines[8], lines[7]  # two rows of the second slice
        else:
            lines.insert(9, lines[13])  # a third-slice row among the second slice's rows
        code, err, _ = self._both(tmp_path, monkeypatch, capsys, ribs, records="".join(lines).encode())
        assert code == 1 and "record at " in err and err.endswith("; run extract's merge step first\n")

    def test_header_only_records(self, tmp_path, monkeypatch, capsys):
        code, _, summary = self._both(
            tmp_path, monkeypatch, capsys, [self._table(0), self._table(1)], records=b"timestamp\tsite\tip\n", children=0
        )
        assert code == 0 and summary["records"] == 0 and summary["snapshots"] == []

    def test_records_of_one_snapshot_run_in_process(self, tmp_path, monkeypatch, capsys):
        code, _, summary = self._both(tmp_path, monkeypatch, capsys, [self._table(0), self._table(1)], [1, 1.2], children=0)
        assert code == 0 and summary["records"] == 10

    def test_crlf_blank_lines_and_spellings(self, tmp_path, monkeypatch, capsys):
        lines = _records_text([0, 1, 2]).splitlines(keepends=True)
        lines[11] = lines[11].replace("Z\t", "+00:00\t", 1)  # the first row of the third slice
        text = "".join(line.replace("\n", "\r\n") if n % 2 else line + "\r\n" * (n % 4 == 0) for n, line in enumerate(lines))
        code, _, summary = self._both(tmp_path, monkeypatch, capsys, [self._table(s) for s in range(3)], records=text.encode())
        assert code == 0 and summary["records"] == 15

    def test_fifo_records_are_read_once_in_process(self, tmp_path, monkeypatch):
        # Above the floor at 2 CPUs, but a FIFO cannot seek: one range, read from its start.
        ribs = [self._table(s) for s in range(3)]
        runs = [self._attribute(tmp_path, monkeypatch, 2, ribs, [0, 1, 2], fifo=fifo, tag=f"-{fifo}") for fifo in (False, True)]
        (code, out, sliced, started), (fifo_code, fifo_out, in_process, fifo_started) = runs
        assert (code, fifo_code, started, fifo_started) == (0, 0, 2, 0)
        assert (fifo_out / "attributed.tsv").read_bytes() == (out / "attributed.tsv").read_bytes()
        assert in_process.pop("decode") == {**IN_PROCESS, "snapshots_adopted": 0}
        assert sliced.pop("decode")["snapshots_adopted"] == 3
        assert in_process == sliced and in_process["records"] == 15
        _assert_no_child_process()

    def test_patched_attribute_runs_in_process(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = cli.attribute
        monkeypatch.setattr(cli, "attribute", lambda records, timeline: calls.append(os.getpid()) or real(records, timeline))
        code, _, summary, started = self._attribute(tmp_path, monkeypatch, 2, [self._table(0), self._table(1)], [0, 1])
        assert code == 0 and started == 0 and calls == [os.getpid()]
        assert summary["decode"]["children_started"] == 0

    def test_hand_built_timeline_runs_in_process(self, tmp_path, monkeypatch):
        # As a tracer builds it: entries made by hand, through a replaced cli.RibTimeline.
        class HandBuilt:
            @staticmethod
            def from_files(paths):
                return ribstore.RibTimeline([ribstore.TimelineEntry(e.captured_at, e._loader) for e in _FROM_FILES(paths).entries])

        monkeypatch.setattr(cli, "RibTimeline", HandBuilt)
        code, _, summary, started = self._attribute(tmp_path, monkeypatch, 2, [self._table(0), self._table(1)], [0, 1])
        assert code == 0 and started == 0 and len(summary["snapshots"]) == 2

    def test_inputs_below_the_size_floor_run_in_process(self, tmp_path, monkeypatch):
        ribs = [self._table(0), self._table(1)]
        size = len(_records_text([0, 1])) + sum(len(make(T0 + i * DAY)) for i, make in enumerate(ribs))
        for floor, children in ((size + 1, 0), (size, 2)):
            code, _, summary, started = self._attribute(tmp_path, monkeypatch, 2, ribs, [0, 1], floor=floor, tag=f"-{floor}")
            assert code == 0 and started == summary["decode"]["children_started"] == children


def _dump_xml(site: str, pages: int, seed: int, tail: str = "</mediawiki>\n") -> str:
    """A dump of `pages` pages with three anonymous revisions each; `tail` ends it."""
    rng = random.Random(seed)
    parts = [f"<mediawiki><siteinfo><dbname>{site}</dbname></siteinfo>\n"]
    for page in range(pages):
        parts.append(f"<page><title>P{page}</title><ns>0</ns><id>{page + 1}</id>\n")
        for rev in range(3):
            ip = f"2001:db8:{rng.randrange(1 << 16):x}::{rng.randrange(1, 1 << 16):x}" if rev else f"192.0.2.{rng.randrange(256)}"
            parts.append(
                f"<revision><id>{page * 3 + rev + 1}</id><timestamp>{_stamp(T0 + rng.randrange(400 * DAY))}</timestamp>"
                f"<contributor><ip>{ip}</ip></contributor><text>x</text></revision>\n"
            )
        parts.append("</page>\n")
    return "".join(parts) + tail


class TestChildParses:
    """Dumps parsed in forked children give what parsing them in process gives."""

    @pytest.fixture
    def dumps(self, tmp_path, fixture_dump, dewiki_dump):
        """A large dump first, so that later dumps finish before it, then small ones."""
        folder = tmp_path / "dumps"
        folder.mkdir()
        (folder / "enwiki-20241201-pages-meta-history1.xml").write_text(_dump_xml("enwiki", 1500, 1), encoding="utf-8")
        (folder / "frwiki-20241201-pages-meta-history1.xml").write_text(_dump_xml("frwiki", 20, 2), encoding="utf-8")
        (folder / fixture_dump.name).write_bytes(fixture_dump.read_bytes())
        (folder / dewiki_dump.name).write_bytes(dewiki_dump.read_bytes())
        return sorted(str(p) for p in folder.iterdir())[::-1]  # frwiki, fixturewiki, enwiki, dewiki

    @staticmethod
    def _extract(tmp_path, monkeypatch, cpus, dumps, *flags, tag=""):
        """Run extract in a fresh directory with `cpus` usable CPUs. Returns
        (exit code, output directory, stats or None)."""
        run = tmp_path / f"cpus{cpus}{tag}"
        run.mkdir()
        monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "_PARSE_MIN_BYTES", 0)  # these dumps are small
        stats = run / "x.json"
        code = run_cli("extract", *dumps, *flags, "--out", str(run / "out"), "--stats", str(stats))
        summary = json.loads(stats.read_text(encoding="utf-8")) if stats.exists() else None
        return code, run / "out", summary

    @staticmethod
    def _outputs(out):
        """Every output file's bytes, and the manifest's inputs and outputs."""
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        manifest = out / "manifest.json"
        if manifest.exists():
            data = json.loads(manifest.read_text(encoding="utf-8"))
            files["manifest.json"] = (data["inputs"], data["outputs"])
        return files

    @staticmethod
    def _clean(out):
        _assert_no_child_process()
        assert not list(out.glob("*.tmp"))

    def test_same_outputs_and_stats_as_in_process(self, tmp_path, monkeypatch, dumps):
        runs = {cpus: self._extract(tmp_path, monkeypatch, cpus, dumps) for cpus in (2, 1)}
        (code2, out2, forked), (code1, out1, in_process) = runs[2], runs[1]
        assert code2 == code1 == 0
        assert self._outputs(out2) == self._outputs(out1)
        assert len(self._outputs(out1)) == len(dumps) + 2
        assert {k: forked[k] for k in ("files", "totals")} == {k: in_process[k] for k in ("files", "totals")}
        assert forked["workers"]["children_started"] == 2 and forked["workers"]["children_cpu_s"] > 0
        assert in_process["workers"] == IN_PROCESS
        self._clean(out2)

    def test_one_dump_parses_in_process(self, tmp_path, monkeypatch, dumps):
        code, out, summary = self._extract(tmp_path, monkeypatch, 2, dumps[:1])
        assert code == 0 and summary["workers"]["children_started"] == 0
        self._clean(out)

    def test_dumps_below_the_size_floor_parse_in_process(self, tmp_path, monkeypatch, fixture_dump, dewiki_dump):
        monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: 2)
        dumps = [str(fixture_dump), str(dewiki_dump)]
        total = sum(os.path.getsize(d) for d in dumps)
        for floor, children in ((total + 1, 0), (total, 2)):
            monkeypatch.setattr(cli, "_PARSE_MIN_BYTES", floor)
            stats = tmp_path / f"x{floor}.json"
            assert run_cli("extract", *dumps, "--out", str(tmp_path / f"out{floor}"), "--stats", str(stats)) == 0
            assert json.loads(stats.read_text(encoding="utf-8"))["workers"]["children_started"] == children
            self._clean(tmp_path / f"out{floor}")

    @pytest.mark.parametrize("keep_going", [False, True])
    @pytest.mark.parametrize("late", [False, True])
    def test_malformed_dump(self, tmp_path, monkeypatch, capsys, dumps, keep_going, late):
        # A malformed dump fails at once, or only after 1000 good pages.
        bad = Path(dumps[0]).parent / "npwiki-bad.xml"
        broken = "<page><revision></page>"
        bad.write_text(_dump_xml("npwiki", 1000, 3, tail=broken) if late else "<mediawiki>" + broken, encoding="utf-8")
        order = [dumps[1], str(bad), dumps[0], dumps[3], dumps[2]]
        flags = ["--keep-going"] if keep_going else []
        results = []
        for cpus in (2, 1):
            code, out, summary = self._extract(tmp_path, monkeypatch, cpus, order, *flags)
            err = capsys.readouterr().err
            assert code == 1 and err.count("\n") == 1 and err.startswith(f"extract: {bad}: ")
            results.append((code, err, self._outputs(out), summary and {k: summary[k] for k in ("files", "totals")}))
            self._clean(out)
        assert results[0] == results[1]
        names = set(results[0][2])
        if keep_going:
            assert "records.tsv" in names and "npwiki-bad.records.tsv" not in names
        else:
            assert names == set()  # a failed run commits none of its outputs

    @pytest.mark.parametrize("keep_going", [False, True])
    def test_child_killed_mid_parse(self, tmp_path, monkeypatch, capsys, dumps, keep_going):
        real = cli._parse_dump
        victim = dumps[2]

        def dying(cfg, dump, site, out_path):
            if dump == victim:
                Path(f"{out_path}.tmp").write_text("timestamp\tsite\tip\n", encoding="utf-8")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(cfg, dump, site, out_path)

        monkeypatch.setattr(cli, "_parse_dump", dying)
        flags = ["--keep-going"] if keep_going else []
        code, out, summary = self._extract(tmp_path, monkeypatch, 2, dumps, *flags)
        assert code == 1 and summary is None
        assert capsys.readouterr().err == f"extract: {victim}: parse ended without a result (exit status -9)\n"
        assert sorted(p.name for p in out.iterdir()) == []
        self._clean(out)

    def test_interrupt_leaves_no_child_and_no_output(self, tmp_path, monkeypatch, dumps):
        calls = []

        class Interrupted(forkjobs.ForkedJobs):
            def ready(self):
                calls.append(len(self.running))
                if len(calls) == 2:
                    raise KeyboardInterrupt
                return super().ready()

        monkeypatch.setattr(forkjobs, "ForkedJobs", Interrupted)
        code, out, summary = self._extract(tmp_path, monkeypatch, 2, dumps)
        assert code == 1 and summary is None and calls == [2, 2]
        assert "records.tsv" not in {p.name for p in out.iterdir()}
        self._clean(out)


class TestChildLoads:
    """The OUI CSV and the hitlist loaded in a forked child, while report
    aggregates the records, give what loading them in process gives."""

    @pytest.fixture
    def corpus(self, tmp_path, oui_csv):
        """(config path, OUI path, hitlist path) for a synthetic attributed corpus."""
        records = sorted(synth_corpus(3000, seed=17), key=lambda r: (r.timestamp, r.site.code, str(r.ip)))
        attributed = tmp_path / "attributed.tsv"
        with open(attributed, "w", encoding="utf-8") as sink:
            ribstore.write_attributed(records, sink)
        hitlist = tmp_path / "hitlist.tsv"
        hitlist.write_text("".join(synth_hitlist(records)), encoding="utf-8")
        oui = tmp_path / "oui.csv"
        oui.write_bytes(oui_csv.read_bytes())
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"attributed = {attributed}\noui = {oui}\nhitlist = {hitlist}\n", encoding="utf-8")
        return cfg, oui, hitlist

    @staticmethod
    def _report(tmp_path, monkeypatch, capsys, cpus, cfg, *tables, floor=0, tag=""):
        """Run report in a fresh directory with `cpus` usable CPUs and a size floor
        of `floor` bytes (these files are small). Returns (exit code, stderr,
        output directory, stats or None)."""
        run = tmp_path / f"cpus{cpus}{tag}"
        run.mkdir()
        monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "_LOAD_MIN_BYTES", floor)
        stats = run / "r.json"
        capsys.readouterr()
        code = run_cli("report", *tables, "--config", str(cfg), "--out", str(run / "out"), "--stats", str(stats))
        summary = json.loads(stats.read_text(encoding="utf-8")) if stats.exists() else None
        _assert_no_child_process()
        return code, capsys.readouterr().err, run / "out", summary

    def test_same_outputs_stderr_and_manifest_as_in_process(self, tmp_path, monkeypatch, capsys, corpus):
        cfg, oui, hitlist = corpus
        runs = {cpus: self._report(tmp_path, monkeypatch, capsys, cpus, cfg, "all") for cpus in (2, 1)}
        (code2, err2, out2, forked), (code1, err1, out1, in_process) = runs[2], runs[1]
        assert code2 == code1 == 0
        assert err2 == err1 == "report: skipped 3 malformed hitlist row(s)\n"
        files = {name: (out2 / name).read_bytes() for name in os.listdir(out2) if name != "manifest.json"}
        assert files == {name: (out1 / name).read_bytes() for name in os.listdir(out1) if name != "manifest.json"}
        assert len(files) == 2 * len(analytics.TABLE_NAMES)
        manifests = [json.loads((out / "manifest.json").read_text(encoding="utf-8")) for out in (out2, out1)]
        assert manifests[0]["inputs"] == manifests[1]["inputs"] and manifests[0]["outputs"] == manifests[1]["outputs"]
        for path in (oui, hitlist, tmp_path / "attributed.tsv"):  # the TSV hashed in the read that aggregates it
            assert manifests[0]["inputs"][str(path)] == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        assert forked.pop("workers")["children_started"] == 1
        assert in_process.pop("workers") == IN_PROCESS
        assert forked == in_process and forked["oui"]["entries"] > 0 and forked["hitlist"]["entries"] > 0

    @pytest.mark.parametrize("bad", ["oui", "hitlist", "oui+hitlist"])
    def test_side_input_error_comes_before_a_bad_tsv(self, tmp_path, monkeypatch, capsys, corpus, bad):
        cfg, oui, hitlist = corpus
        if "oui" in bad:
            oui.write_text("foo,bar\n1,2\n", encoding="utf-8")
        if "hitlist" in bad:
            hitlist.unlink()
            hitlist.mkdir()
        attributed = tmp_path / "attributed.tsv"
        with open(attributed, "ab") as fh:
            fh.write(b"not a row\n")
        first = oui if "oui" in bad else hitlist
        errors = []
        for cpus in (2, 1):
            code, err, out, summary = self._report(tmp_path, monkeypatch, capsys, cpus, cfg, "all")
            assert code == 1 and summary is None and not list(out.glob("*"))
            assert err.count("\n") == 1 and err.startswith(f"report: {first}: "), err
            errors.append(err)
        assert errors[0] == errors[1]

    def test_bad_tsv_after_good_side_inputs(self, tmp_path, monkeypatch, capsys, corpus):
        cfg, _, _ = corpus
        with open(tmp_path / "attributed.tsv", "ab") as fh:
            fh.write(b"not a row\n")
        errors = []
        for cpus in (2, 1):
            code, err, _, _ = self._report(tmp_path, monkeypatch, capsys, cpus, cfg, "all")
            skipped, tsv_line, rest = err.split("\n")
            assert code == 1 and skipped == "report: skipped 3 malformed hitlist row(s)" and rest == ""
            assert tsv_line.startswith(f"report: {tmp_path / 'attributed.tsv'}: ")
            errors.append(err)
        assert errors[0] == errors[1]

    def test_hitlist_directory(self, tmp_path, monkeypatch, capsys, corpus):
        cfg, _, hitlist = corpus
        hitlist.unlink()
        hitlist.mkdir()
        code, err, _, _ = self._report(tmp_path, monkeypatch, capsys, 2, cfg, "hitlist_overlap")
        assert code == 1 and err == f"report: {hitlist}: [Errno 21] Is a directory: '{hitlist}'\n"

    @pytest.mark.parametrize(
        "tables, victim", [(["vendor_counts"], "oui"), (["hitlist_overlap"], "hitlist"), (["all"], "both")]
    )
    def test_child_killed_mid_load(self, tmp_path, monkeypatch, capsys, corpus, tables, victim):
        cfg, oui, hitlist = corpus

        def dying(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        # Only the child runs these: the parent aggregates meanwhile.
        monkeypatch.setattr(netaddr, "_normalize_assignment", dying)
        monkeypatch.setattr(analytics, "parse_hitlist_line", dying)
        code, err, out, summary = self._report(tmp_path, monkeypatch, capsys, 2, cfg, *tables)
        named = {"oui": f"{oui}", "hitlist": f"{hitlist}", "both": f"{oui}, {hitlist}"}[victim]
        assert code == 1 and summary is None and not list(out.glob("*"))
        assert err == f"report: {named}: load ended without a result (exit status -9)\n"

    def test_interrupt_leaves_no_child(self, tmp_path, monkeypatch, capsys, corpus):
        cfg, _, _ = corpus
        seen = []

        def interrupted(records):
            seen.append(os.waitpid(-1, os.WNOHANG))  # (0, 0): a child is running
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "aggregate", interrupted)
        code, _, out, summary = self._report(tmp_path, monkeypatch, capsys, 2, cfg, "all")
        assert code == 1 and summary is None and seen == [(0, 0)] and not list(out.glob("*"))

    def test_patched_loader_loads_in_process(self, tmp_path, monkeypatch, capsys, corpus):
        cfg, _, _ = corpus
        calls = []
        real = cli.load_oui_database
        monkeypatch.setattr(cli, "load_oui_database", lambda stream: calls.append(os.getpid()) or real(stream))
        code, _, _, summary = self._report(tmp_path, monkeypatch, capsys, 2, cfg, "all")
        assert code == 0 and summary["workers"] == IN_PROCESS and calls == [os.getpid()]

    def test_side_inputs_below_the_size_floor_load_in_process(self, tmp_path, monkeypatch, capsys, corpus):
        cfg, oui, hitlist = corpus
        total = os.path.getsize(oui) + os.path.getsize(hitlist)
        for floor, children in ((total + 1, 0), (total, 1)):
            code, _, _, summary = self._report(tmp_path, monkeypatch, capsys, 2, cfg, "all", floor=floor, tag=f"f{floor}")
            assert code == 0 and summary["workers"]["children_started"] == children


@pytest.mark.parametrize("name", [None] + [name for _, name in cli._CHILD_CALLS])
def test_a_replaced_child_call_keeps_every_stage_in_process(tmp_path, monkeypatch, fixture_dump, dewiki_dump, oui_csv, hitlist_tsv, name):
    # As a tracer replaces it: a wrapper around the real one, bound on cli.
    if name is not None:
        real = getattr(cli, name)
        replaced = type(name, (real,), {}) if isinstance(real, type) else lambda *args, **kwargs: real(*args, **kwargs)
        monkeypatch.setattr(cli, name, replaced)
    monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: 2)
    for floor in ("_PARSE_MIN_BYTES", "_SLICE_MIN_BYTES", "_LOAD_MIN_BYTES"):
        monkeypatch.setattr(cli, floor, 0)
    cfg = tmp_path / "p.cfg"
    ribs = "".join(f"rib = {rib}\n" for rib in _write_ribs(tmp_path))
    cfg.write_text(ribs + f"oui = {oui_csv}\nhitlist = {hitlist_tsv}\nout = {tmp_path / 'out'}\n", encoding="utf-8")
    started = []
    for stage, args, block in (
        ("extract", [str(fixture_dump), str(dewiki_dump)], "workers"),
        ("attribute", [], "decode"),
        ("report", ["all"], "workers"),
    ):
        stats = tmp_path / f"{stage}.json"
        assert run_cli(stage, *args, "--config", str(cfg), "--stats", str(stats)) == 0
        started.append(json.loads(stats.read_text(encoding="utf-8"))[block]["children_started"])
    assert started == ([2, 2, 1] if name is None else [0, 0, 0])
    _assert_no_child_process()


def test_a_failed_fork_runs_every_stage_in_process(tmp_path, monkeypatch, fixture_dump, dewiki_dump, oui_csv, hitlist_tsv):
    # No memory or process slot for a child: each stage runs its jobs in process.
    cfg = tmp_path / "p.cfg"
    ribs = "".join(f"rib = {rib}\n" for rib in _write_ribs(tmp_path))
    cfg.write_text(ribs + f"oui = {oui_csv}\nhitlist = {hitlist_tsv}\n", encoding="utf-8")
    for floor in ("_PARSE_MIN_BYTES", "_SLICE_MIN_BYTES", "_LOAD_MIN_BYTES"):
        monkeypatch.setattr(cli, floor, 0)
    forks = []

    def no_fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: cpus)
        if cpus == 2:
            monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / f"out{cpus}"
        started, outputs = [], {}
        for stage, args, block in (
            ("extract", [str(fixture_dump), str(dewiki_dump)], "workers"),
            ("attribute", [], "decode"),
            ("report", ["all"], "workers"),
        ):
            stats = tmp_path / f"{stage}{cpus}.json"
            assert run_cli(stage, *args, "--config", str(cfg), "--out", str(out), "--stats", str(stats)) == 0
            started.append(json.loads(stats.read_text(encoding="utf-8"))[block]["children_started"])
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8").replace(str(out), "out"))
            outputs[stage] = manifest["inputs"], manifest["outputs"]
        assert started == [0, 0, 0]
        outputs.update({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        runs.append(outputs)
    assert len(forks) == 3  # one attempt per stage, then its jobs run in process
    assert runs[0] == runs[1] and len(runs[0]) == 3 + 4 + 2 * len(analytics.TABLE_NAMES)
    _assert_no_child_process()


class TestResourceWarnings:
    """Stages under ``python -X dev`` leave no file unclosed."""

    SCRIPT = (
        "import sys\n"
        "from wikiv6 import cli, forkjobs, ribstore\n"
        "cli._SLICE_MIN_BYTES = cli._PARSE_MIN_BYTES = cli._LOAD_MIN_BYTES = 0\n"
        "forkjobs._usable_cpus = lambda: int(sys.argv[1])\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )

    def _run(self, tmp_path, cpus, stage, *args):
        """Run `stage` under ``python -X dev`` with `cpus` usable CPUs and no size floors; returns its stats."""
        stats = tmp_path / f"{stage}.json"
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "always::ResourceWarning", "-c", self.SCRIPT, str(cpus), stage,
             *args, "--out", str(tmp_path / "out"), "--stats", str(stats)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr
        return json.loads(stats.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_extract_and_attribute(self, tmp_path, fixture_dump, dewiki_dump, cpus):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("".join(f"rib = {rib}\n" for rib in _write_ribs(tmp_path)), encoding="utf-8")
        workers = self._run(tmp_path, cpus, "extract", str(fixture_dump), str(dewiki_dump))["workers"]
        assert workers["children_started"] == (2 if cpus > 1 else 0)
        decode = self._run(tmp_path, cpus, "attribute", "--config", str(cfg))["decode"]
        assert decode["children_started"] == (2 if cpus > 1 else 0)  # one slice per snapshot

    def test_side_input_readers_leave_the_stream_open(self, oui_csv, hitlist_tsv):
        # A text wrapper collected without detach would close the caller's file.
        for path, read in ((oui_csv, load_oui_database), (hitlist_tsv, cli._decoded(cli.read_hitlist))):
            with open(path, "rb") as fh:
                read(fh)
                assert not fh.closed and fh.read() == b""

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_report_all(self, tmp_path, fixture_dump, dewiki_dump, oui_csv, hitlist_tsv, cpus):
        out = tmp_path / "out"
        cfg = tmp_path / "p.cfg"
        ribs = "".join(f"rib = {rib}\n" for rib in _write_ribs(tmp_path))
        cfg.write_text(ribs + f"oui = {oui_csv}\nhitlist = {hitlist_tsv}\n", encoding="utf-8")
        assert run_cli("extract", str(fixture_dump), str(dewiki_dump), "--out", str(out), "--stats", str(tmp_path / "x")) == 0
        assert run_cli("attribute", "--config", str(cfg), "--out", str(out), "--stats", str(tmp_path / "a")) == 0
        workers = self._run(tmp_path, cpus, "report", "all", "--config", str(cfg))["workers"]
        assert workers["children_started"] == (1 if cpus > 1 else 0)


def test_console_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "wikiv6", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "wikiv6" in proc.stdout
