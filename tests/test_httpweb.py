"""Real-HTTP fetch seam (sources/httpweb.py): outcome mapping against a
mocked transport, mirroring SimpleHttpRenderer.java:29-52. No network is
touched — the sandbox has none, which is itself asserted."""

import urllib.error

import pyarrow as pa
import pytest

from dumb_crawler_ray.pipelines.semantics import CrawlComponents
from dumb_crawler_ray.config import JobConfig
from dumb_crawler_ray.sources.httpweb import FetchTransportError, HttpWeb


class _Resp:
    def __init__(self, status=200, body=b"", charset=None):
        self.status = status
        self._body = body
        self._charset = charset
        import email.message

        self.headers = email.message.Message()
        if charset:
            self.headers["Content-Type"] = f"text/html; charset={charset}"

    def read(self):
        return self._body


class _Opener:
    """Transport stub; records the request for header assertions."""

    def __init__(self, result):
        self.result = result
        self.last_request = None
        self.last_timeout = None

    def open(self, req, timeout=None):
        self.last_request = req
        self.last_timeout = timeout
        if isinstance(self.result, Exception):
            raise self.result
        return self.result


def test_200_body_and_headers():
    op = _Opener(_Resp(200, b"<html>\nline2\n</html>"))
    web = HttpWeb(opener=op)
    resp = web.fetch("https://example.test/a")
    assert resp.status_code == 200
    assert resp.html == "<html>\nline2\n</html>"  # raw; strip is downstream
    assert resp.image_ids == []
    assert op.last_request.get_header("User-agent") == "Mozilla/5.0"
    assert op.last_request.get_header("Accept-charset") == "ISO-8859-1"
    # open() gets the CONNECT budget (reference: 10 s); the read budget is
    # applied to the socket after connect
    assert op.last_timeout == 10.0


def test_config_plumbing_and_read_timeout_escalation():
    """fetcher.* config keys reach the transport: custom UA, connect
    budget on open(), read budget settimeout'd on the response socket."""
    class _Sock:
        timeout = None

        def settimeout(self, t):
            self.timeout = t

    class _Raw:
        _sock = _Sock()

    resp = _Resp(200, b"ok")
    resp.fp = type("_Fp", (), {"raw": _Raw()})()
    op = _Opener(resp)
    cfg = JobConfig({"fetcher": {"mode": "http", "userAgent": "dcr-bot/1.0",
                                 "connectTimeoutMs": 5000,
                                 "readTimeoutMs": 20000}})
    web = HttpWeb.from_config(cfg, opener=op)
    r = web.fetch("https://example.test/a")
    assert r.status_code == 200
    assert op.last_request.get_header("User-agent") == "dcr-bot/1.0"
    assert op.last_timeout == 5.0
    assert resp.fp.raw._sock.timeout == 20.0


def test_newline_strip_happens_in_fetch_outcome():
    """SimpleHttpRenderer reads line-by-line and concatenates WITHOUT
    newlines (java:44-50) — fetch_outcome applies that quirk."""
    comp = CrawlComponents(JobConfig({}))
    resp = HttpWeb(opener=_Opener(_Resp(200, b"<html>\n<body>x</body>\n</html>"))).fetch(
        "https://example.test/"
    )
    error, links, html = comp.fetch_outcome(resp, "https://example.test/", [])
    assert error is None
    assert html == "<html><body>x</body></html>"


def test_non_200_maps_to_invalid_status_code():
    comp = CrawlComponents(JobConfig({}))
    for status in (404, 500):
        resp = HttpWeb(opener=_Opener(_Resp(status))).fetch("https://x.test/")
        assert resp.status_code == status
        error, _, _ = comp.fetch_outcome(resp, "https://x.test/", [])
        assert error == f"INVALID_STATUS_CODE_{status}"


def test_http_error_exception_maps_to_status():
    err = urllib.error.HTTPError("https://x.test/", 503, "unavailable", {}, None)
    resp = HttpWeb(opener=_Opener(err)).fetch("https://x.test/")
    assert resp.status_code == 503


def test_transport_error_raises_fetch_transport_error():
    err = urllib.error.URLError("connection refused")
    with pytest.raises(FetchTransportError):
        HttpWeb(opener=_Opener(err)).fetch("https://x.test/")


def test_charset_decoding_defaults_to_latin1():
    body = "café".encode("ISO-8859-1")
    resp = HttpWeb(opener=_Opener(_Resp(200, body))).fetch("https://x.test/")
    assert resp.html == "café"
    resp = HttpWeb(opener=_Opener(_Resp(200, "café".encode("utf-8"),
                                        charset="utf-8"))).fetch("https://x.test/")
    assert resp.html == "café"


def test_fetch_worker_http_mode_maps_transport_error(tmp_path):
    """FetchWorker in fetcher.mode=http: a dead transport yields
    HTML_RENDERING_ERROR rows (terminal failure), never a crash."""
    from dumb_crawler_ray.rayutil import from_ipc, to_ipc
    from dumb_crawler_ray.stages.fetch import FetchWorker

    cfg = {"fetcher": {"mode": "http"},
           "tagger": {"any": "matches(host, '.*')"},
           "linkFilter": {"whitelist": ["any"]}}
    w = FetchWorker(str(tmp_path), cfg, seed=1, scale=1)
    w.web = HttpWeb(opener=_Opener(urllib.error.URLError("no network")))
    batch = pa.table(
        {
            "rank": pa.array([0], pa.int64()),
            "url_hash": pa.array(["h0"], pa.string()),
            "url": pa.array(["https://real.example.com/"], pa.string()),
            "domain": pa.array(["real.example.com"], pa.string()),
            "attempt": pa.array([0], pa.int64()),
            "priority": pa.array([10], pa.int64()),
            "round": pa.array([0], pa.int64()),
            "not_before_ts": pa.array([0.0], pa.float64()),
        }
    )
    out = from_ipc(w(to_ipc(batch)))
    assert out.column("error").to_pylist() == ["HTML_RENDERING_ERROR"]
    assert out.column("store_ok").to_pylist() == [False]


def test_sandbox_http_mode_fails_cleanly():
    """In this network-less sandbox a REAL HttpWeb fetch must raise
    FetchTransportError (not hang or crash differently)."""
    web = HttpWeb(connect_timeout_s=2.0, read_timeout_s=2.0)
    with pytest.raises(FetchTransportError):
        web.fetch("https://nonexistent-host.invalid/")


def test_warc_round_trip(tmp_path):
    """WARC shim: records written with the reference-compatible writer
    import back as pages fragments with the crawl's own url_hash scheme,
    queryable through inspect_cli's page lookup."""
    import io
    from contextlib import redirect_stdout

    import pyarrow.dataset as pads

    from dumb_crawler_ray import inspect_cli
    from dumb_crawler_ray.sources.warc import (
        IMPORT_ROUND, import_warc, iter_warc_pages, write_warc,
    )

    pages = [
        ("https://site.test/article/a-101", "<html>\n<body>alpha</body>\n</html>"),
        ("https://site.test/article/b-202", "<html><body>β uniçode</body></html>"),
        ("https://site.test/plain", "<html><body>plain</body></html>"),
    ]
    warc_dir = tmp_path / "archive" / "nested"
    warc_dir.mkdir(parents=True)
    assert write_warc(pages, str(warc_dir / "crawl_1.warc")) == 3

    # raw reader sees exactly what was written (modulo nothing)
    got = list(iter_warc_pages(str(tmp_path / "archive")))
    assert [u for u, _ in got] == [u for u, _ in pages]

    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    cfg = {"idExtractorPattern": r".*-(?<id>[0-9]+)$"}
    assert import_warc(str(tmp_path / "archive"), str(ckpt), cfg) == 3

    ds = pads.dataset(str(ckpt / "pages"), format="parquet")
    t = ds.to_table().sort_by([("rank", "ascending")])
    assert t.column("round").to_pylist() == [IMPORT_ROUND] * 3
    # id-extractor pattern applies exactly like the live crawl path
    assert t.column("url_hash").to_pylist()[:2] == ["101", "202"]
    # newline-strip quirk applied on import
    assert t.column("html")[0].as_py() == "<html><body>alpha</body></html>"

    out_html = tmp_path / "x.html"
    with redirect_stdout(io.StringIO()):
        rc = inspect_cli.dump_page(str(ckpt), "101", str(out_html))
    assert rc == 0 and "alpha" in out_html.read_text()


def test_warc_reader_skips_non_response_records(tmp_path):
    from dumb_crawler_ray.sources.warc import iter_warc_pages

    info = (
        "WARC/1.0\r\n"
        "WARC-Type: warcinfo\r\n"
        "WARC-Record-ID: <urn:uuid:x>\r\n"
        "Content-Type: application/warc-fields\r\n"
        "Content-Length: 10\r\n\r\n"
        "software: \r\n\r\n"
    ).encode()
    body = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
    resp = (
        "WARC/1.0\r\n"
        "WARC-Type: response\r\n"
        "WARC-Target-URI: https://a.test/\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body + b"\r\n\r\n"
    p = tmp_path / "mix.warc"
    p.write_bytes(info + resp)
    assert list(iter_warc_pages(str(p))) == [("https://a.test/", "hi")]


def test_body_read_failure_maps_to_transport_error():
    """A stall/reset during resp.read() (after a successful open) must
    surface as FetchTransportError, not a raw socket exception."""
    class _StallResp(_Resp):
        def read(self):
            raise TimeoutError("read timed out")

    with pytest.raises(FetchTransportError):
        HttpWeb(opener=_Opener(_StallResp(200))).fetch("https://x.test/")


def test_unknown_charset_falls_back():
    resp = HttpWeb(opener=_Opener(_Resp(200, b"ok", charset="bogus-enc"))
                   ).fetch("https://x.test/")
    assert resp.status_code == 200 and resp.html == "ok"


def test_warc_unknown_charset_is_lenient(tmp_path):
    from dumb_crawler_ray.sources.warc import iter_warc_pages

    body = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html;charset=bogus-enc"
            b"\r\nContent-Length: 2\r\n\r\nhi")
    rec = (
        "WARC/1.0\r\nWARC-Type: response\r\n"
        "WARC-Target-URI: https://a.test/\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body + b"\r\n\r\n"
    p = tmp_path / "x.warc"
    p.write_bytes(rec)
    assert list(iter_warc_pages(str(p))) == [("https://a.test/", "hi")]


def test_import_warc_cli_sources_config_from_manifest(tmp_path):
    """The inspect_cli import-warc path must hash urls with the crawl's
    idExtractorPattern sourced from the checkpoint manifest (a crawl never
    writes config.json into its checkpoint), and must ERROR — not silently
    md5-hash — when no config source exists."""
    import io
    import json
    from contextlib import redirect_stdout

    import pyarrow.dataset as pads

    from dumb_crawler_ray import inspect_cli
    from dumb_crawler_ray.sources.warc import write_warc

    warc = tmp_path / "a.warc"
    write_warc([("https://site.test/article/a-101", "<html>x</html>")],
               str(warc))

    # no manifest, no config.json, no --config → error exit
    bare = tmp_path / "bare_ckpt"
    bare.mkdir()
    with redirect_stdout(io.StringIO()):
        assert inspect_cli.main([str(bare), "import-warc", str(warc)]) == 2

    # manifest with embedded config → pattern applied
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "manifest.json").write_text(json.dumps(
        {"round": 3, "config": {"idExtractorPattern": r".*-(?<id>[0-9]+)$"}}))
    with redirect_stdout(io.StringIO()):
        assert inspect_cli.main([str(ckpt), "import-warc", str(warc)]) == 0
    t = pads.dataset(str(ckpt / "pages"), format="parquet").to_table()
    assert t.column("url_hash").to_pylist() == ["101"]

    # explicit --config overrides everything
    ckpt2 = tmp_path / "ckpt2"
    ckpt2.mkdir()
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"idExtractorPattern": r".*-(?<id>[0-9]+)$"}))
    with redirect_stdout(io.StringIO()):
        assert inspect_cli.main(
            [str(ckpt2), "import-warc", str(warc), "--config", str(cfgf)]) == 0
    t2 = pads.dataset(str(ckpt2 / "pages"), format="parquet").to_table()
    assert t2.column("url_hash").to_pylist() == ["101"]


def test_warc_reader_warns_and_stops_on_bad_framing(tmp_path, caplog):
    """A record with invalid Content-Length abandons the rest of the file
    WITH a warning naming the path (partial imports are detectable)."""
    import logging

    from dumb_crawler_ray.sources.warc import iter_warc_pages

    body = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
    good = (
        "WARC/1.0\r\nWARC-Type: response\r\n"
        "WARC-Target-URI: https://a.test/\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body + b"\r\n\r\n"
    bad = (
        "WARC/1.0\r\nWARC-Type: response\r\n"
        "WARC-Target-URI: https://b.test/\r\n"
        "Content-Length: not-a-number\r\n\r\n"
    ).encode() + body + b"\r\n\r\n"
    p = tmp_path / "mix.warc"
    p.write_bytes(good + bad + good)
    with caplog.at_level(logging.WARNING, logger="dumb_crawler_ray.sources.warc"):
        got = list(iter_warc_pages(str(p)))
    assert got == [("https://a.test/", "hi")]  # record after the break lost
    assert any("Content-Length" in r.message and str(p) in r.message
               for r in caplog.records)
