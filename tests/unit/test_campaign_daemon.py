"""Campaign daemon tests: job lifecycle, dedup, admission, HTTP API."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import (
    AdmissionError,
    CampaignDaemon,
    CampaignSpec,
    RunSpec,
    serve_http,
    smoke_campaign,
)

TINY = CampaignSpec(
    name="tiny",
    runs=(RunSpec(app="Miniaero", mode="aggregate", scale=0.1),),
)


def _wait_done(daemon, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = daemon.status(job_id)["state"]
        if state in ("done", "error", "cancelled"):
            return state
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} still {state}")


# ------------------------------------------------------------ lifecycle

def test_job_lifecycle_and_result_manifest(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d")
    try:
        ticket = daemon.submit(TINY, submitter="t")
        assert ticket["state"] == "queued" and not ticket["dedup"]
        assert _wait_done(daemon, ticket["job"]) == "done"

        status = daemon.status(ticket["job"])
        assert status["spec_hash"] == TINY.spec_hash
        assert status["progress"]["state"] == "done"

        result = daemon.result(ticket["job"])
        assert result["runs"] == 1 and result["failed"] == []
        assert result["report_text"].startswith("== campaign tiny ==")
        # Every artifact is content-addressed and retrievable.
        report_digest = result["artifacts"]["campaign_report.txt"]
        assert daemon.artifact(report_digest).decode() == (
            result["report_text"])

        stats = daemon.stats()
        assert stats["counters"]["completed"] == 1
        assert stats["runs_completed"] == 1
        assert stats["runs_per_sec"] > 0
    finally:
        daemon.shutdown()


def test_identical_submission_dedups_to_same_job(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d", autostart=False)
    first = daemon.submit(TINY, submitter="a")
    again = daemon.submit(TINY, submitter="b")  # other submitter, same spec
    assert again["dedup"] and again["job"] == first["job"]
    daemon.start()
    try:
        assert _wait_done(daemon, first["job"]) == "done"
        # Deduplicating against a *finished* job returns it immediately.
        done = daemon.submit(TINY, submitter="c")
        assert done["dedup"] and done["state"] == "done"
        assert daemon.stats()["counters"]["dedup_jobs"] == 2
    finally:
        daemon.shutdown()


def test_admission_control_quota_and_queue_bounds(tmp_path):
    daemon = CampaignDaemon(
        tmp_path / "d", autostart=False,
        max_queue=3, max_pending_per_submitter=2)
    base = smoke_campaign()
    daemon.submit(base.with_overrides(seed=1), submitter="a")
    daemon.submit(base.with_overrides(seed=2), submitter="a")
    with pytest.raises(AdmissionError) as exc:
        daemon.submit(base.with_overrides(seed=3), submitter="a")
    assert exc.value.code == 429

    daemon.submit(base.with_overrides(seed=3), submitter="b")
    with pytest.raises(AdmissionError) as exc:
        daemon.submit(base.with_overrides(seed=4), submitter="c")
    assert exc.value.code == 503
    counters = daemon.stats()["counters"]
    assert counters["rejected_429"] == 1
    assert counters["rejected_503"] == 1
    daemon.shutdown()  # cancels the queued-but-unstarted jobs


def test_shutdown_cancels_queued_jobs_and_refuses_submissions(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d", autostart=False)
    ticket = daemon.submit(TINY)
    daemon.start()
    daemon.shutdown()
    assert daemon.status(ticket["job"])["state"] in ("done", "cancelled")
    with pytest.raises(AdmissionError) as exc:
        daemon.submit(smoke_campaign())
    assert exc.value.code == 503


def test_result_of_unfinished_job_is_conflict(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d", autostart=False)
    ticket = daemon.submit(TINY)
    with pytest.raises(AdmissionError) as exc:
        daemon.result(ticket["job"])
    assert exc.value.code == 409
    with pytest.raises(KeyError):
        daemon.status("no-such-job")
    daemon.shutdown()


def test_artifact_store_dedups_across_jobs(tmp_path):
    """Two jobs with byte-identical artifacts share store objects."""
    daemon = CampaignDaemon(tmp_path / "d")
    try:
        a = daemon.submit(TINY, submitter="x")
        assert _wait_done(daemon, a["job"]) == "done"
        # A different campaign *name* forces a new job, but its report
        # content differs too -- so craft a second job whose spans of
        # artifacts overlap: resubmitting after completion dedups at job
        # level, so instead store the same report bytes directly.
        digest = daemon.result(a["job"])["artifacts"]["campaign_report.txt"]
        before = daemon.store.stats["dedup_hits"]
        assert daemon.store.put_bytes(daemon.artifact(digest)) == digest
        assert daemon.store.stats["dedup_hits"] == before + 1
    finally:
        daemon.shutdown()


# ----------------------------------------------------------------- HTTP

def _request(url, path, body=None):
    req = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if body is not None else "GET")
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read().decode())


@pytest.fixture
def http_daemon(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d")
    server = serve_http(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield daemon, server, f"http://{host}:{port}"
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    daemon.shutdown()


def test_http_round_trip_submit_poll_fetch(http_daemon):
    _daemon, _server, url = http_daemon
    ticket = _request(url, "/submit", {
        "campaign": {"builtin": "smoke"}, "submitter": "http"})
    assert ticket["state"] == "queued"

    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status = _request(url, f"/status?job={ticket['job']}")
        if status["state"] in ("done", "error"):
            break
        time.sleep(0.1)
    assert status["state"] == "done"

    result = _request(url, f"/result?job={ticket['job']}")
    assert result["report_text"].startswith("== campaign smoke ==")
    blob = urllib.request.urlopen(
        url + "/artifact?digest="
        + result["artifacts"]["campaign_report.txt"], timeout=30).read()
    assert blob.decode() == result["report_text"]
    stats = _request(url, "/stats")
    assert stats["counters"]["completed"] == 1


def test_http_errors_map_to_status_codes(http_daemon):
    _daemon, _server, url = http_daemon
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/status?job=nope")
    assert exc.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/submit", {"campaign": {"builtin": "garbage"}})
    assert exc.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/nope")
    assert exc.value.code == 404


def _raw_post(url, path, headers, body=b""):
    """POST with exactly the given headers (no implicit Content-Length);
    returns (status, JSON reply).  A short socket timeout turns a
    handler that blocks on the body into a test failure, not a hang."""
    import http.client
    from urllib.parse import urlparse

    u = urlparse(url)
    conn = http.client.HTTPConnection(u.hostname, u.port, timeout=10)
    try:
        conn.putrequest("POST", path, skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders(body or None)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


@pytest.mark.parametrize("length", [None, "abc", "1.5", "-1", "-100"])
def test_http_post_rejects_bad_content_length(http_daemon, length):
    """Missing, non-integer and negative lengths are 400 -- never an
    exception inside the handler (no reply) or ``read(-1)`` (blocks
    until the client hangs up)."""
    _daemon, _server, url = http_daemon
    headers = {"Content-Type": "application/json"}
    if length is not None:
        headers["Content-Length"] = length
    status, reply = _raw_post(url, "/submit", headers)
    assert status == 400
    assert "Content-Length" in reply["error"]


def test_http_post_refuses_oversized_body_unread(http_daemon):
    """A body over MAX_BODY_BYTES gets 413 before a byte of it is read:
    the client announces the size and sends nothing."""
    from repro.campaign.daemon import MAX_BODY_BYTES

    daemon, _server, url = http_daemon
    status, reply = _raw_post(url, "/submit", {
        "Content-Type": "application/json",
        "Content-Length": str(MAX_BODY_BYTES + 1)})
    assert status == 413
    assert daemon.counters["submitted"] == 0
    # A body of exactly the bound is read and judged on its content.
    status, reply = _raw_post(url, "/submit", {
        "Content-Type": "application/json",
        "Content-Length": str(MAX_BODY_BYTES)}, b" " * MAX_BODY_BYTES)
    assert status == 400


@pytest.fixture
def short_request_timeout(monkeypatch):
    """Handler read timeout of 0.5 s; list before ``http_daemon``."""
    import repro.campaign.daemon as daemon_mod

    monkeypatch.setattr(daemon_mod, "REQUEST_TIMEOUT_SECONDS", 0.5)


def test_http_short_body_times_out_and_closes(short_request_timeout,
                                              http_daemon):
    """A client that announces more body than it sends loses its
    connection after the read timeout instead of holding the handler."""
    import socket
    from urllib.parse import urlparse

    daemon, _server, url = http_daemon
    u = urlparse(url)
    with socket.create_connection((u.hostname, u.port), timeout=10) as s:
        s.sendall(b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                  b"Content-Type: application/json\r\n"
                  b"Content-Length: 100\r\n\r\n{\"campaign\"")
        assert s.recv(4096) == b""  # closed, no reply
    assert daemon.counters["submitted"] == 0
    # The daemon keeps serving well-formed requests.
    assert _request(url, "/stats")["counters"]["submitted"] == 0


@pytest.mark.parametrize("body", [b"[]", b"3", b'"x"', b"null", b"{nope"])
def test_http_post_rejects_non_object_json(http_daemon, body):
    daemon, _server, url = http_daemon
    status, reply = _raw_post(url, "/submit", {
        "Content-Type": "application/json",
        "Content-Length": str(len(body))}, body)
    assert status == 400
    assert "JSON" in reply["error"]
    # The daemon keeps serving after every refusal.
    assert _request(url, "/stats")["counters"]["submitted"] == 0


@pytest.mark.parametrize("campaign", [
    {"name": "x", "runs": 5},
    {"builtin": ["x"]},
    {"builtin": "smoke", "scale": "big"},
    {"builtin": "smoke", "workers": 2},
    {"name": "x", "runs": [{"app": "Miniaero", "bogus": 1}]},
    {"name": "x", "runs": [3]},
    {"name": "x", "runs": ["Miniaero"]},
    {"runs": [{"app": "NoSuch"}]},
    {"name": "x", "runs": [{"app": "NoSuch"}]},
    {"name": "x", "runs": [{"app": "Miniaero", "mode": "nosuch"}]},
    {"name": "x", "runs": [{"app": "Miniaero", "scale": "0.1"}]},
    '{"name": "x", "runs": [{"app": "NoSuch"}]}',
], ids=repr)
def test_http_submit_refuses_malformed_campaign(http_daemon, campaign):
    """Wrong types, unknown keys and unknown apps or passes are 400 at
    submit -- never a dropped connection, never queued to fail later."""
    daemon, _server, url = http_daemon
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/submit", {"campaign": campaign})
    assert exc.value.code == 400
    assert daemon.counters["submitted"] == 0
    assert _request(url, "/stats")["counters"]["submitted"] == 0


def test_http_builtin_never_resolves_a_host_path(http_daemon, tmp_path):
    """``builtin`` names only builtin campaigns: a path to a valid spec
    file on the daemon's host is refused, not read."""
    daemon, _server, url = http_daemon
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(TINY.to_json())
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/submit", {"campaign": {"builtin": str(spec_file)}})
    assert exc.value.code == 400
    assert daemon.counters["submitted"] == 0


def test_http_submit_refuses_non_string_submitter(http_daemon):
    daemon, _server, url = http_daemon
    with pytest.raises(urllib.error.HTTPError) as exc:
        _request(url, "/submit", {"campaign": {"builtin": "smoke"},
                                  "submitter": ["a"]})
    assert exc.value.code == 400
    assert daemon.counters["submitted"] == 0


def test_http_artifact_rejects_path_escapes(http_daemon):
    """/artifact must 404 anything that is not a sha256 digest -- an
    absolute path or ../ sequence must never escape the store root."""
    from urllib.parse import quote

    _daemon, _server, url = http_daemon
    for bad in ("/etc/passwd", "../../../../etc/passwd",
                "..", "0" * 62 + "/x"):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(
                url + "/artifact?digest=" + quote(bad, safe=""),
                timeout=30)
        assert exc.value.code == 404
    # A well-formed but unknown digest is also a plain 404.
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(
            url + "/artifact?digest=" + "0" * 64, timeout=30)
    assert exc.value.code == 404


def test_daemon_pool_sized_for_daemon_lifetime_not_first_job(
        tmp_path, monkeypatch):
    """The standing pool must not be capped at the first job's planned
    width; later, wider jobs share the same pool."""
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    daemon = CampaignDaemon(tmp_path / "d", autostart=False)
    try:
        pool = daemon._ensure_pool(1)
        assert pool.workers == 3
    finally:
        daemon.shutdown()


def test_http_shutdown_stops_server(tmp_path):
    daemon = CampaignDaemon(tmp_path / "d")
    server = serve_http(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    reply = _request(f"http://{host}:{port}", "/shutdown", {})
    assert reply["state"] == "stopping"
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.server_close()
    daemon.shutdown()
