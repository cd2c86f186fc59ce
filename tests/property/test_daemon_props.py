"""Property: the daemon answers every ``POST /submit`` body.

Arbitrary JSON -- and near-miss campaign shapes built from the real
field names, targets, passes and builtins -- posted to ``/submit``
always gets a 200 or a 4xx reply, never a dropped connection, and
``/stats`` still answers afterwards.  The daemon's scheduler is not
started, so a body that happens to be a valid campaign is queued but
never run; its queue bounds are raised so admission control (503) does
not mask a validation gap.
"""

import http.client
import json
import threading
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    BUILTIN_CAMPAIGNS,
    CampaignDaemon,
    RunSpec,
    serve_http,
)
from repro.campaign.spec import PASS_NAMES
from repro.study.targets import TARGET_NAMES

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)

#: Values a real spec would carry, mixed with arbitrary ones.
near_values = (
    json_values | st.sampled_from(TARGET_NAMES) | st.sampled_from(PASS_NAMES)
    | st.sampled_from(sorted(BUILTIN_CAMPAIGNS)) | st.floats(0.01, 2.0))

run_entries = json_values | st.dictionaries(
    st.sampled_from([f.name for f in fields(RunSpec)] + ["bogus"]),
    near_values, max_size=6)

campaigns = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"name": near_values, "runs": st.lists(run_entries, max_size=3)},
        optional={"extra": json_values}),
    st.dictionaries(
        st.sampled_from(
            ["builtin", "scale", "seed", "telemetry", "tracing", "x"]),
        near_values, max_size=4),
)

bodies = json_values | st.fixed_dictionaries(
    {"campaign": campaigns | campaigns.map(json.dumps)},
    optional={"submitter": json_values | st.text(max_size=8)})


@pytest.fixture(scope="module")
def server_addr(tmp_path_factory):
    daemon = CampaignDaemon(
        tmp_path_factory.mktemp("daemon"), autostart=False,
        max_queue=1 << 30, max_pending_per_submitter=1 << 30)
    server = serve_http(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[:2]
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    daemon.shutdown()


def _call(addr, method, path, body=None) -> int:
    """One request on a fresh connection; its status code.  A dropped
    connection raises (``RemoteDisconnected``) and fails the example."""
    conn = http.client.HTTPConnection(*addr, timeout=30)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        resp.read()
        return resp.status
    finally:
        conn.close()


@settings(max_examples=300, deadline=None)
@given(body=bodies)
def test_submit_always_answers_200_or_4xx(server_addr, body):
    status = _call(server_addr, "POST", "/submit", json.dumps(body).encode())
    assert status == 200 or 400 <= status < 500, (status, body)
    assert _call(server_addr, "GET", "/stats") == 200
