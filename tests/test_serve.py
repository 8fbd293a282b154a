"""End-to-end tests of the ``spsta serve`` daemon.

The guarantees pinned here (docs/serving.md):

- a repeated query is a cache **hit** whose payload is *bit-identical*
  to the cold response (same JSON serialization, replayed);
- a delay edit re-times incrementally and the served numbers match a
  fresh full :func:`run_spsta` over the same effective delays exactly;
- reverting an edit restores the original fingerprint, so pre-edit
  cache entries become valid again (keys are semantic, not temporal);
- malformed, oversized, unknown-target, and lint-rejected requests are
  refused with machine-readable error codes and never kill the daemon;
- the LRU honors ``--cache-entries`` and the optional disk tier makes a
  *restarted* daemon start warm with bit-identical payloads;
- the stdio transport round-trips a scripted session through a real
  subprocess.
"""

from __future__ import annotations

import json
from pathlib import Path
import subprocess
import sys

import pytest

from repro.core.incremental_spsta import (
    assert_matches_full,
    fresh_algebra_like,
)
from repro.core.inputs import CONFIG_I
from repro.core.spsta import run_spsta
from repro.netlist.benchmarks import benchmark_circuit
from repro.serve import (
    PROTOCOL_VERSION,
    RequestError,
    ResultCache,
    Server,
    ServeCacheError,
    ServeOptions,
    validate_request,
)
from repro.serve.protocol import parse_delay_model, parse_grid

BENCH_TINY = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"

REPO_ROOT = Path(__file__).resolve().parent.parent


def _serve_subprocess(session_lines):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve"],
        input="\n".join(json.dumps(r) for r in session_lines) + "\n",
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": "/usr/bin:/bin"},
        cwd=str(REPO_ROOT))


def _req(server, **fields):
    fields.setdefault("v", PROTOCOL_VERSION)
    return server.handle(fields)


def _payload_text(response):
    """The canonical serialization the cache stores/replays."""
    return json.dumps(response["result"], sort_keys=True)


@pytest.fixture()
def server():
    return Server(ServeOptions(cache_entries=32))


# -- protocol validation -----------------------------------------------------

class TestProtocol:
    def test_not_an_object(self):
        with pytest.raises(RequestError):
            validate_request([1, 2, 3])

    def test_wrong_version(self):
        with pytest.raises(RequestError):
            validate_request({"v": 99, "op": "status"})

    def test_unknown_op(self):
        with pytest.raises(RequestError):
            validate_request({"v": 1, "op": "explode"})

    def test_bad_direction(self):
        with pytest.raises(RequestError):
            validate_request({"v": 1, "op": "query", "circuit": "s27",
                              "net": "G17", "direction": "sideways"})

    def test_negative_sigma(self):
        with pytest.raises(RequestError):
            validate_request({"v": 1, "op": "edit", "circuit": "s27",
                              "gate": "G14", "mu": 1.0, "sigma": -0.5})

    def test_valid_request_passes(self):
        payload = {"v": 1, "id": 7, "op": "analyze", "circuit": "s27"}
        assert validate_request(payload) is payload

    def test_delay_specs_round_trip(self):
        from repro.core.delay import NormalDelay, UnitDelay
        from repro.core.nldm import FrozenDelays

        assert parse_delay_model(None) == UnitDelay()
        assert parse_delay_model(
            {"kind": "normal", "mu": 2.0, "sigma": 0.2}) \
            == NormalDelay(2.0, 0.2)
        assert parse_delay_model(
            {"kind": "frozen", "delays": {"g": 1.5}}) \
            == FrozenDelays({"g": 1.5}, 0.0)
        with pytest.raises(RequestError):
            parse_delay_model({"kind": "frozen"})
        with pytest.raises(RequestError):
            parse_delay_model({"kind": "quantum"})

    def test_grid_spec(self):
        grid = parse_grid("-8:60:2048")
        assert grid.n == 2048
        with pytest.raises(RequestError):
            parse_grid("1:2")
        with pytest.raises(RequestError):
            parse_grid("a:b:c")


class TestPrebuiltValidator:
    """The jsonschema path validates with one validator built on first
    use, and refuses each envelope with the message ``jsonschema.validate``
    would have produced."""

    BAD = (
        {"v": 99, "op": "status"},
        {"v": 1, "op": "explode"},
        {"v": 1},
        {"v": 1, "op": "query", "circuit": "s27", "net": "G17",
         "direction": "sideways"},
        {"v": 1, "op": "edit", "circuit": "s27", "gate": "G14",
         "mu": 1.0, "sigma": -0.5},
        {"v": 1, "op": "analyze", "circuit": "", "grid": "1:2"},
        {"v": 1, "op": "analyze", "delay": {"kind": "normal",
                                             "sigma": "wide"}},
        {"v": 1, "op": "analyze", "id": [1], "algebra": "quantum"},
    )

    @pytest.fixture()
    def jsonschema(self):
        return pytest.importorskip("jsonschema")

    def test_messages_match_jsonschema_validate(self, jsonschema):
        from repro.serve.protocol import REQUEST_SCHEMA
        for payload in self.BAD:
            with pytest.raises(jsonschema.ValidationError) as expected:
                jsonschema.validate(payload, REQUEST_SCHEMA)
            with pytest.raises(RequestError) as refused:
                validate_request(payload)
            assert str(refused.value) == (
                f"schema violation: {expected.value.message}"), payload
            assert refused.value.code == "bad-request"

    def test_schema_is_checked_once(self, jsonschema, monkeypatch):
        from repro.serve import protocol
        cls = jsonschema.validators.validator_for(protocol.REQUEST_SCHEMA)
        checks = []
        real_check = cls.check_schema

        def counting_check(klass, schema, *args, **kwargs):
            checks.append(schema)
            return real_check(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema",
                            classmethod(counting_check))
        protocol._request_validator.cache_clear()
        try:
            good = {"v": 1, "id": 1, "op": "analyze", "circuit": "s27"}
            for _ in range(3):
                assert validate_request(good) is good
            for payload in self.BAD:
                with pytest.raises(RequestError):
                    validate_request(payload)
        finally:
            protocol._request_validator.cache_clear()
        assert checks == [protocol.REQUEST_SCHEMA]


# -- cold/warm caching -------------------------------------------------------

class TestCaching:
    def test_warm_repeat_is_bit_identical_cache_hit(self, server):
        cold = _req(server, id=1, op="analyze", circuit="s27")
        warm = _req(server, id=2, op="analyze", circuit="s27")
        assert cold["ok"] and not cold["cached"]
        assert warm["ok"] and warm["cached"]
        assert _payload_text(cold) == _payload_text(warm)

    def test_warm_query_meets_latency_bound(self):
        """The acceptance criterion: warm repeat at <= 1/5 cold latency
        on s1196 under the moment algebra (in practice ~1000x)."""
        server = Server(ServeOptions())
        cold = _req(server, id=1, op="analyze", circuit="s1196")
        warm = _req(server, id=2, op="analyze", circuit="s1196")
        assert warm["cached"]
        assert _payload_text(cold) == _payload_text(warm)
        assert warm["seconds"] <= cold["seconds"] / 5

    def test_distinct_parameters_key_separately(self, server):
        a = _req(server, id=1, op="analyze", circuit="s27")
        b = _req(server, id=2, op="analyze", circuit="s27",
                 algebra="mixture")
        c = _req(server, id=3, op="analyze", circuit="s27", config="II")
        d = _req(server, id=4, op="analyze", circuit="s27",
                 delay={"kind": "normal", "mu": 2.0, "sigma": 0.1})
        assert not any(r["cached"] for r in (a, b, c, d))
        assert len({_payload_text(r) for r in (a, b, c, d)}) == 4

    def test_query_and_analyze_key_separately(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        q = _req(server, id=2, op="query", circuit="s27", net="G17")
        assert q["ok"] and not q["cached"]
        assert _req(server, id=3, op="query", circuit="s27",
                    net="G17")["cached"]

    def test_lru_eviction_honors_cache_entries(self):
        server = Server(ServeOptions(cache_entries=2))
        nets = ["G17", "G10", "G11"]
        for i, net in enumerate(nets):
            _req(server, id=i, op="query", circuit="s27", net=net)
        assert server.cache.evictions == 1
        # oldest key (G17) evicted -> recomputed; newest still cached
        assert not _req(server, id=10, op="query", circuit="s27",
                        net="G17")["cached"]
        assert _req(server, id=11, op="query", circuit="s27",
                    net="G11")["cached"]

    def test_invalidate_purges_circuit(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        inv = _req(server, id=2, op="invalidate", circuit="s27")
        assert inv["result"]["sessions_dropped"] == 1
        assert inv["result"]["cache_entries_purged"] == 1
        assert not _req(server, id=3, op="analyze", circuit="s27")["cached"]


# -- incremental edits -------------------------------------------------------

class TestEdits:
    def test_edit_retimes_incrementally(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        edit = _req(server, id=2, op="edit", circuit="s27", gate="G14",
                    mu=2.5, sigma=0.3)
        retime = edit["result"]["retime"]
        assert retime["mode"] == "incremental"
        assert 0 < retime["recomputed"] <= retime["total_gates"]

    @pytest.mark.parametrize("algebra", [
        {"algebra": "moments"},
        {"algebra": "mixture"},
        {"algebra": "grid", "grid": "-8:60:512"},
    ], ids=["moments", "mixture", "grid"])
    def test_edited_state_matches_fresh_full_run_bit_exact(self, server,
                                                           algebra):
        """The acceptance criterion: post-edit responses equal a fresh
        full run_spsta over the same effective delays, exactly."""
        _req(server, id=1, op="edit", circuit="s27", gate="G14",
             mu=2.5, sigma=0.3, **algebra)
        _req(server, id=2, op="edit", circuit="s27", gate="G8",
             mu=0.7, sigma=0.05, **algebra)
        (session,) = server._sessions.values()
        assert_matches_full(session.inc, tolerance=0.0)
        served = _req(server, id=3, op="query", circuit="s27",
                      net="G17", **algebra)["result"]["reports"]
        fresh = run_spsta(benchmark_circuit("s27"), CONFIG_I,
                          session.inc.effective_delay_model(),
                          fresh_algebra_like(session.inc.algebra))
        for report in served:
            p, mean, std = fresh.report(report["net"],
                                        report["direction"])
            assert report["probability"] == p
            assert report["mean"] == mean
            assert report["std"] == std

    def test_warm_grid_session_matches_a_fresh_frozen_daemon(self, server):
        """A grid session edited in place answers exactly like a new
        daemon handed the same per-gate delays up front (a ``frozen``
        spec), so a restart never changes a served number."""
        base = {"circuit": "s344", "algebra": "grid", "grid": "-8:60:512",
                "delay": {"kind": "normal", "mu": 1.0, "sigma": 0.1}}
        _req(server, id=0, op="analyze", **base)
        gates = [g.name for g in
                 benchmark_circuit("s344").combinational_gates]
        edits = {gates[2]: 1.4, gates[len(gates) // 2]: 0.8,
                 gates[-4]: 1.25}
        for i, (gate, mu) in enumerate(edits.items()):
            assert _req(server, id=i + 1, op="edit", gate=gate, mu=mu,
                        sigma=mu * 0.1, **base)["ok"]
        assert _req(server, id=9, op="edit", gate=gates[-4], clear=True,
                    **base)["ok"]
        del edits[gates[-4]]
        warm = _req(server, id=10, op="analyze", **base)
        frozen = {name: edits.get(name, 1.0) for name in gates}
        fresh = _req(Server(), id=11, op="analyze",
                     **{**base, "delay": {"kind": "frozen",
                                          "delays": frozen,
                                          "relative_sigma": 0.1}})
        assert warm["ok"] and fresh["ok"]
        assert warm["result"]["endpoints"] == fresh["result"]["endpoints"]

    def test_reverted_edit_restores_cache_validity(self, server):
        before = _req(server, id=1, op="query", circuit="s27", net="G17")
        _req(server, id=2, op="edit", circuit="s27", gate="G14", mu=9.0)
        during = _req(server, id=3, op="query", circuit="s27", net="G17")
        assert not during["cached"]
        assert _payload_text(during) != _payload_text(before)
        _req(server, id=4, op="edit", circuit="s27", gate="G14",
             clear=True)
        after = _req(server, id=5, op="query", circuit="s27", net="G17")
        assert after["cached"]
        assert _payload_text(after) == _payload_text(before)

    def test_structural_edit_rebuilds(self, server):
        edit = _req(server, id=1, op="edit", circuit="tiny",
                    bench=BENCH_TINY)
        assert edit["ok"]
        assert edit["result"]["retime"]["mode"] == "full-rebuild"
        q = _req(server, id=2, op="query", circuit="tiny", net="y")
        assert q["ok"]
        # replacing the structure invalidates the old fingerprint
        edit2 = _req(server, id=3, op="edit", circuit="tiny",
                     bench=BENCH_TINY.replace("NAND", "NOR"))
        assert edit2["ok"]
        q2 = _req(server, id=4, op="query", circuit="tiny", net="y")
        assert not q2["cached"]
        assert _payload_text(q2) != _payload_text(q)

    def test_bad_bench_is_refused(self, server):
        response = _req(server, id=1, op="edit", circuit="tiny",
                        bench="y = AND(a, ghost)\nOUTPUT(y)\n")
        assert not response["ok"]
        assert response["error"]["code"] == "bad-request"


# -- refusals ----------------------------------------------------------------

class TestRefusals:
    def test_malformed_json(self, server):
        response = server.handle_text("{not json")
        assert not response["ok"]
        assert response["error"]["code"] == "bad-request"

    def test_oversized_request(self):
        server = Server(ServeOptions(max_request_bytes=128))
        response = server.handle_text("x" * 200)
        assert not response["ok"]
        assert response["error"]["code"] == "oversized-request"

    def test_unknown_circuit(self, server):
        response = _req(server, id=1, op="analyze",
                        circuit="no_such_circuit_anywhere")
        assert not response["ok"]
        assert response["error"]["code"] == "unknown-circuit"

    def test_unknown_net_and_gate(self, server):
        q = _req(server, id=1, op="query", circuit="s27", net="NOPE")
        assert q["error"]["code"] == "unknown-gate"
        e = _req(server, id=2, op="edit", circuit="s27", gate="NOPE",
                 mu=1.0)
        assert e["error"]["code"] == "unknown-gate"

    def test_lint_preflight_rejects_at_fail_on(self):
        """s27 lints clean of errors but carries warnings: a daemon at
        --fail-on warning refuses it and returns the structured report."""
        strict = Server(ServeOptions(fail_on="warning"))
        response = _req(strict, id=1, op="analyze", circuit="s27")
        assert not response["ok"]
        assert response["error"]["code"] == "lint-rejected"
        detail = response["error"]["detail"]
        assert detail["counts"]["warning"] >= 1
        # ... while the default (error) and "never" both serve it
        assert _req(Server(ServeOptions(fail_on="error")), id=2,
                    op="analyze", circuit="s27")["ok"]
        assert _req(Server(ServeOptions(fail_on="never")), id=3,
                    op="analyze", circuit="s27")["ok"]

    def test_daemon_survives_internal_errors(self, server):
        # id echoed even on failure; later requests unaffected
        bad = _req(server, id="x", op="query", circuit="s27")
        assert not bad["ok"] and bad["id"] == "x"
        assert _req(server, id="y", op="status")["ok"]


# -- result cache unit behaviour ---------------------------------------------

class TestResultCache:
    def test_disk_tier_round_trip(self, tmp_path):
        cache = ResultCache(4, tmp_path / "rc")
        cache.put("k" * 64, {"value": 1.5}, circuit="c1")
        fresh = ResultCache(4, tmp_path / "rc")
        assert fresh.get("k" * 64) == {"value": 1.5}
        assert fresh.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(4, tmp_path / "rc")
        cache.put("k" * 64, {"value": 1.5})
        cache.entry_path("k" * 64).write_bytes(b"garbage")
        fresh = ResultCache(4, tmp_path / "rc")
        assert fresh.get("k" * 64) is None
        assert fresh.disk_entries == 0

    def test_foreign_manifest_refused(self, tmp_path):
        directory = tmp_path / "rc"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"format": "something-else", "entries": {}}))
        with pytest.raises(ServeCacheError):
            ResultCache(4, directory)

    def test_invalidate_covers_disk(self, tmp_path):
        cache = ResultCache(4, tmp_path / "rc")
        cache.put("a" * 64, {"v": 1}, circuit="c1")
        cache.put("b" * 64, {"v": 2}, circuit="c2")
        assert cache.invalidate_circuit("c1") == 1
        fresh = ResultCache(4, tmp_path / "rc")
        assert fresh.get("a" * 64) is None
        assert fresh.get("b" * 64) == {"v": 2}

    def test_memory_eviction_keeps_disk_entry(self, tmp_path):
        cache = ResultCache(1, tmp_path / "rc")
        cache.put("a" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})  # evicts a from memory
        assert cache.evictions == 1
        assert cache.get("a" * 64) == {"v": 1}  # promoted back from disk
        assert cache.disk_hits == 1


# -- warm restart ------------------------------------------------------------

class TestWarmRestart:
    def test_restarted_daemon_serves_from_disk_bit_identical(self,
                                                             tmp_path):
        first = Server(ServeOptions(cache_dir=str(tmp_path / "rc")))
        cold = _req(first, id=1, op="analyze", circuit="s27")
        assert not cold["cached"]
        restarted = Server(ServeOptions(cache_dir=str(tmp_path / "rc")))
        warm = _req(restarted, id=2, op="analyze", circuit="s27")
        assert warm["cached"]
        assert restarted.cache.disk_hits == 1
        assert _payload_text(warm) == _payload_text(cold)


# -- stdio transport ---------------------------------------------------------

class TestStdioTransport:
    def test_scripted_session_round_trips_through_subprocess(self):
        session = [
            {"v": 1, "id": 1, "op": "analyze", "circuit": "s27"},
            {"v": 1, "id": 2, "op": "analyze", "circuit": "s27"},
            {"v": 1, "id": 3, "op": "edit", "circuit": "s27",
             "gate": "G14", "mu": 2.0},
            {"v": 1, "id": 4, "op": "bogus"},
            {"v": 1, "id": 5, "op": "shutdown"},
        ]
        proc = _serve_subprocess(session)
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line)
                     for line in proc.stdout.strip().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3, 4, 5]
        assert responses[0]["ok"] and not responses[0]["cached"]
        assert responses[1]["ok"] and responses[1]["cached"]
        assert json.dumps(responses[0]["result"], sort_keys=True) \
            == json.dumps(responses[1]["result"], sort_keys=True)
        assert responses[2]["ok"]
        assert responses[2]["result"]["retime"]["mode"] == "incremental"
        assert not responses[3]["ok"]
        assert responses[4]["ok"]

    def test_eof_without_shutdown_exits_cleanly(self):
        proc = _serve_subprocess([{"v": 1, "id": 1, "op": "status"}])
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip())["ok"]


# -- HTTP transport ----------------------------------------------------------

@pytest.fixture()
def http_daemon(monkeypatch):
    """A live ``serve_http`` on an ephemeral port with a 64-byte request
    cap; yields the bound ``(host, port)``."""
    import threading

    import repro.serve.daemon as daemon_module

    started = threading.Event()
    servers = []

    class _Recording(daemon_module.ThreadingHTTPServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)
            started.set()

    monkeypatch.setattr(daemon_module, "ThreadingHTTPServer", _Recording)
    thread = threading.Thread(
        target=daemon_module.serve_http,
        args=(Server(ServeOptions(max_request_bytes=64)), "127.0.0.1", 0),
        daemon=True)
    thread.start()
    assert started.wait(10)
    yield servers[0].server_address
    servers[0].shutdown()
    thread.join(10)


def _raw_post(address, headers, body):
    """Send one POST without closing the write side, so a server that
    reads past the declared length blocks instead of hitting EOF; return
    ``(status, envelope)``."""
    import socket

    with socket.create_connection(address, timeout=10) as sock:
        head = "".join(f"{name}: {value}\r\n" for name, value in headers)
        sock.sendall(f"POST / HTTP/1.1\r\nHost: x\r\n{head}\r\n"
                     .encode() + body)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            pass    # closed with a refused body still unread
    reply = b"".join(chunks).decode()
    assert reply, "connection closed without a response"
    head, _, body = reply.partition("\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestHttpTransport:
    def test_negative_content_length_is_refused_unread(self, http_daemon):
        status, envelope = _raw_post(http_daemon, [("Content-Length", "-1")],
                                     b"x" * 500)
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"

    def test_non_integer_content_length_is_refused(self, http_daemon):
        status, envelope = _raw_post(http_daemon, [("Content-Length", "abc")],
                                     b"{}")
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"

    def test_missing_content_length_is_refused(self, http_daemon):
        status, envelope = _raw_post(http_daemon, [], b"")
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"

    def test_oversized_and_valid_requests(self, http_daemon):
        status, envelope = _raw_post(http_daemon, [("Content-Length", "500")],
                                     b"x" * 500)
        assert status == 413
        assert envelope["error"]["code"] == "oversized-request"
        body = json.dumps({"v": PROTOCOL_VERSION, "id": 1,
                           "op": "status"}).encode()
        status, envelope = _raw_post(
            http_daemon, [("Content-Length", str(len(body)))], body)
        assert status == 200 and envelope["ok"]


# -- status ------------------------------------------------------------------

class TestStatus:
    def test_status_reports_sessions_and_cache(self, server):
        _req(server, id=1, op="analyze", circuit="s27")
        _req(server, id=2, op="analyze", circuit="s27")
        status = _req(server, id=3, op="status")["result"]
        (sess,) = status["sessions"]
        assert sess["circuit"] == "s27"
        assert status["cache"]["hits"] == 1
        assert status["cache"]["entries"] == 1
        assert status["requests_served"] == 3

    def test_session_log_records_pairs(self, tmp_path):
        from repro.serve.daemon import _SessionLog

        server = Server(ServeOptions())
        server.session_log = _SessionLog(tmp_path / "log.jsonl")
        _req(server, id=1, op="status")
        server.handle_text("junk")
        lines = [json.loads(line) for line in
                 (tmp_path / "log.jsonl").read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["response"]["ok"]
        assert not lines[1]["response"]["ok"]
