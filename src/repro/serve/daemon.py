"""The ``spsta serve`` long-lived incremental analysis daemon.

The production-traffic story (ROADMAP): a process that loads netlists
once, keeps per-circuit warm state — the parsed netlist, its
topological levelization, and a :class:`~repro.core.incremental_spsta.
IncrementalSpsta` instance holding every net's four-value probabilities
and TOP functions — and answers repeated timing queries without
re-paying full-analysis cost:

- a repeated ``analyze``/``query`` is answered from a result cache
  keyed by the **canonical fingerprints** of
  :mod:`repro.sim.checkpoint` (circuit structure, input statistics,
  effective delay model, algebra, request shape), so identical queries
  return bit-identical payloads without touching the engines;
- a delay ``edit`` re-times only the dirty fan-out cone via the
  level-batched worklist of :class:`IncrementalSpsta` (provably
  bit-exact against a fresh full pass), after which new queries compute
  against the edited state and *old* cached results remain valid under
  their own delay fingerprint.  Each session builds and repairs on its
  algebra's ``run_spsta`` production path: grid sessions on the compiled
  program of :mod:`repro.core.scenario` (compiled once per session, one
  vectorized level step per dirty level), moment and mixture sessions
  on the per-gate kernel;
- a structural ``edit`` (new ``.bench`` source) falls back to a full
  rebuild of that circuit's state — structure changes invalidate
  everything the fingerprints say they invalidate, and nothing more.

Request validation is the existing ``spsta lint`` preflight: a circuit
whose lint findings reach the daemon's ``--fail-on`` severity is
refused with the structured report (code ``lint-rejected``).  Startup
can run the PR 3 conformance harness as a deploy-time canary
(``--canary``): the daemon refuses to serve if any engine pair
diverges on the canary circuit.

The daemon is transport-agnostic: :meth:`Server.handle` maps one
request object to one response object; stdio (JSON Lines) and HTTP
(``http.server``) loops wrap it.  See :mod:`repro.serve.protocol` for
the envelope schema and docs/serving.md for the operations guide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import json
from pathlib import Path
import sys
import threading
import time
from typing import IO, Any, Dict, List, Mapping, Optional, Tuple

from repro.core.incremental_spsta import IncrementalSpsta
from repro.core.inputs import InputStats
from repro.hier.model import AlgebraSpec
from repro.lint import LintConfig, NetlistError, Severity, run_lint
from repro.netlist.bench import (
    BenchParseError,
    parse_bench,
    parse_bench_file,
)
from repro.netlist.core import Netlist
from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    RequestError,
    config_stats,
    error_response,
    ok_response,
    parse_algebra,
    parse_delay_model,
    validate_request,
)
from repro.sim.checkpoint import (
    circuit_fingerprint,
    delay_fingerprint,
    stats_fingerprint,
    value_fingerprint,
)
from repro.stats.normal import Normal

#: Result-payload schema version (inside the ``result`` object).
RESULT_VERSION = 1


@dataclass
class ServeOptions:
    """Daemon configuration (the ``spsta serve`` flags)."""

    fail_on: str = "error"          # lint preflight severity, or "never"
    cache_entries: int = 256        # in-memory LRU cap
    cache_dir: Optional[str] = None  # on-disk result cache (shared)
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
    default_config: str = "I"
    default_algebra: str = "moments"
    default_grid: str = "-8:60:2048"


@dataclass
class CircuitSession:
    """One circuit's warm state under a fixed (config, algebra, base
    delay) — the unit the daemon keeps resident between requests."""

    circuit: str
    netlist: Netlist
    config_label: str
    algebra_spec: AlgebraSpec
    inc: IncrementalSpsta
    circuit_hash: str
    stats_hash: str
    base_delay_hash: str
    edits: int = 0
    rebuilds: int = 0
    build_seconds: float = 0.0
    recomputed_gates: int = 0

    def delay_hash(self) -> str:
        """Fingerprint of the *effective* delay state (base + edits)."""
        return delay_fingerprint(self.inc.effective_delay_model())


@dataclass
class _SessionLog:
    """Optional JSON-Lines transcript of every request/response pair."""

    path: Path
    _handle: Optional[IO[str]] = field(default=None, repr=False)

    def record(self, request: object, response: Mapping[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps({"request": request,
                                       "response": response}) + "\n")
        self._handle.flush()


class Server:
    """The daemon core: one request object in, one response object out.

    Thread-safe via a single big lock (the engines share mutable warm
    state; requests serialize).  Transports call :meth:`handle_text`
    (framing + size cap) or :meth:`handle` (parsed objects).
    """

    def __init__(self, options: Optional[ServeOptions] = None) -> None:
        self.options = options or ServeOptions()
        if self.options.fail_on not in ("error", "warning", "never"):
            raise ValueError(
                f"fail_on must be error|warning|never, "
                f"got {self.options.fail_on!r}")
        self.cache = ResultCache(self.options.cache_entries,
                                 self.options.cache_dir)
        self._sessions: Dict[Tuple[str, str, str, str], CircuitSession] = {}
        self._netlists: Dict[str, Netlist] = {}
        self._lint_passed: Dict[Tuple[str, str], bool] = {}
        self.requests_served = 0
        self.shutdown_requested = False
        self.session_log: Optional[_SessionLog] = None
        self._lock = threading.Lock()
        self._started = time.monotonic()

    # -- transport entry points ---------------------------------------------

    def handle_text(self, line: str) -> Dict[str, Any]:
        """One serialized request -> one response object (framing layer)."""
        if len(line.encode("utf-8", errors="replace")) \
                > self.options.max_request_bytes:
            return self._log(None, error_response(
                None, "oversized-request",
                f"request exceeds --max-request-bytes "
                f"({self.options.max_request_bytes})"))
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            return self._log(line[:256], error_response(
                None, "bad-request", f"request is not JSON: {exc}"))
        return self.handle(payload)

    def handle(self, payload: object) -> Dict[str, Any]:
        """One request object -> one response object."""
        with self._lock:
            self.requests_served += 1
            request_id = (payload.get("id")
                          if isinstance(payload, dict) else None)
            try:
                request = validate_request(payload)
            except RequestError as exc:
                return self._log(payload, error_response(
                    request_id, exc.code, str(exc)))
            try:
                response = self._dispatch(request)
            except RequestError as exc:
                detail = getattr(exc, "detail", None)
                response = error_response(request_id, exc.code, str(exc),
                                          detail)
            except Exception as exc:  # noqa: BLE001 - daemon must survive
                response = error_response(
                    request_id, "internal",
                    f"{type(exc).__name__}: {exc}")
            return self._log(payload, response)

    def _log(self, request: object,
             response: Dict[str, Any]) -> Dict[str, Any]:
        if self.session_log is not None:
            self.session_log.record(request, response)
        return response

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        request_id = request.get("id")
        t0 = time.perf_counter()
        if op == "status":
            return ok_response(request_id, self._op_status(),
                               cached=False,
                               seconds=time.perf_counter() - t0)
        if op == "shutdown":
            self.shutdown_requested = True
            return ok_response(request_id, {"shutting_down": True},
                               cached=False,
                               seconds=time.perf_counter() - t0)
        if op == "invalidate":
            return ok_response(request_id, self._op_invalidate(request),
                               cached=False,
                               seconds=time.perf_counter() - t0)
        if op == "edit":
            return ok_response(request_id, self._op_edit(request),
                               cached=False,
                               seconds=time.perf_counter() - t0)
        # analyze / query: cacheable reads
        session = self._session_for(request)
        extra: Tuple[Any, ...]
        if op == "query":
            net = request.get("net")
            if not net:
                raise RequestError("query needs a 'net'")
            directions = ((request["direction"],)
                          if request.get("direction") else ("rise", "fall"))
            extra = ("query", net, directions)
        else:
            extra = ("analyze",)
        key = self._cache_key(session, extra)
        cached = self.cache.get(key)
        if cached is not None:
            return ok_response(request_id, cached, cached=True,
                               seconds=time.perf_counter() - t0)
        if op == "query":
            result = self._op_query(session, net, directions)
        else:
            result = self._op_analyze(session)
        self.cache.put(key, result, circuit=session.circuit)
        return ok_response(request_id, result, cached=False,
                           seconds=time.perf_counter() - t0)

    # -- operations ----------------------------------------------------------

    def _op_analyze(self, session: CircuitSession) -> Dict[str, Any]:
        result = session.inc.result()
        endpoints: List[Dict[str, Any]] = []
        for net in session.netlist.endpoints:
            for direction in ("rise", "fall"):
                p, mean, std = result.report(net, direction)
                endpoints.append({
                    "net": net, "direction": direction,
                    "probability": _finite(p),
                    "mean": _finite(mean), "std": _finite(std)})
        return {
            "report": "spsta-serve-analyze",
            "version": RESULT_VERSION,
            "circuit": session.circuit,
            "config": session.config_label,
            "algebra": session.algebra_spec.token(),
            "fingerprints": self._fingerprints(session),
            "n_gates": len(session.netlist.gates),
            "endpoints": endpoints,
        }

    def _op_query(self, session: CircuitSession, net: str,
                  directions: Tuple[str, ...]) -> Dict[str, Any]:
        if net not in session.inc.tops:
            raise RequestError(f"no net {net!r} in {session.circuit}",
                               "unknown-gate")
        result = session.inc.result()
        reports = []
        for direction in directions:
            p, mean, std = result.report(net, direction)
            reports.append({"net": net, "direction": direction,
                            "probability": _finite(p),
                            "mean": _finite(mean), "std": _finite(std)})
        return {
            "report": "spsta-serve-query",
            "version": RESULT_VERSION,
            "circuit": session.circuit,
            "config": session.config_label,
            "algebra": session.algebra_spec.token(),
            "fingerprints": self._fingerprints(session),
            "reports": reports,
        }

    def _op_edit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        bench = request.get("bench")
        if bench is not None:
            return self._structural_edit(request, bench)
        session = self._session_for(request)
        gate = request.get("gate")
        if not gate:
            raise RequestError(
                "edit needs a 'gate' (delay edit) or 'bench' "
                "(structural edit)")
        if gate not in session.netlist.gates \
                or gate not in {g.name for g
                                in session.netlist.combinational_gates}:
            raise RequestError(
                f"no combinational gate {gate!r} in {session.circuit}",
                "unknown-gate")
        t0 = time.perf_counter()
        if request.get("clear"):
            stats = session.inc.clear_delay(gate)
            applied: Dict[str, Any] = {"gate": gate, "cleared": True}
        else:
            mu = request.get("mu")
            if mu is None:
                raise RequestError("edit needs 'mu' (or 'clear': true)")
            sigma = float(request.get("sigma", 0.0))
            stats = session.inc.set_delay(gate, Normal(float(mu), sigma))
            applied = {"gate": gate, "mu": float(mu), "sigma": sigma}
        seconds = time.perf_counter() - t0
        session.edits += 1
        session.recomputed_gates += stats.recomputed
        return {
            "report": "spsta-serve-edit",
            "version": RESULT_VERSION,
            "circuit": session.circuit,
            "applied": applied,
            "retime": {"mode": "incremental",
                       "recomputed": stats.recomputed,
                       "skipped": stats.skipped,
                       "cone_size": stats.cone_size,
                       "total_gates":
                           len(session.netlist.combinational_gates),
                       "seconds": seconds},
            "fingerprints": self._fingerprints(session),
        }

    def _structural_edit(self, request: Dict[str, Any],
                         bench: str) -> Dict[str, Any]:
        circuit = request.get("circuit")
        if not circuit:
            raise RequestError("structural edit needs a 'circuit' name")
        try:
            netlist = parse_bench(bench, name=circuit)
        except (BenchParseError, NetlistError) as exc:
            raise RequestError(
                f"bench source does not parse: {exc}") from exc
        # Full rebuild: drop every warm session of this circuit, then
        # register the new structure and rebuild the requesting view.
        dropped = self._drop_sessions(circuit)
        self._netlists[circuit] = netlist
        self._lint_passed = {k: v for k, v in self._lint_passed.items()
                             if k[0] != circuit}
        t0 = time.perf_counter()
        session = self._session_for(request)
        seconds = time.perf_counter() - t0
        session.rebuilds += 1
        return {
            "report": "spsta-serve-edit",
            "version": RESULT_VERSION,
            "circuit": circuit,
            "applied": {"structural": True,
                        "gates": len(netlist.gates),
                        "sessions_dropped": dropped},
            "retime": {"mode": "full-rebuild",
                       "recomputed":
                           len(netlist.combinational_gates),
                       "seconds": seconds},
            "fingerprints": self._fingerprints(session),
        }

    def _op_invalidate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        circuit = request.get("circuit")
        if not circuit:
            raise RequestError("invalidate needs a 'circuit' name")
        dropped = self._drop_sessions(circuit)
        purged = self.cache.invalidate_circuit(circuit)
        self._netlists.pop(circuit, None)
        self._lint_passed = {k: v for k, v in self._lint_passed.items()
                             if k[0] != circuit}
        return {
            "report": "spsta-serve-invalidate",
            "version": RESULT_VERSION,
            "circuit": circuit,
            "sessions_dropped": dropped,
            "cache_entries_purged": purged,
        }

    def _op_status(self) -> Dict[str, Any]:
        return {
            "report": "spsta-serve-status",
            "version": RESULT_VERSION,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self._started,
            "requests_served": self.requests_served,
            "sessions": [
                {"circuit": s.circuit, "config": s.config_label,
                 "algebra": s.algebra_spec.token(),
                 "gates": len(s.netlist.gates),
                 "edits": s.edits, "rebuilds": s.rebuilds,
                 "recomputed_gates": s.recomputed_gates,
                 "build_seconds": s.build_seconds,
                 "delay_fingerprint": s.delay_hash()}
                for s in self._sessions.values()],
            "cache": {"entries": len(self.cache),
                      "max_entries": self.cache.max_entries,
                      "hits": self.cache.hits,
                      "misses": self.cache.misses,
                      "evictions": self.cache.evictions,
                      "disk_entries": self.cache.disk_entries,
                      "disk_hits": self.cache.disk_hits,
                      "disk": self.options.cache_dir},
            "lint_fail_on": self.options.fail_on,
        }

    # -- session management --------------------------------------------------

    def _session_for(self, request: Dict[str, Any]) -> CircuitSession:
        """The warm session a request addresses, building it on miss."""
        circuit = request.get("circuit")
        if not circuit:
            raise RequestError(f"{request['op']} needs a 'circuit'")
        config_label = request.get("config", self.options.default_config)
        algebra_spec = parse_algebra(
            request.get("algebra", self.options.default_algebra),
            request.get("grid", self.options.default_grid))
        base_delay = parse_delay_model(request.get("delay"))
        base_delay_hash = delay_fingerprint(base_delay)
        key = (circuit, config_label, algebra_spec.token(),
               base_delay_hash)
        session = self._sessions.get(key)
        if session is not None:
            return session
        netlist = self._load_netlist(circuit)
        stats = config_stats(config_label)
        self._lint_preflight(circuit, netlist, config_label, stats)
        t0 = time.perf_counter()
        inc = IncrementalSpsta(netlist, stats, base_delay,
                               algebra_spec.build())
        session = CircuitSession(
            circuit=circuit, netlist=netlist, config_label=config_label,
            algebra_spec=algebra_spec, inc=inc,
            circuit_hash=circuit_fingerprint(netlist),
            stats_hash=stats_fingerprint(stats),
            base_delay_hash=base_delay_hash,
            build_seconds=time.perf_counter() - t0)
        self._sessions[key] = session
        return session

    def _load_netlist(self, circuit: str) -> Netlist:
        cached = self._netlists.get(circuit)
        if cached is not None:
            return cached
        from repro.netlist.benchmarks import (
            benchmark_circuit,
            benchmark_names,
        )
        if circuit in benchmark_names():
            netlist = benchmark_circuit(circuit)
        else:
            path = Path(circuit)
            if not path.exists():
                raise RequestError(
                    f"unknown circuit {circuit!r}: not a benchmark and "
                    f"not a file", "unknown-circuit")
            try:
                netlist = parse_bench_file(path)
            except (BenchParseError, NetlistError) as exc:
                raise RequestError(
                    f"circuit {circuit!r} does not parse: {exc}",
                    "unknown-circuit") from exc
        self._netlists[circuit] = netlist
        return netlist

    def _lint_preflight(self, circuit: str, netlist: Netlist,
                        config_label: str, stats: InputStats) -> None:
        """``spsta lint`` as request validation (the PR 4 preflight)."""
        if self.options.fail_on == "never":
            return
        lint_key = (circuit, config_label)
        if self._lint_passed.get(lint_key):
            return
        report = run_lint(netlist, LintConfig(input_stats=stats))
        threshold = Severity.parse(self.options.fail_on)
        if not report.passed(threshold):
            error = RequestError(
                f"circuit {circuit!r} rejected by lint preflight at "
                f"--fail-on {self.options.fail_on} "
                f"({report.counts['error']} errors, "
                f"{report.counts['warning']} warnings)",
                "lint-rejected")
            error.detail = dict(report.to_dict())  # type: ignore[attr-defined]
            raise error
        self._lint_passed[lint_key] = True

    def _drop_sessions(self, circuit: str) -> int:
        victims = [key for key in self._sessions if key[0] == circuit]
        for key in victims:
            del self._sessions[key]
        return len(victims)

    # -- cache keys ----------------------------------------------------------

    def _cache_key(self, session: CircuitSession,
                   extra: Tuple[Any, ...]) -> str:
        """The fingerprint key identical queries collide on.

        Components are exactly the checkpoint-manifest fingerprints
        (circuit structure, stats, *effective* delay, algebra) plus the
        request shape — so a key hit is a semantic hit and an edited
        session keys differently until the edit is reverted.
        """
        return value_fingerprint((
            ("protocol", PROTOCOL_VERSION),
            ("circuit", session.circuit_hash),
            ("stats", session.stats_hash),
            ("delay", session.delay_hash()),
            ("algebra", session.algebra_spec.token()),
            ("config", session.config_label),
            ("request", extra),
        ))

    def _fingerprints(self, session: CircuitSession) -> Dict[str, str]:
        return {"circuit": session.circuit_hash,
                "stats": session.stats_hash,
                "delay": session.delay_hash(),
                "algebra": session.algebra_spec.token()}


def _finite(value: float) -> Optional[float]:
    """JSON-safe float: non-finite (never-occurring transition moments)
    map to null so strict parsers round-trip the payload."""
    return float(value) if value == value and abs(value) != float("inf") \
        else None


# -- canary -------------------------------------------------------------------


def run_canary(benches: Tuple[str, ...] = ("s27",),
               trials: int = 4000, seed: int = 0) -> Tuple[bool, str]:
    """The PR 3 conformance harness as a deploy-time self-check.

    Runs the full engine-pair sweep on small canary circuits; a daemon
    started with ``--canary`` refuses to serve if any pair diverges.
    Returns (passed, rendered report).
    """
    from repro.verify import run_conformance

    report = run_conformance(seed=seed, n_random=0, benches=benches,
                             trials=trials)
    return report.passed, report.render()


# -- transports ---------------------------------------------------------------


def serve_stdio(server: Server,
                stdin: Optional[IO[str]] = None,
                stdout: Optional[IO[str]] = None) -> int:
    """JSON-Lines loop: one request per line, one response per line.

    Blank lines are ignored; EOF or a ``shutdown`` request ends the
    loop.  Responses are single-line JSON, flushed per request so a
    pipe-driving client can interleave.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        response = server.handle_text(line)
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
        if server.shutdown_requested:
            break
    return 0


class _HttpHandler(BaseHTTPRequestHandler):
    """``POST /`` with a request-envelope body -> response envelope."""

    server_version = "spsta-serve/" + str(PROTOCOL_VERSION)
    daemon: Server  # injected by serve_http

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # The body is read only after its declared length checks out: a
        # missing, non-integer or negative Content-Length would otherwise
        # crash the handler or read to EOF past --max-request-bytes.
        header = self.headers.get("Content-Length", "").strip()
        if not (header.isascii() and header.isdigit()):
            self._refuse(400, "bad-request",
                         f"Content-Length must be a non-negative integer, "
                         f"got {header!r}")
            return
        length = int(header)
        if length > self.daemon.options.max_request_bytes:
            self._refuse(413, "oversized-request",
                         f"request exceeds --max-request-bytes "
                         f"({self.daemon.options.max_request_bytes})")
            return
        raw = self.rfile.read(length).decode("utf-8", errors="replace")
        response = self.daemon.handle_text(raw)
        self._reply(200 if response.get("ok") else 400,
                    json.dumps(response).encode())
        if self.daemon.shutdown_requested:
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()

    def _refuse(self, status: int, code: str, message: str) -> None:
        # The unread body makes the connection unusable for another request.
        self.close_connection = True
        self._reply(status, json.dumps(error_response(None, code,
                                                      message)).encode())

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        pass  # request logging goes through the session log, not stderr


def serve_http(server: Server, host: str, port: int) -> int:
    """Blocking HTTP loop (``http.server``; one Server, many requests).

    Handler threads serialize on the Server's internal lock, so the
    warm state stays consistent under concurrent clients.
    """
    handler = type("BoundHandler", (_HttpHandler,), {"daemon": server})
    httpd = ThreadingHTTPServer((host, port), handler)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        httpd.server_close()
    return 0
