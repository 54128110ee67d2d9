"""The service-mix workload: one closed-loop client against ``repro serve``.

Stdlib only: the client speaks raw HTTP so that it measures the daemon,
not a client library, and so that results can be compared byte for byte.

A pass starts a daemon (default 2 run workers, spans on) over an empty
store.  The client submits ``COLD_JOBS`` distinct fig5 jobs one after
another; each is a store miss, and the client follows its SSE stream to
the terminal event and then fetches the result.  It then resubmits those
specs ``WARM_JOBS`` times in turn and fetches each result; every
resubmission must be answered from the store at submit.

In the traced run, the untraced pass starts the daemon with
``--no-spans`` and the traced pass keeps spans on, as the timed run
does.  The traced pass fetches every job's span tree only after its
clock stops, so the difference of the two wall times is the daemon's
span-recording cost.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from stats import Checks, median, self_time_by_name

#: distinct cold jobs per pass: the median rests on at least 20 samples
COLD_JOBS = 24
#: warm submits per pass: the p99 of 1,000 samples has 10 beyond it
WARM_JOBS = 1000
#: cold jobs are fig5 at one density drawn from this range (2 runs each)
COLD_DENSITIES = range(84, 116)

#: span ring of the traced pass: every job's tree (about 10 spans) survives
#: until it is fetched after the timed phase
TRACED_SPAN_CAPACITY = 65536

HTTP_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def cold_specs(seed: int) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    return [
        {"kind": "figure", "figure": "fig5", "profile": "smoke", "xs": [n]}
        for n in rng.sample(COLD_DENSITIES, COLD_JOBS)
    ]


def request(port: int, method: str, path: str, body: Optional[dict] = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def wait_terminal(port: int, job_id: str) -> tuple[int, Optional[dict]]:
    """Follow the job's SSE stream; returns ``(status, terminal snapshot)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/api/v1/jobs/{job_id}/events")
        resp = conn.getresponse()
        if resp.status >= 300:
            resp.read()
            return resp.status, None
        while True:
            line = resp.readline()
            if not line:
                return resp.status, None
            if line.startswith(b"data: "):
                snap = json.loads(line[6:])
                if snap["status"] in ("done", "failed"):
                    return resp.status, snap
    finally:
        conn.close()


class Daemon:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, store: Path, env: dict, log: Path, *serve_args: str) -> None:
        self.t_spawn = time.perf_counter()
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store), "--port", "0",
             *serve_args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self.port = self._await_port()
        self._await_health()
        self.ready_s = time.perf_counter() - self.t_spawn

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().decode()
        # "serving on http://127.0.0.1:PORT (store: ..., workers: 2)"
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        return int(line.split()[2].rsplit(":", 1)[1])

    def _await_health(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                if request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.005)

    def stop(self) -> int:
        """SIGTERM, then wait; a daemon that will not stop is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def _without_id(raw: bytes) -> str:
    payload = json.loads(raw)
    payload.pop("id", None)
    return json.dumps(payload, sort_keys=True)


def _route_ms(latency: dict, route: str, q: str) -> float:
    summary = latency.get(route) or {}
    value = summary.get(q)
    return 1e3 * value if value is not None else 0.0


def run_pass(seed: int, workdir: Path, env: dict, traced: bool = False,
             spans: bool = True) -> dict:
    """One service-mix pass; returns samples, checks and (traced) layer metrics.

    ``spans=False`` runs the daemon without span recording (the traced
    run's untraced pass).
    """
    if traced:
        serve_args = ("--span-capacity", str(TRACED_SPAN_CAPACITY))
    else:
        serve_args = () if spans else ("--no-spans",)
    daemon = Daemon(workdir / "store", env, workdir / "daemon.log", *serve_args)
    checks = Checks()
    cold_s: list[float] = []
    warm_s: list[float] = []
    submit_ms: list[float] = []
    result_ms: list[float] = []
    job_ids: list[str] = []
    runs_total = 0
    cold: dict[int, str] = {}
    specs = cold_specs(seed)
    try:
        t_pass = time.perf_counter()
        for i, spec in enumerate(specs):
            t0 = time.perf_counter()
            code, raw = request(daemon.port, "POST", "/api/v1/jobs", spec)
            if not checks.op(code < 300, f"cold submit answered HTTP {code}"):
                continue
            job = json.loads(raw)["job"]
            code, snap = wait_terminal(daemon.port, job["id"])
            rcode, raw = request(daemon.port, "GET", f"/api/v1/jobs/{job['id']}/result")
            cold_s.append(time.perf_counter() - t0)
            ok = (
                code < 300
                and rcode < 300
                and snap is not None
                and snap["status"] == "done"
                and not snap["from_cache"]
                and snap["runs"]["executed"] == snap["progress"]["total"]
                and snap["runs"]["failed"] == 0
            )
            if checks.op(ok, f"cold job {spec['xs']} did not run to completion"):
                cold[i] = _without_id(raw)
                runs_total += snap["progress"]["total"]
            job_ids.append(job["id"])

        for k in range(WARM_JOBS if len(cold) == len(specs) else 0):
            i = k % len(specs)
            t0 = time.perf_counter()
            code, raw = request(daemon.port, "POST", "/api/v1/jobs", specs[i])
            t1 = time.perf_counter()
            job = json.loads(raw)["job"] if code < 300 else None
            rcode, rraw = (
                request(daemon.port, "GET", f"/api/v1/jobs/{job['id']}/result")
                if job is not None
                else (0, b"")
            )
            t2 = time.perf_counter()
            warm_s.append(t2 - t0)
            submit_ms.append(1e3 * (t1 - t0))
            result_ms.append(1e3 * (t2 - t1))
            checks.op(
                job is not None
                and rcode < 300
                and job["status"] == "done"
                and job["from_cache"]
                and job["runs"]["hits"] == job["progress"]["total"]
                and _without_id(rraw) == cold[i],
                "a warm job was not a store hit or differed from its cold result",
            )
            if job is not None:
                job_ids.append(job["id"])
                runs_total += job["progress"]["total"]
        wall_s = time.perf_counter() - t_pass

        spans: list[dict] = []
        metrics = {}
        if traced:
            for job_id in job_ids:
                spans.extend(_job_spans(daemon.port, job_id, checks))
            code, raw = request(daemon.port, "GET", "/metrics")
            if checks.op(code < 300, f"/metrics answered HTTP {code}"):
                metrics = json.loads(raw)
    finally:
        rc = daemon.stop()
    checks.op(rc == 0, f"daemon exited with {rc}")

    out = {
        "wall_s": wall_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "setup_s": daemon.ready_s,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "errors": checks.errors,
        "digest": _digest(cold),
    }
    if traced:
        layers = out["layers"] = service_layers(
            spans, metrics, submit_ms, result_ms, daemon.ready_s
        )
        verdicts = sum(v for k, v in layers.items() if k.startswith("scheduler.dedup."))
        checks.op(verdicts == runs_total,
                  f"span trees hold {verdicts} dedup verdicts for {runs_total} runs")
        out.update(attempted=checks.attempted, failed=checks.failed, errors=checks.errors)
    return out


def _digest(cold: dict[int, str]) -> str:
    return hashlib.sha256("".join(cold[i] for i in sorted(cold)).encode()).hexdigest()


def _job_spans(port: int, job_id: str, checks) -> list[dict]:
    code, raw = request(port, "GET", f"/api/v1/jobs/{job_id}/trace")
    if not checks.op(code < 300, f"job trace answered HTTP {code}"):
        return []
    return json.loads(raw)["spans"]


def service_layers(spans: list[dict], metrics: dict, submit_ms: list[float],
                   result_ms: list[float], ready_s: float) -> dict[str, float]:
    """The service part of the per-layer table."""
    own = self_time_by_name(spans)
    verdicts: dict[str, int] = {}
    for s in spans:
        if s["name"] == "dedup":
            v = s["attributes"].get("verdict", "?")
            verdicts[v] = verdicts.get(v, 0) + 1
    latency = metrics.get("latency", {})
    derived = metrics.get("derived", {})
    return {
        "http.submit_ms": median(submit_ms) if submit_ms else 0.0,
        "http.result_ms": median(result_ms) if result_ms else 0.0,
        "http.route.submit_p50_ms": _route_ms(latency, "POST /api/v1/jobs", "p50"),
        "http.route.submit_p99_ms": _route_ms(latency, "POST /api/v1/jobs", "p99"),
        "http.route.result_p50_ms": _route_ms(latency, "GET /api/v1/jobs/{id}/result", "p50"),
        "http.route.result_p99_ms": _route_ms(latency, "GET /api/v1/jobs/{id}/result", "p99"),
        "scheduler.queue_wait_s": own.get("queue.wait", 0.0),
        "scheduler.worker_run_s": own.get("worker.run", 0.0),
        "scheduler.store_probe_s": own.get("store.probe", 0.0),
        "scheduler.store_put_s": own.get("store.put", 0.0),
        "scheduler.dedup.store_hit": verdicts.get("store-hit", 0),
        "scheduler.dedup.coalesced": verdicts.get("coalesced", 0),
        "scheduler.dedup.in_flight": verdicts.get("in-flight", 0),
        "scheduler.dedup.miss": verdicts.get("miss", 0),
        "scheduler.hit_ratio": derived.get("hit_ratio") or 0.0,
        "setup.daemon_ready_s": ready_s,
    }
