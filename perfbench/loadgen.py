"""Load generators: the CLI closed loop, the daemon tenants and the
in-process replay loop of the traced pass."""

import http.client
import json
import os
import signal
import subprocess
import threading
import time

import benchstats
import workloads

# Client-side poll interval of the daemon loop, as twchase_client's default
# --poll-ms: a job's latency is known to within this.
POLL_S = 0.025


def cli_args(job):
    args = ["--variant=" + job["variant"], "--max-steps=%d" % job["max_steps"]]
    if job["measures"]:
        args.append("--measures")
    if job["robust"]:
        args.append("--robust")
    return args + [job["path"]]


def run_child(spawner, argv):
    """Runs one child to its end through ``perfbench_replay --spawn``, so
    that its peak RSS is its own and not this process's. Returns a dict:
    ``cpu_s`` (user + system time of all its threads), ``code`` (exit code
    or -signal), ``rss_mb`` (peak RSS) and ``out`` (stdout)."""
    proc = subprocess.Popen([spawner, "--spawn"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate()
    child = {"cpu_s": 0.0, "rss_mb": 0.0,
             "code": "spawner exit %d" % proc.returncode,
             "out": out.decode(errors="replace")}
    for line in err.decode(errors="replace").splitlines():
        if line.startswith("perfbench-rusage "):
            fields = dict(f.split("=") for f in line.split()[1:])
            child.update(
                code=os.waitstatus_to_exitcode(int(fields["status"])),
                rss_mb=int(fields["maxrss_kb"]) / 1024.0,
                cpu_s=float(fields["cpu_s"]))
    return child


class Calibration:
    """CPU times of the fixed perfbench_calibrate workload, run as a child
    like the CLI jobs, in between them. :meth:`scale` turns a CPU time
    measured here into the time it would take on a host where the
    calibration takes ``REFERENCE_S``, by the calibration runs made
    nearest to it: the host's speed drifts within a run too."""

    REFERENCE_S = 0.05
    # Calibration runs on each side of a measurement that scale it.
    NEAREST = 2

    def __init__(self, spawner, binary):
        self.spawner = spawner
        self.binary = binary
        self.samples = []

    def sample(self):
        child = run_child(self.spawner, [self.binary])
        if child["code"] != 0:
            raise RuntimeError("perfbench_calibrate exit status %s"
                               % child["code"])
        self.samples.append(child["cpu_s"])

    def mark(self):
        """Position of a measurement made now among the samples."""
        return len(self.samples)

    def scale(self, cpu_s, mark):
        lo = max(0, min(mark, len(self.samples) - self.NEAREST) -
                 self.NEAREST)
        near = self.samples[lo:lo + 2 * self.NEAREST]
        return cpu_s * self.REFERENCE_S / benchstats.median(near)


# CLI jobs per calibration run in the closed loop.
CALIBRATE_EVERY = 3


def cli_loop(spawner, cli, jobs, seconds, report_failure, calibration,
             cycle=1):
    """One client, one twchase_cli process at a time, in whole ``cycle``-job
    cycles, for the whole number of cycles that comes nearest to
    ``seconds`` (at least one); every started job runs to its end and is
    counted. A calibration run follows every CALIBRATE_EVERY-th job.
    Returns the per-job records."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        cycle_start = time.perf_counter()
        for _ in range(cycle):
            job = jobs[i % len(jobs)]
            i += 1
            if i % CALIBRATE_EVERY == 0:
                calibration.sample()
            child = run_child(spawner, [cli] + cli_args(job))
            if child["code"] != 0:
                bad = ["exit status %s" % child["code"]]
                outcome = {}
            else:
                outcome = workloads.parse_cli_output(child["out"])
                bad = workloads.check(job, outcome)
            if bad:
                report_failure(job, bad)
            records.append({"job": job, "cpu_s": child["cpu_s"],
                            "mark": calibration.mark(),
                            "rss_mb": child["rss_mb"], "ok": not bad,
                            "steps": outcome.get("steps", 0)})
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            return records


# ---------------------------------------------------------------------------
# Daemon.

def wire_options(job, threads):
    """twchase_client's request options. The daemon fills every field left
    out with the library default, so only the job's variant and step
    budget and the client's thread count (hardware concurrency) are sent."""
    return {"variant": job["variant"],
            "limits": {"max_steps": job["max_steps"]},
            "parallel": {"threads": threads}}


class Daemon:
    """A twchased child at its default options, logging to a file."""

    def __init__(self, binary, log_path):
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen([binary], stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.port is None:
                with open(self.log_path) as f:
                    for line in f:
                        if line.startswith("listening on 127.0.0.1:"):
                            self.port = int(line.rsplit(":", 1)[1])
            if self.port is not None:
                try:
                    status, _ = self.call("GET", "/v1/healthz")
                    if status == 200:
                        return
                except OSError:
                    pass
            if self.proc.poll() is not None:
                raise RuntimeError("twchased exited during start-up")
            time.sleep(0.005)
        raise RuntimeError("twchased did not answer /v1/healthz")

    def call(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics(self):
        status, body = self.call("GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError("/v1/metrics answered HTTP %d" % status)
        return json.loads(body)

    def wait_idle(self, timeout=120.0):
        """Waits until the scheduler reports nothing queued or running, so
        the counters read next are final."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            sched = self.metrics()["scheduler"]
            if sched["queued_now"] == 0 and sched["running_now"] == 0:
                return sched
            time.sleep(POLL_S)
        raise RuntimeError("daemon still busy after the drain")

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for twchased")

    def shutdown(self):
        """SIGTERM and wait; returns a problem string, or None when the
        daemon exited 0 with no leaked jobs."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = "timeout"
        self._log.close()
        with open(self.log_path) as f:
            log = f.read()
        if code != 0:
            return "twchased exit status %s" % code
        if "shutdown complete, 0 leaked jobs" not in log:
            return "twchased did not report a clean shutdown"
        return None

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def _job_body(job, tenant, threads):
    with open(job["path"]) as f:
        program = f.read()
    return json.dumps({"schema_version": 1, "tenant": tenant,
                       "program": program,
                       "options": wire_options(job, threads)})


def daemon_loop(daemon, jobs, seconds, report_failure, tenants=4,
                in_flight=2, spans=None):
    """``tenants`` client threads in a closed loop, each keeping
    ``in_flight`` jobs submitted. Submission stops after ``seconds``; the
    jobs still in flight are drained. Returns the per-job records; those
    that ended within the window are marked ``in_window``."""
    threads_per_job = os.cpu_count() or 1
    lock = threading.Lock()
    counter = [0]
    records = []
    start = time.perf_counter()
    stop_at = start + seconds

    def timed(job_no, name, method, path, body=None):
        t0 = time.perf_counter()
        status, payload = daemon.call(method, path, body)
        t1 = time.perf_counter()
        if spans is not None:
            with lock:
                spans.add(name, job_no, 0, (t0 - start) * 1e3,
                          (t1 - start) * 1e3)
        return status, payload, (t1 - t0) * 1e3

    def tenant(name):
        outstanding = []
        while True:
            while len(outstanding) < in_flight and \
                    time.perf_counter() < stop_at:
                with lock:
                    job_no = counter[0]
                    counter[0] += 1
                job = jobs[job_no % len(jobs)]
                sent = time.perf_counter()
                status, payload, ms = timed(
                    job_no, "submit", "POST", "/v1/jobs",
                    _job_body(job, name, threads_per_job))
                rec = {"job": job, "job_no": job_no, "sent": sent,
                       "submit_ms": ms, "poll_ms": [], "ok": False,
                       "steps": 0}
                if status != 202:
                    rec["done"] = time.perf_counter()
                    rec["latency_s"] = rec["done"] - rec["sent"]
                    report_failure(job, ["submit: HTTP %d %s" % (
                        status, payload[:200].decode(errors="replace"))])
                    with lock:
                        records.append(rec)
                    continue
                rec["daemon_id"] = json.loads(payload)["job"]["id"]
                outstanding.append(rec)
            if not outstanding:
                return
            time.sleep(POLL_S)
            for rec in list(outstanding):
                status, payload, ms = timed(
                    rec["job_no"], "poll", "GET",
                    "/v1/jobs/" + rec["daemon_id"])
                rec["poll_ms"].append(ms)
                state = json.loads(payload).get("state") \
                    if status == 200 else "http-%d" % status
                if state in ("queued", "running", "paused"):
                    continue
                rec["done"] = time.perf_counter()
                rec["latency_s"] = rec["done"] - rec["sent"]
                outstanding.remove(rec)
                _finish(rec, state, timed, report_failure)
                with lock:
                    records.append(rec)

    workers = [threading.Thread(target=tenant, args=("tenant%d" % t,))
               for t in range(tenants)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for rec in records:
        rec["in_window"] = rec["done"] <= stop_at
    return records


def _finish(rec, state, timed, report_failure):
    job = rec["job"]
    if state != "done":
        report_failure(job, ["job state %s" % state])
        return
    status, payload, ms = timed(rec["job_no"], "result", "GET",
                                "/v1/jobs/%s/result" % rec["daemon_id"])
    rec["result_ms"] = ms
    rec["result_kb"] = len(payload) / 1024.0
    if status != 200:
        report_failure(job, ["result: HTTP %d" % status])
        return
    result = json.loads(payload)
    outcome = workloads.parse_cli_output(result.get("text", ""))
    bad = workloads.check(job, outcome)
    if bad:
        report_failure(job, bad)
        return
    rec.update(ok=True, steps=outcome["steps"],
               segments=result.get("segments", 1),
               elapsed_s=result.get("elapsed_seconds", 0.0))


# ---------------------------------------------------------------------------
# In-process replay.

class Replay:
    """The perfbench_replay harness, driven one job at a time."""

    def __init__(self, binary, trace_out):
        self.proc = subprocess.Popen(
            [binary, "--trace-out=" + trace_out], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, job, traced):
        fields = [job["id"], job["path"], job["variant"],
                  str(job["max_steps"]), "1" if job["measures"] else "0",
                  "1" if job["robust"] else "0", "1" if traced else "0"]
        self.proc.stdin.write("\t".join(fields) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench_replay exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        if self.proc.wait() != 0:
            raise RuntimeError("perfbench_replay failed to write its trace")


def replay_loop(replay, jobs, seconds, report_failure):
    """Replays jobs in pool order until ``seconds`` have passed, each once
    without and once with the timing observer, alternating which runs
    first. Returns (traced outputs, untraced outputs) of the same jobs."""
    traced, untraced = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        job = jobs[i % len(jobs)]
        pair = {}
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            out = replay.run(job, is_traced)
            bad = workloads.check(job, out)
            if bad:
                report_failure(job, bad)
            pair[is_traced] = out
        traced.append((job, pair[True]))
        untraced.append((job, pair[False]))
        i += 1
    return traced, untraced
