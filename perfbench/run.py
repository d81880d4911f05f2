#!/usr/bin/env python3
"""End-to-end benchmark of `slc monitor` and `slc serve`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds `slc` and the benchmark's own programs from source with dune, into
`.bench_build/`, then generates the workload's inputs from the seed under
`.perfbench_work/` (removed afterwards) and runs them. Every run checks the
program's outputs. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with every end-to-end metric
for `--trace 0` and every per-layer metric for `--trace 1`. The line before
it records the workload's properties. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

# Workloads. `events` is the offline stream length; `mode` is how
# `slc monitor` renders it; `ladder` is the fixed serve rate ladder
# (events/s). Its middle rate is where latency is reported. The daemon's
# capacity on this host class (2 shared cores) varies up to twofold with
# the load of its neighbours, so the step above the middle (1.5x) stays
# well below it and the top step is far above it: a rate near the knee
# would pass or fail by chance.
WORKLOADS = {
    "offline-deep": {"events": 8_000_000, "mode": "text",
                     "ladder": (0.3e6, 0.6e6, 1.2e6, 1.8e6, 6e6)},
    "offline-wide": {"events": 1_000_000, "mode": "json",
                     "ladder": (12.5e3, 25e3, 50e3, 75e3, 400e3)},
    "serve-churn": {"events": 2_000_000, "mode": "text",
                    "ladder": (60e3, 120e3, 240e3, 360e3, 1.92e6)},
}
MIDDLE = 2  # index of the middle rate in each ladder
MID_REPEATS = 2  # fresh daemons at the middle rate in a traced run
PRIMARY_SERVE = "serve-churn"  # setup_s and peak_rss_mb come from the daemon

LATENCY_LIMIT_MS = 50.0  # verdict p99 at a rate that counts as sustained
GEN_LATE_LIMIT_MS = 100.0  # client lateness beyond this makes a step invalid
STATUS_INTERVAL_MS = 20
STEP_ATTEMPTS = 2

BUILD_DIR = ".bench_build"
WORK_DIR = ".perfbench_work"
TARGETS = ["./bin/slc.exe"] + [f"./perfbench/{p}.exe"
                                for p in ("gen", "client", "traced", "launch")]


class Mismatch(Exception):
    """An output check failed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs)


class Bench:
    def __init__(self, workload, seed, seconds):
        self.w = workload
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.root = os.getcwd()
        self.bin = os.path.join(self.root, BUILD_DIR, "default")
        self.work = os.path.join(self.root, WORK_DIR,
                                 f"{workload}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.procs = []

    # ---------------------------------------------------------------- tools
    def exe(self, name):
        sub = "bin" if name == "slc" else "perfbench"
        return os.path.join(self.bin, sub, name + ".exe")

    def path(self, name):
        return os.path.join(self.work, name)

    def spawn(self, argv, **kw):
        p = subprocess.Popen(argv, cwd=self.work, **kw)
        self.procs.append(p)
        return p

    def reap(self, p, timeout):
        """Wait for a child; its exit code."""
        try:
            code = p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            raise Mismatch(f"{os.path.basename(p.args[0])} timed out")
        self.procs.remove(p)
        return code

    def stop_all(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        self.procs = []

    def gen_stream(self, name, events):
        out = subprocess.run(
            [self.exe("gen"), "stream", self.w, str(self.seed), str(events),
             self.path(name)], check=True, capture_output=True, text=True)
        return int(out.stdout.strip())

    def launch(self, argv, out):
        """Run argv with stdout to `out` under the launcher, which reports
        (exit code, wall s, peak RSS MB) of that one process."""
        r = subprocess.run([self.exe("launch"), self.path(out)] + argv,
                           cwd=self.work, capture_output=True, text=True,
                           timeout=170, check=True)
        code, wall, rss_kb = r.stdout.split()
        self.attempted += 1
        if int(code) not in (0, 1):
            self.failed += 1
            raise Mismatch(f"{os.path.basename(argv[0])} exited {code}")
        return int(code), float(wall), int(rss_kb) / 1024.0

    def monitor(self, trace, mode, out, cache=False):
        """One `slc monitor` run: (wall s, peak RSS MB, exit code)."""
        argv = [self.exe("slc"), "monitor", "--props", self.path("props"),
                "--trace", self.path(trace)]
        if mode == "json":
            argv.append("--json")
        if cache:
            argv += ["--cache", self.path("cache")]
        code, wall, rss = self.launch(argv, out)
        return wall, rss, code

    # ---------------------------------------------------------- set-up
    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        subprocess.run([self.exe("gen"), "props", self.w, self.path("props")],
                       check=True)
        open(self.path("empty"), "wb").close()
        self.stream_bytes = self.gen_stream("stream", self.cfg["events"])

    # ---------------------------------------------------------- offline
    def setup(self, once):
        """Median set-up time over repeats: at least 5 and 1 s of them, so
        a set-up of a few ms still gets a steady median, at most 25."""
        walls, t_end = [], time.time() + 1.0
        while len(walls) < 5 or (time.time() < t_end and len(walls) < 25):
            walls.append(once())
        return median(walls)

    def offline_setup(self):
        """`slc monitor` on an empty trace."""
        return self.setup(
            lambda: self.monitor("empty", self.cfg["mode"], "empty.out")[0])

    def serve_setup(self):
        """Daemon spawn to the client's receipt of `hello`, no events."""
        return self.setup(lambda: self.serve_once(1.0, 0.0, "setup")["setup_s"])

    def offline_rep(self, reps):
        """One offline run on the stream; every repeat must print the same
        report bytes."""
        wall, rss, _ = self.monitor("stream", self.cfg["mode"], "rep.out")
        digest = normalized_digest(self.path("rep.out"))
        if reps and digest != reps[0][2]:
            raise Mismatch("offline report bytes differ across repeats")
        if not reps:
            shutil.copy(self.path("rep.out"),
                        self.path(f"report.{self.cfg['mode']}"))
        reps.append((wall, rss, digest))

    def check_report(self):
        """The report counts every event, and on the offline workloads the
        text and --json reports agree on violations. (On serve-churn the
        quadratic --json render of 2*10^5 traces would take most of the
        run; its check is served-vs-offline instead.)"""
        mode = self.cfg["mode"]
        parse = parse_json if mode == "json" else parse_text
        r = parse(self.path(f"report.{mode}"))
        if r["events"] != self.cfg["events"]:
            raise Mismatch("report event count differs from the stream")
        if self.w != PRIMARY_SERVE:
            other = "json" if mode == "text" else "text"
            self.monitor("stream", other, f"report.{other}")
            o = (parse_text if other == "text" else parse_json)(
                self.path(f"report.{other}"))
            if (r["violations"], r["tuples"]) != (o["violations"], o["tuples"]):
                raise Mismatch("text and --json reports disagree on violations")
        return r

    # ------------------------------------------------------------ serve
    def serve_step(self, rate, dur, tag):
        """One fresh daemon fed at `rate` for `dur` s. A step whose client
        itself ran late beyond the limit is invalid, not slow, and never
        counts as sustained. An invalid step that met the latency limit
        anyway is retried once; an overloaded one is not."""
        for attempt in range(STEP_ATTEMPTS):
            r = self.serve_once(rate, dur, f"{tag}.{attempt}")
            r["valid"] = r["late_max_ms"] <= GEN_LATE_LIMIT_MS
            if not r["valid"]:
                log(f"{rate:.0f}/s invalid: client ran {r['late_max_ms']:.1f} ms late")
            if r["valid"] or r["p99_ms"] > LATENCY_LIMIT_MS:
                break
        return r

    def serve_once(self, rate, dur, tag):
        sock = self.path("s.sock")
        if os.path.exists(sock):
            os.unlink(sock)
        argv = [self.exe("slc"), "serve", "--props", self.path("props"),
                "--socket", "s.sock", "-q"]
        if self.w != PRIMARY_SERVE:
            argv += ["--cache", self.path("cache")]
        t_spawn = time.time()
        daemon = self.spawn(argv)
        try:
            client = self.spawn([self.exe("client"), "s.sock", self.w,
                                 str(self.seed), repr(rate), repr(dur),
                                 str(STATUS_INTERVAL_MS),
                                 str(LATENCY_LIMIT_MS), tag])
            ccode = self.reap(client, dur + 120)
            rss = vm_hwm_mb(daemon.pid)
        finally:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGTERM)
        dcode = self.reap(daemon, 60)
        if ccode != 0 or dcode != 0:
            raise Mismatch(f"serve step failed (client {ccode}, daemon {dcode})")
        with open(self.path(tag + ".json")) as f:
            r = json.load(f)
        r["rate"] = rate
        r["setup_s"] = r["hello_at"] - t_spawn
        r["rss_mb"] = rss
        trips = read_tuples(self.path(tag + ".trips"))
        eof = read_tuples(self.path(tag + ".eof"))
        self.attempted += int(r["events"]) + int(r["scrapes"] + 1)
        self.failed += int(r["error_records"] + r["failures"])
        if r["summary_events"] != r["events"]:
            raise Mismatch(f"daemon counted {r['summary_events']:.0f} events, "
                           f"sent {r['events']:.0f}")
        if len(trips) != r["trip_records"]:
            raise Mismatch("duplicate trip records")
        if trips != eof:
            self.failed += len(eof - trips)
            raise Mismatch("streamed trips differ from the end-of-stream dump")
        if r["error_records"] or r["failures"]:
            raise Mismatch(f"{r['error_records']:.0f} error records, "
                           f"{r['failures']:.0f} failed operations")
        r["trips"] = trips
        r["metrics"] = read_prom(self.path(tag + ".metrics"))
        return r

    def check_oracle(self, steps):
        """Served trip tuples equal offline `slc monitor` on the same
        stream: the events each step sent, generated again from the seed."""
        want = {}
        for step in steps:
            n = int(step["events"])
            if n not in want:
                self.gen_stream("served", n)
                self.monitor("served", "text", "served.out", cache=True)
                want[n] = parse_text(self.path("served.out"))["tuples"]
            missing = want[n] - step["trips"]
            extra = step["trips"] - want[n]
            if missing or extra:
                self.failed += len(missing)
                raise Mismatch(f"served trips differ from offline: "
                               f"{len(missing)} missing, {len(extra)} extra")

    # ------------------------------------------------------------- runs
    def run_end_to_end(self):
        """The ladder's steps with the offline repeats spread evenly
        between them: this host's speed drifts over tens of seconds, and
        each median should span the run, not one phase of it."""
        ladder = self.cfg["ladder"]
        d_step = max(0.5, self.seconds / 20)
        setup_off = self.offline_setup()
        reps = []
        self.offline_rep(reps)
        n_reps = max(3, min(10, round(0.75 * self.seconds / reps[0][0])))
        steps = []
        for i, rate in enumerate(ladder):
            d = 2 * d_step if i == MIDDLE else d_step
            steps.append(self.serve_step(rate, d, f"step{i}"))
            if i != MIDDLE:
                del steps[-1]["trips"]
            while len(reps) < 1 + round((n_reps - 1) * (i + 1) / len(ladder)):
                self.offline_rep(reps)
        report = self.check_report()
        mid = self.middle([steps[MIDDLE]])
        for s in steps:
            s["ok"] = (s["valid"] and s["p99_ms"] <= LATENCY_LIMIT_MS
                       and s["write_lag_ms"] <= LATENCY_LIMIT_MS)
            log(f"{s['rate']:>9.0f}/s p50 {s['p50_ms']:.2f} p99 {s['p99_ms']:.2f} "
                f"ms lag {s['write_lag_ms']:.1f} ms late {s['late_max_ms']:.1f} ms "
                f"{'ok' if s['ok'] else 'over'}")
        ok = [s for s in steps if s["ok"]]
        if not ok:
            raise Mismatch("no ladder rate met the latency limit")
        top = max(ok, key=lambda s: s["rate"])
        wall = median(r[0] for r in reps)
        if self.w == PRIMARY_SERVE:
            setup = self.serve_setup()
            rss = mid["rss_mb"]
        else:
            setup = setup_off
            rss = median(r[1] for r in reps)
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "events_per_s": self.cfg["events"] / (wall - setup_off),
            "peak_rss_mb": rss,
            "serve_max_rate_eps": top["events"] / top["sent_s"],
        }
        props = {
            "distinct_ids": report["traces"],
            "trips": report["violations"],
            "out_bytes_per_event":
                os.path.getsize(self.path(f"report.{self.cfg['mode']}"))
                / self.cfg["events"],
            "stream_bytes": self.stream_bytes,
            "offline_walls_s": [round(r[0], 4) for r in reps],
            "middle_rate": mid["rate"],
            "middle_verdict_p50_ms": mid["verdict_p50_ms"],
            "middle_verdict_p99_ms": mid["verdict_p99_ms"],
            "middle_samples": mid["samples"],
            "middle_windows": mid["windows"],
        }
        return metrics, props

    def middle(self, mids):
        """The middle rate over its repeats, checked against offline
        `slc monitor`. Verdict percentiles are medians over every 0.25 s
        window (>= 1000 samples each) of every repeat, so a hypervisor
        stall in one window moves them little. Scrape percentiles pool
        every scrape."""
        if not all(m["valid"] for m in mids):
            raise Mismatch("the middle rate's client ran late; run invalid")
        self.check_oracle(mids)
        win50 = [x for m in mids for x in m["window_p50_ms"]]
        win99 = [x for m in mids for x in m["window_p99_ms"]]
        scrapes = [x for m in mids for x in m["status_ms"]]
        if not win99 or len(scrapes) < 10:
            raise Mismatch("too few latency samples at the middle rate")
        prom = [m["metrics"] for m in mids]
        stage = lambda k: median(p.get(k, 0) for p in prom) / 1e9
        return {
            "rate": mids[0]["rate"],
            "verdict_p50_ms": median(win50),
            "verdict_p99_ms": median(win99),
            "status_p50_ms": nearest_rank(scrapes, 0.5),
            "status_p90_ms": nearest_rank(scrapes, 0.9),
            "windows": len(win99),
            "samples": sum(m["samples"] for m in mids),
            "rss_mb": median(m["rss_mb"] for m in mids),
            "serve.stage_parse_s": stage("stage_ingest_parse_ns_sum"),
            "serve.stage_feed_s": stage("stage_engine_feed_ns_sum"),
            "serve.stage_render_s": stage("stage_verdict_render_ns_sum"),
            "serve.stage_write_s": stage("stage_socket_write_ns_sum"),
            "records.bytes_per_event":
                sum(m["record_bytes"] for m in mids)
                / sum(m["events"] for m in mids),
            "conn.pending_out_max": max(m["pending_out_max"] for m in mids),
            "conn.stalled": sum(m["stalled"] for m in mids),
            "gen.late_max_ms": max(m["late_max_ms"] for m in mids),
        }

    def run_traced(self):
        mode = self.cfg["mode"]
        walls, twalls, sums = [], [], []
        for i in range(2):
            wall, _, _ = self.monitor("stream", mode, "bin.out")
            walls.append(wall)
            _, twall, _ = self.launch(
                [self.exe("traced"), self.path("props"), self.path("stream"),
                 mode, self.path(f"spans{i}.jsonl")], "traced.out")
            twalls.append(twall)
            if (normalized_digest(self.path("traced.out"))
                    != normalized_digest(self.path("bin.out"))):
                raise Mismatch("traced run output differs from slc monitor")
            with open(self.path(f"spans{i}.jsonl")) as f:
                sums.append(json.loads(f.read().splitlines()[-1])["summary"])
        lay = {k: median(s[k] for s in sums) for k in sums[0]}
        d_mid = 2 * max(0.5, self.seconds / 20)
        mid = self.middle([self.serve_step(self.cfg["ladder"][MIDDLE], d_mid,
                                           f"mid{k}")
                           for k in range(MID_REPEATS)])
        m = {**lay, **mid}
        m.update({
            "trace.coverage": lay["coverage"],
            "trace.overhead": median(twalls) / median(walls),
            "workload.distinct_ids": lay["ingest.traces"],
            "workload.live_step_share": lay["live_step_share"],
            "workload.trips": lay["trips"],
            "workload.out_bytes_per_event": lay["verdict.bytes"] / lay["events"],
        })
        props = {
            "distinct_ids": lay["ingest.traces"],
            "live_step_share": lay["live_step_share"],
            "trips": lay["trips"],
            "out_bytes_per_event": lay["verdict.bytes"] / lay["events"],
            "stream_bytes": self.stream_bytes,
            "layer_wall_s": lay["wall_s"],
            "middle_samples": mid["samples"],
            "middle_windows": mid["windows"],
        }
        return m, props


def nearest_rank(xs, q):
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


# -------------------------------------------------------------- parsing
EPS_RE = re.compile(rb'( events_per_s=[0-9.]+|, "events_per_s": [0-9.]+)')


def normalized_digest(path):
    """Report digest without the one wall-clock-dependent field."""
    with open(path, "rb") as f:
        return hashlib.sha256(EPS_RE.sub(b"", f.read())).hexdigest()


VIOL_RE = re.compile(r"^  VIOLATION (.*) at event (\d+)$")
SUMMARY_RE = re.compile(r"^summary: traces=(\d+) events=(\d+) .*violations=(\d+)")


def parse_text(path):
    tuples, trace, out = set(), None, {}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("trace "):
                trace = line[6:line.rindex(": ")]
                continue
            m = VIOL_RE.match(line)
            if m:
                tuples.add((trace, m.group(1), int(m.group(2))))
                continue
            m = SUMMARY_RE.match(line)
            if m:
                out = {"traces": int(m.group(1)), "events": int(m.group(2)),
                       "violations": int(m.group(3))}
    if not out:
        raise Mismatch(f"no summary line in {path}")
    out["tuples"] = tuples
    if len(tuples) != out["violations"]:
        raise Mismatch("text report lists a different number of violations "
                       "than its summary")
    return out


def parse_json(path):
    with open(path) as f:
        d = json.load(f)
    tuples = {(t["name"], v["prop"], v["position"])
              for t in d["traces"] for v in t["verdicts"]
              if v["verdict"] == "violation"}
    c = d["counters"]
    return {"traces": c["traces"], "events": c["events"],
            "violations": c["violations"], "tuples": tuples}


def read_tuples(path):
    out = set()
    with open(path) as f:
        for line in f:
            trace, prop, pos = line.rstrip("\n").split("\t")
            out.add((trace, prop, int(pos)))
    return out


def vm_hwm_mb(pid):
    """Peak RSS so far of a live process."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Mismatch(f"no VmHWM for pid {pid}")


def read_prom(path):
    out = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or "{" in line:
                continue
            parts = line.split()
            if len(parts) == 2:
                try:
                    out[parts[0]] = float(parts[1])
                except ValueError:
                    pass
    return out


# ----------------------------------------------------------------- main
def build():
    for f in ("dune-project", "bin/slc.ml", "perfbench/dune"):
        if not os.path.exists(f):
            log(f"{f} not found: run from the root of a source checkout")
            return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "--build-dir",
                        BUILD_DIR] + TARGETS, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        log("build failed:\n" + r.stderr[-4000:])
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    b = Bench(args.workload, args.seed, args.seconds)
    correct = True
    try:
        b.prepare()
        metrics, props = b.run_traced() if args.trace else b.run_end_to_end()
        missing = set(units) - set(metrics)
        if missing:
            raise Mismatch(f"metrics not measured: {sorted(missing)}")
    except (Mismatch, subprocess.SubprocessError, OSError) as e:
        log(f"MISMATCH: {e}")
        correct, metrics, props = False, {}, {}
        b.failed = max(b.failed, 1)
    finally:
        b.stop_all()
        shutil.rmtree(b.work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(b.root, WORK_DIR))
        except OSError:
            pass
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "properties": props}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, b.attempted),
        "failed": b.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
