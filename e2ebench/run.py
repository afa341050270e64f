#!/usr/bin/env python3
"""Real-session benchmark over `deepcat serve`.

    python3 e2ebench/run.py --workload session5 --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the server and the benchmark tools from
source into .bench_build/, then runs three server lifetimes. Each starts a
real `deepcat serve --stream 1` process with an empty registry, trains and
publishes its master, warms up, serves a third of the timed requests over TCP
loopback from one client process with C = nproc connections (one thread
each), and is stopped with SIGTERM. Latencies are pooled over the three;
setup time is their median, the tail and peak memory their minimum. The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics: an untraced and a traced lifetime
serving the same requests, the first third (the ratio is the tracing
overhead), the server's own spans from --trace-out, a final STAT, and a
replay of sessions through the public calls of each layer (e2e_replay).
BASELINE.md explains every metric, the workloads, and which layer should
move which metric where.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

CONNS = len(os.sched_getaffinity(0))
LIFETIMES = 3  # server lifetimes per run
TRAIN_ITERS = 600
MASTER_STEPS = 4
COMMIT_ROUNDS = 20  # per lifetime, on workloads whose traffic has no FLSH

BATCH_CASES = [f"{w}-{d}" for w in ("WC", "TS", "PR", "KM") for d in ("D1", "D2")]
BATCH_COMBOS = [(c, cl) for c in BATCH_CASES for cl in ("a", "b")]

# Timed sessions per second of --seconds. The run length is a request count
# fixed from --seconds, never a wall-clock limit, so a faster commit does the
# same work (the recur1-flush master grows with every merge). A streaming
# workload with scoped forks was measured and left out: on a shared host its
# run-to-run spread exceeded the bounds (BASELINE.md).
WORKLOADS = {
    "session5": {"rate": 28, "mode": "queue", "warmup_rounds": 6, "steps": 5},
    "recur1-flush": {"rate": 50, "mode": "rounds", "warmup_rounds": 8, "steps": 1},
}
REPLAY_SESSIONS = 64  # sessions the traced run replays below tune_online

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "cmake"
VS_MODEL_FLAG = 2.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong program output)."""


def log(*parts):
    print("e2ebench:", *parts, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no DeepCAT sources under ./src; run from the repository root")
    tmp = BUILD.parent / "tmp"  # the compiler's temporary files stay in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    build_log = BUILD.parent / "build.log"
    with open(build_log, "a") as out:
        steps = [["cmake", "-S", str(ROOT / "e2ebench"), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", str(BUILD), "-j", str(CONNS), "--target", *targets]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                tail = build_log.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def tool(name):
    path = BUILD / ("deepcat/cli/deepcat" if name == "deepcat" else name)
    if not path.is_file():
        raise BenchError(f"missing built tool {path}")
    return str(path)


# ---- traffic ----------------------------------------------------------------


def balanced(rng, combos, n):
    """n (workload, cluster) pairs: shuffled whole blocks of every combo."""
    out = []
    while len(out) < n:
        block = list(combos)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def generate(name, seed, warm_n, timed_n, commit_n):
    """Warm-up, timed and commit-round requests for one workload, from the
    seed alone. Commit rounds send one-step sessions.

    Only known keys with in-range integers are sent: steps >= 1, seeds in
    [1, 2^31), no budget_seconds. Each list carries spare requests at its
    end to replace any the simulator screen drops.
    """
    rng = random.Random(seed * 7919 + sorted(WORKLOADS).index(name))
    spare = lambda n: n + max(8, n // 8) if n else 0

    def make(prefix, n, steps):
        return [{"id": f"{prefix}{i:05d}", "workload": wl, "cluster": cl, "steps": steps,
                 "seed": rng.randrange(1, 2**31)}
                for i, (wl, cl) in enumerate(balanced(rng, BATCH_COMBOS, spare(n)))]

    steps = WORKLOADS[name]["steps"]
    return make("w", warm_n, steps), make("t", timed_n, steps), make("c", commit_n, 1)


def screen(requests, run_dir):
    """Drops requests whose default-configuration run fails in the simulator."""
    lines = "".join(f"{r['id']}\t{r['workload']}\t{r['cluster']}\t{r['seed']}\n" for r in requests)
    res = subprocess.run([tool("e2e_screen")], input=lines, capture_output=True, text=True,
                         timeout=120)
    if res.returncode != 0:
        raise BenchError("e2e_screen failed: " + res.stderr.strip())
    dropped = dict(line.split("\t", 1) for line in res.stdout.splitlines() if line)
    if dropped:
        with open(run_dir / "dropped.tsv", "w") as out:
            for r in requests:
                if r["id"] in dropped:
                    out.write(f"{json.dumps(r)}\t{dropped[r['id']]}\n")
        log(f"dropped {len(dropped)} request(s) that fail in the simulator; see dropped.tsv")
    return [r for r in requests if r["id"] not in dropped]


def plan_file(run_dir, name, requests):
    path = run_dir / f"{name}.jsonl"
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in requests))
    return path


# ---- server and client ------------------------------------------------------


class Server:
    """One `deepcat serve --stream 1` process with an empty registry."""

    live = []

    def __init__(self, run_dir, tag, trace_out=None):
        self.registry = run_dir / f"registry-{tag}"
        shutil.rmtree(self.registry, ignore_errors=True)
        self.registry.mkdir(parents=True)
        cmd = [tool("deepcat"), "serve", "--stream", "1",
               "--checkpoint", str(self.registry), "--model", "default",
               "--tcp", "127.0.0.1:0", "--threads", str(CONNS), "--shards", "1",
               "--train-iters", str(TRAIN_ITERS), "--train-workload", "TS",
               "--train-size", "3.2", "--cluster", "a", "--seed", "1",
               "--master-steps", str(MASTER_STEPS), "--max-models", "8",
               "--max-conns", "256", "--max-inflight", "1024"]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.stderr = open(run_dir / f"server-{tag}.err", "w")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr,
                                     text=True, bufsize=1)
        Server.live.append(self)
        self.port = self._await_port(deadline=self.started + 120)

    def _await_port(self, deadline):
        buf = ""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096).decode(errors="replace")
            if not chunk:
                break
            buf += chunk
            for line in buf.split("\n")[:-1]:  # complete lines only
                if line.startswith("listening on ") and ":" in line:
                    return int(line.rsplit(":", 1)[1])
        raise BenchError("server did not start listening:\n" + buf)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM (graceful drain), wait, and return (exit code, summary line)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.stderr.close()
        if self in Server.live:
            Server.live.remove(self)
        done = [l for l in (out or "").splitlines() if l.startswith("serve done:")]
        return self.proc.returncode, (done[-1] if done else "")

    @classmethod
    def stop_all(cls):
        for s in list(cls.live):
            if s.proc.poll() is None:
                s.proc.kill()
            s.proc.wait()
            s.stderr.close()
            cls.live.remove(s)


def drive(port, mode, plan=None, timeout=170):
    """Runs e2e_client; returns its records as dicts."""
    cmd = [tool("e2e_client"), "--port", str(port), "--conns", str(CONNS), "--mode", mode]
    if plan is not None:
        cmd += ["--plan", str(plan)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if res.returncode != 0:
        raise BenchError("e2e_client failed: " + res.stderr.strip())
    records = []
    for line in res.stdout.split("\n"):  # splitlines() would also split at 0x1E
        if not line:
            continue
        op, index, conn, t0, t1, frame, payload = line.split("\t", 6)
        records.append({"op": op, "index": int(index), "conn": int(conn), "t0": int(t0),
                        "t1": int(t1), "frame": frame, "payload": payload.replace("\x1e", "\n")})
    return records


class Outcome:
    """Operation accounting for one run: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, records, label):
        for r in records:
            if r["op"] == "END":
                if r["frame"] != "END":
                    self.failed += 1
                    self.problems.append(f"{label}: connection {r['conn']} ended without END")
                continue
            self.attempted += 1
            want = "REP" if r["op"] == "REQ" else "TELE"
            ok = r["frame"] == want
            if ok and want == "REP":
                ok = json.loads(r["payload"]).get("ok") is True
            if not ok:
                self.failed += 1
                self.problems.append(f"{label}: {r['op']} {r['index']} -> {r['frame']} "
                                     f"{r['payload'][:200]}")

    def server_exit(self, code, summary, label):
        if code != 0:
            self.failed += 1
            self.problems.append(f"{label}: server exited {code}: {summary}")


class Lifetime:
    """One server lifetime: spawn, offline-train, publish, listen, warm up
    (together setup_s), then its share of the timed traffic, commit rounds
    when the traffic has no FLSH, an optional STAT, and SIGTERM."""

    def __init__(self, run_dir, tag, name, plans, outcome, trace=False):
        self.trace_path = run_dir / f"server_trace-{tag}.json" if trace else None
        server = Server(run_dir, tag, self.trace_path)
        try:
            mode = WORKLOADS[name]["mode"]
            outcome.check(drive(server.port, mode, plans["warmup"]), f"{tag} warm-up")
            self.setup_s = time.monotonic() - server.started
            self.records = drive(server.port, mode, plans["timed"])
            outcome.check(self.records, tag)
            self.commit = []
            if mode != "rounds":
                # Traffic without FLSH: after it, lock-step rounds of C
                # one-step sessions of the workload's cases, each committed
                # by FLSH, give the flush samples. They count for
                # correctness, never for session latency.
                self.commit = drive(server.port, "rounds", plans["commit"])
                outcome.check(self.commit, f"{tag} commit rounds")
            self.flushes = [r for r in self.records + self.commit if r["op"] == "FLSH"]
            self.counters = {}
            if trace:
                stat = drive(server.port, "stat")
                outcome.check(stat, f"{tag} STAT")
                if stat[0]["frame"] == "TELE":
                    self.counters = read_counters(stat[0]["payload"])
            self.rss_mb = server.peak_rss_mb()
        finally:
            outcome.server_exit(*server.stop(), tag)
        self.registry = server.registry

    def ops(self, op):
        return [r for r in self.records if r["op"] == op]


def serve(name, parts, outcome, trace=False):
    tag = "traced" if trace else "plain"
    return [Lifetime(plans["timed"].parent, f"{tag}-{plans['timed'].stem}", name, plans,
                     outcome, trace)
            for plans in parts]


# ---- metrics ----------------------------------------------------------------


def tail_index(n):
    """Index of the highest percentile with at least 10 samples beyond it."""
    return max(0, n - 11)


def ms(ns):
    return ns / 1e6


def session_stats(lifetimes):
    """End-to-end numbers, pooled over the lifetimes of one run."""
    reqs = [r for lt in lifetimes for r in lt.ops("REQ")]
    flush = [r for lt in lifetimes for r in lt.flushes]
    ok = [p for p in (json.loads(r["payload"]) for r in reqs if r["frame"] == "REP")
          if p.get("ok") is True]
    lat = sorted(ms(r["t1"] - r["t0"]) for r in reqs)
    # The tail is taken per lifetime and the lowest of the three reported: a
    # stall of the shared host hits some lifetimes, a slower program all.
    tails = []
    for lt in lifetimes:
        own = sorted(ms(r["t1"] - r["t0"]) for r in lt.ops("REQ"))
        tails.append(own[tail_index(len(own))])
    # Seconds of timed traffic: first send to last reply, per lifetime.
    busy_s = sum((max(r["t1"] for r in lt.records) - min(r["t0"] for r in lt.records)) / 1e9
                 for lt in lifetimes)
    return {
        "n": len(reqs),
        "rtt_mean_ms": statistics.fmean(lat),
        "sessions_per_s": len(ok) / busy_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": min(tails),
        "tails": tails,
        "flush_p50_ms": statistics.median(ms(r["t1"] - r["t0"]) for r in flush),
        "speedup_mean": statistics.fmean(p["speedup"] for p in ok) if ok else 0.0,
        "tuning_cost_s": statistics.fmean(p["eval_seconds"] + p["rec_seconds"] for p in ok)
        if ok else 0.0,
        "ok_reps": len(ok),
        "digests": [hashlib.sha256("\n".join(sorted(
            r["payload"] for r in lt.records + lt.commit if r["op"] == "REQ")).encode()).hexdigest()
            for lt in lifetimes],
    }


def read_counters(tele):
    counters = {}
    for line in tele.splitlines():
        if line.startswith("{"):
            item = json.loads(line)
            if item.get("kind") == "counter":
                counters[item["name"]] = item["value"]
    return counters


def server_spans(lifetime, warm_requests, warm_flushes):
    """The server's own spans of one lifetime's timed traffic, in us."""
    by_name = {}
    for e in json.loads(lifetime.trace_path.read_text())["traceEvents"]:
        if e.get("ph") == "X":
            by_name.setdefault(e["name"], []).append(e)
    for spans in by_name.values():
        spans.sort(key=lambda e: e["ts"])
    # Phases run one after another: warm-up, timed traffic, commit rounds,
    # and the drain's final flush.
    requests = by_name.get("request", [])[warm_requests:warm_requests + len(lifetime.ops("REQ"))]
    req_start = {e["args"]["id"]: e["ts"] for e in requests}
    sessions = [e for e in by_name.get("session", []) if e["args"]["parent"] in req_start]
    tune = {e["args"]["parent"]: e["dur"] for e in by_name.get("tune_online", [])}
    flushes = by_name.get("flush", [])[warm_flushes:warm_flushes + len(lifetime.flushes)]
    return {
        "request": [e["dur"] for e in requests],
        "queue": [s["ts"] - req_start[s["args"]["parent"]] for s in sessions],
        "session": [s["dur"] for s in sessions],
        "clone": [s["dur"] - tune[s["args"]["id"]] for s in sessions if s["args"]["id"] in tune],
        "tune_online": [tune[s["args"]["id"]] for s in sessions if s["args"]["id"] in tune],
        "flush": [f["dur"] for f in flushes],
        "merge": [m["dur"] for m in by_name.get("merge", [])
                  if any(f["ts"] <= m["ts"] <= f["ts"] + f["dur"] for f in flushes)],
    }


def write_client_trace(path, lifetime):
    """The benchmark's own spans around each client REQ and FLSH."""
    origin = min(r["t0"] for r in lifetime.records)
    events = [{"name": "client." + r["op"].lower(), "cat": "client", "ph": "X",
               "ts": (r["t0"] - origin) / 1e3, "dur": (r["t1"] - r["t0"]) / 1e3,
               "pid": 10, "tid": r["conn"], "args": {"index": r["index"], "reply": r["frame"]}}
              for r in lifetime.records if r["op"] in ("REQ", "FLSH")]
    path.write_text(json.dumps({"displayTimeUnit": "ms", "traceEvents": events}))


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---- runs -------------------------------------------------------------------


def end_to_end(name, run_dir, parts, outcome):
    lifetimes = serve(name, parts, outcome)
    stats = session_stats(lifetimes)
    attempted = max(outcome.attempted, 1)
    n = len(lifetimes[0].ops("REQ"))
    log(f"{name}: {stats['n']} sessions over {len(parts)} server lifetimes; tail = "
        f"p{100.0 * (n - 10) / n:.2f} of each lifetime's {n}; setups "
        + ", ".join(f"{lt.setup_s:.3f}" for lt in lifetimes) + " s; tails "
        + ", ".join(f"{t:.1f}" for t in stats["tails"]) + " ms; peak RSS "
        + ", ".join(f"{lt.rss_mb:.1f}" for lt in lifetimes) + " MB")
    metrics = {
        "sessions_per_s": metric(stats["sessions_per_s"], "1/s"),
        "latency_p50_ms": metric(stats["latency_p50_ms"], "ms"),
        "latency_tail_ms": metric(stats["latency_tail_ms"], "ms"),
        "flush_p50_ms": metric(stats["flush_p50_ms"], "ms"),
        "setup_s": metric(statistics.median(lt.setup_s for lt in lifetimes), "s"),
        # The allocator sometimes lands a lifetime a few MB higher; the lowest
        # of three is the memory the traffic needs.
        "peak_rss_mb": metric(min(lt.rss_mb for lt in lifetimes), "MB"),
        "ok_share": metric(max(0, attempted - outcome.failed) / attempted, "ratio"),
        "speedup_mean": metric(stats["speedup_mean"], "ratio"),
        "tuning_cost_s": metric(stats["tuning_cost_s"], "s"),
    }
    return metrics, stats["digests"]


def replay(name, run_dir, lifetime, plan, outcome):
    """e2e_replay over the first timed sessions of `plan` against the master
    `lifetime` published; returns its aggregates."""
    published = lifetime.registry / "default.v1.dckp"
    if not published.is_file():
        raise BenchError("no published master in the traced server's registry")
    sessions = min(REPLAY_SESSIONS, len(plan.read_text().splitlines()))
    rounds = WORKLOADS[name]["mode"] == "rounds"
    res = subprocess.run(
        [tool("e2e_replay"), "--checkpoint", str(published), "--plan", str(plan),
         "--threads", str(CONNS), "--sessions", str(sessions),
         "--epoch", str(CONNS if rounds else sessions),
         "--master-steps", str(MASTER_STEPS), "--train-iters", str(TRAIN_ITERS),
         "--trace-out", str(run_dir / "replay_trace.json")],
        capture_output=True, text=True, timeout=170)
    if res.returncode != 0:
        raise BenchError("e2e_replay failed: " + res.stderr.strip())
    rp = json.loads(res.stdout.strip().splitlines()[-1])
    if rp["mismatches"] != 0:
        outcome.failed += rp["mismatches"]
        outcome.problems.append(f"replay differs from tune_online: {rp['mismatch_ids'][:10]}")
    return rp


def per_layer(name, run_dir, parts, outcome):
    # One untraced and one traced lifetime serve the first part's requests.
    # The replay runs right after the traced lifetime, and its session total
    # is compared with that lifetime's sessions: on a shared host the speed
    # drifts between minutes, so the two must be close in time.
    plain = session_stats(serve(name, parts[:1], outcome))
    lifetime = serve(name, parts[:1], outcome, trace=True)[0]
    rp = replay(name, run_dir, lifetime, parts[0]["timed"], outcome)
    traced = session_stats([lifetime])
    write_client_trace(run_dir / "client_trace.json", lifetime)
    if traced["digests"] != plain["digests"]:
        outcome.failed += 1
        outcome.problems.append("traced and untraced REP digests differ")

    rounds = WORKLOADS[name]["mode"] == "rounds"
    warm_n = len(parts[0]["warmup"].read_text().splitlines())
    spans = server_spans(lifetime, warm_n, warm_n // CONNS if rounds else 0)
    med_ms = {k: statistics.median(v) / 1e3 if v else 0.0 for k, v in spans.items()}

    snapshots = lifetime.counters.get("stream.snapshots", 0)
    commit_reps = sum(1 for r in lifetime.commit if r["frame"] == "REP")
    ratios = {
        "rl.train_step_vs_model": rp["train_step_ms"] / 1e3 / rp["model_train_step_s"],
        "rl.min_q_vs_model": rp["min_q_us"] / 1e6 / rp["model_critic_pair_s"],
        "rl.act_vs_model": rp["act_us"] / 1e6 / rp["model_actor_forward_s"],
    }
    for key, value in ratios.items():
        if not 1 / VS_MODEL_FLAG <= value <= VS_MODEL_FLAG:
            log(f"FLAG {key} = {value:.3f}: measured cost is beyond {VS_MODEL_FLAG}x "
                f"of the rec_cost constant (reported, not failed)")
    coverage = rp["session_ms"] / med_ms["session"]
    log(f"{name}: replay per-session total {rp['session_ms']:.3f} ms vs the traced "
        f"lifetime's session median {med_ms['session']:.3f} ms (coverage {coverage:.3f}); "
        f"{rp['sessions']} replayed, {rp['mismatches']} mismatches")
    # Layer shares of the mean round trip (means, so the parts add up), and
    # the replay's split of tune_online.
    mean_ms = {k: statistics.fmean(v) / 1e3 if v else 0.0 for k, v in spans.items()}
    rtt = traced["rtt_mean_ms"]
    evals = rp["recommendations_per_session"]
    inner = {"rl train steps": rp["train_steps_per_session"] * rp["train_step_ms"],
             "recommend": evals * rp["recommend_us"] / 1e3,
             "evaluate": (evals + 1) * rp["batch_eval_us"] / 1e3}
    share = lambda x, of=rtt: f"{100 * x / of:.1f}%"
    log(f"{name}: shares of the mean round trip {rtt:.2f} ms: "
        f"net {share(rtt - mean_ms['request'])}, queue {share(mean_ms['queue'])}, "
        f"clone {share(mean_ms['clone'])}, tune_online {share(mean_ms['tune_online'])} "
        "(replay split: " + ", ".join(f"{k} {share(v, sum(inner.values()))}"
                                      for k, v in inner.items())
        + f"); flush {mean_ms['flush']:.2f} ms each")
    metrics = {
        "net.outside_request_ms": metric(
            traced["rtt_mean_ms"] - statistics.fmean(spans["request"]) / 1e3, "ms"),
        "service.queue_ms": metric(med_ms["queue"], "ms"),
        "service.clone_ms": metric(med_ms["clone"], "ms"),
        "service.clone_replay_ms": metric(rp["clone_ms"], "ms"),
        "service.snapshot_ms": metric(rp["snapshot_ms"], "ms"),
        "service.snapshot_mb": metric(rp["snapshot_mb"], "MB"),
        "service.snapshots": metric(snapshots, "count"),
        "service.evictions": metric(lifetime.counters.get("stream.evictions", 0), "count"),
        "service.sessions_per_snapshot": metric(
            (traced["ok_reps"] + warm_n + commit_reps) / snapshots if snapshots else 0.0,
            "count"),
        "service.flush_ms": metric(med_ms["flush"], "ms"),
        "service.merge_ms": metric(med_ms["merge"], "ms"),
        "tuners.tune_online_ms": metric(med_ms["tune_online"], "ms"),
        "tuners.recommend_us": metric(rp["recommend_us"], "us"),
        "tuners.twinq_probes": metric(rp["twinq_probes"], "count"),
        "tuners.twinq_accept_share": metric(rp["twinq_accept_share"], "ratio"),
        "tuners.train_offline_s": metric(rp["train_offline_s"], "s"),
        "rl.train_step_ms": metric(rp["train_step_ms"], "ms"),
        "rl.train_steps_per_session": metric(rp["train_steps_per_session"], "count"),
        "rl.min_q_us": metric(rp["min_q_us"], "us"),
        "rl.act_us": metric(rp["act_us"], "us"),
        **{k: metric(v, "ratio") for k, v in ratios.items()},
        "sparksim.evaluate_us": metric(rp["batch_eval_us"], "us"),
        "streamsim.window_us": metric(rp["stream_eval_us"], "us"),
        "obs.trace_overhead": metric(plain["sessions_per_s"] / traced["sessions_per_s"],
                                     "ratio"),
        "replay.coverage": metric(coverage, "ratio"),
    }
    return metrics, plain["digests"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        raise BenchError("--seed must be >= 0 and --seconds >= 1")

    build(["deepcat", "e2e_client", "e2e_screen"] + (["e2e_replay"] if args.trace else []))
    name = args.workload
    run_dir = ROOT / ".bench_build" / "runs" / f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # Per lifetime: whole rounds of C timed requests, and COMMIT_ROUNDS rounds
    # of commit requests when the workload's traffic has no FLSH.
    per_part = CONNS * math.ceil(args.seconds * WORKLOADS[name]["rate"] / (LIFETIMES * CONNS))
    per_commit = 0 if WORKLOADS[name]["mode"] == "rounds" else COMMIT_ROUNDS * CONNS
    want = {"w": WORKLOADS[name]["warmup_rounds"] * CONNS, "t": LIFETIMES * per_part,
            "c": LIFETIMES * per_commit}
    kept = screen([r for reqs in generate(name, args.seed, *want.values()) for r in reqs],
                  run_dir)
    lists = {k: [r for r in kept if r["id"][0] == k][:n] for k, n in want.items()}
    if any(len(lists[k]) < n for k, n in want.items()):
        raise BenchError("too many generated requests fail in the simulator")
    warm_plan = plan_file(run_dir, "warmup", lists["w"])
    parts = [{"warmup": warm_plan,
              "timed": plan_file(run_dir, f"timed{i}", lists["t"][i * per_part:][:per_part]),
              "commit": plan_file(run_dir, f"commit{i}", lists["c"][i * per_commit:][:per_commit])}
             for i in range(LIFETIMES)]

    outcome = Outcome()
    run = per_layer if args.trace else end_to_end
    metrics, digests = run(name, run_dir, parts, outcome)
    for problem in outcome.problems[:20]:
        log("FAIL", problem)
    correct = outcome.failed == 0
    if correct:  # keep plans, traces and logs; drop the 2.4 MB checkpoints
        for registry in run_dir.glob("registry-*"):
            shutil.rmtree(registry, ignore_errors=True)
    for i, digest in enumerate(digests):
        print(f"digest {name} seed={args.seed} lifetime={i} {digest}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log("error:", e)
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        log("error: timed out:", e.cmd[0])
        sys.exit(1)
    finally:
        Server.stop_all()
