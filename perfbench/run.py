#!/usr/bin/env python3
"""osharpe benchmark: workloads through the built `sharpe`/`sharped`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload atm|sweep|large|daemon \
        --seed N --seconds S --trace 0|1

The script builds the binaries with dune, generates the workload's input
from the seed, measures for about S seconds and checks every output.
Human-readable lines go to stdout first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end ones of BENCHMARK.json, measured with
tracing off; with `--trace 1` they are the per-layer ones, from the
traced run of `perfbench/probe.exe` (spans are written to
`.bench_work/<workload>/spans.json`).  perfbench/README.md defines every
metric.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import gen  # noqa: E402

BIN = os.path.join("_build", "default")
SHARPE = os.path.join(BIN, "bin", "sharpe.exe")
SHARPED = os.path.join(BIN, "bin", "sharped.exe")
PROBE = os.path.join(BIN, "perfbench", "probe.exe")
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 10
DAEMON_RESTARTS = 25
# The daemon run alternates its single-client, nproc-client and restart
# phases in this many blocks, so a slow spell of the host falls on all
# three rather than on one.
DAEMON_BLOCKS = 5


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, flush=True)


# --------------------------------------------------------------------------
# statistics

def median(xs):
    return statistics.median(xs)


def percentile(xs, p):
    """Nearest-rank percentile; with fewer than 100/(100-p) samples it is
    the maximum, and the printed sample count says so."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


# --------------------------------------------------------------------------
# processes

def timed_run(cmd, err_path):
    """Run to completion with stdout on a pipe, so no file-system write is
    timed; returns (seconds, exit code, peak RSS in MB, stdout bytes)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        with p.stdout:
            raw = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, ru.ru_maxrss / 1024.0, raw


def split_output(raw):
    """`sharpe --diagnostics json` prints the program output, then the
    diagnostic records as one JSON array; returns (output, array text)."""
    text = raw.decode("utf-8")
    i = 0 if text.startswith("[") else text.rfind("\n[") + 1
    if i == 0 and not text.startswith("["):
        raise BenchError("no diagnostics array in sharpe output")
    return text[:i], text[i:]


def probe(mode, spec, workdir):
    path = os.path.join(workdir, f"{mode}-spec.json")
    with open(path, "w") as f:
        json.dump(spec, f)
    r = subprocess.run([PROBE, mode, path], capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError(f"probe {mode} failed: {r.stderr.strip()[-2000:]}")
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        log("  " + line)
    return json.loads(lines[-1])


# --------------------------------------------------------------------------
# the CLI workloads: atm, sweep, large

class Cli:
    def __init__(self, workdir, src_text):
        self.workdir = workdir
        self.input = os.path.join(workdir, "input.sharpe")
        with open(self.input, "w") as f:
            f.write(src_text)
        self.empty = os.path.join(workdir, "empty.sharpe")
        open(self.empty, "w").close()

    def run(self, jobs, extra=(), path=None):
        cmd = [SHARPE, "--jobs", str(jobs), "--diagnostics", "json", *extra,
               path or self.input]
        dt, code, rss, raw = timed_run(cmd, os.path.join(self.workdir, "err.txt"))
        output, diag = split_output(raw) if code in (0, 1, 2) else ("", "[]")
        return {"s": dt, "code": code, "rss": rss, "out": output,
                "diag": diag, "records": json.loads(diag)}

    def setup(self, n):
        """`sharpe` on an empty input with the measured flags, n times."""
        return [self.run(NPROC, path=self.empty)["s"] for _ in range(n)]


def measure_cli(cli, seconds, check):
    """Cycles of a `--jobs nproc`, a `--jobs 1` and two more `--jobs nproc`
    runs until the next cycle would pass `seconds` (at least one cycle);
    `check(run)` returns the number of wrong outputs in a run.  Parallel
    runs spread more than serial ones on a shared host, so they get three
    times the samples.  Set-up samples follow every run, so they are spread
    over the whole run and a burst of load on the host moves their median
    less."""
    setups = cli.setup(SETUP_REPEATS)
    par, ser, failed = [], [], 0
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for jobs, acc in ((NPROC, par), (1, ser), (NPROC, par), (NPROC, par)):
            r = cli.run(jobs)
            failed += (r["code"] != 0) + check(r)
            acc.append(r)
            setups += cli.setup(SETUP_REPEATS)
        cycle = time.perf_counter() - c0
        if time.perf_counter() - t0 + cycle > seconds:
            break
    return setups, par, ser, failed


def cli_metrics(setup, par, ser):
    walls = [r["s"] for r in par]
    return {
        "wall_s": (median(walls), len(walls)),
        "wall_serial_s": (median([r["s"] for r in ser]), len(ser)),
        "setup_s": (median(setup), len(setup)),
        "peak_rss_mb": (median([r["rss"] for r in par]), len(par)),
        "req_per_s": (len(walls) / sum(walls), len(walls)),
        "eval_p50_ms": (1000 * median(walls), len(walls)),
        "eval_p99_ms": (1000 * percentile(walls, 99), len(walls)),
    }


def diag_extra(par, ser):
    return len(par[0]["records"]) - len(ser[0]["records"])


def atm_workload(args, workdir):
    w = gen.atm(ROOT)
    golden = gen.read(os.path.join(ROOT, "test", "golden", "atm.out"))
    cli = Cli(workdir, w["text"])

    def check(r):
        return int(r["out"] != golden)

    return cli, w, check, []


def sweep_workload(args, workdir):
    w = gen.sweep(args.seed)
    cli = Cli(workdir, w["text"])
    expected = {}
    n_lines = round(0.2 / w["c_step"] + 1) * len(w["times"])

    def check(r):
        # every configuration must print what the first run printed
        ref = expected.setdefault("out", r["out"])
        lines = r["out"].splitlines()
        values = [float(l.rsplit(":", 1)[1]) for l in lines]
        return int(r["out"] != ref or len(lines) != n_lines
                   or not all(0.0 <= v <= 1.0 for v in values))

    def no_cache():
        r = cli.run(1, extra=["--no-cache"])
        return (r["code"] != 0) + check(r)

    return cli, w, check, [no_cache]


def large_workload(args, workdir):
    w = gen.large(args.seed)
    cli = Cli(workdir, w["text"])
    last = {}

    def check(r):
        last["out"] = r["out"]
        lines = r["out"].splitlines()
        probs = [float(l.rsplit(":", 1)[1]) for l in lines[: w["server_states"]]]
        return int(len(lines) != w["server_states"] + 1 + len(w["shown"])
                   or abs(sum(probs) - 1.0) > 1e-9)

    def numeric_check():
        # residual, distribution sums and every printed value, recomputed
        # in-process from the same model (perfbench/probe.ml check-large)
        res = probe("check-large", {"define": w["define"], "output": last["out"],
                                    "times": w["times"], "shown": w["shown"],
                                    "server_states": w["server_states"]}, workdir)
        return res["failed"]

    return cli, w, check, [numeric_check]


CLI_WORKLOADS = {"atm": atm_workload, "sweep": sweep_workload,
                 "large": large_workload}


def run_cli_workload(args, workdir):
    cli, w, check, extra_checks = CLI_WORKLOADS[args.workload](args, workdir)
    if not args.trace:
        setup, par, ser, failed = measure_cli(cli, args.seconds, check)
        for c in extra_checks:
            failed += c()
        attempted = len(par) + len(ser) + len(extra_checks)
        log(f"  diag.parallel_extra_records: {diag_extra(par, ser)} "
            "(records at --jobs nproc minus --jobs 1; reported, not failed)")
        for name, runs in (("--jobs nproc", par), ("--jobs 1", ser)):
            times = [r["s"] for r in runs]
            q = statistics.quantiles(times, n=4) if len(times) > 1 else []
            log(f"  {name} runs: n={len(runs)}, quartiles "
                + ", ".join(f"{x:.4f}" for x in q) + " s, largest peak RSS "
                f"{max(r['rss'] for r in runs):.1f} MB (reported, not gated)")
        return cli_metrics(setup, par, ser), attempted, failed
    # traced run: an untraced median to subtract, then the probe
    setup, par, ser, failed = measure_cli(cli, args.seconds / 2, check)
    for c in extra_checks:
        failed += c()
    untraced = median([r["s"] for r in par])
    spec = {"workload": args.workload, "jobs": NPROC, "define": w["define"],
            "query": w["query"], "spans": os.path.join(workdir, "spans.json")}
    spec.update({k: w[k] for k in ("n", "rates", "c_step", "times") if k in w})
    spec.update({"cli_output": par[0]["out"], "diag_json": par[0]["diag"]})
    if args.workload == "atm":
        spec["count_check"] = atm_state_count(cli, w, workdir)
    res = probe("trace", spec, workdir)
    failed += res["failed"]
    m = dict(res["metrics"])
    m["diag.parallel_extra_records"] = diag_extra(par, ser)
    m["trace.overhead_s"] = res["traced_run_s"] - untraced
    attempted = len(par) + len(ser) + len(extra_checks) + res["checks"]
    return m, attempted, failed


def atm_state_count(cli, w, workdir):
    """The CLI's own tangible-state count and steady reward for atm, read
    from the Krylov solver's diagnostic (`--solver bicgstab` reports n)."""
    path = os.path.join(workdir, "atm_steady.sharpe")
    with open(path, "w") as f:
        f.write(w["define"] + "format 15\nexpr srn_exrss(example6; Qlen1)\nend\n")
    r = cli.run(1, extra=["--solver", "bicgstab"], path=path)
    msg = [x["message"] for x in r["records"] if "krylov steady state" in x["message"]]
    n = int(msg[0].split("n=")[1].split(",")[0]) if msg else -1
    exrss = float(r["out"].strip().splitlines()[-1].rsplit(":", 1)[1])
    return {"tangible": n, "exrss": exrss}


# --------------------------------------------------------------------------
# the daemon workload

class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.rfile = self.sock.makefile("rb")
        self.lines = None

    def call(self, req):
        line = (json.dumps(req) + "\n").encode()
        t0 = time.perf_counter()
        self.sock.sendall(line)
        resp = self.rfile.readline()
        dt = time.perf_counter() - t0
        if not resp:
            raise BenchError("daemon closed the connection")
        if self.lines is not None:
            self.lines.append((line, resp))
        return json.loads(resp), dt

    def close(self):
        self.rfile.close()
        self.sock.close()


class Daemon:
    """One `sharped` process on a Unix socket under the work directory."""

    def __init__(self, workdir, journal, name="d"):
        self.sock = os.path.relpath(os.path.join(workdir, f"{name}.sock"), ROOT)
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.err = open(os.path.join(workdir, "sharped.err"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [SHARPED, "--socket", self.sock, "--workers", str(NPROC),
             "--journal-dir", journal],
            stdout=subprocess.DEVNULL, stderr=self.err)
        deadline = t0 + 60
        while True:
            try:
                c = Conn(self.sock)
                resp, _ = c.call({"op": "health"})
                c.close()
                if resp.get("ready"):
                    break
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("sharped did not become ready")
            time.sleep(0.0002)
        self.ready_s = time.perf_counter() - t0
        self.health = resp

    def request(self, req):
        c = Conn(self.sock)
        try:
            return c.call(req)[0]
        finally:
            c.close()

    def stop(self):
        """Ask for shutdown, wait; returns the daemon's peak RSS in MB."""
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"})
            except (OSError, BenchError):
                self.proc.terminate()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.err.close()
        return ru.ru_maxrss / 1024.0


def daemon_round(conn, mix, ops, samples, qlog):
    """One round of the stream on an open connection; returns failures."""
    failed = 0
    for op in ops:
        if op[0] == "eval":
            ex = mix["examples"][op[1]]
            resp, dt = conn.call({"op": "eval", "src": ex["src"]})
            bad = not resp.get("ok") or resp.get("output") != ex["golden"]
        elif op[0] == "bind":
            resp, dt = conn.call({"op": "bind", "session": op[1], "name": "c",
                                  "value": op[2]})
            bad = not resp.get("ok")
            qlog.setdefault(op[1], []).append(["bind", "c", op[2]])
        else:
            resp, dt = conn.call({"op": "query", "session": op[1], "expr": op[2]})
            bad = not resp.get("ok") or not isinstance(resp.get("value"), float)
            qlog.setdefault(op[1], []).append(["query", op[2], resp.get("value")])
        samples.append((op[0], dt))
        failed += bad
    return failed


def open_session(daemon, mix, conn_id, qlog):
    conn = Conn(daemon.sock)
    session = f"bench{conn_id}"
    resp, _ = conn.call({"op": "eval", "session": session, "src": mix["define"]})
    qlog[session] = [["define", mix["define"]]]
    return conn, int(not resp.get("ok") or resp.get("failed_statements") != 0)


class Client:
    """A closed-loop client on its own connection and session: the next
    request leaves when the reply to the previous one arrived."""

    def __init__(self, daemon, mix, conn_id, record_lines=False):
        self.mix, self.qlog, self.samples, self.rounds = mix, {}, [], []
        self.conn, self.error, self.failed = None, None, 0
        self.stream = gen.daemon_stream(mix, conn_id)
        try:
            self.conn, self.failed = open_session(daemon, mix, conn_id, self.qlog)
        except Exception as e:  # noqa: BLE001 - reported as a failed client
            self.fail(e)
        if record_lines and self.conn:
            self.conn.lines = []

    def fail(self, e):
        self.error = str(e)
        self.failed += 1

    def run_until(self, deadline):
        """Rounds of the stream until the first round boundary past the
        deadline; a client that failed stays stopped."""
        if self.error:
            return
        try:
            for ops in self.stream:
                r0 = time.perf_counter()
                self.failed += daemon_round(self.conn, self.mix, ops,
                                            self.samples, self.qlog)
                self.rounds.append(time.perf_counter() - r0)
                if time.perf_counter() >= deadline:
                    break
        except Exception as e:  # noqa: BLE001 - reported as a failed client
            self.fail(e)

    def close(self):
        if self.conn:
            self.conn.close()


def restart(workdir, journal, k):
    """A second `sharped` over a fresh copy of the journal as it stands;
    returns (ready seconds, journal replay ms, peak RSS in MB)."""
    copy = journal + f".restart{k}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(journal, copy)
    r = Daemon(workdir, copy, name="restart")
    rss = r.stop()
    shutil.rmtree(copy)
    return r.ready_s, r.health.get("recovery_ms", 0.0), rss


def run_daemon_workload(args, workdir):
    mix = gen.daemon(args.seed, ROOT)
    journal = os.path.relpath(os.path.join(workdir, "journal"), ROOT)
    shutil.rmtree(journal, ignore_errors=True)
    d = Daemon(workdir, journal)
    clients, restarts, load_s = [], [], 0.0
    try:
        # one connection alone gives the single-client baseline, nproc
        # closed-loop connections the load; then restarts over the journal
        # the load left, each from a fresh copy, while the daemon idles
        serial = Client(d, mix, NPROC)
        load = [Client(d, mix, i, i == 0) for i in range(NPROC)]
        clients = load + [serial]
        block = args.seconds / DAEMON_BLOCKS
        for b in range(DAEMON_BLOCKS):
            serial.run_until(time.perf_counter() + block * 0.35)
            t0 = time.perf_counter()
            threads = [threading.Thread(target=c.run_until, args=(t0 + block * 0.65,))
                       for c in load]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            load_s += time.perf_counter() - t0
            for k in range(DAEMON_RESTARTS // DAEMON_BLOCKS):
                restarts.append(restart(workdir, journal, len(restarts)))
        stats = d.request({"op": "stats"})["stats"] if args.trace else None
    finally:
        for c in clients:
            c.close()
        peak_rss = d.stop()
    for c in clients:
        if c.error:
            log(f"  client error: {c.error}")
    setups = [r[0] for r in restarts]
    replay_ms = [r[1] for r in restarts]
    peak_rss = max([peak_rss] + [r[2] for r in restarts])
    log(f"  restarts: ready median {median(setups) * 1000:.3f} ms, journal "
        f"replay median {median(replay_ms):.3f} ms (n={len(setups)})")
    samples = [s for c in load for s in c.samples]
    failed = sum(c.failed for c in clients)
    attempted = sum(len(c.samples) + 1 for c in clients)
    # query values must equal an in-process Session.query of the same
    # session history (perfbench/probe.ml check-daemon)
    qlog = {}
    for c in clients:
        qlog.update(c.qlog)
    lines_path = os.path.join(workdir, "lines.jsonl")
    lines = load[0].conn.lines if load[0].conn else None
    with open(lines_path, "wb") as f:
        for req, resp in lines or []:
            f.write(req + resp)
    spec = {"sessions": qlog, "lines": lines_path, "workload": "daemon",
            "jobs": NPROC, "define": mix["define"], "n": mix["n"],
            "rates": mix["rates"], "examples": [e["src"] for e in mix["examples"]],
            "spans": os.path.join(workdir, "spans.json")}
    res = probe("trace" if args.trace else "check-daemon", spec, workdir)
    failed += res["failed"]
    attempted += res["checks"]

    def kind(k):
        return [dt * 1000 for op, dt in samples if op == k]

    n_samples = {k: len(kind(k)) for k in ("eval", "bind", "query")}
    log(f"  load: {len(samples)} requests over {NPROC} connections in "
        f"{load_s:.2f} s; samples {n_samples}")
    for k in ("query", "bind"):
        xs = kind(k)
        log(f"  {k}_p50_ms: {median(xs):.4f} ms, {k}_p99_ms: "
            f"{percentile(xs, 99):.4f} ms (n={len(xs)}; reported, not gated)")
    if not args.trace:
        rounds = [x for c in load for x in c.rounds]
        evals = kind("eval")
        return {
            "wall_s": (median(rounds), len(rounds)),
            "wall_serial_s": (median(serial.rounds), len(serial.rounds)),
            "setup_s": (median(setups), len(setups)),
            "peak_rss_mb": (peak_rss, 1 + DAEMON_RESTARTS),
            "req_per_s": (len(samples) / load_s, len(samples)),
            "eval_p50_ms": (median(evals), len(evals)),
            "eval_p99_ms": (percentile(evals, 99), len(evals)),
        }, attempted, failed
    m = dict(res["metrics"])
    ops = stats["ops"]
    client_ms = {k: statistics.mean(kind(k)) for k in ("eval", "bind", "query")}
    for k in ("eval", "bind", "query"):
        m[f"server.{k}_us"] = ops[k]["mean_us"]
    served = sum(ops[k]["count"] for k in ("eval", "bind", "query"))
    m["server.wait_us"] = sum(
        (client_ms[k] * 1000 - ops[k]["mean_us"]) * ops[k]["count"]
        for k in ("eval", "bind", "query")) / served
    m["server.shed"] = stats["shed"]
    m["journal.records"] = stats["journal_records"]
    m["journal.bytes"] = stats["journal_bytes"]
    m["journal.replay_s"] = median(replay_ms) / 1000
    for c in stats["cache"]:
        if c["name"] in ("srn_skeleton", "srn_instance"):
            m[f"solve_cache.{c['name']}.hits"] = c["hits"]
            m[f"solve_cache.{c['name']}.misses"] = c["misses"]
    m["diag.parallel_extra_records"] = 0
    m["trace.overhead_s"] = res["traced_run_s"] - median(serial.rounds)
    return m, attempted, failed


# --------------------------------------------------------------------------
# entry point

def provenance(args):
    def out(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    return {"workload": args.workload, "seed": args.seed, "nproc": NPROC,
            "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
            "commit": out(["git", "rev-parse", "HEAD"])}


def build():
    missing = [p for p in ("dune-project", "bin/sharpe.ml", "bin/sharped.ml",
                           "perfbench/dune") if not os.path.exists(p)]
    if missing:
        raise BenchError("not an osharpe source checkout (missing "
                         + ", ".join(missing) + ")")
    # the shared dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", SHARPE[len(BIN) + 1:],
                        SHARPED[len(BIN) + 1:], PROBE[len(BIN) + 1:]],
                       capture_output=True, text=True, env=env)
    if r.returncode != 0:
        raise BenchError("dune build failed:\n" + r.stderr[-4000:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["atm", "sweep", "large", "daemon"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        build()
        workdir = os.path.join(".bench_work", args.workload)
        os.makedirs(workdir, exist_ok=True)
        prov = provenance(args)
        log("provenance: " + json.dumps(prov))
        if args.workload == "daemon":
            metrics, attempted, failed = run_daemon_workload(args, workdir)
        else:
            metrics, attempted, failed = run_cli_workload(args, workdir)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]
    result = {}
    for m in declared:
        v = metrics.get(m["name"])
        if v is None:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 2
        value, n = v if isinstance(v, tuple) else (v, 1)
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"  {m['name']}: {value:.6g} {m['unit']} (n={n})")
    log(f"  failed_frac: {failed / attempted:.6g} ({failed}/{attempted})")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": result}
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": prov, **summary}, f, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
