"""Seeded input generators for the osharpe benchmark workloads.

Every generator is a pure function of its seed (and of the repository's
example files), so the same seed always yields byte-identical inputs.
The CLI generators return the full program text plus the split the traced
run needs: `define` (model and function definitions) and `query` (the
statements that ask for results), with `define + query == text`.
"""

import os
import random

# The sweep keeps S1's wfs(N) structure and re-binds rates only: a finer
# coverage grid makes a serial run last about a second instead of S1's
# 0.14 s, so pool batches and cache hits dominate, not process start.
SWEEP_N = 120
SWEEP_C_STEP = 0.0005
SWEEP_TIMES = list(range(1, 11)) + [20]

# 4 workers x 10 local states sharing a passive 10-state server:
# 10^4 x 10 = 100 000 reachable states, 600 000 generator entries.
LARGE_WORKERS = 4
LARGE_LOCAL = 10
LARGE_SERVER = 10


def split(text, marker):
    i = text.index(marker)
    return text[:i], text[i:]


def atm(root):
    text = read(os.path.join(root, "examples", "sharpe", "atm.sharpe"))
    define, query = split(text, "* Obtain results")
    return {"text": text, "define": define, "query": query}


def wfs_rates(rng):
    """Seeded failure rates; the repair rates stay fixed.  The
    uniformization rate follows the largest exit rate, which the repairs
    set, so the seed changes the numbers but not the transient work."""
    return {"wsfl": round(rng.uniform(0.5e-4, 2e-4), 10),
            "fsfl": round(rng.uniform(2.5e-5, 1e-4), 10),
            "wsrp": 1.0, "fsrp": 0.5}


def wfs_model(n, rates):
    """The thesis' wfs net (example 2.4.1) with n workstations."""
    return f"""func avail()
if ((#(wsup) > 0) and (#(fsup) == 1))
1
else
0
end
end

srn wfs (c)
wsup {n}
fsup 1
wst 0
wsdn 0
fsdn 0
end
wsfl placedep wsup {rates['wsfl']}
fsfl ind {rates['fsfl']}
wsrp ind {rates['wsrp']}
fsrp ind {rates['fsrp']}
end
wscv ind c
wsuc ind 1 - c
end
wsup wsfl 1
fsup fsfl 1
fsup wsuc 1
wst wscv 1
wst wsuc 1
wsdn wsrp 1
fsdn fsrp 1
end
wsfl wst 1
wsrp wsup 1
fsfl fsdn 1
fsrp fsup 1
wscv wsdn 1
wsuc wsdn 1
wsuc fsdn 1
end
fsdn wsfl 1
fsdn wsrp 1
wsdn fsfl 2
end
"""


def sweep(seed):
    rng = random.Random(seed)
    rates = wfs_rates(rng)
    define = "format 8\n" + wfs_model(SWEEP_N, rates) + "\n"
    query = f"""loop c, 0.70, 0.90, {SWEEP_C_STEP}
  loop t, 1, 10, 1
    expr srn_exrt(t, wfs; avail; c)
  end
  expr srn_exrt(20, wfs; avail; c)
end

end
"""
    return {"text": define + query, "define": define, "query": query,
            "n": SWEEP_N, "rates": rates, "c_step": SWEEP_C_STEP,
            "times": SWEEP_TIMES}


# Fixed rates: BiCGStab(ilu0)'s iteration count on this chain swings
# between about 24 and 2000 under a 0.5% change of its rates, so a seed
# that moved the rates would measure that swing, not the program.  The seed
# picks the transient time and the queried server states instead.
LARGE_WORKER_RATES = [2.1, 0.7, 1.4, 2.8, 0.9, 1.6, 2.3, 1.1, 2.6, 1.9]
LARGE_SERVER_RATES = [3.1, 1.7, 2.4, 3.8, 1.2, 2.9, 3.4, 2.0, 1.5, 2.6]


def large(seed):
    rng = random.Random(seed)
    lines = ["format 15", "", "pepa big"]
    for k, rate in enumerate(LARGE_WORKER_RATES):
        action = "req" if k == 0 else f"w{k}"
        lines.append(f"W{k} = ({action}, {rate}).W{(k + 1) % LARGE_LOCAL}")
    for k, rate in enumerate(LARGE_SERVER_RATES):
        lines.append(f"S{k} = (req, infty).S{(k + 1) % LARGE_SERVER}"
                     f" + (srv{k}, {rate}).S{(k - 1) % LARGE_SERVER}")
    lines.append("(" + " <> ".join(["W0"] * LARGE_WORKERS) + ") <req> S0")
    lines += ["end", ""]
    define = "\n".join(lines) + "\n"
    t = round(rng.uniform(1.5, 2.5), 3)
    shown = sorted(rng.sample(range(LARGE_SERVER), 2))
    q = [f"expr prob(big, S{k})" for k in range(LARGE_SERVER)]
    q.append("expr tput(big, req)")
    q += [f"expr value({t:g}; big, S{k})" for k in shown]
    query = "\n".join(q) + "\n\nend\n"
    return {"text": define + query, "define": define, "query": query,
            "server_states": LARGE_SERVER, "times": [t], "shown": shown}


# The daemon's query session holds a small wfs net; every connection binds
# the coverage c and reads a transient availability, as a what-if client
# of a served model would.
DAEMON_WFS_N = 2
# Each distinct c leaves one solved instance in the session, and the daemon
# re-measures the whole session after every bind, so bind cost grows with
# the instances held.  A fixed pool of c values per connection puts that
# cost at a steady plateau of 64 instances instead of letting it grow for
# as long as the run lasts.
DAEMON_C_VALUES = 64


def daemon(seed, root):
    rng = random.Random(seed)
    examples = []
    for sub in ("sharpe", "pepa"):
        d = os.path.join(root, "examples", sub)
        for f in sorted(os.listdir(d)):
            name = f[: -len(".sharpe")]
            if f.endswith(".sharpe") and name != "atm":
                golden = os.path.join(root, "test", "golden", name + ".out")
                examples.append({"name": name, "src": read(os.path.join(d, f)),
                                 "golden": read(golden)})
    rates = wfs_rates(rng)
    define = "format 15\n" + wfs_model(DAEMON_WFS_N, rates) + "bind c 0.8\n"
    return {"examples": examples, "define": define, "rates": rates,
            "n": DAEMON_WFS_N, "rng_seed": rng.randrange(1 << 30)}


def daemon_stream(mix, conn):
    """The endless request sequence of connection `conn`: rounds of every
    example once (in a seeded order), each eval followed by two
    bind/query pairs against the connection's session."""
    rng = random.Random(mix["rng_seed"] * 31 + conn)
    session = f"bench{conn}"
    cs = [round(rng.uniform(0.7, 0.99), 6) for _ in range(DAEMON_C_VALUES)]
    while True:
        order = list(range(len(mix["examples"])))
        rng.shuffle(order)
        round_ops = []
        for i in order:
            round_ops.append(("eval", i))
            for _ in range(2):
                round_ops.append(("bind", session, rng.choice(cs)))
                round_ops.append(("query", session,
                                  f"srn_exrt({rng.randint(1, 20)}, wfs; avail; c)"))
        yield round_ops


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()
