"""Closed-loop benchmark of the sixvertex CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
One client issues one CLI command at a time, each in a fresh interpreter
(as a user would run ``sixvertex verify``), each into a fresh output
directory, so the diagonalization cache starts cold.  BLAS and OpenMP are
pinned to one thread.  Commands are issued while the next one is expected to
finish inside the S-second window, which also holds one unmeasured warm-up
import and the set-up probes.

--trace 0 reports the end-to-end metrics: medians over the run's commands of
wall time (entry to return of ``cli.main``), CPU time (user + sys of the
child), peak RSS, plus the pass fraction of the config's output checks, and
the median set-up time (interpreter start + ``import sixvertex.cli``) over
import-only probes and the command processes.

--trace 1 alternates untraced and traced commands.  Traced commands wrap the
package's public functions (see tracer.py) and give the per-layer metrics;
the difference of the two medians is the tracing overhead.

Every command's outputs are checked: ``verify`` reports are parsed and must
be consistent with their exit code; ``spectrum`` eigenvalues are compared
with an independent dense build of T(x*).  All commands of a run execute the
same config, so their verdicts must agree; ``attempted`` and ``failed`` count
the config's output checks once, plus one for each command that crashed,
timed out or left unreadable outputs, and so do not depend on how many
commands fit in the window.  The last stdout line is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer  # this script's directory is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Each run must exit well inside 180 s.
RUN_LIMIT_S = 170.0
SETUP_PROBES = 3
# Pinned tolerances of the spectrum output checks.
EIG_REL_TOL = 1e-9          # |lam_prog - lam_ref| / max|lam_ref|
FIT_RESIDUAL_TOL = 1e-9     # default `polynomial_fit` tolerance of the program


# ---------------------------------------------------------------------------
# workloads

def generic_model(L, seed):
    """Twisted, inhomogeneous model point drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return {"L": L, "gamma": 0.7,
            "mu": [float(v) for v in rng.uniform(-0.3, 0.3, L)],
            "phi1": float(rng.uniform(0.7, 1.4)),
            "phi2": float(rng.uniform(0.7, 1.4))}


def make_workload(name, seed):
    """(cli command, config dict) of a workload; only the config reaches the
    program."""
    if name == "verify-generic-L6":
        return "verify", {"model": generic_model(6, seed), "seed": seed}
    if name == "spectrum-generic-L7":
        return "spectrum", {"model": generic_model(7, seed), "seed": seed}
    raise KeyError(name)


# ---------------------------------------------------------------------------
# independent reference for the spectrum check

def reference_transfer(model, x):
    """T(x) = tr_aux Gamma R_01(x - mu_1) ... R_0L(x - mu_L), built by the
    Kronecker recursion over auxiliary 2x2 blocks (no program code)."""
    g = complex(model["gamma"])
    blocks = [[np.eye(1, dtype=complex), np.zeros((1, 1), complex)],
              [np.zeros((1, 1), complex), np.eye(1, dtype=complex)]]
    for mu in model["mu"]:
        z = x - complex(mu)
        a, b, c = np.sinh(z + g), np.sinh(z), np.sinh(g)
        # site operators L_ab[s, t] = R[(a, s), (b, t)]
        site = [[np.array([[a, 0], [0, b]]), np.array([[0, 0], [c, 0]])],
                [np.array([[0, c], [0, 0]]), np.array([[b, 0], [0, a]])]]
        blocks = [[sum(np.kron(blocks[i][k], site[k][j]) for k in range(2))
                   for j in range(2)] for i in range(2)]
    return complex(model["phi1"]) * blocks[0][0] + complex(model["phi2"]) * blocks[1][1]


def _complex(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def check_spectrum(outdir, model):
    """Output checks of one `spectrum` command: for every eigenpair, its fit
    residual is within tolerance and its eigenvalue at x* matches the
    reference spectrum; plus one check that there are 2^L eigenvalues.
    Returns (verdicts, largest relative eigenvalue deviation); a verdict is
    True where the check failed."""
    from scipy.optimize import linear_sum_assignment
    L = model["L"]
    verdicts = []
    by_xstar = {}
    for n in range(L + 1):
        rec = json.loads((outdir / f"spectrum-n{n}.json").read_text())
        xs = _complex(rec["x_star"])
        by_xstar.setdefault(xs, []).extend(_complex(z) for z in rec["eigenvalues_at_x_star"])
        verdicts += [not fit["residual"] <= FIT_RESIDUAL_TOL for fit in rec["fits"]]
    total, worst = 0, 0.0
    for xs, eigs in by_xstar.items():
        ref = np.linalg.eigvals(reference_transfer(model, xs))
        got = np.array(eigs)
        total += len(got)
        # sectors diagonalized at x* must be a sub-multiset of spec T(x*)
        cost = np.abs(got[:, None] - ref[None, :]) / np.abs(ref).max()
        rows, cols = linear_sum_assignment(cost)
        dev = np.full(len(got), np.inf)
        dev[rows] = cost[rows, cols]
        worst = max(worst, float(dev.max()))
        verdicts += [bool(d > EIG_REL_TOL) for d in dev]
    verdicts.append(total != 2 ** L)
    rows_csv = (outdir / "spectrum.csv").read_text().splitlines()[1:]
    if len(rows_csv) != 2 ** L:
        raise ValueError(f"spectrum.csv has {len(rows_csv)} rows, expected {2 ** L}")
    return verdicts, worst


def check_verify(outdir, rc):
    """Parse reports.jsonl: (verdicts, consistent); a verdict is True where
    the report failed, consistent is False where a report's passed flag or
    the exit code disagrees with the residuals."""
    reports = [json.loads(line) for line in
               (outdir / "reports.jsonl").read_text().splitlines() if line.strip()]
    if not reports:
        raise ValueError("reports.jsonl holds no reports")
    verdicts = []
    consistent = True
    for r in reports:
        if r["identity"].startswith("exception:"):
            ok = False
        else:
            ok = r["residual"] <= r["tolerance"]
        consistent = consistent and bool(r["passed"]) == ok
        verdicts.append(not ok)
    return verdicts, consistent and rc == (1 if any(verdicts) else 0)


def merge_verdicts(per_command):
    """One verdict per output check of the run's config.

    Every command of a run executes the same config, so their verdicts must
    agree; a check counts as failed if it failed in any command.  Returns
    (verdicts, agree)."""
    if not per_command:
        return [], True
    width = max(len(v) for v in per_command)
    merged = [any(v[i] for v in per_command if i < len(v)) for i in range(width)]
    return merged, all(v == per_command[0] for v in per_command)


# ---------------------------------------------------------------------------
# measurement

def child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Client:
    """Runs worker processes one at a time and records what each cost."""

    def __init__(self, rundir, deadline):
        self.rundir = rundir
        self.deadline = deadline
        self.env = child_env()
        self.seq = 0

    def spawn(self, cli_args=(), trace=False):
        self.seq += 1
        tag = self.rundir / f"w{self.seq}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--result", f"{tag}.result"]
        if trace:
            cmd += ["--trace", f"{tag}.trace"]
        if cli_args:
            cmd += ["--", *cli_args]
        ru0 = _children_cpu()
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(f"{tag}.out", "w") as out, open(f"{tag}.err", "w") as err:
            t_spawn = time.perf_counter()
            try:
                proc = subprocess.run(cmd, stdout=out, stderr=err, env=self.env,
                                      cwd=self.rundir, timeout=timeout)
            except subprocess.TimeoutExpired:
                return {"ok": False, "why": f"timeout after {timeout:.0f} s", "tag": tag}
        cpu = _children_cpu() - ru0
        res_path = Path(f"{tag}.result")
        if proc.returncode != 0 or not res_path.exists():
            return {"ok": False, "tag": tag,
                    "why": f"worker exit {proc.returncode}: " + _tail(f"{tag}.err")}
        res = json.loads(res_path.read_text())
        if not res["module"].startswith(str(SRC) + os.sep):
            return {"ok": False, "tag": tag, "why": f"imported {res['module']}"}
        res.update(ok=True, tag=tag, setup_s=res["t_ready"] - t_spawn, cpu_s=cpu,
                   peak_rss_mb=res["maxrss_kb"] / 1024.0)
        if "t1" in res:
            res["wall_s"] = res["t1"] - res["t0"]
        return res


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _tail(path, n=5):
    try:
        return " | ".join(Path(path).read_text().strip().splitlines()[-n:])
    except OSError:
        return ""


def kernel_counts(L):
    """Computed per-build figures of model.monodromy_blocks at chain length L,
    from its array shapes (D = 2^L, complex128 = 16 B, complex mult = 6 flop,
    complex add = 2 flop).

    Per site: 8 einsums X (D x D) times a 2x2 site factor, each 2 mults + 1
    add per output element (14 D^2 flop; read + write 32 D^2 B), and 4 block
    sums (2 D^2 flop; 48 D^2 B).  Once: 4 initial blocks (64 D^2 B) and 4
    twist scalings (24 D^2 flop, 128 D^2 B).  Working set: the peak live
    arrays of a site update, 4 old + 4 new blocks + 2 einsum temporaries.
    Cache misses are ignored: these are computed, not measured, counts.
    """
    d2 = float(4 ** L)
    return {"flop_per_build": (120 * L + 24) * d2,
            "bytes_per_build": (448 * L + 192) * d2,
            "working_set_bytes": 10 * 16 * d2}


def cache_sizes():
    """(L2, L3) data-cache sizes in bytes of cpu0, 0 where not reported."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
        sizes[level] = int(size.rstrip("KMG")) * mult
    return sizes.get(2, 0), sizes.get(3, 0)


def environment_line():
    import scipy
    l2, l3 = cache_sizes()
    pins = " ".join(f"{k}={v}" for k, v in child_env().items() if k.endswith("_THREADS"))
    return (f"python {sys.version.split()[0]}  numpy {np.__version__}  "
            f"scipy {scipy.__version__}  nproc {os.cpu_count()}  "
            f"L2 {l2} B  L3 {l3} B  {pins}")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    if not (SRC / "sixvertex" / "cli.py").is_file():
        print(f"no program source at {SRC}/sixvertex", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    layer_names = [m["name"] for m in spec["per_layer"]]
    registry = [n[len("cli.check."):-len(".s")] for n in layer_names
                if n.startswith("cli.check.")]
    command, config = make_workload(args.workload, args.seed)

    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    try:
        return measure(args, t_start, rundir, command, config, registry,
                       layer_names, spec)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args, t_start, rundir, command, config, registry, layer_names, spec):
    client = Client(rundir, t_start + RUN_LIMIT_S)
    cfg_path = rundir / "config.json"
    cfg_path.write_text(json.dumps(config))
    L = config["model"]["L"]

    client.spawn()  # warm-up: byte-code caches, file cache; not measured
    setups, problems = [], []
    for _ in range(SETUP_PROBES):
        r = client.spawn()
        if r["ok"]:
            setups.append(r["setup_s"])
        else:
            problems.append(r["why"])

    window_end = t_start + args.seconds
    commands = []          # per-command records
    verdicts = []          # per checked command: one verdict per output check
    lost = 0               # commands whose outputs could not be checked
    correct = not problems
    while True:
        trace = bool(args.trace) and len(commands) % 2 == 1
        outdir = rundir / f"out{len(commands)}"
        t_cmd = time.perf_counter()
        r = client.spawn([command, "--config", str(cfg_path), "--out", str(outdir)],
                         trace=trace)
        if r["ok"]:
            try:
                if command == "verify":
                    v, ok = check_verify(outdir, r["rc"])
                else:
                    v, dev = check_spectrum(outdir, config["model"])
                    ok = r["rc"] == 0 and not any(v)
                    print(f"eigenvalues at x* vs independent T(x*): max relative "
                          f"deviation {dev:.2e} (tolerance {EIG_REL_TOL:.0e})")
                verdicts.append(v)
                if not ok:
                    problems.append(f"outputs rejected in {outdir.name}: rc={r['rc']}, "
                                    f"{sum(v)}/{len(v)} failed")
            except (OSError, ValueError, KeyError) as exc:
                ok = False
                lost += 1
                problems.append(f"unreadable outputs: {exc!r}")
            correct = correct and ok
            setups.append(r["setup_s"])
            if trace:
                r["layers"] = load_trace(f"{r['tag']}.trace", registry, L)
        else:
            problems.append(r["why"])
            correct = False
            lost += 1
        shutil.rmtree(outdir, ignore_errors=True)
        commands.append(r)
        cycle = time.perf_counter() - t_cmd
        now = time.perf_counter()
        need_pair = args.trace and len(commands) < 2
        if not r["ok"] or now >= t_start + RUN_LIMIT_S - 2 * cycle:
            break
        if now + cycle > window_end and not need_pair:
            break

    merged, agree = merge_verdicts(verdicts)
    if not agree:
        problems.append("commands of the same config gave different verdicts")
        correct = False
    # operations are the config's output checks (the same in every command)
    # plus one per command that crashed, timed out or left unreadable outputs
    checks_total = len(merged)
    attempted = checks_total + lost
    failed = sum(merged) + lost

    good = [r for r in commands if r["ok"]]
    plain = [r for r in good if "layers" not in r]
    traced = [r for r in good if "layers" in r]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    summary = [f"workload {args.workload}  seed {args.seed}  L={L}  "
               f"commands {len(commands)} ({len(traced)} traced)  "
               f"set-up samples {len(setups)}",
               f"fail_frac {failed / max(attempted, 1):.6f}  (failed {failed} of "
               f"{attempted}: {checks_total} output checks per command, verdicts "
               f"{'agree' if agree else 'DIFFER'} across {len(verdicts)} commands, "
               f"{lost} commands lost)"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = layer_metrics(plain, traced, layer_names)
    else:
        per_cmd = {k: median([r[k] for r in plain]) for k in
                   ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics = {"wall_s": per_cmd["wall_s"], "setup_s": median(setups),
                   "cpu_s": per_cmd["cpu_s"], "peak_rss_mb": per_cmd["peak_rss_mb"],
                   "pass_frac": (attempted - failed) / max(attempted, 1),
                   "checks_total": checks_total}
        summary.append("wall_s per command: "
                       + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    summary.append(environment_line())
    for line in summary:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    result = {"correct": bool(correct and good),
              "attempted": int(attempted), "failed": int(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def load_trace(path, registry, L):
    trace = json.loads(Path(path).read_text())
    for key, n in sorted(trace["warning_samples"].items(), key=lambda kv: -kv[1])[:5]:
        print(f"  warnings x{n}: {key}", file=sys.stderr)
    return tracer.summarize(trace, registry, kernel_counts(L))


def layer_metrics(plain, traced, names):
    """Medians over traced commands, tracing overhead, machine cache sizes."""
    t_wall = median([r["wall_s"] for r in traced])
    u_wall = median([r["wall_s"] for r in plain])
    l2, l3 = cache_sizes()
    extra = {"trace.wall_s": t_wall, "trace.untraced_wall_s": u_wall,
             "trace.overhead_s": t_wall - u_wall,
             "machine.l2_bytes": l2, "machine.l3_bytes": l3}
    return {name: float(extra[name] if name in extra else
                        median([r["layers"][name] for r in traced]))
            for name in names}


if __name__ == "__main__":
    sys.exit(main())
