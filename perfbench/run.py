"""cm-lab benchmark: known-answer requests against the real CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tree-path --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  Each request is a fresh
``python -m cmlab.cli`` process (caches start cold, as in a user's run),
started only after the previous one has exited.  A workload's request
list (one "pass") is built from --seed and repeated until --seconds have
passed: at least two passes, or with --trace 1 at least one untraced and
one traced pass, alternating.  A traced request runs through
perfbench/tracer.py, which wraps the public functions of each cm-lab
module and writes its spans when the request ends.  Every request's exit
code, verdict and stdout are checked after the timed region.  Times are
scaled by a reference job run before each request (see REFERENCE).

The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  ``--record`` rewrites perfbench/golden.json with
the exit code and stdout digest of every request any seed can draw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

SETUP_REPS = 7
MIN_PASSES = 2
TIMEOUT_S = 60.0
MEASURE_LIMIT_S = 120.0  # stop passes early for slow code: a run must end within 180 s
POOL = 6  # alternatives per cell; the seed picks one, --record covers all

# The host's speed drifts by about 15 % within minutes, and timings of
# whole runs drift with it.  So a fixed job that does not use cm-lab runs
# just before every request, and each request's times are scaled by
# REF_S / (that job's wall time): seconds on a host where the job takes
# REF_S.  Scaling each request by its neighbour cut the ten-run spread of
# wall_s on fixed inputs about threefold.
REFERENCE = ["-c", "import argparse, dataclasses, fractions, functools, itertools, json"]
REF_S = 0.07


@dataclass
class Request:
    argv: tuple[str, ...]
    expect: int  # exit code known from the construction
    tables: int  # exponent tables the request decides
    kind: str  # "verdict", "xval", "analyze" or "ideal"
    problem: dict | None = None  # written to the path in argv
    routes: tuple[str, ...] = ()  # criteria cross-validate must find applicable

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    request: Request
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    scale: float = 1.0  # REF_S / the reference job's time before this request
    spans: dict | None = None
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------- workloads


def problem_path(doc: dict) -> str:
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return f".perfbench_work/problems/{digest[:16]}.json"


def check_request(doc: dict, method: str, char: int, expect: int) -> Request:
    argv = ("check", problem_path(doc), "--method", method, "--char", str(char))
    return Request(argv, expect, 1, "verdict", doc)


def sphere_oracle_cells() -> list[list[list[Request]]]:
    # Positive verdicts sweep every link of large full-dimensional
    # subcomplexes, so dense exact rank dominates.  The inputs are fixed;
    # the seed only orders them.  The d=5 sphere runs once per field (the
    # char-0 request alone is about half a pass).  The d=4 sphere runs in
    # char 0 with both methods and both constants, so that req_tail_s
    # falls inside that group of four instead of on its edge.
    reqs = []
    for d, plan in (
        (5, [(1, 0, "oracle"), (2, 2, "auto"), (1, 3, "oracle")]),
        (4, [(c, 0, method) for c in (1, 2) for method in ("oracle", "auto")]
            + [(c, ch, "oracle" if (c + ch) % 2 else "auto") for c in (1, 2) for ch in (2, 3)]),
    ):
        n, facets = inputs.cross_polytope(d)
        for c, ch, method in plan:
            doc = inputs.problem(n, facets, inputs.constant_table(n, facets, c))
            reqs.append(check_request(doc, method, ch, 0))
    n, facets = inputs.octahedra_wedge()
    wedge = inputs.problem(n, facets, inputs.constant_table(n, facets, 1))
    plane = inputs.problem(
        6, inputs.PROJECTIVE_PLANE, inputs.constant_table(6, inputs.PROJECTIVE_PLANE, 2)
    )
    for ch in (0, 2, 3):
        for method in ("oracle", "auto"):
            reqs.append(check_request(wedge, method, ch, 1))
            reqs.append(check_request(plane, method, ch, 1 if ch == 2 else 0))
    return [[[r]] for r in reqs]


CHECK_SHAPES = [(d, m) for d in (3, 4) for m in (10, 12, 14, 16)]
IDEAL_SHAPES = [(3, 6), (3, 7), (4, 7), (3, 8)]


def tree_path_cells() -> list[list[list[Request]]]:
    # Many mid-sized requests: process start, small-matrix homology, the
    # oracle's grid walk and ideal minimalization each take a visible
    # share.  Tree-satisfying tables give the CM verdicts that uniform
    # sampling almost never produces.  The oracle runs on the positive
    # verdicts only, where it walks the whole grid; on a violation its
    # cost depends on where the first failure lies, which would make the
    # pass time depend on the seed.
    cells = []
    for d, m in CHECK_SHAPES:
        alts = []
        for v in range(POOL):
            rng = random.Random(f"tree-path:{d}:{m}:{v}")
            good = inputs.tree_satisfying_path(rng, m, d, 3)
            bad, _ = inputs.violate_path(rng, good, d)
            alts.append([
                check_request(good, "auto", 0, 0),
                check_request(good, "oracle", 0, 0),
                check_request(bad, "auto", 0, 1),
            ])
        cells.append(alts)
    for d, m in IDEAL_SHAPES:
        alts = []
        for v in range(POOL):
            rng = random.Random(f"ideal:{d}:{m}:{v}")
            n, facets = inputs.stacked_path(m, d)
            doc = inputs.uniform_table(rng, n, facets, 3)
            alts.append([Request(("ideal", problem_path(doc), "--expand"), 0, 1, "ideal", doc)])
        cells.append(alts)
    return cells


def xval_request(source: str, samples: int, seed: int, routes, doc=None) -> Request:
    argv = ("cross-validate", source, "--samples", str(samples), "--seed", str(seed))
    return Request(argv, 0, samples, "xval", doc, routes)


def complex_doc(n: int, facets) -> dict:
    return {"n": n, "facets": [list(f) for f in facets]}


QUASI_PROFILES = ((4, 3, 2), (4, 4, 2))  # 7 and 8 triangles: 48 and 256 relation trees


def quasi_xval_cells() -> list[list[list[Request]]]:
    # One long-lived process decides many small tables: per-table
    # criterion cost and warm caches dominate, rank sees tiny matrices.
    both = ("quasitree", "general")
    cells = []

    def add(copies, make):
        # Several cells per source, each drawing its own cross-validate
        # seeds, so that a pass averages over several draws.
        for copy in range(copies):
            cells.append([[make(v)] for v in range(copy * POOL, (copy + 1) * POOL)])

    for m, samples in ((5, 120), (6, 24)):
        doc = complex_doc(*inputs.star(m))
        add(2, lambda v: xval_request(problem_path(doc), samples, v, both, doc))
    for profile, samples in zip(QUASI_PROFILES, (40, 30)):

        def attach(v):
            doc = complex_doc(*inputs.attach_quasitree(random.Random(f"quasi:{profile}:{v}"), profile))
            return xval_request(problem_path(doc), samples, v, both, doc)

        def analyze(v):
            # classification (leaf order, shelling) and every criterion
            # on one uniform table
            rng = random.Random(f"analyze:{profile}:{v}")
            doc = inputs.uniform_table(rng, *inputs.attach_quasitree(rng, profile), 3)
            return Request(("analyze", problem_path(doc)), 0, 1, "analyze", doc)

        add(2, attach)
        add(1, analyze)
    add(5, lambda v: xval_request("triangle-tree", 100, v, ("tree",) + both))
    add(4, lambda v: xval_request("square", 120, v, ("general",)))
    return cells


WORKLOADS = {
    "sphere-oracle": sphere_oracle_cells,
    "tree-path": tree_path_cells,
    "quasi-xval": quasi_xval_cells,
}


def build_pass(workload: str, seed: int) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    reqs = [r for alts in WORKLOADS[workload]() for r in rng.choice(alts)]
    rng.shuffle(reqs)
    return reqs


def write_problems(reqs: list[Request]) -> None:
    (WORK / "problems").mkdir(parents=True, exist_ok=True)
    for r in reqs:
        if r.problem is not None:
            path = ROOT / r.argv[1]
            if not path.exists():
                path.write_text(json.dumps(r.problem))


# ---------------------------------------------------------------- running


def run_process(argv: list[str], env: dict[str, str]) -> tuple[float, float, float, int, str, str]:
    """Run one process to completion; (wall, cpu, max rss MB, code, out, err)."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if not ready:
        code = -999
    return (
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        code,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def request_env() -> dict[str, str]:
    # Requests run as a user's would, with bytecode caches and buffered
    # output, whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_request(req: Request, env: dict[str, str], traced: bool, rid: int) -> Outcome:
    span_path = WORK / "spans.json"
    if traced:
        span_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), str(span_path), str(rid), "--", *req.argv]
    else:
        argv = [sys.executable, "-m", "cmlab.cli", *req.argv]
    scale = reference_scale(env)
    outcome = Outcome(req, *run_process(argv, env), scale)
    if traced and span_path.exists():
        outcome.spans = json.loads(span_path.read_text())
    return outcome


def reference_scale(env: dict[str, str]) -> float:
    wall, _, _, code, _, err = run_process([sys.executable, *REFERENCE], env)
    if code != 0:
        raise RuntimeError(f"the reference job failed: {err.strip()[-300:]}")
    return REF_S / wall


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float], list[str]]:
    """Raw and scaled wall times of ``examples`` runs, and any failures."""
    argv = [sys.executable, "-m", "cmlab.cli", "examples"]
    raw, scaled, problems = [], [], []
    for rep in range(SETUP_REPS + 1):
        scale = reference_scale(env)
        wall, _, _, code, out, err = run_process(argv, env)
        if code != 0 or "triangle-tree:" not in out or "Traceback" in err:
            problems.append(f"setup run failed (exit {code}): {err.strip()[-300:]}")
        if rep:  # the first run also writes bytecode caches
            raw.append(wall)
            scaled.append(wall * scale)
    return raw, scaled, problems


# ---------------------------------------------------------------- checks

_MONO = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_monomials(rendered: str, n: int) -> list[tuple[int, ...]]:
    body = rendered.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not an ideal: {rendered!r}")
    gens = []
    for text in body[1:-1].split(","):
        exps = [0] * n
        if text != "1":
            if _MONO.sub("", text):
                raise ValueError(f"bad monomial {text!r}")
            for var, exp in _MONO.findall(text):
                exps[int(var) - 1] = int(exp or 1)
        gens.append(tuple(exps))
    return gens


def check_ideal(req: Request, stdout: str) -> list[str]:
    """Every printed generator of I lies in every component, and lowering
    any positive exponent by one leaves some component."""
    doc = req.problem
    n, facets = doc["n"], doc["facets"]
    comps: dict[int, dict[int, int]] = {j: {} for j in range(1, len(facets) + 1)}
    for a in doc["alpha"]:
        comps[a["facet"]][a["vertex"]] = a["value"]
    lines = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    problems = []
    for j, comp in comps.items():
        expect = sorted((tuple(v if k == i else 0 for k in range(1, n + 1))
                         for i, v in comp.items()), reverse=True)
        if sorted(parse_monomials(lines.get(f"Q{j}", "()"), n), reverse=True) != expect:
            problems.append(f"component Q{j} differs from the table")

    def inside(g, comp):
        return any(g[i - 1] >= v for i, v in comp.items())

    gens = parse_monomials(lines.get("I", "()"), n)
    for g in gens:
        if not all(inside(g, c) for c in comps.values()):
            problems.append(f"generator {g} is not in every component")
        for i, e in enumerate(g):
            lower = g[:i] + (e - 1,) + g[i + 1:]
            if e and all(inside(lower, c) for c in comps.values()):
                problems.append(f"generator {g} is not minimal")
    return problems


def check_xval(req: Request, stdout: str) -> list[str]:
    samples = int(req.argv[3])
    problems = []
    m = re.search(r"^oracle: (\d+) Cohen-Macaulay, (\d+) not$", stdout, re.M)
    if not m or int(m[1]) + int(m[2]) != samples:
        problems.append("oracle tally does not cover every sample")
    for route in ("tree", "quasitree", "general"):
        applicable = f"{route}: not applicable" not in stdout
        if applicable != (route in req.routes):
            problems.append(f"{route} applicability differs from the construction")
    if "tree" in req.routes and not re.search(r"^tree: \d+ agree, 0 disagree$", stdout, re.M):
        problems.append("tree criterion disagrees with the oracle")
    if "quasitree" in req.routes and not re.search(r" 0 soundness violations,", stdout):
        problems.append("quasi-tree criterion accepted a non-CM table")
    return problems


def check_outcome(o: Outcome, golden: dict) -> None:
    req = o.request
    if o.code == -999:
        o.problems.append(f"timed out after {TIMEOUT_S} s")
    if o.code != req.expect:
        o.problems.append(f"exit code {o.code}, expected {req.expect}")
    if "Traceback" in o.stderr:
        o.problems.append("traceback on stderr")
    if req.kind == "verdict":
        want = "verdict: Cohen-Macaulay" if req.expect == 0 else "verdict: not Cohen-Macaulay"
        if want not in o.stdout.splitlines():
            o.problems.append(f"missing {want!r}")
    elif req.kind == "xval":
        o.problems += check_xval(req, o.stdout)
    elif req.kind == "analyze":
        # attach-facet quasi-trees are shellable, hence Cohen-Macaulay
        lines = o.stdout.splitlines()
        for flag in ("pure", "strongly_connected", "shellable", "cohen_macaulay", "quasi_tree"):
            if f"  {flag}: yes" not in lines:
                o.problems.append(f"classification misses {flag}")
        for label in ("quasi-tree criterion", "shelling condition"):
            if not any(line.startswith(f"{label}: ") and "not applicable" not in line
                       for line in lines):
                o.problems.append(f"{label} not reported as applicable")
    else:
        try:
            o.problems += check_ideal(req, o.stdout)
        except ValueError as exc:
            o.problems.append(f"unreadable ideal: {exc}")
    recorded = golden.get(req.key)
    digest = hashlib.sha256(o.stdout.encode()).hexdigest()[:16]
    if recorded is None:
        o.problems.append("request missing from golden.json")
    elif recorded != [o.code, digest]:
        o.problems.append(f"differs from the recorded output {recorded}, got {[o.code, digest]}")


# ---------------------------------------------------------------- metrics


def quantile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def pass_wall(p: list[Outcome]) -> float:
    return sum(o.wall * o.scale for o in p)


def end_to_end(passes: list[list[Outcome]], setup: list[float], pass_len: int) -> tuple[dict, str]:
    """Scaled end-to-end metrics and a note on the tail percentile."""
    walls = [pass_wall(p) for p in passes]
    cpus = [sum(o.cpu * o.scale for o in p) for p in passes]
    reqs = [o.wall * o.scale for p in passes for o in p]
    tables = sum(o.request.tables for o in passes[0])
    # Highest percentile with >= 10 requests beyond it in MIN_PASSES
    # passes; fixed per workload so faster code is compared at the same
    # percentile.
    q_tail = 1.0 - 10.0 / (MIN_PASSES * pass_len)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "req_p50_s": (quantile(reqs, 0.5), "s"),
        "req_tail_s": (quantile(reqs, q_tail), "s"),
        "tables_per_s": (tables / statistics.median(walls), "1/s"),
        "peak_rss_mb": (max(o.rss_mb for p in passes for o in p), "MB"),
    }
    beyond = sum(1 for r in reqs if r > metrics["req_tail_s"][0])
    note = f"req_tail_s is p{100 * q_tail:.1f} over {len(reqs)} requests ({beyond} beyond it)"
    return metrics, note


RATIOS = {
    "homology.ranks.hit_ratio": ("homology.ranks.hits", "homology.ranks.lookups"),
    "homology.reisner.hit_ratio": ("homology.reisner.hits", "homology.reisner.lookups"),
    "satisfying.quasitree.accept_ratio": ("satisfying.quasitree.accepted", "satisfying.quasitree.calls"),
    "ideals.intersect.keep_ratio": ("ideals.intersect.kept", "ideals.intersect.candidates"),
}
SPAN_TOTALS = {"cli.self.s": "cli.main.self.s"}


def layer_metrics(passes: list[list[Outcome]]) -> dict:
    """Per-layer totals per traced pass, averaged over traced passes."""
    totals: dict[str, float] = {}

    def add(name, value):
        totals[name] = totals.get(name, 0.0) + value

    for p in passes:
        for o in p:
            if o.spans is None:
                continue
            names = o.spans["names"]
            spans = o.spans["spans"]
            child = [0] * len(spans)
            for name_i, start, end, parent, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            in_oracle = [False] * len(spans)
            for k, (name_i, start, end, parent, extra) in enumerate(spans):
                name = names[name_i]
                dur = (end - start) / 1e9
                self_s = dur - child[k] / 1e9
                in_oracle[k] = name == "homology.oracle" or (parent >= 0 and in_oracle[parent])
                add(f"{name}.calls", 1)
                add(f"{name}.s", dur)
                add(f"{name}.self.s", self_s)
                if name.startswith("homology.rank."):
                    add("homology.rank.calls", 1)
                    add("homology.rank.s", dur)
                    add("homology.rank.entries", extra)
                elif name == "homology.reisner" and extra and in_oracle[k]:
                    add("homology.oracle.subcomplexes", 1)
                elif name == "graphs.relation_trees":
                    add("graphs.relation_trees.trees", extra)
                elif name == "satisfying.quasitree":
                    add("satisfying.quasitree.accepted", extra)
                elif name == "ideals.intersect":
                    add("ideals.intersect.candidates", extra[0])
                    add("ideals.intersect.kept", extra[1])
            for cache, info in o.spans["caches"].items():
                add(f"{cache}.hits", info[0])
                add(f"{cache}.lookups", info[0] + info[1])

    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = spec["name"]
        if name in RATIOS:
            num, den = RATIOS[name]
            value = totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0
        else:
            value = totals.get(SPAN_TOTALS.get(name, name), 0.0) / len(passes)
        metrics[name] = (value, spec["unit"])
    return metrics


# ---------------------------------------------------------------- main loop


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "cmlab" / "cli.py").is_file():
        print(f"cm-lab sources not found under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    env = request_env()
    reqs = build_pass(workload, seed)
    write_problems(reqs)
    setup_raw, setup, setup_problems = measure_setup(env)

    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    rid = 0
    durations = []
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(durations) if durations else 0
        # per-layer metrics and the overhead need one pass of each kind
        minimum = plain and (traced or not trace)
        enough = minimum and (trace or len(plain) >= MIN_PASSES)
        if enough and elapsed + typical > seconds:
            break
        if minimum and elapsed + typical > MEASURE_LIMIT_S:
            break
        use_trace = trace and len(traced) < len(plain)
        current = []
        for req in reqs:
            rid += 1
            current.append(run_request(req, env, use_trace, rid))
        outcomes += current
        (traced if use_trace else plain).append(current)
        durations.append(time.perf_counter() - start - elapsed)

    for o in outcomes:
        check_outcome(o, golden)
    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print(f"FAILED {o.request.key}: {'; '.join(o.problems)}", file=sys.stderr)
    for text in setup_problems:
        print(f"FAILED setup: {text}", file=sys.stderr)

    e2e, note = end_to_end(plain, setup, len(reqs))
    if trace:
        metrics = layer_metrics(traced)
        overhead = statistics.median(pass_wall(p) for p in traced) / e2e["wall_s"][0]
        metrics["trace.overhead"] = (overhead, metrics["trace.overhead"][1])
    else:
        metrics = e2e
    attempted = len(outcomes) + SETUP_REPS + 1
    nfailed = len(failed) + len(setup_problems)
    print(f"workload {workload} seed {seed}: {len(reqs)} requests per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    print(note)
    raw = statistics.median(sum(o.wall for o in p) for p in plain)
    mean_scale = statistics.mean(o.scale for p in plain for o in p)
    print(f"unscaled: wall_s {raw:.4f} s, setup_s {statistics.median(setup_raw):.4f} s; "
          f"mean scale {mean_scale:.4f} (reference job {REF_S / mean_scale * 1000:.1f} ms)")
    print(f"error_rate {nfailed / attempted:.4f} ({nfailed} of {attempted})")
    print(json.dumps({
        "correct": nfailed == 0,
        "attempted": attempted,
        "failed": nfailed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def record() -> int:
    """Run every request any seed can draw and store its exit code and
    stdout digest.  Run this only on the commit the benchmark is pinned to."""
    env = request_env()
    golden = {}
    for workload, cells in WORKLOADS.items():
        reqs = [r for alts in cells() for alt in alts for r in alt]
        write_problems(reqs)
        for req in reqs:
            if req.key in golden:
                continue
            wall, _, _, code, out, err = run_process([sys.executable, "-m", "cmlab.cli", *req.argv], env)
            golden[req.key] = [code, hashlib.sha256(out.encode()).hexdigest()[:16]]
            print(f"{wall:7.3f}s {code} {req.key}", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
