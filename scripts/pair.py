#!/usr/bin/env python3
"""Paired benchmark comparison of two revisions on one workload.

    python3 scripts/pair.py <parent-rev> <change-rev> --workload W --seeds A..B
        [--scratch DIR]

Each revision is `git archive`d into `<scratch>/<short-sha>` and that
copy's `benchmark/` (ww-sysbench) is built once, `--offline --locked`.
Then, seed by seed, both binaries run the `BENCHMARK.json` form
(`--workload W --seed S --seconds N --trace 0`, where N is its
`run_seconds`), the first side
alternating from one seed to the next. One binary serves both sides when
the two revisions are the same commit (an A/A run).

Per pair it prints each end-to-end metric's change / parent ratio, and for
`events_per_s` the ratio as timed beside the chase-scaled one. Overall it
prints, per metric, the paired median ratio, the win count, both sides'
quartiles and each side's spread (IQR / median), and a verdict:

  gain / loss   the change is better (worse) on at least nine pairs in ten
                and its median beats (trails) the parent's median by more
                than the parent's IQR: the bar a performance claim must pass;
  unresolved    otherwise, when the parent's own spread (IQR / median) is
                wider than the metric's bound in BENCHMARK.json;
  beyond bound  the change's median is worse than the parent's by more than
                that bound;
  flat          none of these.

It exits 1 when `tlb_distance` differs on any seed (the simulation's
outputs must not depend on the revision) or a run reports a failed
operation, and appends one JSON line per run to `BENCH_history.jsonl`:
both revisions, date, workload, seeds, cores, CPU model, `rustc -V`, each
side's chase median and, per metric, the verdict with both sides'
quartiles.

`scripts/test_pair.py` checks the arithmetic on canned numbers.
"""

import argparse
import datetime
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A claim must win on at least this share of the pairs.
CLAIM_SHARE = 0.9


def load_benchmark():
    """BENCHMARK.json's `run_seconds` and the `(name, better, bound)` of
    each of its end-to-end metrics."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    return spec["run_seconds"], metrics


# ---------------------------------------------------------------------
# Arithmetic (pure; tested by scripts/test_pair.py)


def quartiles(samples):
    """(q1, median, q3) by the exclusive method, as ww-sysbench's
    `stats::quartiles` and Python's `statistics.quantiles(n=4)`."""
    if not samples:
        raise ValueError("no samples")
    if len(samples) == 1:
        return (samples[0],) * 3
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def median(samples):
    return quartiles(samples)[1]


def is_better(change, parent, better):
    return change > parent if better == "higher" else change < parent


def ratio(change, parent):
    if parent == 0:
        return 1.0 if change == 0 else math.inf
    return change / parent


def summarize(parent, change, better, bound):
    """One metric's paired summary: `parent[i]` and `change[i]` are the
    two sides' readings on seed `i`."""
    if len(parent) != len(change) or not parent:
        raise ValueError("one reading per side per seed")
    n = len(parent)
    ratios = [ratio(c, p) for p, c in zip(parent, change)]
    wins = sum(is_better(c, p, better) for p, c in zip(parent, change))
    losses = sum(is_better(p, c, better) for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[2] - pq[0]
    # Signed gap of the medians, positive when the change is better.
    gap = cq[1] - pq[1] if better == "higher" else pq[1] - cq[1]
    need = math.ceil(CLAIM_SHARE * n)

    def spread(q):
        return (q[2] - q[0]) / q[1] if q[1] else 0.0

    if wins >= need and gap > iqr:
        verdict = "gain"
    elif losses >= need and -gap > iqr:
        verdict = "loss"
    elif spread(pq) > bound:
        verdict = "unresolved"
    elif -gap > bound * abs(pq[1]):
        verdict = "beyond bound"
    else:
        verdict = "flat"

    return {
        "ratios": ratios,
        "median_ratio": median(ratios),
        "wins": wins,
        "losses": losses,
        "pairs": n,
        "parent_q": list(pq),
        "change_q": list(cq),
        "parent_spread": spread(pq),
        "change_spread": spread(cq),
        "verdict": verdict,
    }


# ---------------------------------------------------------------------
# Running


def parse_seeds(text):
    """`A..B` (inclusive) or a comma list."""
    if ".." in text:
        a, b = text.split("..", 1)
        a, b = int(a), int(b)
        if b < a:
            raise ValueError(f"empty seed range {text}")
        return list(range(a, b + 1))
    return [int(s) for s in text.split(",") if s]


def parse_run(stdout):
    """The last JSON line's metric values plus the text lines' raw
    events/s and chase median."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    raw = re.search(
        r"events_per_s as timed \(.*\): (\d+(?:\.\d+)?); chase median (\d+(?:\.\d+)?) ns", stdout
    )
    if raw is None:
        raise ValueError("no `events_per_s as timed` line in the output")
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "correct": result["correct"],
        "raw_events_per_s": float(raw.group(1)),
        "chase_ns": float(raw.group(2)),
    }


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()


def build(rev, scratch):
    """`git archive` `rev` into `<scratch>/<short>` and build its
    benchmark once; returns the binary's path."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    root = os.path.join(scratch, sha[:12])
    binary = os.path.join(root, "benchmark", "target", "release", "ww-sysbench")
    if not os.path.exists(binary):
        os.makedirs(root, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=REPO, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", root], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {rev} failed")
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", "benchmark/Cargo.toml"],
            cwd=root, env=env, check=True,
        )
    return sha, root, binary


def run_side(root, binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    try:
        return parse_run(out.stdout)
    except (ValueError, IndexError) as e:
        sys.stderr.write(out.stdout + out.stderr)
        sys.exit(f"{binary} --workload {workload} --seed {seed}: {e}")


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {"cores": os.cpu_count(), "cpu": cpu, "rustc": rustc}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A..B inclusive, or a comma list")
    ap.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "ww-pair"),
                    help="where the revisions are unpacked and built")
    args = ap.parse_args(argv)

    seconds, metrics = load_benchmark()
    seeds = parse_seeds(args.seeds)
    sides = [build(rev, os.path.abspath(args.scratch)) for rev in (args.parent, args.change)]
    readings = ([], [])  # per side, per seed: parse_run's dict
    bad = []
    for i, seed in enumerate(seeds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = [None, None]
        for side in order:
            _, root, binary = sides[side]
            got[side] = run_side(root, binary, args.workload, seed, seconds)
        for side in (0, 1):
            readings[side].append(got[side])
        p, c = got
        if p["metrics"]["tlb_distance"] != c["metrics"]["tlb_distance"]:
            bad.append(f"seed {seed}: tlb_distance {p['metrics']['tlb_distance']!r} "
                       f"(parent) != {c['metrics']['tlb_distance']!r} (change)")
        if p["failed"] or c["failed"] or not (p["correct"] and c["correct"]):
            bad.append(f"seed {seed}: failed operations {p['failed']} / {c['failed']}")
        cells = []
        for name, _, _ in metrics:
            cells.append(f"{name} {ratio(c['metrics'][name], p['metrics'][name]):.3f}")
        cells.append(f"raw events_per_s {ratio(c['raw_events_per_s'], p['raw_events_per_s']):.3f}")
        first = "parent" if order[0] == 0 else "change"
        print(f"seed {seed} ({first} first): " + ", ".join(cells), flush=True)

    verdicts = {}
    rows = [(name, better, bound, lambda r, n=name: r["metrics"][n])
            for name, better, bound in metrics]
    rows.append(("raw events_per_s", "higher", None, lambda r: r["raw_events_per_s"]))
    print(f"\n{args.workload}, {len(seeds)} pairs, change / parent:")
    for name, better, bound, read in rows:
        s = summarize([read(r) for r in readings[0]], [read(r) for r in readings[1]],
                      better, math.inf if bound is None else bound)
        print(f"  {name:<17} median {s['median_ratio']:.3f}  wins {s['wins']}/{s['pairs']}"
              f"  parent q {fmt_q(s['parent_q'])} (spread {s['parent_spread']:.1%})"
              f"  change q {fmt_q(s['change_q'])} (spread {s['change_spread']:.1%})"
              f"  {s['verdict']}")
        verdicts[name] = {
            k: s[k]
            for k in ("median_ratio", "wins", "pairs", "verdict", "parent_q", "change_q")
        }
    chase = [median([r["chase_ns"] for r in side]) for side in readings]
    print(f"  chase median ns: parent {chase[0]:.1f}, change {chase[1]:.1f}")

    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "parent": sides[0][0],
        "change": sides[1][0],
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": seconds,
        **host_facts(),
        "chase_median_ns": {"parent": chase[0], "change": chase[1]},
        "verdicts": verdicts,
        "outputs_equal": not bad,
    }
    with open(os.path.join(REPO, "BENCH_history.jsonl"), "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")

    if bad:
        print("FAIL:\n  " + "\n  ".join(bad))
        return 1
    return 0


def fmt_q(q):
    return "/".join(f"{v:.4g}" for v in q)


if __name__ == "__main__":
    sys.exit(main())
