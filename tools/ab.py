"""Compare the working tree with a base revision on one benchmark workload:

    python3 tools/ab.py --base HEAD~1 --workload mia_trees --seed 101 --pairs 10 --seconds 15

The base revision is checked out into a temporary local `git worktree`, which
is removed when the comparison ends. Each pair runs `perfbench/run.py
--workload W --seed S --seconds T --trace 0` once in each tree, the base
first in even pairs and the working tree first in odd ones, so that neither
side always runs on a machine the other has just warmed. With several
--seed values the pairs take them in turn.

The one JSON object printed gives, per end-to-end metric that BENCHMARK.json
declares, both sides' medians, quartiles and every run's value, the pairs
the working tree wins (strictly better), and a verdict:
- "worse": its median is worse than the base's by more than the metric's
  bound, taken relative to the base median;
- "gain": it wins at least 9 in 10 of the pairs, and its median is better
  than the base's by more than the base's interquartile range;
- "unresolved": either side's interquartile range is wider than the bound,
  and not every run of the working tree reads better than every base run;
- "no difference" otherwise.
The comparison's verdict is "refused" if a run is not correct or the working
tree fails a larger share of operations than the base, else the first of
"worse", "unresolved" and "gain" that some metric has (the gains are listed),
else "no difference".
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATE_WINS = 0.9  # share of pairs a gain must win


def spread(values) -> dict:
    """Median and quartiles (inclusive method), and the values themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def verdict(base, change, better, bound, wins, pairs) -> str:
    """A metric's verdict from both sides' spreads (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"])
    if worse_by > bound * abs(base["median"]):
        return "worse"
    if wins >= math.ceil(GATE_WINS * pairs) and -worse_by > base["q3"] - base["q1"]:
        return "gain"
    wide = max(side["q3"] - side["q1"] for side in (base, change)) > bound * abs(base["median"])
    apart = max(sign * v for v in change["values"]) < min(sign * v for v in base["values"])
    return "unresolved" if wide and not apart else "no difference"


def summarize(pairs, spec) -> dict:
    """The comparison of `pairs`, a list of (base report, change report): the
    last output line of run.py, parsed, for each tree. `spec` is
    BENCHMARK.json, parsed."""
    sides = {"base": [b for b, _ in pairs], "change": [c for _, c in pairs]}
    doc = {"pairs": len(pairs), "metrics": {}}
    for side, reports in sides.items():
        doc[side] = {"correct": all(r["correct"] is True for r in reports),
                     "failed": sum(r["failed"] for r in reports),
                     "attempted": sum(r["attempted"] for r in reports)}
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = {side: [r["metrics"][name]["value"] for r in reports]
                  for side, reports in sides.items()}
        wins = sum((c < b) if better == "lower" else (c > b)
                   for b, c in zip(values["base"], values["change"]))
        entry = {"better": better, "bound": metric["bound"],
                 **{side: spread(v) for side, v in values.items()}, "wins": wins}
        entry["verdict"] = verdict(entry["base"], entry["change"], better,
                                   metric["bound"], wins, len(pairs))
        doc["metrics"][name] = entry
    base, change = doc["base"], doc["change"]
    gains = [n for n, m in doc["metrics"].items() if m["verdict"] == "gain"]
    if (not (base["correct"] and change["correct"])
            or change["failed"] * base["attempted"] > base["failed"] * change["attempted"]):
        doc["verdict"] = "refused"
    else:
        found = {m["verdict"] for m in doc["metrics"].values()}
        doc["verdict"] = next((v for v in ("worse", "unresolved", "gain") if v in found),
                              "no difference")
    doc["gains"] = gains
    return doc


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last output line, parsed, of one untraced run.py in `tree`."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, nargs="+", default=[0])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs: must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{args.base}^{{commit}}"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        "--quiet", str(base), commit], check=True)
        try:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed[i % len(args.seed)]
                trees = (base, ROOT) if i % 2 == 0 else (ROOT, base)
                out = {tree: run_once(tree, args.workload, seed, args.seconds)
                       for tree in trees}
                pairs.append((out[base], out[ROOT]))
                print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base)], check=False)
    doc = {"base": args.base, "base_commit": commit, "workload": args.workload,
           "seeds": args.seed, "seconds": args.seconds,
           "base_first": [i % 2 == 0 for i in range(args.pairs)], **summarize(pairs, spec)}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
