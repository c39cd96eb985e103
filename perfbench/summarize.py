"""Collect benchmark results into one summary document.

    python3 perfbench/summarize.py OUT.json [RESULT.json ...]

Without result files it reads every file under .perfbench_work/results/.
For each workload and trace setting it gives every metric's median,
quartiles and spread (quartile distance over the median) across the runs,
the seeds they used, and the environment records, so two commits can be
compared metric by metric.
"""

import glob
import json
import os
import statistics
import sys


def summarize(paths):
    groups = {}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        env = doc["environment"]
        key = f"{env['workload']}:trace{env['trace']}"
        groups.setdefault(key, []).append(doc)

    summary = {}
    for key, docs in sorted(groups.items()):
        metrics = {}
        for name in docs[0]["result"]["metrics"]:
            values = [d["result"]["metrics"][name]["value"] for d in docs]
            med = statistics.median(values)
            q1, _, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            )
            metrics[name] = {
                "unit": docs[0]["result"]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "values": values,
            }
        environments = []
        for d in docs:
            env = {k: v for k, v in d["environment"].items() if k != "seed"}
            if env not in environments:
                environments.append(env)
        summary[key] = {
            "runs": len(docs),
            "seeds": [d["environment"]["seed"] for d in docs],
            "all_correct": all(d["result"]["correct"] for d in docs),
            "attempted": sum(d["result"]["attempted"] for d in docs),
            "failed": sum(d["result"]["failed"] for d in docs),
            "environments": environments,
            "metrics": metrics,
        }
    return summary


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    paths = argv[1:] or glob.glob(os.path.join(".perfbench_work", "results", "*.json"))
    if not paths:
        print("error: no result files", file=sys.stderr)
        return 1
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(summarize(paths), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
