"""Compare the saved runs of two commits, metric by metric.

Each input file is the standard output of any number of benchmark runs
(untraced). Runs are paired by (workload, seed). For every workload and
metric the table gives each side's median and quartiles, the share of
pairs the change won, and a verdict:

* ``improved``: the change won at least 9 pairs in 10 and the medians
  differ by more than the parent's own spread (q3 - q1);
* ``no worse``: the change's median is within the metric's bound of the
  parent's;
* ``unresolved``: the parent's spread exceeds the bound, unless every
  change run beat every parent run;
* ``worse``: none of the above.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import stats

DETAIL_PREFIX = "perfbench-detail "
HIGHER_IS_BETTER = {"work_per_s", "verdicts_per_s", "trial_steps_per_s", "certified_share"}
# Bounds of the workload-named metrics that BENCHMARK.json does not list.
NAMED_BOUND = 0.15


def load(path: str) -> dict:
    """{(workload, metric): {seed: value}} from one file of run output."""
    out: dict = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if not line.startswith(DETAIL_PREFIX):
                continue
            run = json.loads(line[len(DETAIL_PREFIX):])
            if run["trace"]:
                continue
            for name, m in {**run["named"], **run["metrics"]}.items():
                out[(run["workload"], name)][run["seed"]] = m["value"]
    return out


def bounds() -> dict:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(parent: list, change: list, pairs: list, higher: bool, bound: float) -> tuple:
    """(verdict, share of pairs the change won) for one workload and metric."""
    p1, pm, p3 = stats.quartiles(parent)
    _, cm, _ = stats.quartiles(change)
    sign = 1.0 if higher else -1.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if share >= 0.9 and sign * (cm - pm) > (p3 - p1):
        return "improved", share
    all_better = min(change) > max(parent) if higher else max(change) < min(parent)
    if _relative(p3 - p1, pm) > bound and not all_better:
        return "unresolved", share
    if _relative(sign * (pm - cm), pm) <= bound:
        return "no worse", share
    return "worse", share


def main(parent_path: str, change_path: str) -> int:
    parent, change = load(parent_path), load(change_path)
    limits = bounds()

    def cell(values) -> str:
        q1, q2, q3 = stats.quartiles(values)
        return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"{'workload':<22} {'metric':<22} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        a, b = list(parent[key].values()), list(change[key].values())
        pairs = [(parent[key][s], change[key][s]) for s in sorted(set(parent[key]) & set(change[key]))]
        label, share = verdict(a, b, pairs, metric in HIGHER_IS_BETTER,
                               limits.get(metric, NAMED_BOUND))
        print(f"{workload:<22} {metric:<22} {cell(a):<34} {cell(b):<34} {share:>5.0%}  {label}")
    return 0
