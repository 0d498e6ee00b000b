"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the JSON lines ``run.py`` appends (one per run, usually
ten seeds per workload).  For every workload the end-to-end metrics
(``--trace 0`` runs) are printed as median and quartiles side by side
with the change in the median; the per-layer metrics (``--trace 1``
runs) follow as medians and deltas, each tagged with the end-to-end
metric it should move.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import metrics


def load(path: Path) -> dict:
    """``{(workload, trace): {metric: [values]}}`` plus failure tallies."""
    table: dict = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        cell = table.setdefault((record["workload"], record["trace"]), {})
        for name, entry in record["metrics"].items():
            cell.setdefault(name, []).append(entry["value"])
        cell.setdefault("(failed)", []).append(record["failed"])
        cell.setdefault("(attempted)", []).append(record["attempted"])
    return table


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _delta(base: float, change: float) -> str:
    if base == 0:
        return "      -" if change == 0 else "    new"
    return f"{100 * (change - base) / base:+6.1f}%"


def _cell(values: list[float]) -> str:
    q1, median, q3 = summary(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def _print_end_to_end(base: dict, change: dict) -> None:
    print(f"  {'metric':<22}{'base median [q1, q3]':>32}"
          f"{'change median [q1, q3]':>32}{'delta':>9}  bound")
    for name, (unit, better, bound, _) in metrics.END_TO_END.items():
        if name not in base or name not in change:
            continue
        b, c = base[name], change[name]
        print(f"  {name:<22}{_cell(b):>32}{_cell(c):>32}"
              f"{_delta(statistics.median(b), statistics.median(c)):>9}"
              f"  {bound:g} ({unit}, {better} is better)")
    print(f"  failed: base {sum(base['(failed)'])}/"
          f"{sum(base['(attempted)'])}, change "
          f"{sum(change['(failed)'])}/{sum(change['(attempted)'])}")


def _print_per_layer(base: dict, change: dict) -> None:
    print(f"  {'per-layer metric':<30}{'base':>14}{'change':>14}{'delta':>9}"
          "  moves")
    for name, (unit, _, moves, _) in metrics.PER_LAYER.items():
        if name not in base or name not in change:
            continue
        b = statistics.median(base[name])
        c = statistics.median(change[name])
        if b == 0 and c == 0:
            continue
        print(f"  {name:<30}{b:>14.6g}{c:>14.6g}{_delta(b, c):>9}"
              f"  {', '.join(moves) or '-'} [{unit}]")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (load(Path(path)) for path in argv)
    for workload in metrics.ALL:
        for trace, show in ((0, _print_end_to_end), (1, _print_per_layer)):
            key = (workload, trace)
            if key in base and key in change:
                runs = (len(base[key]["(failed)"]), len(change[key]["(failed)"]))
                print(f"{workload} (trace {trace}; {runs[0]} vs {runs[1]} runs)")
                show(base[key], change[key])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
