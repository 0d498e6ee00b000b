#!/usr/bin/env python3
"""Location-based evasion (Section 4.5 / Figure 5).

Shows how advertising a decoy location in the leak changes where
criminals connect from: median-circle radii for every category, the
distance vectors behind them, and the Cramér-von Mises significance
tests — paste-site attackers exhibit location malleability, forum
attackers do not.

Run:  python examples/location_evasion.py
"""

from __future__ import annotations

from repro import run_scenario, scenarios, significance_tests
from repro.analysis.ecdf import Ecdf
from repro.analysis.figures import ascii_cdf


def main() -> None:
    analysis = run_scenario(scenarios.get("fast"), seed=2016).analysis

    print("== median circles (km from the advertised midpoint) ==")
    paper = {
        ("uk", "paste_uk"): 1400, ("uk", "paste_noloc"): 1784,
        ("us", "paste_us"): 939, ("us", "paste_noloc"): 7900,
    }
    for panel, circles in (
        ("uk", analysis.circles_uk), ("us", analysis.circles_us)
    ):
        print(f"  {panel.upper()} panel (midpoint: "
              f"{'London' if panel == 'uk' else 'Pontiac, IL'}):")
        for circle in circles:
            expected = paper.get((panel, circle.category))
            suffix = f" [paper {expected}]" if expected else ""
            print(f"    {circle.category:<14} r={circle.radius_km:6.0f} km"
                  f"  (n={circle.sample_size}){suffix}")

    print("\n== distance CDFs, UK panel ==")
    series = {
        category: Ecdf.from_sample(values)
        for category, values in analysis.distances_uk.items()
        if values
    }
    print(ascii_cdf(series, max_x=10_000.0))

    print("\n== Cramér-von Mises: does advertised location matter? ==")
    tests = significance_tests(analysis)
    for name, p_value in tests.summary().items():
        verdict = (
            "REJECT null -> different distributions"
            if p_value < 0.01
            else "keep null -> indistinguishable"
        )
        print(f"  {name:<12} p={p_value:.7f}  {verdict}")
    print(
        "\npaste-site criminals move their apparent origin toward the "
        "advertised location (both paste tests significant); forum "
        "criminals do not bother (both forum tests insignificant) — "
        "matching the paper's sophistication ranking."
    )


if __name__ == "__main__":
    main()
