#!/usr/bin/env python3
"""Quickstart: durable, resumable experiment campaigns.

Declares a campaign composing one figure, a fault-injection scenario matrix
and a GA parameter sweep, runs it against a content-addressed result store,
then demonstrates the two properties the subsystem exists for:

* **resume bit-identity** — the campaign is first "killed" after two
  computed cells (``max_cells``), then resumed; the resumed aggregates are
  asserted bit-identical to an uninterrupted reference run;
* **warm-store rerun** — running the same campaign again computes zero
  cells, because every cell's cache key (spec + seed entropy +
  code-contract version) is already present.

The same functionality is available from the CLI::

    python -m repro.cli campaigns run --store /tmp/store --name demo \\
        --figures fig6 --scenarios failure-storm --scale smoke --jobs 2
    python -m repro.cli campaigns status --store /tmp/store demo
    python -m repro.cli campaigns resume --store /tmp/store demo

Run with::

    python examples/campaign_run.py [--jobs 2] [--seed 7]
"""

from __future__ import annotations

import argparse
import tempfile

from repro.campaigns import CampaignSpec, ResultStore, SweepSpec, run_campaign


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--scale", default="smoke", help="experiment scale preset")
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    spec = CampaignSpec(
        name="demo-campaign",
        scale=args.scale,
        seed=args.seed,
        figures=("fig6",),
        scenarios=("failure-storm", "steady-state"),
        schedulers=("PN", "EF", "LL"),
        repeats=2,
        sweeps=(SweepSpec(parameter="n_rebalances", values=(0, 1, 5), repeats=2),),
    )

    with tempfile.TemporaryDirectory() as reference_dir, \
            tempfile.TemporaryDirectory() as store_dir:
        # Reference: one uninterrupted serial run.
        reference = run_campaign(spec, ResultStore(reference_dir))
        print(
            f"reference run: {reference.computed} cells computed "
            f"({reference.executor})"
        )

        # 1. Simulate a mid-campaign kill: stop after two computed cells.
        store = ResultStore(store_dir)
        partial = run_campaign(spec, store, jobs=args.jobs, max_cells=2)
        print(
            f"interrupted run: {partial.computed}/{partial.total_cells} cells, "
            f"reason={partial.interrupt_reason!r}, manifest={partial.manifest_path}"
        )

        # 2. Resume: only the missing cells are computed...
        resumed = run_campaign(spec, store, jobs=args.jobs)
        print(
            f"resumed run: {resumed.computed} computed, {resumed.cached} cached "
            f"(of {resumed.total_cells})"
        )
        # ...and the aggregates are bit-identical to the uninterrupted run.
        assert resumed.aggregates == reference.aggregates
        print("resume bit-identity: aggregates equal the uninterrupted run")

        # 3. Warm store: a rerun computes nothing at all.
        warm = run_campaign(spec, store)
        assert warm.computed == 0 and warm.cached == warm.total_cells
        assert warm.aggregates == reference.aggregates
        print(f"warm rerun: 0 computed, {warm.cached} cached — store hit on every cell")

        # The scenario cells carry per-phase cost attribution for perf work.
        timing = warm.timing["scenarios"]["failure-storm"]["PN"]
        print(
            "failure-storm/PN phases: "
            f"scheduling={timing['scheduling_mean_seconds']:.4f}s "
            f"dispatch={timing['dispatch_mean_seconds']:.4f}s "
            f"drain={timing['drain_mean_seconds']:.4f}s"
        )


if __name__ == "__main__":
    main()
