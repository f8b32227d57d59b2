#!/usr/bin/env python3
"""Rerun the three benchmark sweeps and compare against the embedded targets.

Each sweep covers nine leading orders, three deterministic noise families
and two amplitudes (54 cells).  For every cell the script prints both
estimates, the embedded benchmark pair and the gaps, then a per-sweep
summary of how many cells sit inside the agreement bands.

Usage:
    python3 scripts/reproduce_tables.py [--sweep {1,2,3}] [--log-selection MODE]
"""

from __future__ import annotations

import argparse
import sys
import time

from fracorder.orderest import LOG_SELECTION_MODES
from fracorder.refvalues import LOG_BAND, RATIO_BAND, SWEEP_IDS
from fracorder.scenarios import sweep_rows


def run_sweep(sweep_id: int, log_selection: str) -> None:
    start = time.perf_counter()
    rows = sweep_rows(sweep_id, log_selection=log_selection)
    elapsed = time.perf_counter() - start

    print(f"sweep {sweep_id}  ({elapsed:.1f} s, log_selection={log_selection})")
    print(f"{'nu0':>5} {'noise':>5} {'eps':>5} | {'ratio':>8} {'gap':>9} | {'log':>8} {'gap':>9}")
    ratio_in = log_in = failed = 0
    for r in rows:
        if r.failed:
            failed += 1
            print(f"{r.nu0:5.1f} {r.noise:>5} {r.epsilon:5.2f} | selection failed")
            continue
        ratio_ok = abs(r.ratio_gap) <= RATIO_BAND
        log_ok = abs(r.log_gap) <= LOG_BAND
        ratio_in += ratio_ok
        log_in += log_ok
        marks = ("" if ratio_ok else " *ratio") + ("" if log_ok else " *log")
        print(
            f"{r.nu0:5.1f} {r.noise:>5} {r.epsilon:5.2f} | "
            f"{r.nu_ratio:8.4f} {r.ratio_gap:+9.4f} | "
            f"{r.nu_log:8.4f} {r.log_gap:+9.4f}{marks}"
        )
    n = len(rows)
    print(
        f"summary: ratio {ratio_in}/{n} within {RATIO_BAND}, "
        f"log {log_in}/{n} within {LOG_BAND}, {failed} failed"
    )
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", type=int, choices=SWEEP_IDS, default=None,
                        help="run a single sweep instead of all three")
    parser.add_argument("--log-selection", default="reuse_ratio",
                        choices=LOG_SELECTION_MODES)
    args = parser.parse_args(argv)

    ids = (args.sweep,) if args.sweep is not None else SWEEP_IDS
    for sweep_id in ids:
        run_sweep(sweep_id, args.log_selection)
    return 0


if __name__ == "__main__":
    sys.exit(main())
