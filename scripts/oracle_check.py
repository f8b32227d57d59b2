#!/usr/bin/env python3
"""Float64 fit error against a 60-digit solve of the same normal equations.

For every sweep cell the script fits all 60 penalty weights with
``tikhonov.fit_all`` and evaluates the fitted trajectory and its
antiderivative at the 15 stock probes: the value and integral tables that
``orderest.run_pipeline`` turns into estimates.  The oracle solves
``(Q^T Q + lam E) a = Q^T p`` with mpmath at 60 digits, from the float64
entries of Q, E and p, and evaluates the same tables from the same float64
basis values, so the difference is the float64 solver error alone.  Each
cell reports the largest entrywise relative error of either table.

``--out`` writes the per-cell errors as JSON; ``--baseline`` reads such a
file from another revision (run with that revision's ``src`` on
``PYTHONPATH``) and prints both sides and the cells where this revision
is closer.  All 162 cells take about 40 s.

Usage:
    python3 scripts/oracle_check.py [--sweep {1,2,3}] [--out FILE] [--baseline FILE]
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath as mp
import numpy as np

from fracorder.orderest import default_grids
from fracorder.refvalues import SWEEP_IDS, sweep_cells
from fracorder.regbasis import antideriv_matrix, basis_matrix, gram_matrix
from fracorder.scenarios import sweep_basis_spec, sweep_observation
from fracorder.tikhonov import design_matrix, fit_all

ORACLE_DPS = 60


def _mp_matrix(a: np.ndarray) -> mp.matrix:
    return mp.matrix(np.atleast_2d(a).tolist())


def _max_rel_error(approx: np.ndarray, exact: mp.matrix) -> float:
    return float(max(
        abs(mp.mpf(float(x)) - ref) / abs(ref) for x, ref in zip(approx, exact)
    ))


def table_errors(obs, spec, lams, thats) -> tuple[float, float]:
    """Largest relative errors of the value and integral tables of one cell."""
    coeffs = fit_all(obs, spec, lams)
    vals_basis = basis_matrix(spec, thats)
    ints_basis = antideriv_matrix(spec, thats)
    values = coeffs @ vals_basis.T
    integrals = coeffs @ ints_basis.T
    q = design_matrix(obs, spec)
    p = np.array([obs.psi0, *obs.values])
    val_err = int_err = 0.0
    with mp.workdps(ORACLE_DPS):
        mq, me = _mp_matrix(q), _mp_matrix(gram_matrix(spec))
        mvals, mints = _mp_matrix(vals_basis), _mp_matrix(ints_basis)
        qtq = mq.T * mq
        rhs = mq.T * _mp_matrix(p).T
        for i, lam in enumerate(lams):
            a = mp.lu_solve(qtq + mp.mpf(lam) * me, rhs)
            val_err = max(val_err, _max_rel_error(values[i], mvals * a))
            int_err = max(int_err, _max_rel_error(integrals[i], mints * a))
    return val_err, int_err


def cell_errors(sweep_id: int, nu0: float, noise: str, epsilon: float) -> dict:
    obs = sweep_observation(sweep_id, nu0, noise, epsilon)
    spec = sweep_basis_spec(sweep_id, nu0, obs.grid.t_end)
    grids = default_grids(obs.grid.t_end)
    val_err, int_err = table_errors(
        obs, spec, grids.lambda_values(), grids.that_values()
    )
    return {
        "sweep": sweep_id, "nu0": nu0, "noise": noise, "epsilon": epsilon,
        "value_err": val_err, "integral_err": int_err,
    }


def _key(row: dict) -> tuple:
    return row["sweep"], row["nu0"], row["noise"], row["epsilon"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", type=int, choices=SWEEP_IDS)
    parser.add_argument("--out", help="write the per-cell errors to this JSON file")
    parser.add_argument("--baseline", help="per-cell errors of another revision")
    args = parser.parse_args(argv)

    sweeps = (args.sweep,) if args.sweep else SWEEP_IDS
    rows = [cell_errors(s, *cell) for s in sweeps for cell in sweep_cells(s)]
    base = {}
    if args.baseline:
        with open(args.baseline) as fh:
            base = {_key(r): r for r in json.load(fh)}

    print(f"{'sweep':>5} {'nu0':>4} {'noise':>5} {'eps':>5} | "
          f"{'value err':>9} {'integral':>9}" + (" | baseline value/integral" if base else ""))
    closer = 0
    for r in rows:
        line = (f"{r['sweep']:5d} {r['nu0']:4.1f} {r['noise']:>5} {r['epsilon']:5.2f} | "
                f"{r['value_err']:9.2e} {r['integral_err']:9.2e}")
        b = base.get(_key(r))
        if b is not None:
            better = (r["value_err"] < b["value_err"]
                      and r["integral_err"] < b["integral_err"])
            closer += better
            line += (f" | {b['value_err']:9.2e} {b['integral_err']:9.2e}"
                     + ("" if better else "  not closer"))
        print(line)
    print(f"max value err {max(r['value_err'] for r in rows):.2e}, "
          f"max integral err {max(r['integral_err'] for r in rows):.2e} "
          f"over {len(rows)} cells")
    if base:
        print(f"closer than the baseline in both tables: {closer}/{len(rows)} cells")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=1)
    return 0 if not base or closer == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
