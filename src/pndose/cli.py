"""Command-line interface.

Subcommands: run (low-rank solve), oracle (full-rank reference solve),
validate (config dry-run), compare (two dose volumes), tables check
(physics data invariants). Exit codes: 0 success, 2 config, 3 physics
data, 4 numerical, 5 I/O.
"""

import argparse
import resource
import sys

import numpy as np

from .driver import (
    ProblemConfig,
    assemble_problem,
    compare_volumes,
    run_simulation,
    validate_output_paths,
    write_outputs,
)
from .errors import PhysicsDataError, PnDoseError

# How far a shipped Gauss-Legendre rule may lie from numpy's leggauss, in
# nodes and weights: a few ulps of 1, for LAPACK builds that round the
# eigensolve differently.
GAUSS_RULE_ATOL = 1e-14


def _plural(count, singular, plural=None):
    return f"{count} {singular if count == 1 else plural or singular + 's'}"


def _peak_rss_mib():
    """This process's peak resident set size in MiB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cmd_run(args, solver):
    config = ProblemConfig.load(args.config)
    validate_output_paths(config)
    result = run_simulation(config, solver=solver)
    out = write_outputs(result)
    d = result.diagnostics
    print(
        f"{solver}: {d['n_steps']} steps, mean rank {d['mean_rank']:.2f}, "
        f"state memory {100 * d['state_memory_fraction']:.3f}% of full, "
        f"{d['runtime_s']:.1f} s"
    )
    print(
        f"memory: peak state {d['peak_state_numbers'] * 8 / 2**20:.3f} MiB, "
        f"peak with transients {d['peak_transient_numbers'] * 8 / 2**20:.3f} MiB, "
        f"process peak RSS {_peak_rss_mib():.1f} MiB"
    )
    print(
        f"rays: {sum(d['rays_per_beam'])} hit, {sum(d['rays_missed_per_beam'])} missed; "
        f"{_plural(sum(d['marches_per_beam']), 'march', 'marches')}; "
        f"{_plural(d['energy_operator_assemblies'], 'energy operator')}; "
        f"{_plural(d['cn_factorizations'], 'Crank-Nicolson factorization')}"
    )
    print("phases: " + ", ".join(
        f"{name.replace('_', ' ')} {seconds:.2f} s" for name, seconds in d["phase_s"].items()
    ))
    neg = d["negativity"]
    if neg["negative_cells"]:
        print(
            f"negativity diagnostic: {neg['negative_cells']} cells below zero "
            f"(min {neg['min_value']:.3e})"
        )
    print(f"outputs written to {out}")
    return 0


def _cmd_validate(args):
    config = ProblemConfig.load(args.config)
    if config.output_directory is not None:
        validate_output_paths(config)
    problem = assemble_problem(config)
    print(
        f"config ok: grid {problem.grid.shape}, {len(config.beams)} beam(s), "
        f"P{config.pn_order} ({problem.n_moments} moments), model {config.model}"
    )
    return 0


def _cmd_compare(args):
    report = compare_volumes(args.dose_a, args.dose_b, array=args.array)
    print(f"relative L2:   {report['rel_l2']:.6e}")
    print(f"relative Linf: {report['rel_linf']:.6e}")
    return 0


def _cmd_tables_check(args):
    from .constants import ELEMENTS
    from .physics.materials import default_schneider_table
    from .physics.moliere import SHIPPED_RULES, MomentTables, gauss_rule_file, read_gauss_rule
    from .physics.stopping import default_stopping_library

    table = default_schneider_table()
    table.validate()
    print(f"HU conversion: {len(table.compositions)} composition bins ok")

    library = default_stopping_library()
    for symbol, tab in library.tables.items():
        mid = len(tab.energies) // 2
        node = tab(tab.energies[mid])
        if abs(node - tab.values[mid]) > 1e-12 * tab.values[mid]:
            raise PnDoseError(f"{symbol}: interpolation not node-exact")
    lo, hi = library.energy_range
    print(f"stopping power: 12 tables ok, common range [{lo:g}, {hi:g}] MeV")

    for n in SHIPPED_RULES:
        x, w = read_gauss_rule(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        dev = max(np.max(np.abs(x - x_ref)), np.max(np.abs(w - w_ref)))
        if not dev <= GAUSS_RULE_ATOL:
            raise PhysicsDataError(
                f"{gauss_rule_file(n)}: deviates from leggauss({n}) by {dev:.3e} "
                f"> {GAUSS_RULE_ATOL:.0e}"
            )
        print(f"Gauss-Legendre rule, {n} nodes: ok, max deviation from leggauss {dev:.1e}")

    energies = np.array([5.0, 30.0, 90.0])
    moments = MomentTables(energies, 3)
    moments.validate()
    print("scattering moments: g0 > 0, |g_l| <= g0, xi1 identity ok")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pndose",
        description="Deterministic proton dose engine (low-rank PN + ray tracer)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the low-rank solver")
    p_run.add_argument("config")

    p_oracle = sub.add_parser("oracle", help="run the full-rank reference solver")
    p_oracle.add_argument("config")

    p_val = sub.add_parser("validate", help="validate a config without solving")
    p_val.add_argument("config")

    p_cmp = sub.add_parser("compare", help="compare two dose volumes")
    p_cmp.add_argument("dose_a")
    p_cmp.add_argument("dose_b")
    p_cmp.add_argument("--array", default="deposited_energy")

    p_tab = sub.add_parser("tables", help="physics data utilities")
    tab_sub = p_tab.add_subparsers(dest="tables_command", required=True)
    tab_sub.add_parser("check", help="run the physics-data invariant suite")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, "dlra")
        if args.command == "oracle":
            return _cmd_run(args, "fullrank")
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "tables":
            return _cmd_tables_check(args)
        parser.error(f"unknown command {args.command}")
    except PnDoseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
