"""Command-line driver: validate configs, inspect kernels, tune, simulate, sweep.

Exit codes: 0 on success, 1 when `simulate --regulate` finds no clock that
meets the temperature limit (the report is still written), 2 on
validation/usage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources

from . import sweep as sweep_mod
from . import workloads
from .arch import ArchConfig, derived_metrics, load_arch
from .kerneldsl.checker import typecheck
from .kerneldsl.parser import ast_to_json, parse_kernel
from .orchestrator import run, simulate_compute
from .sweep import default_power_model
from .thermal import RETENTION_LIMIT_C, regulate
from .tiler import autotune, build_op
from .workloads import DecodingScenario, build_decoding_graph, load_model


def _load_config(path: str | None) -> ArchConfig:
    return load_arch(path or str(resources.files("stacksim").joinpath("configs/default.yaml")))


def _load_kernel_arg(arg: str):
    """A --kernel value is a file path if it exists, else a shipped kernel name."""
    import os
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as f:
            return parse_kernel(f.read())
    return workloads.load_kernel(arg)


def _parse_bindings(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"binding {pair!r} is not name=value")
        name, value = pair.split("=", 1)
        out[name.strip()] = int(value)
    return out


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    d = derived_metrics(cfg)
    text = (f"config ok: {cfg.core.channels} ch/core @ {d.channel_gbps:.1f} GB/s "
            f"({d.core_gbps:.0f} GB/s/core), core capacity "
            f"{d.core_capacity_bytes / 2**20:.0f} MiB, "
            f"logical row {cfg.logical_row_bytes} B\n")
    if args.measure:
        text += ("benchmark     delivered GB/s  advertised GB/s   ratio  "
                 "utilization  row hit rate\n")
        text += "".join(
            f"{r['benchmark']:<14}refused: {r['refusal']}\n" if "refusal" in r else
            f"{r['benchmark']:<12}{r['achieved_gbps']:>16.1f}{r['advertised_gbps']:>17.1f}"
            f"{r['ratio']:>8.4f}{r['utilization']:>13.4f}{r['row_hit_rate']:>14.4f}\n"
            for r in workloads.dram_datasheet(cfg))
    _write_out(text, args.out)
    return 0


def cmd_parse(args) -> int:
    prog = _load_kernel_arg(args.kernel)
    if args.dump_ast:
        _write_out(ast_to_json(prog) + "\n", args.out)
    else:
        print(f"kernel {prog.name}({', '.join(prog.params)}): ok")
    if args.bind:
        cfg = _load_config(args.config)
        typecheck(prog, cfg, _parse_bindings(args.bind))
        print("typecheck: ok")
    return 0


def cmd_tune(args) -> int:
    cfg = _load_config(args.config)
    prog = _load_kernel_arg(args.kernel)
    tiling, op, _ = autotune(prog, cfg, _parse_bindings(args.bind),
                             lambda op, cutoff: simulate_compute(op, cfg, cutoff),
                             limit=args.limit)
    print("best tiling: " + " ".join(f"{k}={v}" for k, v in sorted(tiling.items())))
    if args.out:
        _write_out(op.desc.serialize(), args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.model:
        model = load_model(args.model)
        scen = DecodingScenario(batch=args.batch, context=args.context,
                                tp=args.tp, ep=args.ep)
        ops = build_decoding_graph(model, scen, cfg, layers=args.layers)
    else:
        if not args.kernel:
            print("simulate needs --model or --kernel", file=sys.stderr)
            return 2
        prog = _load_kernel_arg(args.kernel)
        ops = [build_op(prog.name, prog, cfg, _parse_bindings(args.bind))]
    reg = None
    if args.regulate:
        reg = regulate(cfg, default_power_model(cfg))
        cfg = dataclasses.replace(cfg, core=dataclasses.replace(
            cfg.core, frequency_ghz=reg.frequency_ghz))
        report = run(ops, cfg)
        report.peak_temperature_c = reg.peak_temperature_c
    else:
        report = run(ops, cfg)
    print(f"{len(report.operators)} operator(s), {report.cycles} cycles, "
          f"{report.seconds * 1e6:.3f} us @ {report.frequency_ghz:.2f} GHz, "
          f"{report.total_energy_j * 1e3:.4f} mJ")
    if report.peak_temperature_c is not None:
        print(f"peak temperature: {report.peak_temperature_c:.1f} C")
    if args.out:
        _write_out(report.to_csv(), args.out)
    if reg is not None and not reg.feasible:
        print(f"thermally infeasible: {reg.frequency_ghz:.2f} GHz still peaks at "
              f"{reg.peak_temperature_c:.1f} C, over the {RETENTION_LIMIT_C:.1f} C limit",
              file=sys.stderr)
        return 1
    return 0


def _grid_value(text: str):
    """A sweep grid value: an int where `int()` reads it, else a float."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    raise ValueError(f"sweep grid value {text!r} is not a number")


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    grid = [_grid_value(v) for v in args.grid]
    rows = sweep_mod.sweep(args.dimension, grid, cfg)
    _write_out(sweep_mod.rows_to_csv(rows), args.out)
    return 0


def cmd_report(args) -> int:
    with open(args.csv, encoding="utf-8") as f:
        _write_out(sweep_mod.report(f.read()), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stacksim")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, kernel=False, config=True):
        if config:
            p.add_argument("--config",
                           help="architecture YAML (default: built-in cloud config)")
        p.add_argument("--out", help="output file (default: stdout)")
        if kernel:
            p.add_argument("--kernel", help="kernel file path or shipped kernel name")
            p.add_argument("--bind", nargs="*", default=[], metavar="NAME=VALUE")

    p = sub.add_parser("validate", help="parse and validate a config")
    common(p)
    p.add_argument("--measure", action="store_true",
                   help="also run the DRAM microbenchmarks and print delivered "
                        "against advertised bandwidth")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("parse", help="parse (and optionally typecheck) a kernel")
    common(p, kernel=True)
    p.add_argument("--dump-ast", action="store_true")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("tune", help="autotune kernel tiling")
    common(p, kernel=True)
    p.add_argument("--limit", type=int, default=256)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("simulate", help="simulate a kernel or a decoding step")
    common(p, kernel=True)
    p.add_argument("--model", help="shipped model name (e.g. llama3-70b)")
    p.add_argument("--layers", type=int, help="override model layer count")
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--context", type=int, default=1024)
    p.add_argument("--tp", type=int, default=1)
    p.add_argument("--ep", type=int, default=1)
    p.add_argument("--regulate", action="store_true",
                   help="apply thermal frequency regulation first")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one architecture dimension")
    common(p)
    p.add_argument("dimension", choices=sweep_mod.SWEEP_DIMENSIONS)
    p.add_argument("grid", nargs="+")
    p.add_argument("--thermal-resolution", type=int,
                   help="ignored: the thermal model has one node per layer")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="summarize a sweep CSV")
    common(p, config=False)
    p.add_argument("csv")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:  # every stacksim error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
