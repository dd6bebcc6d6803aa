"""Command-line front end.

Subcommands:
    run <config.json>     execute an experiment spec from a JSON file
    tables <name>         run a canned benchmark suite (table5 .. table10)
    design ...            print pulse parameters in the parameter-sheet layout
    sweep ...             run a program family over a list of k values
    verify                run the verification suite

Exit status is 0 on success, 1 on verification failure, 2 on bad input
(a bad flag value too), which prints one `error:` line, and 141
(128 + SIGPIPE) when the reader of the output goes away.
"""
from __future__ import annotations

import argparse
import os
import re
import stat
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .harness import (FORMATS, KINDS, ExperimentSpec, canned_names, canned_spec,
                      emit_table, run_experiment, verify_suite)
from .hamiltonian import MachineConfig
from .pulses import (DEFAULT_GAMMA, ROTATING, STATIC_AXIS, RationalGamma,
                     commensurability_margin, design_pulse)
from .programs import (CNOT_VARIANTS, FINAL_ROTATION_STYLES, ROTATING_SF,
                       STATIC_SF, STYLES)


def parse_angle(text: str) -> float:
    """Angle in radians; accepts plain floats and 'pi' forms like 2pi/3."""
    t = text.strip().lower().replace("*", "")
    m = re.match(r"^(-?)([0-9.]*)pi(?:/([0-9.]+))?$", t)
    try:
        if not m:
            return float(t)
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * np.pi / den
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"cannot parse angle {text!r}") from exc


def _write_out(text: str, out: str | None):
    """Print the text, or write it and a newline to the file out, UTF-8,
    encoded once and written by os.write on the descriptor, until every
    byte is written (a buffered file object costs more than the write).

    The file is overwritten in place: opened without O_TRUNC, written,
    then cut to the written length.  Truncating on open costs more than
    the write itself where freeing a file's blocks is slow (an ext4 mount
    with ``discard`` takes ≈0.5 ms for a 5 KB table), and a table
    rewritten over its last run keeps most of its blocks.  A FIFO or a
    character device (/dev/null, /dev/stdout) is written and never cut,
    since ftruncate refuses it.  A new file gets mode 0o666 less the
    umask, as open() gives.  Nothing is fsynced, and a crash during the
    write can leave a partial file: the head of the new text over the
    tail of the old one, where a truncating open would leave that head
    alone.
    """
    if out is None:
        print(text)
        return
    data = (text + "\n").encode("utf-8")
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _run_spec(spec: ExperimentSpec, args) -> int:
    """Run the spec, with the command-line overrides applied, and emit the
    table.  With no override the spec object itself runs, so a canned
    table named again in one process reuses the compiled table kept on
    its registry spec; an override makes a new spec, which validates it
    as it validates any field and compiles its own table."""
    overrides = {}
    if args.delta is not None:
        overrides["delta"] = args.delta
    if args.final_rotation_style:
        overrides["final_rotation_style"] = args.final_rotation_style
    if getattr(args, "tau_offset", None):
        overrides["tau_offsets"] = args.tau_offset
    table = run_experiment(replace(spec, **overrides) if overrides else spec)
    _write_out(emit_table(table, args.format), args.out)
    return 0


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"spec file is not UTF-8: {exc}") from exc
    return _run_spec(ExperimentSpec.from_json(text), args)


def _cmd_tables(args) -> int:
    return _run_spec(canned_spec(args.name), args)


def _design_row(name, eo) -> str:
    def turns(phi):
        return f"{phi / np.pi:+.2f}*pi" if phi else "0"
    return " | ".join([
        name, f"{eo.tau:g}", f"{eo.omega:.2f}",
        f"{eo.sf1x:.7f}", f"{eo.sf2x:.7f}", turns(eo.phi_x),
        f"{eo.sf1y:.7f}", f"{eo.sf2y:.7f}", turns(eo.phi_y)])


def _cmd_design(args) -> int:
    """Design on the default machine with h2z = N/M; the margin is that
    machine's, whose ratio is N/M in lowest terms."""
    machine = MachineConfig(h2z=RationalGamma(args.n, args.m).gamma)
    mode = {"rotating": ROTATING, "static": STATIC_AXIS,
            "static_axis": STATIC_AXIS}[args.mode]
    angle = parse_angle(args.angle)
    eo = design_pulse(args.spin, angle, args.axis, k=args.k, mode=mode,
                      machine=machine)
    margin = commensurability_margin(RationalGamma.from_machine(machine), args.k)
    header = " | ".join(["pulse", "tau/2pi", "omega", "sf1x", "sf2x", "phi_x",
                         "sf1y", "sf2y", "phi_y"])
    label = f"spin{args.spin} {args.axis} {angle:g}rad {mode} k={args.k}"
    lines = [header, _design_row(label, eo), f"margin 2kNM(M-N) = {margin}"]
    _write_out("\n".join(lines), args.out)
    return 0


def _cmd_sweep(args) -> int:
    style = {"rotating": ROTATING_SF, "static": STATIC_SF}.get(args.style, args.style)
    try:
        k_list = tuple(int(k) for k in args.k_list.split(","))
    except ValueError as exc:
        raise ConfigurationError(
            f"--k-list must be comma-separated whole numbers, got {args.k_list!r}") from exc
    return _run_spec(ExperimentSpec(kind=args.kind, style=style,
                                    cnot_variant=args.variant, k_list=k_list), args)


def _cmd_verify(args) -> int:
    report = verify_suite(include_tables=not args.quick)
    _write_out(str(report), args.out)
    return 0 if report.passed else 1


class _BareNegativeAxis(argparse.Action):
    """A negative axis typed where an option may go, which argparse would
    take for an unknown option, shifting the positionals after it: bad
    input that names the axis and shows the form that works."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise ConfigurationError(
            f"axis {option_string} goes after --, which ends the options: "
            f"nmrqc design 1 pi/2 -- {option_string} rotating 1")


class _Parser(argparse.ArgumentParser):
    """A parser whose bad input is a ConfigurationError, which main
    reports in one line as it reports any other; its subcommand parsers
    are of this class too.  A negative number, or a negative angle in pi
    form (-pi/2), is a value, never an option: the angle check names it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-[0-9.]*\*?pi", re.IGNORECASE)

    def error(self, message):
        raise ConfigurationError(message)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, when this module loads.

    Parsing leaves it unchanged: each call gets a fresh namespace.
    """
    p = _Parser(prog="nmrqc", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", default="markdown", choices=FORMATS)
        sp.add_argument("--out", default=None, help="write output to a file")
        sp.add_argument("--delta", type=float, default=None,
                        help="integrator step over 2*pi")
        sp.add_argument("--final-rotation-style", dest="final_rotation_style",
                        choices=FINAL_ROTATION_STYLES, default=None)

    run = sub.add_parser("run", help="run an experiment from a JSON spec")
    run.add_argument("config")
    run.set_defaults(func=_cmd_run)
    tables = sub.add_parser("tables", help="run a canned benchmark suite")
    tables.add_argument("name", choices=list(canned_names()))
    tables.set_defaults(func=_cmd_tables)
    for sp in (run, tables):
        common(sp)
        sp.add_argument("--tau-offset", dest="tau_offset", type=float, action="append",
                        help="duration offset for the phase evolution (repeatable)")

    sp = sub.add_parser("design", help="design a single-spin pulse")
    sp.add_argument("spin", type=int, choices=[1, 2])
    sp.add_argument("angle", help="rotation angle in radians (e.g. pi/2)")
    sp.add_argument("axis", help="x, y, -x or -y; a negative axis goes after --, "
                    "which ends the options: design 1 pi/2 -- -x rotating 1")
    sp.add_argument("mode", choices=["rotating", "static", "static_axis"])
    sp.add_argument("-x", "-y", nargs=0, action=_BareNegativeAxis, help=argparse.SUPPRESS)
    sp.add_argument("k", type=int)
    sp.add_argument("--n", type=int, default=DEFAULT_GAMMA.n,
                    help="design on the machine with h2z/h1z = N/M")
    sp.add_argument("--m", type=int, default=DEFAULT_GAMMA.m)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_design)

    sp = sub.add_parser("sweep", help="sweep a program family over k values")
    sp.add_argument("--kind", choices=KINDS, default="qa")
    sp.add_argument("--style", default="rotating",
                    help="rotating, static, or any of " + ", ".join(STYLES))
    sp.add_argument("--variant", type=int, default=1, choices=CNOT_VARIANTS)
    sp.add_argument("--k-list", dest="k_list", default="1,2,4,8,32")
    common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--quick", action="store_true",
                    help="skip the benchmark-table comparisons")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)
    return p


build_parser()  # so that no command pays for the build, the first one included


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()   # so that a closed pipe is found here
        return status
    except BrokenPipeError:
        # the reader went away: not bad input.  Stdout goes to devnull, so
        # that the flush at exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
