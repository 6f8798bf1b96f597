"""Command-line surface: scenario-driven computations and checks.

Every subcommand except ``counterexample`` reads a scenario file (see
:mod:`coarsecoh.scenario` for the format) and emits two reports: a JSON
document for machines and a TSV table for people.  By default the TSV
goes to stdout; ``--json`` prints the JSON instead, and ``--out BASE``
writes ``BASE.json`` and ``BASE.tsv`` as well.  The JSON is deterministic
for a fixed scenario and command, except for the ``_generated_at``
timestamp, which always sits alone on its own line.

The subcommands, their help lines and their flags are the ``_COMMANDS``
table below; ``coarsecoh --help`` prints it.  An explicit ``--ncap`` (at
least 2) or ``--raycap`` (at least 1) follows the rule of the scenario's
``caps`` block and always wins over it.

Exit codes: 0 success (and every checker verdict positive), 1 scenario or
usage error, 2 a checker returned FAILS, 3 a limit refused to stabilize
under its cap, 4 a coarsening fiber sum could not be certified finite.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .coarsen import check_commutation, coarsen_ring, coarsen_table
from .errors import CoarseningRefusal, ScenarioError, UnstabilizedError
from .homres import graded_ext, hom_table
from .linalg import cap_problem
from .localcoh import (
    cech_table,
    check_transform_sequence,
    ideal_transform,
    local_cohomology,
    torsion_submodule,
)
from .monoidx import counterexample_report
from .scenario import Scenario, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILS = 2
EXIT_UNSTABILIZED = 3
EXIT_REFUSED = 4

_VERDICT_EXIT = {
    "OK": EXIT_OK,
    "COMMUTES_ON_WINDOW": EXIT_OK,
    "FAILS": EXIT_FAILS,
    "UNSTABILIZED": EXIT_UNSTABILIZED,
    "REFUSED": EXIT_REFUSED,
}


# ---------------------------------------------------------------------------
# Report assembly.
# ---------------------------------------------------------------------------


def _window_str(window) -> str:
    lo, hi = window.free_box  # every scenario window is a box
    return "(%s)..(%s)" % (
        ",".join(str(v) for v in lo),
        ",".join(str(v) for v in hi),
    )


def _report(command, payload, comments, header, rows):
    """(payload, tsv, exit code) of a report whose payload holds its verdict.
    The TSV has ``# key: value`` lines, starting with the command and the
    verdict, then the header and the rows."""
    payload["command"] = command
    verdict = payload["verdict"]
    notes = ["command: " + command, "verdict: " + verdict, *comments]
    lines = ["# " + c for c in notes]
    lines.append("\t".join(header))
    for row in rows:
        lines.append("\t".join(str(v) for v in row))
    return payload, "\n".join(lines) + "\n", _VERDICT_EXIT[verdict]


def _table_report(command, table, s: Scenario, parameters=None, comments=(), **extra):
    """The OK report of a command whose result is one degree/dim table
    over the scenario's gwindow, with the stages of a tower table."""
    payload = {
        "verdict": "OK",
        "window": _window_str(s.gwindow),
        "table": dict(table.rows()),
        **extra,
    }
    if parameters is not None:
        payload["parameters"] = parameters
    if table.stabilized_at is not None:
        payload["stabilized_at"] = {str(g): n for g, n in table.stabilized_at.items()}
        payload["global_index"] = table.global_index
        comments = [*comments, "global_index: %d" % table.global_index]
    return _report(command, payload, comments, ["degree", "dim"], table.rows())


# ---------------------------------------------------------------------------
# Subcommand handlers: scenario, args -> (payload, tsv, exit code).  The
# scenario's caps already carry any --ncap/--raycap override.
# ---------------------------------------------------------------------------


def _cmd_hilbert(s: Scenario, args):
    s.require("ring", "module", "gwindow")
    return _table_report("hilbert", s.module.hilbert(s.gwindow), s)


def _cmd_hom(s: Scenario, args):
    s.require("ring", "module", "module2", "gwindow")
    return _table_report("hom", hom_table(s.module, s.module2, s.gwindow), s)


def _cmd_ext(s: Scenario, args):
    s.require("ring", "ideal", "module", "gwindow")
    ideal = s.ideal.power(args.n) if args.n != 1 else s.ideal
    table = graded_ext(args.i, ideal, s.module, s.gwindow)
    return _table_report("ext", table, s, {"i": args.i, "n": args.n})


def _cmd_gamma(s: Scenario, args):
    s.require("ring", "ideal", "module", "gwindow")
    table = torsion_submodule(s.ideal, s.module, s.gwindow, s.n_cap)
    payload, _, _ = _table_report("gamma", table, s, {"n_cap": s.n_cap})
    # the TSV shows each degree's stage in a third column
    rows = [(str(g), table.get(g), table.stabilized_at[g]) for g in s.gwindow]
    comments = ["global_index: %d" % table.global_index]
    return _report("gamma", payload, comments, ["degree", "dim", "stabilized_at"], rows)


def _cmd_cech(s: Scenario, args):
    s.require("ring", "ideal", "module", "gwindow")
    table = cech_table(s.ideal, args.i, s.module, s.gwindow, s.ray_cap)
    parameters = {"i": args.i, "route": "cech", "ray_cap": s.ray_cap}
    comments = ["i: %d" % args.i, "route: cech"]
    return _table_report("cech", table, s, parameters, comments)


def _cmd_lc(s: Scenario, args):
    s.require("ring", "ideal", "module", "gwindow")
    parameters = {
        "i": args.i,
        "route": args.route,
        "n_cap": s.n_cap,
        "ray_cap": s.ray_cap,
    }
    comments = ["i: %d" % args.i, "route: " + args.route]
    table = local_cohomology(
        s.ideal, args.i, s.module, s.gwindow, args.route, s.n_cap, s.ray_cap
    )
    return _table_report("lc", table, s, parameters, comments)


def _cmd_dtransform(s: Scenario, args):
    s.require("ring", "ideal", "module", "gwindow")
    table = ideal_transform(s.ideal, args.i, s.module, s.gwindow, s.n_cap)
    parameters = {"i": args.i, "n_cap": s.n_cap}
    return _table_report("dtransform", table, s, parameters, ["i: %d" % args.i])


def _cmd_coarsen(s: Scenario, args):
    s.require("ring", "module", "psi", "gwindow", "hwindow")
    fine = s.module.hilbert(s.gwindow)
    coarse_ring = coarsen_ring(s.ring, s.psi, s.coarse_certificate)
    table, cert = coarsen_table(
        fine,
        s.psi,
        s.hwindow,
        fine_ring=s.ring,
        coarse_ring=coarse_ring,
        assume_support_covered=args.assume_support_covered,
    )
    payload, tsv, code = _table_report(
        "coarsen",
        table,
        s,
        {"assume_support_covered": args.assume_support_covered},
        ["certificate: " + cert.route],
        hwindow=_window_str(s.hwindow),
        certificate={"route": cert.route, "note": cert.note},
    )
    # the coarse table lives on hwindow; the scenario's window is the fine one
    payload["gwindow"] = payload.pop("window")
    return payload, tsv, code


def _cmd_check_commute(s: Scenario, args):
    s.require("ring", "ideal", "module", "psi", "gwindow", "hwindow")
    report = check_commutation(
        s.ideal,
        s.module,
        s.psi,
        args.i,
        s.gwindow,
        s.hwindow,
        n_cap=s.n_cap,
        assume_support_covered=args.assume_support_covered,
        coarse_certificate=s.coarse_certificate,
    )
    payload = report.to_json_dict()
    payload["gwindow"] = _window_str(s.gwindow)
    payload["hwindow"] = _window_str(s.hwindow)
    comments = ["n_cap: %d" % s.n_cap]
    if report.unstable is not None:
        comments.append(
            "unstabilized: i=%(i)s at %(degree)s, trajectory %(trajectory)s"
            % report.unstable
        )
    rows = []
    for entry in report.entries:
        for (h, a), (_, b) in zip(entry.coarsened.rows(), entry.coarse.rows()):
            rows.append((entry.i, h, a, b, "yes" if a == b else "NO", entry.cert.route))
    header = ["i", "degree", "coarsened", "coarse", "agree", "certificate"]
    return _report("check-commute", payload, comments, header, rows)


def _cmd_check_transform(s: Scenario, args):
    s.require("ring", "ideal", "module", "gwindow")
    report = check_transform_sequence(
        s.ideal, s.module, s.gwindow, s.n_cap, s.ray_cap
    )
    payload = report.to_json_dict()
    payload["window"] = _window_str(s.gwindow)
    comments = [
        "higher i=%d: %s over %d degrees"
        % (e["i"], "agree" if e["agree"] else "DISAGREE", e["degrees_checked"])
        for e in report.higher
    ]
    if report.unstable is not None:
        comments.append(
            "unstabilized: %(what)s at %(degree)s, trajectory %(trajectory)s"
            % report.unstable
        )
    rows = [
        (str(r.degree), r.gamma, r.module, r.d0, r.h1, "yes" if r.all_ok() else "NO")
        for r in report.rows
    ]
    header = ["degree", "torsion", "module", "transform0", "h1", "exact"]
    return _report("check-transform", payload, comments, header, rows)


def _cmd_counterexample(s: Scenario, args):
    report = counterexample_report(args.k, seed=args.seed)
    payload = {**report.to_json_dict(), "verdict": "OK"}
    comments = [
        "support size: %d" % len(report.support),
        "idempotency witnesses: %d verified" % len(report.idempotency),
        "generation gaps: %d certified" % len(report.generation_gaps),
        "external claim: " + report.external_claim,
    ]
    rows = [
        (c.k, str(c.shift), str(c.ideal.threshold), repr(c.probe), repr(c.probe_image))
        for c in report.hom.components
    ]
    header = ["k", "degree", "threshold", "probe", "probe_image"]
    return _report("counterexample", payload, comments, header, rows)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------


def _i_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of integers, got %r" % text
        )
    return values


def _cap(name: str):
    """Type of the flag for cap `name`, held to the rule of the
    scenario's caps block."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        problem = cap_problem(name, value)
        if problem:
            raise argparse.ArgumentTypeError(problem)
        return value

    return parse


# flag name -> (option string, add_argument keywords)
_FLAGS = {
    "scenario": ("scenario", {"help": "path to a scenario file"}),
    "i": ("--i", {"type": int, "required": True}),
    "i-list": (
        "--i",
        {
            "type": _i_list,
            "default": (0, 1, 2),
            "help": "comma-separated cohomological degrees (default 0,1,2)",
        },
    ),
    "n": ("--n", {"type": int, "default": 1, "help": "ideal power (default 1)"}),
    "route": ("--route", {"choices": ("cech", "ext"), "default": "cech"}),
    "ncap": (
        "--ncap",
        {"type": _cap("n_cap"), "help": "override the scenario's n_cap"},
    ),
    "raycap": (
        "--raycap",
        {"type": _cap("ray_cap"), "help": "override the scenario's ray_cap"},
    ),
    "assume": ("--assume-support-covered", {"action": "store_true"}),
    "k": ("--k", {"type": int, "required": True, "help": "truncation level"}),
    "seed": ("--seed", {"type": int, "default": 0}),
}

# subcommand -> (handler, help line, flag names); builds the parser and dispatches
_COMMANDS = {
    "hilbert": (_cmd_hilbert, "dimension table of the module", ("scenario",)),
    "hom": (_cmd_hom, "graded Hom dimension table (module -> module2)", ("scenario",)),
    "ext": (
        _cmd_ext,
        "Ext^i(R/ideal^n, module) dimension table",
        ("scenario", "i", "n"),
    ),
    "gamma": (_cmd_gamma, "torsion submodule along the ideal", ("scenario", "ncap")),
    "cech": (
        _cmd_cech,
        "local cohomology by the localization route",
        ("scenario", "i", "raycap"),
    ),
    "lc": (
        _cmd_lc,
        "local cohomology by either route",
        ("scenario", "i", "route", "ncap", "raycap"),
    ),
    "dtransform": (_cmd_dtransform, "ideal transform D^i", ("scenario", "i", "ncap")),
    "coarsen": (
        _cmd_coarsen,
        "fiber-sum the module's dimension table along psi",
        ("scenario", "assume"),
    ),
    "check-commute": (
        _cmd_check_commute,
        "coarsened vs directly coarse local cohomology",
        ("scenario", "i-list", "ncap", "assume"),
    ),
    "check-transform": (
        _cmd_check_transform,
        "four-term torsion/transform sequence check",
        ("scenario", "ncap", "raycap"),
    ),
    "counterexample": (
        _cmd_counterexample,
        "escape family for the rational monoid algebra",
        ("k", "seed"),
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors, which this tool
    reserves for FAILS verdicts; route usage problems to exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command line, built once per process: parsing
    leaves it unchanged, and the one list-valued default is a tuple."""
    parser = _Parser(
        prog="coarsecoh",
        description="Exact graded local cohomology and coarsening checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write BASE.json and BASE.tsv")
        p.add_argument(
            "--json",
            action="store_true",
            help="print the JSON report instead of the TSV table",
        )
        for flag in flags:
            option, keywords = _FLAGS[flag]
            p.add_argument(option, **keywords)
    return parser


def run_command(args) -> tuple[str, str, int]:
    """Execute one parsed command line: returns (json text, tsv text,
    exit code).  Raises nothing the dispatcher below does not handle."""
    scenario = None
    if getattr(args, "scenario", None) is not None:
        with open(args.scenario) as f:
            scenario = parse_scenario(f.read())
        # a given cap flag always wins over the scenario's caps block
        if getattr(args, "ncap", None) is not None:
            scenario.n_cap = args.ncap
        if getattr(args, "raycap", None) is not None:
            scenario.ray_cap = args.raycap
    try:
        payload, tsv, code = _COMMANDS[args.command][0](scenario, args)
    except (UnstabilizedError, CoarseningRefusal) as err:
        if isinstance(err, UnstabilizedError):
            notes = err.payload()
            payload = {"verdict": "UNSTABILIZED", "unstable": notes}
        else:
            notes = {"reason": err.reason}
            degree = None if err.h is None else str(err.h)
            payload = {"verdict": "REFUSED", "degree": degree, **notes}
        comments = ["%s: %s" % kv for kv in notes.items()]
        payload, tsv, code = _report(
            args.command, payload, comments, ["degree", "dim"], []
        )
    payload["_generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    return json.dumps(payload, sort_keys=True, indent=2), tsv, code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        json_text, tsv_text, code = run_command(args)
    except (ScenarioError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        for suffix, text in ((".json", json_text + "\n"), (".tsv", tsv_text)):
            with open(args.out + suffix, "w") as f:
                f.write(text)
    if args.json:
        print(json_text)
    else:
        sys.stdout.write(tsv_text)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
