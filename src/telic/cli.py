"""Command line front end.

``telic check`` processes lexicon files on top of the built-in prelude
and prints one report line per declaration. ``telic norm`` evaluates a
single closed expression. ``telic selftest`` audits the prelude and
replays the bundled corpus against its golden expectations.

Exit status is 0 when everything succeeded, 1 when any report failed or
a golden diverged or could not be read or written, and 2 for usage
errors. Set the ``TELIC_PRELUDE`` environment variable to load a
different prelude file. A prelude that fails to load stops every command
before it starts: its failing reports go to stderr and the exit status
is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import CASES, check_case, golden_path, uncovered_names, write_golden
from .elaborate import Processor, Report, render_reports
from .errors import TelicError
from .kernel import DEFAULT_FUEL
from .prelude import CheckResult, load_prelude, prelude_self_check


def _fresh_processor(args: argparse.Namespace) -> Processor | None:
    """A processor that gives each later declaration ``args.fuel`` steps,
    or None once the prelude's broken reports are printed to stderr in
    ``args.format``. The prelude itself loads at the default budget:
    ``--fuel`` bounds the user's files only."""
    proc = Processor()
    if not args.no_prelude:
        _, reports = load_prelude(proc)
        broken = [r for r in reports if not r.ok]
        if broken:
            print(render_reports(broken, args.format), file=sys.stderr)
            return None
    proc.kernel.fuel_limit = args.fuel
    return proc


def _fuel(text: str) -> int:
    """A ``--fuel`` value: a whole number of steps, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _cmd_check(args: argparse.Namespace) -> int:
    proc = _fresh_processor(args)
    if proc is None:
        return 1
    reports: list[Report] = []
    for path in args.files:
        reports.extend(proc.process_path(path))
    out = render_reports(reports, args.format)
    if out:
        print(out)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_norm(args: argparse.Namespace) -> int:
    proc = _fresh_processor(args)
    if proc is None:
        return 1
    for path in args.files:
        bad = [r for r in proc.process_path(path) if not r.ok]
        if bad:
            print(render_reports(bad, "plain"), file=sys.stderr)
            return 1
    try:
        normal, ty = proc.normalize_expression(args.expr)
    except TelicError as err:  # it has the expression's span, or a closer one
        print(f"{err.span}: error [{err.code}]: {err.message}", file=sys.stderr)
        return 1
    print(f"{normal} : {ty}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    # Loaded once; the audit and every case leave it as they found it.
    proc = _fresh_processor(args)
    if proc is None:
        return 1
    if args.regen_golden:
        status = 0
        for case in CASES:
            try:
                path = write_golden(case, proc)
            except OSError as err:
                why = err.strerror or err
                print(f"{case.name}: golden file unwritable: {golden_path(case).name}: {why}", file=sys.stderr)
                status = 1
            else:
                print(f"wrote {path.name}")
        return status

    def emit(data: dict[str, object], *lines: str) -> None:
        """One JSON object for ``--format structured``, else the plain lines."""
        if args.format == "structured":
            print(json.dumps(data, sort_keys=True))
        else:
            for line in lines:
                print(line)

    audits = prelude_self_check(proc)
    broken_audits = [c.render() for c in audits if not c.ok]
    failures = len(broken_audits)
    emit(
        {"prelude": {"audits": len(audits), "failed": broken_audits}},
        *broken_audits,
        f"prelude: {len(audits) - len(broken_audits)}/{len(audits)} audits ok",
    )

    for case in CASES:
        reports, problems = check_case(case, proc)
        failures += len(problems)
        emit(
            {"case": case.name, "ok": not problems, "reports": len(reports), "problems": problems},
            CheckResult(case.name, not problems, f"{len(reports)} reports ({case.title})").render(),
            *[f"     {line}" for line in problems],
        )

    leftover = sorted(uncovered_names(proc))
    failures += bool(leftover)
    covered = (
        f"prelude entries never exercised: {', '.join(leftover)}"
        if leftover
        else "every prelude entry appears in the corpus"
    )
    emit({"uncovered": leftover}, CheckResult("coverage", not leftover, covered).render())
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telic",
        description="Proof checker for lexicons of bounded nouns and telic events.",
        epilog="Set TELIC_PRELUDE to substitute a different prelude file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="process lexicon files and print one report per declaration")
    check.add_argument("files", nargs="+", metavar="FILE", help="lexicon files, processed in order")
    check.add_argument("--fuel", type=_fuel, default=DEFAULT_FUEL, help="reduction step budget per declaration, prelude excepted")
    check.add_argument("--format", choices=("plain", "structured"), default="plain", help="plain lines or one JSON object per report")
    check.add_argument("--no-prelude", action="store_true", help="start from an empty signature")
    check.set_defaults(run=_cmd_check)

    norm = sub.add_parser("norm", help="normalize one expression and show its type")
    norm.add_argument("files", nargs="*", metavar="FILE", help="lexicon files to load first")
    norm.add_argument("-e", "--expr", required=True, help="the expression to normalize")
    norm.add_argument("--fuel", type=_fuel, default=DEFAULT_FUEL, help="reduction step budget per declaration, prelude excepted")
    norm.add_argument("--no-prelude", action="store_true", help="start from an empty signature")
    norm.set_defaults(run=_cmd_norm, format="plain")

    selftest = sub.add_parser("selftest", help="audit the prelude and replay the corpus against its goldens")
    selftest.add_argument("--format", choices=("plain", "structured"), default="plain", help="plain lines or one JSON object per case")
    selftest.add_argument("--regen-golden", action="store_true", help="rewrite the golden files from current behavior")
    selftest.set_defaults(run=_cmd_selftest, fuel=DEFAULT_FUEL, no_prelude=False)

    return parser


# Built once: `argparse` objects hold reference cycles, which a parser built
# per call would leave to the cyclic collector. Parsing keeps no state in it.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader left early (`telic selftest | head -1`). Point stdout at
        # the null device so the flush at exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
