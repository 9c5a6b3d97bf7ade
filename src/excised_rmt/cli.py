"""Command-line driver.

Subcommands mirror the experiment kinds: sample, onelevel, paircorr,
excise, discriminants, neff, compare.  Every run is a pure function of
its flags and seed; outputs are byte-identical across reruns and worker
counts (17-significant-digit decimals, LF line endings).  ``--workers``
is the only source of the thread count; left unset, the stats drivers
use every usable core.

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from excised_rmt import arith, stats, theory, zeros
from excised_rmt.groups import GroupSpec, group_from_name
from excised_rmt.spectral import ExcisionRule, excise_mask

SAMPLE_HEADER = ",".join(stats.SAMPLE_DTYPE.names)


class DataError(RuntimeError):
    pass


def _group_spec(args) -> GroupSpec:
    return GroupSpec(group_from_name(args.group), args.n)


def _write_text(path, text) -> None:
    """Writes a str, a bytes or an iterable of bytes chunks to path, or to
    stdout if path is None; chunks are written as they come."""
    binary = not isinstance(text, str)
    chunks = [text] if isinstance(text, (str, bytes)) else text
    if path is None:
        if binary:
            sys.stdout.flush()
            sys.stdout.buffer.writelines(chunks)
        else:
            sys.stdout.write(text)
        return
    with (open(path, "wb") if binary else open(path, "w", newline="\n")) as fh:
        fh.writelines(chunks)


@functools.cache
def _digits4() -> np.ndarray:
    """_digits4()[j][r] is the ASCII code of the j-th of the four
    zero-padded decimal digits of r, for 0 <= r < 10**4."""
    r = np.arange(10**4)
    table = np.stack([ord("0") + r // 10 ** (3 - j) % 10 for j in range(4)]).astype(np.uint8)
    table.flags.writeable = False
    return table


def _decimal_lines(values: np.ndarray) -> bytes:
    """ASCII decimal of each value of a sorted non-negative int64 array,
    one per LF-terminated line.

    Values with the same number of digits w are contiguous, so each such
    slice is written as a (k, w + 1) byte array.  One division by 10**4
    splits off four digits at a time, whose columns are read from
    _digits4().
    """
    digits = _digits4()
    chunks = []
    start = 0
    for width in range(1, 20):
        # 10**19 exceeds int64, so every value left has 19 digits
        stop = values.size if width == 19 else int(np.searchsorted(values, 10**width))
        if stop > start:
            rest = values[start:stop].copy()
            quot = np.empty_like(rest)
            lines = np.empty((stop - start, width + 1), dtype=np.uint8)
            lines[:, width] = ord("\n")
            # end is one past the last column of the group of up to four
            # digits that rest holds once the quotient is split off
            for end in range(width, 0, -4):
                if end > 4:
                    # numpy divides by a scalar far faster than it takes remainders
                    np.floor_divide(rest, 10**4, out=quot)
                    rest -= 10**4 * quot
                for j in range(max(0, 4 - end), 4):
                    lines[:, end - 4 + j] = digits[j][rest]
                rest, quot = quot, rest
            chunks.append(lines.tobytes())
            start = stop
    return b"".join(chunks)


def _sample_field_types() -> list:
    """int or float for each column of the sample table, in order: the
    integer fields of stats.SAMPLE_DTYPE are int, the others float."""
    dtype = stats.SAMPLE_DTYPE
    return [int if np.issubdtype(dtype[name], np.integer) else float for name in dtype.names]


def _sample_table_text(table) -> str:
    """The sample CSV: an int as is, a float to 17 significant digits."""
    row = ",".join("{}" if kind is int else "{:.17g}" for kind in _sample_field_types())
    return "\n".join([SAMPLE_HEADER, *(row.format(*values) for values in table.tolist()), ""])


def _read_sample_table(path) -> np.ndarray:
    types = _sample_field_types()
    with open(path) as fh:
        header = fh.readline().strip()
        if header != SAMPLE_HEADER:
            raise DataError(f"{path}: expected header {SAMPLE_HEADER!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(types):
                raise DataError(f"{path}: line {lineno}: expected {len(types)} fields")
            try:
                rows.append(tuple([kind(part) for kind, part in zip(types, parts)]))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
    return np.array(rows, dtype=stats.SAMPLE_DTYPE)


def cmd_sample(args) -> int:
    spec = _group_spec(args)
    table = stats.sample_summaries(spec, args.count, args.seed, workers=args.workers)
    _write_text(args.out, _sample_table_text(table))
    return 0


def cmd_onelevel(args) -> int:
    spec = _group_spec(args)
    hist = stats.one_level_density_mc(
        spec, args.count, args.seed, bins=args.bins, workers=args.workers
    )
    _write_text(args.out, hist.to_csv_text())
    return 0


def cmd_paircorr(args) -> int:
    spec = _group_spec(args)
    hist = stats.pair_correlation_mc(
        spec, args.count, args.seed, window=args.window, bins=args.bins, workers=args.workers
    )
    _write_text(args.out, hist.to_csv_text())
    return 0


def cmd_excise(args) -> int:
    rule = ExcisionRule(c=args.c, k=args.k, n_std=args.nstd)
    table = _read_sample_table(args.input)
    keep = excise_mask(table["charpoly_abs"], rule)
    kept = table[keep]
    _write_text(args.out, _sample_table_text(kept))
    sys.stderr.write(
        f"kept {int(keep.sum())} of {table.size} (threshold {rule.threshold:.17g})\n"
    )
    return 0


def _symmetry_case(name: str) -> theory.SymmetryCase:
    try:
        return theory.SymmetryCase(name.strip().lower())
    except ValueError:
        raise DataError(f"unknown symmetry case {name!r}") from None


def cmd_discriminants(args) -> int:
    case = _symmetry_case(args.case)
    spec = arith.FamilySpec(
        M=args.M,
        case=case,
        X=args.X,
        epsilon_f=args.epsilon,
        Delta=args.delta,
        residue_u=args.residue,
    )
    count = 0

    def lines():
        nonlocal count
        for members in arith.family_windows(spec):
            count += members.size
            yield _decimal_lines(members)

    _write_text(args.out, lines())
    estimate = arith.cardinality_estimate(spec)
    sys.stderr.write(f"count {count} estimate {estimate:.17g}\n")
    return 0


def _load_json_object(path, what: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise DataError(f"{what} root must be a JSON object")
    return data


# What a JSON value of a flag's or field's type must be; None types a
# string.  bool is an int subclass, but true/false is never a count or a size.
_JSON_TYPES = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    None: ("a string", str),
}


def _check_json_value(what: str, key: str, value, type_) -> None:
    name, accepts = _JSON_TYPES[type_]
    if isinstance(value, bool) or not isinstance(value, accepts):
        raise DataError(f"{what} field {key!r} must be {name}, got {value!r}")


def _coefficient_inputs(path) -> theory.CoefficientInputs:
    """The raw coefficient inputs of a JSON file; a null value keeps the
    default."""
    data = _load_json_object(path, "coeffs")
    types = {f.name: type(f.default) for f in dataclasses.fields(theory.CoefficientInputs)}
    unknown = set(data) - set(types)
    if unknown:
        raise DataError(f"unknown coefficient keys: {sorted(unknown)}")
    given = {key: value for key, value in data.items() if value is not None}
    for key, value in given.items():
        _check_json_value("coeffs", key, value, types[key])
    return theory.CoefficientInputs(**given)


def cmd_neff(args) -> int:
    case = _symmetry_case(args.case)
    generic = case is theory.SymmetryCase.Generic
    needs, others = ("M", "X"), ("e1", "e2", "R")
    if generic:
        needs, others = others, ("M", "X", "coeffs")
    for name in needs:
        if getattr(args, name) is None:
            raise DataError(f"--case {case.value} requires --{name}")
    unused = [f"--{name}" for name in others if getattr(args, name) is not None]
    if unused:
        raise DataError(f"--case {case.value} does not use {', '.join(unused)}")
    if generic:
        value = theory.n_eff_generic(args.e1, args.e2, args.R)
        payload = {"case": case.value, "n_eff": value, "e1": args.e1, "e2": args.e2, "R": args.R}
    else:
        raw = _coefficient_inputs(args.coeffs) if args.coeffs else theory.CoefficientInputs()
        coeffs = theory.coefficient_assembly(case, raw)
        value = theory.n_eff(case, args.M, args.X, coeffs)
        payload = {"case": case.value, "n_eff": value, "M": args.M, "X": args.X,
                   "coefficients": coeffs}
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0


def cmd_compare(args) -> int:
    records = zeros.ingest_zero_list(args.zeros)
    zero_samples = zeros.lowest_zero_statistic(
        records, which=args.which, vanish_tol=args.vanish_tol
    )
    table = _read_sample_table(args.samples)
    ensemble = table["first_angle"]
    ensemble = ensemble[np.isfinite(ensemble)]
    report = zeros.compare_report(zero_samples, ensemble, bins=args.bins)
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0


# Values of the flags that neither the command line nor a config sets;
# every other flag defaults to None.
_DEFAULTS = {
    "seed": 0,
    "count": 1000,
    "bins": 100,
    "window": 5.0,
    "epsilon": 1,
    "delta": 1,
    "residue": 1,
    "which": "lowest",
    "vanish_tol": 1e-8,
}


def _add_common(p, *, monte_carlo=True, bins=False):
    """--config and --out, plus --group, --n, --seed, --count and --workers
    for the subcommands that sample matrices."""
    p.add_argument("--config", help="JSON config supplying defaults for flags")
    if monte_carlo:
        p.add_argument("--group", help="so_even | so_odd | usp | unitary")
        p.add_argument("--n", type=int, help="half-size N")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--count", type=int, help="number of samples")
        p.add_argument("--workers", type=int,
                       help="threads that sample blocks, capped at the usable cores "
                            "(default: all usable cores; output bytes do not depend on it)")
    if bins:
        p.add_argument("--bins", type=int, help="histogram bin count")
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Flags default to absent so that a config can fill
    them; ``required`` names the flags that the command line or the config
    must supply."""
    parser = argparse.ArgumentParser(
        prog="excised-rmt",
        description="Excised random-matrix model simulator for quadratic twist families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, required, help):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func, required=required)
        return p

    p = command("sample", cmd_sample, ("group", "n"),
                "sample matrices; write per-sample summaries")
    _add_common(p)

    p = command("onelevel", cmd_onelevel, ("group", "n"),
                "Monte Carlo one-level eigenangle density")
    _add_common(p, bins=True)

    p = command("paircorr", cmd_paircorr, ("group", "n"),
                "Monte Carlo pair correlation of eigenangles")
    p.add_argument("--window", type=float, help="window in mean spacings")
    _add_common(p, bins=True)

    p = command("excise", cmd_excise, ("c", "k", "nstd", "input"),
                "filter a sample file by the excision threshold")
    p.add_argument("--c", type=float, help="cutoff constant")
    p.add_argument("--k", type=int, help="weight")
    p.add_argument("--nstd", type=float, help="standard matrix size")
    p.add_argument("--input", help="sample CSV produced by `sample`")
    _add_common(p, monte_carlo=False)

    p = command("discriminants", cmd_discriminants, ("M", "case", "X"),
                "enumerate a fundamental-discriminant family")
    p.add_argument("--M", type=int, help="odd prime level")
    p.add_argument("--case", help="principal_even | principal_odd | self_cm | generic")
    p.add_argument("--X", type=int, help="upper bound")
    p.add_argument("--epsilon", type=int, choices=(1, -1))
    p.add_argument("--delta", type=int, choices=(1, -1))
    p.add_argument("--residue", type=int, help="residue class U mod M (generic case)")
    _add_common(p, monte_carlo=False)

    p = command("neff", cmd_neff, ("case",), "effective matrix size for a symmetry case")
    p.add_argument("--case")
    p.add_argument("--M", type=int)
    p.add_argument("--X", type=int)
    p.add_argument("--coeffs", help="JSON file of raw coefficient inputs")
    p.add_argument("--e1", type=float)
    p.add_argument("--e2", type=float)
    p.add_argument("--R", type=float)
    _add_common(p, monte_carlo=False)

    p = command("compare", cmd_compare, ("zeros", "samples"),
                "compare zero data against an ensemble sample file")
    p.add_argument("--zeros", help="zero list CSV: d,gamma1,gamma2,...")
    p.add_argument("--samples", help="sample CSV produced by `sample`")
    p.add_argument(
        "--which",
        choices=("lowest", "lowest_nonvanishing", "second_lowest"),
        help="zero selector per record",
    )
    p.add_argument("--vanish-tol", type=float, dest="vanish_tol")
    _add_common(p, monte_carlo=False, bins=True)

    for p in sub.choices.values():
        p.set_defaults(flags={action.dest: action for action in p._actions
                              if action.dest not in ("help", "config")})
    return parser


def _read_config(args) -> dict:
    """The non-null values of args.config, each checked against its flag's
    type and choices."""
    data = _load_json_object(args.config, "config")
    if "kind" not in data:
        raise DataError("config must declare an experiment kind")
    kind = data.pop("kind")
    if kind != args.command:
        raise DataError(f"config kind {kind!r} does not match subcommand {args.command!r}")
    foreign = sorted(set(data) - set(args.flags))
    if foreign:
        raise DataError(
            f"config sets {', '.join(map(repr, foreign))}, "
            f"which {args.command!r} has no flag for"
        )
    given = {key: value for key, value in data.items() if value is not None}
    for key, value in given.items():
        action = args.flags[key]
        _check_json_value("config", key, value, action.type)
        if action.choices is not None and value not in action.choices:
            raise DataError(
                f"config field {key!r} must be one of "
                f"{', '.join(map(repr, action.choices))}, got {value!r}"
            )
    return given


def _resolve_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fills each flag absent from the command line from the config, then
    from _DEFAULTS, and exits with a usage error if a required one is
    still unset.  A config key that the subcommand has no flag for, a
    value that its flag would not accept, or workers below 1 is a data
    error; workers left unset reaches the stats drivers as None."""
    values = vars(args)
    if values.get("config"):
        for key, value in _read_config(args).items():
            values.setdefault(key, value)
    for key in args.flags:
        values.setdefault(key, _DEFAULTS.get(key))
    missing = [f"--{key}" for key in args.required if values[key] is None]
    if missing:
        parser.error(f"{args.command}: the following arguments are required: {', '.join(missing)}")
    workers = values.get("workers")
    if workers is not None and workers < 1:
        raise DataError(f"--workers must be >= 1, got {workers}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_args(args, parser)
        return args.func(args)
    except (DataError, zeros.ZeroDataError, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
