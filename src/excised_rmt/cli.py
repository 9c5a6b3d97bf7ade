"""Command-line driver.

Subcommands mirror the experiment kinds: sample, onelevel, paircorr,
excise, discriminants, neff, compare.  Every run is a pure function of
its flags and seed; outputs are byte-identical across reruns and worker
counts (17-significant-digit decimals, LF line endings).  Each flag
declares its default where the parser declares the flag; ``--config``
supplies defaults for the subcommand's flags, and a flag given on the
command line wins.  ``--workers`` is the only source of the thread
count; left unset, the stats drivers use every usable core.

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import sys
import warnings

import numpy as np

from excised_rmt import arith, stats, theory, zeros
from excised_rmt.groups import GroupSpec, group_from_name
from excised_rmt.spectral import ExcisionRule, excise_mask

SAMPLE_HEADER = ",".join(stats.SAMPLE_DTYPE.names)
# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class DataError(RuntimeError):
    pass


def _keep_block_memory() -> None:
    """Lets glibc's malloc keep freed block memory in the process.

    A complex block (16 * stats._BLOCK_ELEMENTS bytes, 1 MiB) is above
    glibc's dynamic trim threshold, so each block's arrays would go back
    to the kernel and be faulted in again for the next block.  Arrays up
    to 4 blocks come from the heap, not mmap, and each arena keeps up to
    8 blocks of free memory.  Either threshold alone turns off glibc's
    dynamic thresholds and faults more than neither, so the trim one is
    set only if the mmap one was taken.  A no-op on any other libc.

    The setting is process-wide, so the program makes it (``main``, which
    the excised-rmt console script runs) and the library never does; an
    in-process caller of ``main`` inherits it.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    block_bytes = 16 * stats._BLOCK_ELEMENTS
    if mallopt(_M_MMAP_THRESHOLD, 4 * block_bytes):
        mallopt(_M_TRIM_THRESHOLD, 8 * block_bytes)


def _group_spec(args) -> GroupSpec:
    return GroupSpec(group_from_name(args.group), args.n)


def _write(path, chunks) -> None:
    """Writes an iterable of bytes chunks to path, or to stdout if path is
    None, each chunk as it comes."""
    if path is None:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
        return
    with open(path, "wb") as fh:
        fh.writelines(chunks)


@functools.cache
def _digit_codes(k: int) -> np.ndarray:
    """_digit_codes(k)[r] holds the k zero-padded ASCII digits of r, for
    0 <= r < 10**k and k = 1..4, as one little-endian uint32: the first
    digit in the lowest byte, zeros past the k-th.  Stored as '<u4', the
    table gives the same bytes on a big-endian host."""
    r = np.arange(10**k)
    codes = np.zeros(10**k, dtype="<u4")
    for j in range(k):
        codes |= (ord("0") + r // 10 ** (k - 1 - j) % 10).astype("<u4") << 8 * j
    codes.flags.writeable = False
    return codes


def _group_codes(values: np.ndarray, width: int) -> list:
    """The _digit_codes() entries of width-digit values, one array per
    group of four digits, right to left; the last, the lead group, holds
    the 1 to 4 digits that are left."""
    codes = []
    for _ in range((width - 1) // 4):
        # numpy divides by a scalar far faster than it takes remainders
        quot = values // 10**4
        group = quot * 10**4
        np.subtract(values, group, out=group)
        codes.append(_digit_codes(4)[group])
        values = quot
    codes.append(_digit_codes(width - 4 * len(codes))[values])
    return codes


def _decimal_lines(values: np.ndarray) -> bytes:
    """ASCII decimal of each value of a sorted non-negative int64 array,
    one per LF-terminated line.

    Values with the same number of digits w are contiguous, so each such
    slice is written as one byte array of w + 1 columns (padded to four
    while it is filled); one search for the 18 powers 10, ..., 10**18
    finds where every slice stops.  Division by 10**4 splits each value
    into groups of four digits, right to left, and each group is one
    4-byte store of its _digit_codes() entry, left to right.
    """
    # 10**19 exceeds int64, so every value past the last stop has 19 digits
    stops = np.searchsorted(values, 10 ** np.arange(1, 19)).tolist() + [values.size]
    chunks = []
    start = 0
    for width, stop in enumerate(stops, 1):
        if stop > start:
            codes = _group_codes(values[start:stop], width)
            # rows of at least four bytes; stored left to right, the lead
            # group's spare bytes are overwritten by the next store or the LF
            lines = np.empty((stop - start, max(width + 1, 4)), dtype=np.uint8)
            for i in reversed(range(len(codes))):
                end = max(4, width - 4 * i)
                lines[:, end - 4 : end].view("<u4")[:, 0] = codes[i]
            lines[:, width] = ord("\n")
            chunks.append(lines[:, : width + 1].tobytes())
            start = stop
    return b"".join(chunks)


def _sample_field_types() -> list:
    """int or float for each column of the sample table, in order: the
    integer fields of stats.SAMPLE_DTYPE are int, the others float."""
    dtype = stats.SAMPLE_DTYPE
    return [int if np.issubdtype(dtype[name], np.integer) else float for name in dtype.names]


def _sample_table_text(rows) -> str:
    """The sample CSV lines of rows: an int as is, a float to 17
    significant digits."""
    line = ",".join("{}" if kind is int else "{:.17g}" for kind in _sample_field_types()) + "\n"
    return "".join([line.format(*values) for values in rows.tolist()])


def _with_header(chunks):
    """The sample CSV's header line, then chunks."""
    yield f"{SAMPLE_HEADER}\n".encode()
    yield from chunks


def _sample_table_chunks(path):
    """Yields the rows of a sample CSV as SAMPLE_DTYPE arrays, one chunk of
    lines at a time."""
    with open(path) as fh:
        if fh.readline().strip() != SAMPLE_HEADER:
            raise DataError(f"{path}: expected header {SAMPLE_HEADER!r}")
        first_line = 2
        # lines of about _BLOCK_ELEMENTS bytes, some 700 rows: like a sampled
        # block, a chunk's memory does not grow with the table
        while lines := fh.readlines(stats._BLOCK_ELEMENTS):
            yield _read_sample_table(path, lines, first_line)
            first_line += len(lines)


def _read_sample_table(path, lines, first_line) -> np.ndarray:
    """The rows of lines, which are path's lines from line number first_line on.

    numpy's reader parses them.  Lines it refuses, a blank one among them,
    are parsed again one by one: blank lines are skipped, and each other
    line must hold five comma-separated fields that int() or float() take,
    or the DataError names it.
    """
    try:
        # numpy warns, rather than raises, on lines that hold no rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, delimiter=",", dtype=stats.SAMPLE_DTYPE, comments=None,
                              ndmin=1)
    except (ValueError, Warning):
        pass
    types = _sample_field_types()
    rows = []
    for lineno, line in enumerate(lines, start=first_line):
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

    def text(start, mats):
        # formatted on the thread that sampled the block
        return _sample_table_text(stats.summary_rows(spec, start, mats)).encode()

    blocks = stats._blocks(spec, args.count, args.seed, args.workers, text)
    # map keeps no block once it is written, so however late this thread
    # wakes, the block the pool thread builds next overlaps only the one
    # that waits to be written
    _write(args.out, _with_header(map(lambda block: block[1], blocks)))
    return 0


def cmd_onelevel(args) -> int:
    spec = _group_spec(args)
    hist = stats.one_level_density_mc(
        spec, args.count, args.seed, bins=args.bins, workers=args.workers
    )
    _write(args.out, [hist.to_csv_text().encode()])
    return 0


def cmd_paircorr(args) -> int:
    spec = _group_spec(args)
    hist = stats.pair_correlation_mc(
        spec, args.count, args.seed, window=args.window, bins=args.bins, workers=args.workers
    )
    _write(args.out, [hist.to_csv_text().encode()])
    return 0


def cmd_excise(args) -> int:
    rule = ExcisionRule(c=args.c, k=args.k, n_std=args.nstd)
    total, kept = 0, []
    for rows in _sample_table_chunks(args.input):
        total += rows.size
        kept.append(rows[excise_mask(rows["charpoly_abs"], rule)])
    _write(args.out, _with_header(_sample_table_text(rows).encode() for rows in kept))
    sys.stderr.write(
        f"kept {sum(rows.size for rows in kept)} of {total} (threshold {rule.threshold:.17g})\n"
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

    _write(args.out, lines())
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
    _write(args.out, [(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()])
    return 0


def cmd_compare(args) -> int:
    records = zeros.ingest_zero_list(args.zeros)
    zero_samples = zeros.lowest_zero_statistic(
        records, which=args.which, vanish_tol=args.vanish_tol
    )
    angles = [np.empty(0)]
    for rows in _sample_table_chunks(args.samples):
        first = rows["first_angle"]
        angles.append(first[np.isfinite(first)])
    ensemble = np.concatenate(angles)
    report = zeros.compare_report(zero_samples, ensemble, bins=args.bins)
    _write(args.out, [(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()])
    return 0


def _add_common(p, *, monte_carlo=True, bins=False):
    """--config and --out, plus --group, --n, --seed, --count and --workers
    for the subcommands that sample matrices."""
    p.add_argument("--config", help="JSON config supplying defaults for flags")
    if monte_carlo:
        p.add_argument("--group", help="so_even | so_odd | usp | unitary")
        p.add_argument("--n", type=int, help="half-size N")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--count", type=int, default=1000, help="number of samples")
        p.add_argument("--workers", type=int,
                       help="threads that sample blocks, capped at the usable cores "
                            "(default: all usable cores; output bytes do not depend on it)")
    if bins:
        p.add_argument("--bins", type=int, default=stats.DEFAULT_BINS, help="histogram bin count")
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Each flag declares its own default, None where it
    has none; ``required`` names the flags that the command line or the
    config must supply, and ``parser`` is the subcommand's own parser."""
    parser = argparse.ArgumentParser(
        prog="excised-rmt",
        description="Excised random-matrix model simulator for quadratic twist families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, required, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, required=required, parser=p)
        return p

    p = command("sample", cmd_sample, ("group", "n"),
                "sample matrices; write per-sample summaries")
    _add_common(p)

    p = command("onelevel", cmd_onelevel, ("group", "n"),
                "Monte Carlo one-level eigenangle density")
    _add_common(p, bins=True)

    p = command("paircorr", cmd_paircorr, ("group", "n"),
                "Monte Carlo pair correlation of eigenangles")
    p.add_argument("--window", type=float, default=5.0, help="window in mean spacings")
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
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=1)
    p.add_argument("--delta", type=int, choices=(1, -1), default=1)
    p.add_argument("--residue", type=int, default=1, help="residue class U mod M (generic case)")
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
        choices=zeros.SELECTORS,
        default="lowest",
        help="zero selector per record",
    )
    p.add_argument("--vanish-tol", type=float, dest="vanish_tol", default=1e-8)
    _add_common(p, monte_carlo=False, bins=True)
    return parser


def _read_config(args) -> dict:
    """The non-null values of args.config, each checked against the type
    and choices of its flag in the subcommand's parser."""
    data = _load_json_object(args.config, "config")
    if "kind" not in data:
        raise DataError("config must declare an experiment kind")
    kind = data.pop("kind")
    if kind != args.command:
        raise DataError(f"config kind {kind!r} does not match subcommand {args.command!r}")
    flags = {action.dest: action for action in args.parser._actions
             if action.dest not in ("help", "config")}
    foreign = sorted(set(data) - set(flags))
    if foreign:
        raise DataError(
            f"config sets {', '.join(map(repr, foreign))}, "
            f"which {args.command!r} has no flag for"
        )
    given = {key: value for key, value in data.items() if value is not None}
    for key, value in given.items():
        action = flags[key]
        _check_json_value("config", key, value, action.type)
        if action.choices is not None and value not in action.choices:
            raise DataError(
                f"config field {key!r} must be one of "
                f"{', '.join(map(repr, action.choices))}, got {value!r}"
            )
    return given


def main(argv=None) -> int:
    """Runs one subcommand.  A config becomes the subcommand's defaults and
    the command line is parsed again, so that a flag given there wins.  A
    required flag still unset is a usage error; a config key that the
    subcommand has no flag for, a value that its flag would not accept, or
    workers below 1 is a data error.  The subcommands that sample blocks
    first let glibc keep their freed block memory (_keep_block_memory)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**_read_config(args))
            args = parser.parse_args(argv)
        missing = [f"--{key}" for key in args.required if getattr(args, key) is None]
        if missing:
            parser.error(f"{args.command}: the following arguments are required: {', '.join(missing)}")
        workers = getattr(args, "workers", None)
        if workers is not None and workers < 1:
            raise DataError(f"--workers must be >= 1, got {workers}")
        if hasattr(args, "workers"):
            _keep_block_memory()
        return args.func(args)
    except (DataError, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
