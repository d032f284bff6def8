"""Command-line front end: reproducible experiments with CSV outputs.

Every run writes a manifest of flat key=value lines, one per setting its
subcommand reads; re-running with --config pointed at the manifest
reproduces the CSVs byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

from . import __version__
from . import approx, latgeo, orbitmeasure as om, spheremeasure as sm
from .errors import DiophlatError, InvalidInput, PrecisionExhausted, TooManyPoints
from .exact import _int_det
from .numberfield import make_field, power_tuple

EXIT_BROKEN_PIPE = 1
EXIT_DOMAIN = 2
EXIT_PRECISION = 3
EXIT_RESOURCE = 4


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x)


# a field's type annotation picks the parser of its flag and manifest value
_PARSERS = {"tuple[int, ...]": _ints, "int": int, "float": float, "str": str}
_COMMANDS = ("field", "scan", "measure", "orbit", "compare", "littlewood")


def _setting(default, commands=_COMMANDS, flag=None, help=None):
    """A RunConfig field read by the given subcommands; its flag is "--" + the
    field name with "-" for "_" unless given."""
    return field(default=default, metadata={"commands": commands, "flag": flag, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, with the subcommands that read it: each
    subcommand's flags and manifest lines are generated from these fields."""

    field_coeffs: tuple[int, ...] = _setting(
        (-1, -1, 1), flag="--coeffs", help="polynomial coefficients, constant first")
    precision_bits: int = _setting(192, flag="--bits")
    p: int = _setting(2, ("measure", "orbit", "compare", "littlewood"))
    k_range: tuple[int, ...] = _setting(
        (0,), ("measure", "orbit", "compare"), help="comma-separated k values")
    m_range: tuple[int, ...] = _setting((0, 1, 2), ("littlewood",), help="comma-separated m values")
    ell: int = _setting(1, ("scan",))
    epsilon: float = _setting(0.45, ("scan", "measure", "orbit", "compare"))
    T: float = _setting(10.0, ("scan", "measure", "compare"))
    K: int = _setting(1000, ("littlewood",))
    L: float = _setting(10.0, ("orbit", "compare"))
    N: int = _setting(1000, ("orbit", "compare"))
    seed: int = _setting(2026, ("orbit", "compare"))
    output_dir: str = _setting("out", flag="--out", help="output directory")

    def __post_init__(self):  # every level is checked before any file is written
        if min(self.k_range + self.m_range, default=0) < 0:
            raise InvalidInput("levels k and m must be nonnegative")

    @classmethod
    def read_by(cls, command: str):
        """The fields that command reads, in field order."""
        return [f for f in fields(cls) if command in f.metadata["commands"]]

    def save(self, path: str, command: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"command={command}\nversion={__version__}\n")
            for f in self.read_by(command):
                v = getattr(self, f.name)
                if isinstance(v, tuple):
                    v = ",".join(str(x) for x in v)
                elif isinstance(v, float):
                    v = repr(v)
                fh.write(f"{f.name}={v}\n")

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        """Read key=value lines; command, version and older manifests' threads=
        and conjugator=True are skipped, and any other key that is not a field
        raises. Every field is type-checked, also one its subcommand does not read."""
        values = {}
        with open(path) as fh:
            for line in fh:
                key, sep, raw = (x.strip() for x in line.partition("="))
                if sep and not key.startswith("#") and key not in ("command", "version", "threads"):
                    values[key] = raw
        if values.pop("conjugator", "True") != "True":
            raise ValueError("conjugator: orbit runs without the conjugator were removed")
        types = {f.name: f.type for f in fields(cls)}
        if unknown := sorted(values.keys() - types.keys()):
            raise ValueError(f"unknown keys {', '.join(unknown)}")
        return cls(**{k: _PARSERS[types[k]](v) for k, v in values.items()})


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@functools.cache  # the jobs of one process share each field and its tuple
def _build_tuple(coeffs: tuple[int, ...], bits: int):
    return power_tuple(make_field(list(coeffs), bits))


def _ensure_out(cfg: RunConfig, command: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg.save(os.path.join(cfg.output_dir, "manifest.txt"), command=command)
    return cfg.output_dir


def cmd_field(cfg: RunConfig) -> int:
    tup = _build_tuple(cfg.field_coeffs, cfg.precision_bits)
    field = tup.field
    B, bnorm = latgeo.embedding_lattice(tup)
    # |det B| of the exact mantissas (a float det(B) fails on ill-conditioned
    # fields) and its square, to the k <= 12 digits that 10**k E (2D + E) <= D**2
    # certifies, E the Hadamard bound on D of rows m_j off by e_j ulps
    D = abs(_int_det(tup.embed_mantissa))
    norms = [(math.isqrt(sum(x * x for x in row)) + 1, math.isqrt(sum(x * x for x in err)) + 1)
             for row, err in zip(tup.embed_mantissa, tup.embed_err_ulps)]
    E = math.prod(m + e for m, e in norms) - math.prod(m for m, _ in norms)
    k = next((k for k in range(12, 0, -1) if E * (2 * D + E) * 10**k <= D * D), 0)
    det = D / (1 << tup.dim * tup.frac_bits)
    print(f"polynomial coefficients (constant first): {list(cfg.field_coeffs)}")
    print(f"degree: {field.degree}  precision bits: {field.precision_bits}")
    print("roots: " + ", ".join(f"{r:.12g}" for r in field.root_floats()))
    print("tuple: " + ", ".join(f"{a:.12g}" for a in tup.alpha_floats()))
    print(f"|det B| = {det:.{max(k, 1)}g}")
    print(f"power-basis discriminant det(B)^2 = {det * det:.{max(k, 1)}g}")
    print(f"normalized covolume = {bnorm.covolume:.12g}")
    if not k:
        print(f"warning: {field.precision_bits} bits certify no digit of |det B|")
    if cfg.output_dir != "-":
        out = _ensure_out(cfg, "field")
        latgeo.save_matrix_csv(os.path.join(out, "embedding.csv"), B)
        latgeo.save_lattice_csv(os.path.join(out, "embedding_normalized.csv"), bnorm)
    return 0


def cmd_scan(cfg: RunConfig) -> int:
    tup = _build_tuple(cfg.field_coeffs, cfg.precision_bits)
    records = approx.scan_records(tup, cfg.ell, cfg.epsilon, cfg.T)
    wal = approx.sweep_weights(records, cfg.T)
    out = _ensure_out(cfg, "scan")
    approx.save_records_csv(os.path.join(out, "records.csv"), wal, tup.n)
    print(f"records: {len(wal.records)}")
    print(f"weight sum: {_fmt(sum(wal.weights))}  empty fraction: {_fmt(wal.empty_fraction)}")
    print(f"identity weight_sum + empty = {_fmt(sum(wal.weights) + wal.empty_fraction)}")
    return 0


def cmd_measure(cfg: RunConfig) -> int:
    tup = _build_tuple(cfg.field_coeffs, cfg.precision_bits)
    sm._check_csv_dim(tup.n)  # before the scans, which take long at n = 3
    out = _ensure_out(cfg, "measure")
    for k in cfg.k_range:
        mu = approx.direction_measure(tup, cfg.p, k, cfg.epsilon, cfg.T)
        path = os.path.join(out, f"measure_k{k}.csv")
        sm.save_measure_csv(path, mu)
        print(f"k={k}: atoms={mu.n_atoms} mass={_fmt(mu.total_mass)} -> {path}")
    return 0


def cmd_orbit(cfg: RunConfig) -> int:
    tup = _build_tuple(cfg.field_coeffs, cfg.precision_bits)
    out = _ensure_out(cfg, "orbit")
    U0 = latgeo.conjugator_data(tup).U0
    for k in cfg.k_range:
        base = latgeo.hecke_scaled_lattice(tup, cfg.p, k)
        samples = om.sample_orbit(base, cfg.L, cfg.N, cfg.seed)
        mu = om.pushforward_minvec(samples, cfg.epsilon, U0)
        path = os.path.join(out, f"orbit_measure_k{k}.csv")
        om.save_orbit_measure_csv(path, mu, samples, cfg.epsilon)
        print(f"k={k}: mass={_fmt(mu.total_mass)} atoms={mu.n_atoms} -> {path}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    tup = _build_tuple(cfg.field_coeffs, cfg.precision_bits)
    sm._check_csv_dim(tup.n)
    out = _ensure_out(cfg, "compare")
    U0 = latgeo.conjugator_data(tup).U0
    report = []
    for k in cfg.k_range:
        # samples first: their checks are cheap, the record scan is not
        base = latgeo.hecke_scaled_lattice(tup, cfg.p, k)
        samples = om.sample_orbit(base, cfg.L, cfg.N, cfg.seed)
        mu = approx.direction_measure(tup, cfg.p, k, cfg.epsilon, cfg.T)
        sm.save_measure_csv(os.path.join(out, f"measure_k{k}.csv"), mu)
        push = om.pushforward_minvec(samples, cfg.epsilon, U0)
        path = os.path.join(out, f"orbit_measure_k{k}.csv")
        om.save_orbit_measure_csv(path, push, samples, cfg.epsilon)
        lines = [f"k={k}", f"  time-average mass:  {_fmt(mu.total_mass)}",
                 f"  orbit-average mass: {_fmt(push.total_mass)}",
                 f"  mass difference:    {_fmt(abs(mu.total_mass - push.total_mass))}"]
        if mu.total_mass > 0 and push.total_mass > 0:
            dist = sm.distance(sm.normalize(mu), sm.normalize(push))
            lines.append(f"  normalized distance: {_fmt(dist)}")
        else:
            lines.append("  normalized distance: n/a (a side is the zero measure)")
        if tup.n == 2:
            for name, m in (("time-average", mu), ("orbit-average", push)):
                if m.total_mass > 0:
                    arc = sm.min_arc_mass(sm.normalize(m), math.pi / 8)
                    lines.append(f"  min arc mass (pi/8), {name}: {_fmt(arc)}")
        report.extend(lines)
    text = "\n".join(report)
    print(text)
    with open(os.path.join(out, "compare.txt"), "w") as fh:
        fh.write(text + "\n")
    return 0


def cmd_littlewood(cfg: RunConfig) -> int:
    tup = _build_tuple(cfg.field_coeffs, cfg.precision_bits)
    out = _ensure_out(cfg, "littlewood")
    minima = approx.record_minima(tup, cfg.p, cfg.K)
    approx.save_minima_csv(os.path.join(out, "minima.csv"), minima)
    print(f"running minima of (k |k|_p)^(1/n) |<k a>| for k <= {cfg.K}:")
    for k, v in minima:
        print(f"  k={k}  value={_fmt(v)}")
    rows = []
    for m in cfg.m_range:
        ell = cfg.p**m
        val, arg = approx.scaled_minima(tup, ell, cfg.K)
        scaled = ell ** (1.0 / tup.n) * val
        rows.append((m, ell, arg, val, scaled))
    with open(os.path.join(out, "scaled.csv"), "w") as fh:
        fh.write("m,ell,argmin_k,min_value,scaled_value\n")
        for m, ell, arg, val, scaled in rows:
            fh.write(f"{m},{ell},{arg},{_fmt(val)},{_fmt(scaled)}\n")
    if rows:
        print("scaled minima ell^(1/n) * min_k k^(1/n) |<k ell a>|:")
        for m, ell, arg, val, scaled in rows:
            print(f"  m={m} ell={ell}: min={_fmt(val)} at k={arg}, scaled={_fmt(scaled)}")
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diophlat",
        description="Diophantine approximation records and lattice dynamics at desk scale",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        # accepted so older command lines keep working; every run is one process
        p.add_argument("--threads", type=int, default=None)
        for f in RunConfig.read_by(name):
            flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, metavar=flag[2:].upper().replace("-", "_"),
                           type=_PARSERS[f.type], default=None, help=f.metadata["help"])
    return ap


def _config_from_args(args) -> RunConfig:
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
    except (OSError, ValueError) as exc:
        _parser().error(f"--config {args.config}: {exc}")
    updates = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if getattr(args, f.name, None) is not None}
    return replace(cfg, **updates)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a negative level given as a flag raises InvalidInput here
        cfg = _config_from_args(args)
        # looked up at call time, so that a wrapper set on the module runs
        status = globals()[f"cmd_{args.command}"](cfg)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return status
    except BrokenPipeError:
        # the interpreter's flush at exit writes to devnull and cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except TooManyPoints as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DiophlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
