"""Command-line front end.

Subcommands
    profile   construct a closed-form family, sample it, write CSV/JSON
    classify  weak/strong existence verdicts for a family at a point
    solve     shooting computation of a numeric compacton
    verify    weak-form residual battery for closed-form or numeric profiles
    table1    full existence table of the fourteen families
    region    admissibility verdicts over a sweep of the free power

Exit codes: 0 success, 2 invalid parameters, 3 procedure rejection
(sign/concavity/existence, or a crest beyond the float range),
4 verification failure.

The environment variable COMPACTONS_OUTPUT_DIR sets the default output
directory; a config file of key=value lines (``<subcommand> --config``)
supplies defaults, checked as the flags they stand for, that explicit
flags override; keys the subcommand has no flag for are ignored.
Regular files are written atomically,
through symlinks; devices and FIFOs are written in place.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys

from . import catalog, existence, shooting, weakform
from .elliptic import DomainError
from .params import EquationParams, InvalidParameters, ProcedureRejection, WaveSpec

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_REJECTED = 3
EXIT_VERIFY_FAILED = 4

ENV_OUTPUT_DIR = "COMPACTONS_OUTPUT_DIR"

_FAMILY_CHOICES = [f.value for f in catalog.FamilyId]


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; readers see the old or the new file.

    A symlink is written through: its resolved target is replaced and the
    link kept.  An existing path that is not a regular file (a character
    device, a FIFO) is written in place.  A replaced file keeps its mode;
    a new one gets the mode the umask allows.
    """
    if os.path.islink(path):
        path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as fh:
            fh.write(text)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.urandom(8).hex()}")
    # O_EXCL: never write through something already at the temp name;
    # 0o666 lets the umask decide a new file's mode, as open() does
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(ENV_OUTPUT_DIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_config(path: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise InvalidParameters(f"cannot read config {path}: {exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParameters(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _config_flags(config: dict[str, str], args: argparse.Namespace) -> list[str]:
    """The config entries the parsed subcommand takes, written as its flags.

    A key the subcommand has no flag for is ignored.  A flag that takes
    no value (``--numeric``) is set by ``key=true``.
    """
    flags = []
    for key, value in config.items():
        if key in vars(args) and key not in ("command", "func", "config"):
            flag = "--" + key.replace("_", "-")
            valueless = isinstance(getattr(args, key), bool) and value == "true"
            flags.append(flag if valueless else f"{flag}={value}")
    return flags


def _wave_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--c", type=float, default=None,
                     help="wave speed (K equation; sets g = c)")
    sub.add_argument("--g", type=float, default=None,
                     help="effective wave constant directly")
    sub.add_argument("--mu", type=float, default=None,
                     help="transverse slope (KP)")
    sub.add_argument("--nu", type=float, default=None,
                     help="wave speed (KP)")
    sub.add_argument("--sigma", type=int, default=None, choices=(-1, 1),
                     help="transverse sign (KP)")


def _wave_spec(args) -> WaveSpec:
    has_c = args.c is not None
    has_kp = args.mu is not None or args.nu is not None
    if has_c and has_kp:
        raise InvalidParameters("give either --c or (--mu, --nu, --sigma), not both")
    if has_kp:
        if args.mu is None or args.nu is None or args.sigma is None:
            raise InvalidParameters("KP waves need all of --mu, --nu, --sigma")
        spec = WaveSpec.for_KP(args.mu, args.nu, args.sigma)
        if args.g is not None and args.g != spec.g:
            raise InvalidParameters(
                f"--g {args.g} contradicts nu - sigma*mu**2 = {spec.g}"
            )
        return spec
    if has_c:
        if args.g is not None and args.g != args.c:
            raise InvalidParameters(f"--g {args.g} contradicts --c {args.c}")
        return WaveSpec.for_K(args.c)
    return WaveSpec.for_K(args.g if args.g is not None else 1.0)


def _catalog_profile(args, spec: WaveSpec) -> catalog.ClosedFormProfile:
    return catalog.construct(catalog.FamilyId(args.family), n=args.n, m=args.m,
                             a=args.a, b=args.b, g=spec.g, kind=spec.kind,
                             sigma=args.sigma if spec.kind == "KP" else None)


def _equation_params(args, spec: WaveSpec) -> EquationParams:
    return EquationParams(m=args.m, n=args.n, a=args.a, b=args.b, kind=spec.kind,
                          sigma=args.sigma if spec.kind == "KP" else None)


def _emit(text: str, output: str | None) -> None:
    path = _resolve_output(output)
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_profile(args) -> int:
    prof = _catalog_profile(args, _wave_spec(args))
    sampled = catalog.sample(prof, args.count)
    text = sampled.to_json() if args.format == "json" else sampled.to_csv()
    output = args.output
    if output is None:
        output = f"profile_{args.family}.{args.format}"
    print(f"family={prof.family.value} m={prof.params.m:g} n={prof.params.n:g} "
          f"g={prof.g:g}")
    print(f"alpha={prof.alpha!r} beta={prof.beta!r}")
    print(f"L={prof.L!r} p={prof.p:g}")
    _emit(text, output)
    return EXIT_OK


def cmd_classify(args) -> int:
    family = catalog.FamilyId(args.family)
    rep = existence.classify_family(family, n=args.n, m=args.m,
                                    a=args.a, b=args.b, g=args.g)
    payload = {
        "family": family.value,
        "p": rep.p,
        "weak_K": rep.weak_K,
        "strong_K": rep.strong_K,
        "weak_KP_case": rep.weak_KP,
        "weak_KP": rep.weak_KP is not None,
        "strong_KP": rep.strong_KP,
        "U0_constraint": rep.U0_constraint,
        "reasons": list(rep.reasons),
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        def mark(flag):
            return "yes" if flag else "no"
        lines = [
            f"family      {family.value}",
            f"p           {rep.p:g}",
            f"weak K      {mark(rep.weak_K)}",
            f"strong K    {mark(rep.strong_K)}",
            f"weak KP     {mark(rep.weak_KP is not None)}"
            + (f" (condition {rep.weak_KP})" if rep.weak_KP is not None else ""),
            f"strong KP   {mark(rep.strong_KP)}",
        ]
        for reason in rep.reasons:
            lines.append(f"  - {reason}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    spec = _wave_spec(args)
    tol = shooting.ShootTolerances(rtol=args.rtol, grid_points=args.grid_points)
    nc = shooting.shoot(_equation_params(args, spec), spec.g, tolerances=tol)
    print(f"V0={nc.V0!r}")
    print(f"L_quadrature={nc.L_quadrature!r} L_shoot={nc.L_shoot!r}")
    print(f"energy_residual_max={nc.energy_residual_max:.3e}")
    print("cutoff_residuals="
          + ",".join(f"{r:.3e}" for r in nc.cutoff_residuals))
    text = nc.to_json() if args.format == "json" else nc.to_csv()
    output = args.output
    if output is None:
        output = f"solve_m{args.m:g}_n{args.n:g}.{args.format}"
    _emit(text, output)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 0.0 < args.threshold < float("inf"):
        raise InvalidParameters(
            f"--threshold must be finite and positive, got {args.threshold:g}")
    spec = _wave_spec(args)
    if args.numeric:
        if args.m is None or args.n is None:
            raise InvalidParameters("--numeric verification needs --m and --n")
        prof = shooting.inverse_beta_profile(_equation_params(args, spec), spec.g)
        label = f"numeric m={args.m:g} n={args.n:g}"
    else:
        if args.family is None:
            raise InvalidParameters("verify needs --family or --numeric")
        prof = _catalog_profile(args, spec)
        label = prof.family.value
    equations = ("K", "KP") if args.equation == "both" else (args.equation,)
    reports = {}
    failed = False
    for eq in equations:
        rep = weakform.verify_weak(prof, prof.params, prof.g, prof.L, eq)
        ok = rep.max_abs_scaled < args.threshold
        failed = failed or not ok
        reports[eq] = rep
        print(f"{label} [{eq}] max scaled residual {rep.max_abs_scaled:.3e} "
              f"(threshold {args.threshold:g}) -> {'pass' if ok else 'FAIL'}")
    try:
        bq = list(weakform.boundary_quantities(prof, prof.params, prof.g, prof.L))
        print("boundary A1..A4: " + ", ".join(f"{q:.3e}" for q in bq))
    except InvalidParameters as exc:
        # as for the fit below: a diagnostic that cannot be computed
        bq = None
        print(f"boundary A1..A4: unavailable ({exc})")
    try:
        pfit = weakform.endpoint_power_fit(prof, prof.L)
        print(f"endpoint power fit: {pfit:.4f}")
    except InvalidParameters as exc:
        # the profile underflows before the fit's samples: a diagnostic
        # that cannot be computed, not an invalid request
        pfit = None
        print(f"endpoint power fit: unavailable ({exc})")
    if args.output is not None:
        payload = {
            "profile": label,
            "threshold": args.threshold,
            "passed": not failed,
            "boundary_quantities": bq,
            "endpoint_power_fit": pfit,
            "reports": {eq: json.loads(rep.to_json())
                        for eq, rep in reports.items()},
        }
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.output)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _table1_rows(families) -> list[dict]:
    rows = []
    for fam in families:
        iv = existence.table1_intervals(fam)
        rows.append({
            "family": fam.value,
            "param": iv["param"],
            "weak_K": str(iv["weak_K"]),
            "strong_K": str(iv["strong_K"]),
            "weak_KP": str(iv["weak_KP"]),
            "strong_KP": str(iv["strong_KP"]),
        })
    return rows


def cmd_table1(args) -> int:
    families = ([catalog.FamilyId(args.family)] if args.family
                else list(catalog.FamilyId))
    rows = _table1_rows(families)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["family", "param", "weak_K", "strong_K",
                    "weak_KP", "strong_KP"])
        for r in rows:
            w.writerow([r["family"], r["param"], r["weak_K"],
                        r["strong_K"], r["weak_KP"], r["strong_KP"]])
        text = buf.getvalue()
    _emit(text, args.output)
    return EXIT_OK


def cmd_region(args) -> int:
    rows = existence.region_grid(catalog.FamilyId(args.family),
                                 args.n_min, args.n_max, args.steps)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = existence.region_grid_csv(rows)
    output = args.output
    if output is None:
        output = f"region_{args.family}.{args.format}"
    _emit(text, output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compactons",
        description="Compacton construction, classification, and verification "
                    "for the K(m,n) and KP(m,n) equations.",
    )
    cfg_parent = argparse.ArgumentParser(add_help=False)
    cfg_parent.add_argument("--config", default=None,
                            help="key=value file of defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[cfg_parent], **kw))

    def common(p, family_required=True):
        if family_required:
            p.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
        p.add_argument("--n", type=float, default=None)
        p.add_argument("--m", type=float, default=None)
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--b", type=float, default=1.0)
        p.add_argument("--output", "-o", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("profile", help="construct and sample a closed-form family")
    common(p)
    _wave_flags(p)
    p.add_argument("--count", type=int, default=401,
                   help="samples across the support (default 401)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("classify", help="existence verdicts at one point")
    common(p)
    p.add_argument("--g", type=float, default=1.0)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="shooting computation of a numeric compacton")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--grid-points", type=int, default=801)
    _wave_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="weak-form residual battery")
    common(p, family_required=False)
    p.add_argument("--family", choices=_FAMILY_CHOICES, default=None)
    p.add_argument("--numeric", action="store_true",
                   help="verify the numeric compacton at (--m, --n), the "
                        "inverse incomplete beta profile of its first integral, "
                        "instead of a closed-form family")
    p.add_argument("--equation", choices=("K", "KP", "both"), default="K")
    p.add_argument("--threshold", type=float, default=1e-7)
    _wave_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table1", help="existence table of all families")
    p.add_argument("--family", choices=_FAMILY_CHOICES, default=None)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("region", help="verdict sweep over the free power")
    p.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    p.add_argument("--n-min", type=float, required=True)
    p.add_argument("--n-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_region)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the top level takes no option, so argv[0] is the subcommand;
            # config entries go in as its first flags, where argparse checks
            # them like flags and the command line's own flags override them
            flags = _config_flags(_load_config(args.config), args)
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        return args.func(args)
    except (InvalidParameters, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ProcedureRejection as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
