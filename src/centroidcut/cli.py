"""Command-line surface: compute, verify, sweep, export.

Exit codes: 0 success, 1 unparseable input, 2 degenerate body, 3 failed
bound certificate (never expected; signals an implementation bug), 4
verification-suite failure.  Output is assembled fully before anything is
written, so nonzero exits leave no partial files.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .asymmetry import SearchConfig, rho_centroid, rho_min
from .errors import BadSpec, BadValue, CentroidCutError, DegenerateInput
from .floating import DIRECTION_MODES, floating_body_approx, is_nonempty, phi_estimate
from .generators import BodySpec, make
from .geometry import Polytope, as_fraction, format_fraction
from .profiles import MomentSpec, brute_force_extremals, is_feasible, max_mu, min_mu
from .svgplot import body_svg, profiles_svg
from .verify import SUITES, run_suites

_BODY_ALIASES = {
    "square": ("cube", 2),
    "cube": ("cube", None),
    "simplex": ("simplex", None),
    "cross": ("cross", None),
    "cross-polytope": ("cross", None),
    "pyramid": ("pyramid", None),
    "random": ("random-hull", None),
    "random-hull": ("random-hull", None),
    "profile-body": ("profile-body", None),
}


def _convert(obj):
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, dict):
        return {k: _convert(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_convert(v) for v in obj]
    return obj


def render_json(obj) -> str:
    return json.dumps(_convert(obj), sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, text: str):
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)


def _add_body_args(p: argparse.ArgumentParser):
    p.add_argument("--body", type=str, default=None,
                   help="simplex | cube | square | cross | pyramid | random | profile-body")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=10, help="point draws for random hulls")
    p.add_argument("--height", type=str, default="1", help="pyramid apex height (rational)")
    p.add_argument("--base", type=str, default="cube", help="pyramid base family")
    p.add_argument("--profile", type=str, default=None,
                   help='profile-body data as JSON [[t...],[h...]] with rationals')
    p.add_argument("--input", type=str, default=None,
                   help="polytope JSON or body-spec JSON file")


def resolve_body(args) -> Polytope:
    if args.input:
        try:
            data = json.loads(Path(args.input).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadSpec(f"cannot read body input: {exc}") from exc
        if isinstance(data, dict) and "kind" in data:
            return make(BodySpec.from_dict(data))
        if not isinstance(data, dict):
            raise BadSpec("body input must be a JSON object")
        return Polytope.from_dict(data)
    if not args.body:
        raise BadSpec("provide --body KIND or --input FILE")
    try:
        kind, forced_n = _BODY_ALIASES[args.body]
    except KeyError:
        raise BadSpec(f"unknown body {args.body!r}") from None
    profile = None
    if args.profile is not None:
        try:
            raw = json.loads(args.profile)
            profile = (tuple(raw[0]), tuple(raw[1]))
        except (json.JSONDecodeError, IndexError, TypeError) as exc:
            raise BadSpec(f"bad --profile payload: {exc}") from exc
    spec = BodySpec(kind=kind, n=forced_n or args.n, m=args.m, seed=args.seed,
                    height=args.height, base=args.base, profile=profile)
    return make(spec)


def _search_config(args) -> SearchConfig:
    if not 0 < args.tol < math.inf:
        raise BadSpec(f"tolerance must be finite and positive, got {args.tol}")
    return SearchConfig(seed=args.seed, tol=args.tol)


def cmd_rho(args) -> int:
    body = resolve_body(args)
    report = rho_centroid(body, _search_config(args))
    payload = report.to_dict()
    payload["volume"] = body.volume
    _emit(args, render_json(payload))
    if report.rho_exact > report.rho_n:
        return 3
    return 0


def cmd_rho_min(args) -> int:
    body = resolve_body(args)
    result = rho_min(body, _search_config(args))
    _emit(args, render_json(result.to_dict()))
    if result.report.rho_exact > result.report.rho_n:
        return 3
    return 0


def cmd_phi(args) -> int:
    body = resolve_body(args)
    cfg = _search_config(args)
    payload = phi_estimate(body, cfg).to_dict()
    payload["phi_from_rho_min"] = rho_min(body, cfg).report.phi
    _emit(args, render_json(payload))
    return 0


def cmd_floatbody(args) -> int:
    body = resolve_body(args)
    delta = as_fraction(args.delta)
    approx = floating_body_approx(body, delta, n_dirs=args.budget,
                                  seed=args.seed, directions=args.dirs)
    if args.format == "svg":
        if body.dim != 2:
            raise BadSpec("SVG output needs a 2-D body")
        _emit(args, body_svg(body, approx))
        return 0
    payload = approx.to_dict()
    nonempty, witness = is_nonempty(approx)
    payload["nonempty"] = nonempty
    if witness is not None:
        payload["witness"] = [format_fraction(c) for c in witness]
    if args.format == "csv":
        lines = ["theta,t_lo,t_hi"]
        for c in approx.cuts:
            lines.append(f"\"{list(c.theta)}\",{format_fraction(c.lo)},{format_fraction(c.hi)}")
        _emit(args, "\n".join(lines) + "\n")
        return 0
    _emit(args, render_json(payload))
    return 0


def cmd_lemma5(args) -> int:
    exact = (as_fraction(args.M), as_fraction(args.m))
    try:
        M, m = (float(q) for q in exact)
        # a nonzero value that underflows to 0.0 is as far out of range as an overflow
        in_range = all((v == 0) == (q == 0) for v, q in zip((M, m), exact))
    except OverflowError:
        in_range = False
    if not in_range:
        raise BadValue(f"--M and --m must lie in float range, got {args.M} and {args.m}")
    spec = MomentSpec(M=M, m=m, n=args.n)
    payload: dict = {"M": args.M, "m": args.m, "n": args.n,
                     "feasible": is_feasible(spec)}
    if payload["feasible"]:
        lo = min_mu(spec)
        hi = max_mu(spec)
        payload.update(mu_min=lo.mu, b_min_profile=lo.b, mu_max=hi.mu,
                       b_max_profile=hi.b)
        if args.trials:
            bf = brute_force_extremals(spec, grid_size=args.grid,
                                       trials=args.trials, seed=args.seed)
            payload.update(oracle_mu_lo=bf.mu_lo, oracle_mu_hi=bf.mu_hi,
                           oracle_b_lo=bf.b_lo, oracle_b_hi=bf.b_hi,
                           oracle_kept=bf.kept)
        if args.format == "svg":
            curves = [
                ("min", list(lo.profile.grid), list(lo.profile.values)),
                ("max", list(hi.profile.grid), list(hi.profile.values)),
            ]
            _emit(args, profiles_svg(curves))
            return 0
        if args.format == "csv":
            lines = ["profile,t,h"]
            for label, prof in (("min", lo.profile), ("max", hi.profile)):
                for t, h in zip(prof.grid, prof.values):
                    lines.append(f"{label},{t!r},{h!r}")
            _emit(args, "\n".join(lines) + "\n")
            return 0
    _emit(args, render_json(payload))
    return 0


def cmd_gen(args) -> int:
    _emit(args, render_json(resolve_body(args).to_dict()))
    return 0


def cmd_verify(args) -> int:
    names = [s.strip() for s in args.suite.split(",")]
    unknown = [s for s in names if s not in SUITES and s != "all"]
    if unknown:
        raise BadSpec(f"unknown suite(s) {unknown}; choose from {SUITES + ('all',)}")
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise BadValue(f"--dims must be a comma list of integers, got {args.dims!r}") from None
    results = run_suites(names, bodies_count=args.bodies, dims=dims,
                         seed=args.seed, n_dirs=args.budget, trials=args.trials,
                         support_dirs=args.support_dirs)
    width = max(len(r.name) for r in results)
    lines = []
    all_ok = True
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name.ljust(width)}  {r.passed} passed, {r.failed} failed")
        all_ok &= r.ok
        for note in r.notes:
            lines.append(f"      {note}")
    lines.append("OK" if all_ok else "FAILED")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if all_ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centroidcut",
        description="Centroid hyperplane cuts, volume-split asymmetry and "
                    "convex floating bodies of polytopes, in exact arithmetic.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
            ("rho", "centroid cut-ratio report", cmd_rho),
            ("rho-min", "minimize the cut ratio over interior points", cmd_rho_min),
            ("phi", "floating-body threshold estimate", cmd_phi)):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        _add_body_args(p)
        p.add_argument("--tol", type=float, default=1e-9,
                       help="Nelder-Mead function tolerance of the searches")
        p.set_defaults(func=func)

    p = sub.add_parser("floatbody", help="outer approximation of K^delta")
    _add_common(p)
    _add_body_args(p)
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p.add_argument("--delta", type=str, required=True, help="fraction in (0,1/2], e.g. 1/4")
    p.add_argument("--dirs", choices=DIRECTION_MODES, default="auto")
    p.add_argument("--budget", type=int, default=None,
                   help="least number of directions in auto mode, at least 2n; axes "
                        "and facet normals are always kept, so more may be used")
    p.set_defaults(func=cmd_floatbody)

    p = sub.add_parser("lemma5", help="concave-profile mass extremals")
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p.add_argument("--M", type=str, required=True, help="moment target (rational)")
    p.add_argument("--m", type=str, required=True, help="initial slope cap (rational)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--trials", type=int, default=0, help="oracle trials (0 = skip)")
    p.set_defaults(func=cmd_lemma5)

    p = sub.add_parser("verify", help="run invariant suites over generated fleets")
    _add_common(p)
    p.add_argument("--suite", type=str, default="all",
                   help=f"comma list from {SUITES + ('all',)}")
    p.add_argument("--bodies", type=int, default=200)
    p.add_argument("--dims", type=str, default="2,3,4")
    p.add_argument("--budget", type=int, default=16, help="floatbody direction budget")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--support-dirs", dest="support_dirs", type=int, default=20)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a generated body as polytope JSON")
    _add_common(p)
    _add_body_args(p)
    p.add_argument("--kind", dest="body", help="alias for --body")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except DegenerateInput as exc:
        sys.stderr.write(f"degenerate body: {exc}\n")
        return 2
    except CentroidCutError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
