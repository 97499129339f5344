"""Command-line interface.

Subcommands: `run` executes a configured experiment (with its paired passive
twin) and writes curve/summary/trace files; `compare` does the same and
prints an active-vs-passive table; `probe` exposes the theory probes
(distance, disagreement coefficient, hard-instance generation, closed-form
bounds) as JSON. Exit codes: 0 success, 1 configuration error (a probe flag
value that its objects reject is one, as is an --out that cannot be made or
written, checked before an experiment runs), 2 runtime or solver error; argparse
also exits 2 on a malformed command line, such as a flag outside its choices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import theory
from .errors import ConfigError, DatasetFormatError, IwalError
from .harness import SLACK_MODES, ExperimentConfig, _built, emit_curves, run_replicates
from .hypotheses import LinearPredictor
from .instances import SphereInstance, lower_bound_instance
from .losses import LOSS_KINDS, LossFunction


def _apply_overrides(payload: dict, args) -> dict:
    for flag, key in (("seed", "seed"), ("strategy", "strategy"),
                      ("delta", "confidence"), ("pmin", "p_min"),
                      ("slack", "slack_mode")):
        if getattr(args, flag) is not None:
            payload[key] = getattr(args, flag)
    return payload


def _load_config(args) -> ExperimentConfig:
    try:
        with open(args.config) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    return ExperimentConfig.from_dict(_apply_overrides(payload, args))


def _make_out_dir(out: str) -> None:
    """Make the output directory before the experiment runs, so that an
    unusable --out is a config error up front."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from None


def _emit_all(reports, out) -> list:
    """Each report's output paths; file names carry the seed when replicated."""
    return [emit_curves(r, out, f"seed{r.seed}" if len(reports) > 1 else "")
            for r in reports]


def cmd_run(args) -> int:
    config = _load_config(args)
    _make_out_dir(args.out)
    reports, aggregate = run_replicates(config)
    for report, paths in zip(reports, _emit_all(reports, args.out)):
        print(f"seed {report.seed}: queries {report.active.queries}"
              f"/{report.steps} ({report.query_fraction():.1%}),"
              f" final test loss {report.active.final_loss:.4f}"
              f" -> {paths['summary']}")
    if len(reports) > 1:
        path = f"{args.out}/aggregate.json"
        with open(path, "w") as fh:
            json.dump(aggregate, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"aggregate -> {path}")
    return 0


def cmd_compare(args) -> int:
    config = _load_config(args)
    if args.out:
        _make_out_dir(args.out)
    reports, aggregate = run_replicates(config)
    if args.out:
        _emit_all(reports, args.out)
    header = f"{'seed':>6} {'queries':>9} {'fraction':>9} {'active':>10} {'passive':>10}"
    print(header)
    for r in reports:
        active = r.active.final_error if r.active.final_error is not None else r.active.final_loss
        passive = r.passive.final_error if r.passive.final_error is not None else r.passive.final_loss
        print(f"{r.seed:>6} {r.active.queries:>9} {r.query_fraction():>9.1%}"
              f" {active:>10.4f} {passive:>10.4f}")
    mean_active = aggregate["active_final_error_mean"]
    mean_passive = aggregate["passive_final_error_mean"]
    if mean_active is None:
        mean_active = aggregate["active_final_loss_mean"]
        mean_passive = aggregate["passive_final_loss_mean"]
    print(f"mean active {mean_active:.4f} vs passive {mean_passive:.4f}, "
          f"query fraction {aggregate['query_fraction_mean']:.1%}")
    return 0


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from None
        print(f"wrote {out}")
    else:
        print(text)


def _finite(bound: float) -> float | None:
    """A bound as JSON: null (None) when it has no finite value."""
    return bound if math.isfinite(bound) else None


def cmd_probe(args) -> int:
    """Run the chosen probe and emit its JSON; the ValueError of an object
    built from its flags is a config error."""
    _emit_json(_built(f"probe {args.probe_command}", args.probe, args), args.out)
    return 0


def probe_rho(args) -> dict:
    rng = np.random.default_rng(args.seed)
    instance = SphereInstance(dim=args.dim, noise=args.noise)
    xs, _ = instance.sample(rng, args.mc)
    loss = LossFunction(args.loss, args.range_bound)
    reference = instance.linear_reference(range_bound=args.range_bound)
    u = rng.normal(size=args.dim)
    u /= np.linalg.norm(u)
    other = LinearPredictor(u, args.range_bound)
    mean, stderr = theory.loss_distance_mc(reference, other, loss, xs)
    return {
        "distance": mean,
        "stderr": stderr,
        "mc_budget": args.mc,
        "dim": args.dim,
        "loss": args.loss,
        "seed": args.seed,
    }


def probe_theta(args) -> dict:
    if not 0.0 <= args.spread < math.inf:
        raise ValueError(f"spread must be finite and nonnegative, got {args.spread}")
    if args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    instance = SphereInstance(dim=args.dim, noise=args.noise)
    xs, _ = instance.sample(rng, args.mc)
    loss = LossFunction(args.loss, args.range_bound)
    reference = instance.linear_reference(scale=0.5, range_bound=args.range_bound)
    candidates = []
    for _ in range(args.samples):
        u = reference.weights + rng.normal(size=args.dim) * args.spread
        norm = np.linalg.norm(u)
        if norm > 1.0:
            u = u / norm
        candidates.append(LinearPredictor(u, args.range_bound))
    grid = [float(r) for r in args.radii.split(",")]
    result = theory.disagreement_coefficient(reference, candidates, xs, loss, grid)
    bound = theory.sphere_coefficient_bound(loss, args.dim)
    return {
        "per_radius": result["per_radius"],
        "supremum": result["supremum"],
        "sphere_bound": _finite(bound),
        "within_bound": result["supremum"] <= bound,
        "dim": args.dim,
        "mc_budget": args.mc,
        "samples": args.samples,
        "seed": args.seed,
    }


def probe_lower_bound(args) -> dict:
    rng = np.random.default_rng(args.seed)
    hard = lower_bound_instance(args.atoms, args.eta, args.eps, rng)
    return {
        "atoms": hard.instance.points.tolist(),
        "masses": hard.instance.masses.tolist(),
        "label_values": hard.instance.label_values.tolist(),
        "label_probs": hard.instance.label_probs.tolist(),
        "beta": hard.beta,
        "gamma": hard.gamma,
        "bits": hard.bits.tolist(),
        "optimal_error": hard.optimal_error,
        "seed": args.seed,
    }


def probe_bounds(args) -> dict:
    """The deviation bound, and the query bound when --theta, --asymmetry
    and --best-loss are all given; ValueError when only some of them are."""
    query_flags = {"--theta": args.theta, "--asymmetry": args.asymmetry,
                   "--best-loss": args.best_loss}
    missing = [flag for flag, value in query_flags.items() if value is None]
    if 0 < len(missing) < len(query_flags):
        raise ValueError(f"the query bound needs {', '.join(query_flags)}; "
                         f"missing {', '.join(missing)}")
    payload = {
        "deviation_bound": _finite(theory.loss_deviation_bound(
            args.pmin, args.class_size, args.delta, args.steps)),
    }
    if not missing:
        linear, sublinear = theory.expected_query_bound(
            args.theta, args.asymmetry, args.best_loss, args.steps,
            args.class_size, args.delta)
        payload["expected_query_bound"] = {
            "linear_term": _finite(linear),
            "sublinear_term": _finite(sublinear),
            "note": "sublinear constant reported as 1 by convention",
        }
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwal",
        description="Importance-weighted active learning experiments and probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, out, text in (
            ("run", cmd_run, "out", "run a configured experiment"),
            ("compare", cmd_compare, None, "paired active vs passive table")):
        experiment = sub.add_parser(name, help=text)
        experiment.add_argument("config", help="path to a JSON experiment config")
        experiment.add_argument("--out", default=out, help="output directory")
        experiment.add_argument("--seed", type=int)
        experiment.add_argument("--strategy")
        experiment.add_argument("--delta", type=float)
        experiment.add_argument("--pmin", type=float)
        experiment.add_argument("--slack", choices=SLACK_MODES)
        experiment.set_defaults(fn=fn)

    probe = sub.add_parser("probe", help="theory probes")
    probe_sub = probe.add_subparsers(dest="probe_command", required=True)

    rho = probe_sub.add_parser("rho", help="hypothesis distance estimate")
    rho.add_argument("--dim", type=int, default=5)
    rho.add_argument("--noise", type=float, default=0.0)
    rho.add_argument("--loss", default="logistic", choices=LOSS_KINDS)
    rho.add_argument("--range-bound", type=float, default=1.0)
    rho.add_argument("--mc", type=int, default=10000)
    rho.add_argument("--seed", type=int, default=0)
    rho.add_argument("--out", default=None)
    rho.set_defaults(fn=cmd_probe, probe=probe_rho)

    theta = probe_sub.add_parser("theta", help="disagreement coefficient table")
    theta.add_argument("--dim", type=int, default=5)
    theta.add_argument("--noise", type=float, default=0.0)
    theta.add_argument("--loss", default="logistic", choices=LOSS_KINDS)
    theta.add_argument("--range-bound", type=float, default=1.0)
    theta.add_argument("--mc", type=int, default=10000)
    theta.add_argument("--samples", type=int, default=200)
    theta.add_argument("--spread", type=float, default=0.3)
    theta.add_argument("--radii", default="0.05,0.1,0.2,0.4")
    theta.add_argument("--seed", type=int, default=0)
    theta.add_argument("--out", default=None)
    theta.set_defaults(fn=cmd_probe, probe=probe_theta)

    lb = probe_sub.add_parser("lower-bound-gen", help="emit a hard instance")
    lb.add_argument("--atoms", type=int, default=8)
    lb.add_argument("--eta", type=float, default=0.2)
    lb.add_argument("--eps", type=float, default=0.05)
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--out", default=None)
    lb.set_defaults(fn=cmd_probe, probe=probe_lower_bound)

    bounds = probe_sub.add_parser("bounds", help="closed-form bound values")
    bounds.add_argument("--pmin", type=float, required=True)
    bounds.add_argument("--class-size", type=int, required=True)
    bounds.add_argument("--delta", type=float, required=True)
    bounds.add_argument("--steps", type=int, required=True)
    bounds.add_argument("--theta", type=float, default=None)
    bounds.add_argument("--asymmetry", type=float, default=None)
    bounds.add_argument("--best-loss", type=float, default=None)
    bounds.add_argument("--out", default=None)
    bounds.set_defaults(fn=cmd_probe, probe=probe_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DatasetFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IwalError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
