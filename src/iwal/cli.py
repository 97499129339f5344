"""Command-line interface.

`run` executes a configured experiment with its paired passive twin, and
`compare` does the same and prints an active-vs-passive table. Both write the
same files into --out (`run` defaults to `out`; `compare` writes none without
one): each replicate's curve, summary and trace, with the seed in their names
when replicated, and then `aggregate.json`. A run that fails removes the --out
directories it made, still empty then, and no other. `probe` emits a theory
probe (distance, disagreement coefficient, hard-instance generation, closed-form
bounds) as JSON, to stdout or to the --out file. Exit codes: 0 success, 1
configuration error (a probe flag value that its objects reject is one, as is an
--out that cannot be made or written, checked before an experiment runs), 2
runtime or solver error; argparse also exits 2 on a malformed command line,
such as a flag outside its choices.
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
from .harness import (SLACK_MODES, ExperimentConfig, _built, emit_curves,
                      run_replicates, write_json)
from .hypotheses import LinearPredictor
from .instances import SphereInstance, lower_bound_instance
from .losses import LOSS_KINDS, LossFunction


def _load_config(args) -> ExperimentConfig:
    """The config file's experiment, with each flag given overriding its key."""
    try:
        with open(args.config) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    for flag, key in (("seed", "seed"), ("strategy", "strategy"),
                      ("delta", "confidence"), ("pmin", "p_min"),
                      ("slack", "slack_mode")):
        if getattr(args, flag) is not None:
            payload[key] = getattr(args, flag)
    return ExperimentConfig.from_dict(payload)


def _make_out_dir(out: str) -> list:
    """Make --out, and any missing parent, before the experiment runs, so that
    an unusable --out is a config error up front; returns the directories
    made, deepest first."""
    made, path = [], os.path.abspath(out)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from None
    return made


def _experiment(args):
    """Load the config, make --out, run every replicate and write its files.
    Returns (reports, aggregate, paths): paths holds each report's summary
    path, then aggregate.json's when replicated, and none without an --out."""
    config = _load_config(args)
    made = [] if args.out is None else _make_out_dir(args.out)
    try:
        reports, aggregate = run_replicates(config)
    except IwalError:
        for path in made:
            os.rmdir(path)
        raise
    if args.out is None:
        return reports, aggregate, []
    replicated = len(reports) > 1
    paths = [emit_curves(r, args.out, f"seed{r.seed}" if replicated else "")["summary"]
             for r in reports]
    if replicated:
        paths.append(os.path.join(args.out, "aggregate.json"))
        write_json(aggregate, paths[-1])
    return reports, aggregate, paths


def cmd_run(args) -> int:
    reports, _, paths = _experiment(args)
    for report, path in zip(reports, paths):
        print(f"seed {report.seed}: queries {report.active.queries}"
              f"/{report.steps} ({report.query_fraction():.1%}),"
              f" final test loss {report.active.final_loss:.4f} -> {path}")
    if len(reports) > 1:
        print(f"aggregate -> {paths[-1]}")
    return 0


def cmd_compare(args) -> int:
    reports, aggregate, _ = _experiment(args)
    print(f"{'seed':>6} {'queries':>9} {'fraction':>9} {'active':>10} {'passive':>10}")
    for r in reports:
        active = r.active.final_error if r.active.final_error is not None else r.active.final_loss
        passive = r.passive.final_error if r.passive.final_error is not None else r.passive.final_loss
        print(f"{r.seed:>6} {r.active.queries:>9} {r.query_fraction():>9.1%}"
              f" {active:>10.4f} {passive:>10.4f}")
    mean = "error" if aggregate["active_final_error_mean"] is not None else "loss"
    print(f"mean active {aggregate[f'active_final_{mean}_mean']:.4f} vs passive "
          f"{aggregate[f'passive_final_{mean}_mean']:.4f}, "
          f"query fraction {aggregate['query_fraction_mean']:.1%}")
    return 0


def _finite(bound: float) -> float | None:
    """A bound as JSON: null (None) when it has no finite value."""
    return bound if math.isfinite(bound) else None


def cmd_probe(args) -> int:
    """Run the chosen probe and emit its JSON; the ValueError of an object
    built from its flags is a config error."""
    write_json(_built(f"probe {args.probe_command}", args.probe, args), args.out)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _sphere_sample(args):
    """(rng, instance, xs, loss) of the sphere probes: --mc points of the
    instance, drawn first from the --seed rng, and the --loss."""
    rng = np.random.default_rng(args.seed)
    instance = SphereInstance(dim=args.dim, noise=args.noise)
    xs, _ = instance.sample(rng, args.mc)
    return rng, instance, xs, LossFunction(args.loss, args.range_bound)


def probe_rho(args) -> dict:
    rng, instance, xs, loss = _sphere_sample(args)
    reference = instance.linear_reference(range_bound=args.range_bound)
    u = rng.normal(size=args.dim)
    u /= np.linalg.norm(u)
    other = LinearPredictor(u, args.range_bound)
    mean, stderr = theory.loss_distance_mc(reference, other, loss, xs)
    return {"distance": mean, "stderr": stderr, "mc_budget": args.mc,
            "dim": args.dim, "loss": args.loss, "seed": args.seed}


def probe_theta(args) -> dict:
    if not 0.0 <= args.spread < math.inf:
        raise ValueError(f"spread must be finite and nonnegative, got {args.spread}")
    if args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")
    rng, instance, xs, loss = _sphere_sample(args)
    reference = instance.linear_reference(scale=0.5, range_bound=args.range_bound)
    candidates = []
    for _ in range(args.samples):
        # a draw near the reference, pulled back into the unit ball
        u = reference.weights + rng.normal(size=args.dim) * args.spread
        candidates.append(LinearPredictor(u / max(1.0, np.linalg.norm(u)),
                                          args.range_bound))
    grid = [float(r) for r in args.radii.split(",")]
    result = theory.disagreement_coefficient(reference, candidates, xs, loss, grid)
    bound = theory.sphere_coefficient_bound(loss, args.dim)
    return {"per_radius": result["per_radius"], "supremum": result["supremum"],
            "sphere_bound": _finite(bound), "within_bound": result["supremum"] <= bound,
            "dim": args.dim, "mc_budget": args.mc, "samples": args.samples,
            "seed": args.seed}


def probe_lower_bound(args) -> dict:
    rng = np.random.default_rng(args.seed)
    hard = lower_bound_instance(args.atoms, args.eta, args.eps, rng)
    atoms = hard.instance
    return {"atoms": atoms.points.tolist(), "masses": atoms.masses.tolist(),
            "label_values": atoms.label_values.tolist(),
            "label_probs": atoms.label_probs.tolist(), "beta": hard.beta,
            "gamma": hard.gamma, "bits": hard.bits.tolist(),
            "optimal_error": hard.optimal_error, "seed": args.seed}


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
    probe.set_defaults(fn=cmd_probe)
    probe_sub = probe.add_subparsers(dest="probe_command", required=True)
    # the probes' shared flags: --out for all, --seed for the random ones,
    # and the sphere, loss and sample size of rho and theta
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--out", default=None)
    seeded = argparse.ArgumentParser(add_help=False, parents=[written])
    seeded.add_argument("--seed", type=int, default=0)
    sampled = argparse.ArgumentParser(add_help=False, parents=[seeded])
    sampled.add_argument("--dim", type=int, default=5)
    sampled.add_argument("--noise", type=float, default=0.0)
    sampled.add_argument("--loss", default="logistic", choices=LOSS_KINDS)
    sampled.add_argument("--range-bound", type=float, default=1.0)
    sampled.add_argument("--mc", type=int, default=10000)

    rho = probe_sub.add_parser("rho", parents=[sampled], help="hypothesis distance estimate")
    rho.set_defaults(probe=probe_rho)

    theta = probe_sub.add_parser("theta", parents=[sampled],
                                 help="disagreement coefficient table")
    theta.add_argument("--samples", type=int, default=200)
    theta.add_argument("--spread", type=float, default=0.3)
    theta.add_argument("--radii", default="0.05,0.1,0.2,0.4")
    theta.set_defaults(probe=probe_theta)

    lb = probe_sub.add_parser("lower-bound-gen", parents=[seeded],
                              help="emit a hard instance")
    lb.add_argument("--atoms", type=int, default=8)
    lb.add_argument("--eta", type=float, default=0.2)
    lb.add_argument("--eps", type=float, default=0.05)
    lb.set_defaults(probe=probe_lower_bound)

    bounds = probe_sub.add_parser("bounds", parents=[written],
                                  help="closed-form bound values")
    bounds.add_argument("--pmin", type=float, required=True)
    bounds.add_argument("--class-size", type=int, required=True)
    bounds.add_argument("--delta", type=float, required=True)
    bounds.add_argument("--steps", type=int, required=True)
    bounds.add_argument("--theta", type=float, default=None)
    bounds.add_argument("--asymmetry", type=float, default=None)
    bounds.add_argument("--best-loss", type=float, default=None)
    bounds.set_defaults(probe=probe_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
