"""Command-line frontend.

Subcommands: simulate, detect, scan, power, calibrate.  Machine-readable
output is strict JSON on stdout, one line a result from one writer,
_json_line; diagnostics go to stderr.  Exit codes: 0 success, 1 runtime
failure, 2 usage or config error.  detect and scan take their per-event
weights by one route, _weights, onto detector.event_weights:
with theta by MLE, the optimal weight evaluates each density once per event.
power and calibrate take the configured WeightFunction, at model.theta where
weight.theta is not set.
"""

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import auxmodel, detector, eventio, lightcurve, power, simulator
from .config import Config, ConfigError, load_config
from .scan import frequency_grid, scan as run_scan

__all__ = ["main"]


def _err(msg):
    print(msg, file=sys.stderr)


def _plain(obj):
    """json.dumps' fallback: a numpy array or scalar as a list or number."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def _json_line(result):
    """A dataclass (its fields in order) or a mapping as one line of strict
    JSON: NaN or an infinity raises ValueError instead of printing."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    return json.dumps(result, allow_nan=False, default=_plain)


def _at_least(low):
    """An argparse type: an integer of at least low, else a usage error."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return int(text)
    return integer


@functools.cache  # built once a process: a parse leaves it as it was
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="photonperiod",
        description="Event-weighted periodicity detection in photon arrival times",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, events=False, out=False, seed=False):
        p.add_argument("--config", required=True, help="JSON config path")
        if events:
            p.add_argument("--events", required=True, help="event CSV path")
        if out:
            p.add_argument("--out", help="output file path")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="write a synthetic event CSV")
    common(p, out=True, seed=True)

    p = sub.add_parser("detect", help="run detection on an event file")
    common(p, events=True)

    p = sub.add_parser("scan", help="evaluate Q_T over a frequency grid")
    common(p, events=True, out=True)

    p = sub.add_parser("power", help="predicted SNR and template efficiency table")
    common(p, out=True)

    p = sub.add_parser("calibrate", help="null Monte Carlo calibration report")
    common(p, seed=True)
    p.add_argument("--replicates", type=_at_least(2), default=2000)
    p.add_argument("--threads", type=_at_least(1), default=1)
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    cfg = load_config(args.config)
    model = cfg.model()
    densities = cfg.densities()
    events = simulator.simulate(model, densities, tau=cfg.tau(), seed=args.seed)
    out = args.out or "events.csv"
    eventio.write_events(out, events, header_comment="seed=%d" % args.seed)
    print(_json_line({
        "n_events": len(events),
        "mu0_T": simulator.expected_count(model),
        "theta": model.theta,
        "out": out,
    }))
    return 0


def _weights(cfg, events, file_weights):
    """Per-event weights and the theta they use, from detector.event_weights:
    the file's column for 'precomputed'; for 'optimal' without weight.theta,
    the posterior at the theta MLE from one evaluation of both densities; for
    'optimal-no-spectrum' without it, the angle-only weight at the MLE; else
    the configured WeightFunction."""
    kind, theta = cfg.weight_kind(), cfg.detect_theta()
    mle = theta is None and kind in ("optimal", "optimal-no-spectrum")
    weight_fn = densities = None
    if kind == "precomputed":
        if file_weights is None:
            raise ConfigError("weight.kind",
                              "'precomputed' needs a weight column in the file")
        weight_fn, theta = file_weights, None  # a weight.theta goes unused
    elif mle and kind == "optimal":
        densities = cfg.densities()
    else:
        if mle:
            theta = detector.estimate_theta(events, cfg.densities())
        weight_fn = cfg.weight(theta)
    w, theta_used = detector.event_weights(events, weight_fn, theta, densities)
    if mle:
        _err("theta MLE: %.6f" % theta_used)
    return w, theta_used


def cmd_detect(args):
    cfg = load_config(args.config)
    template, model = cfg.template(), cfg.model()
    events, file_weights = eventio.read_events(args.events)
    w, theta = _weights(cfg, events, file_weights)
    result = detector.detect(events, w, model.phase, template, theta=theta,
                             T=model.T)
    print(_json_line(result))
    return 0


def cmd_scan(args):
    cfg = load_config(args.config)
    template, model, spec = cfg.template(), cfg.model(), cfg.scan_spec()
    # an oversized grid is refused before any event is read or weighted
    frequency_grid(spec, model.T, template.m)
    events, file_weights = eventio.read_events(args.events)
    w, _ = _weights(cfg, events, file_weights)
    result = run_scan(events, w, template, model.T, spec,
                      epoch=model.phase.epoch)
    if args.out:
        eventio._write_csv(args.out, ["f", "fdot", "qt", "p_value"],
                           [result.f, result.fdot, result.qt, result.p])
    print(_json_line(result.best))
    return 0


def cmd_power(args):
    cfg = load_config(args.config)
    model = cfg.model()
    template = cfg.template()
    source = model.profile
    if args.out and not np.any(source.amps_sq() > 0):
        # checked before the SNR line is printed or the table opened
        raise ConfigError("profile", "power --out needs a nonzero coefficient "
                                     "for the template efficiency table")
    if cfg.weight_kind() == "unit":
        eff_w = 1.0
    else:
        wf = cfg.weight(model.theta)
        moments = auxmodel.weight_moments(wf, model.theta, cfg.densities())
        eff_w = auxmodel.weight_efficiency(moments, model.theta)
    pred = power.predicted_snr(model.theta, model.T, model.mu0, eff_w,
                               template, source)
    print(_json_line(pred))
    if args.out:
        opt = lightcurve.HarmonicTemplate.from_profile(source)
        with open(args.out, "w") as fh:
            fh.write("m,percent_efficiency\n")
            for m in range(1, 11):
                zm = lightcurve.HarmonicTemplate.z_test(m)
                eff = lightcurve.template_efficiency(zm, source)
                fh.write("%d,%.4f\n" % (m, 100.0 * eff))
        _err("optimal template: %s"
             % _json_line({"m": opt.m, "amps_sq": opt.amps_sq}))
    return 0


def _calibrate_chunk(doc, seed, start, stop, replicates):
    cfg = Config(doc)
    # the null hypothesis: the configured model with a constant light curve
    model = dataclasses.replace(cfg.model(),
                                profile=lightcurve.LightCurveProfile.constant())
    densities, template = cfg.densities(), cfg.template()
    wf = cfg.weight(model.theta)
    children = np.random.SeedSequence(seed).spawn(replicates)
    pvals, scaled, qts = [], [], []
    for i in range(start, stop):
        ev = simulator.simulate(model, densities, tau=0.0, seed=children[i])
        r = detector.detect(ev, wf, model.phase, template, T=model.T)
        pvals.append(r.p_value)
        scaled.append(2.0 * r.an_sq / r.sum_w2)
        qts.append(r.qt)
    return pvals, scaled, qts


def cmd_calibrate(args):
    # imported here: no other subcommand loads scipy or a process pool
    from concurrent.futures import ProcessPoolExecutor

    from scipy.stats import chi2, kstest
    cfg = load_config(args.config)
    n, threads = args.replicates, args.threads
    bounds = np.linspace(0, n, threads + 1).astype(int)
    chunks = [(cfg.doc, args.seed, int(a), int(b), n)
              for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if threads == 1:
        parts = [_calibrate_chunk(*c) for c in chunks]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_calibrate_chunk, *zip(*chunks)))
    pvals = np.concatenate([p[0] for p in parts])
    scaled = np.vstack([np.asarray(p[1]) for p in parts])
    qts = np.concatenate([p[2] for p in parts])

    ks_p_uniform = kstest(pvals, "uniform").pvalue
    per_harmonic = []
    for k in range(scaled.shape[1]):
        ks = kstest(scaled[:, k], chi2(df=2).cdf)
        per_harmonic.append({
            "n": k + 1,
            "mean": np.mean(scaled[:, k]),
            "ks_p_chi2_2dof": ks.pvalue,
        })
    print(_json_line({
        "replicates": n,
        "qt_mean": np.mean(qts),
        "qt_var": np.var(qts, ddof=1),
        "p_value_ks_uniform_p": ks_p_uniform,
        "per_harmonic": per_harmonic,
    }))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "detect": cmd_detect,
                "scan": cmd_scan, "power": cmd_power, "calibrate": cmd_calibrate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        _err("config error: %s" % exc)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        _err("error: %s" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
