"""The workloads: their inputs, their operations and the checks on them.

BENCHMARK.json names three: detect-calibrate, scan and power.  The detect and
calibrate plans, which detect-calibrate joins, can also be run alone.

Every operation is one call of photonperiod's command line, made in-process.
A workload's round is a fixed list of operations; a run repeats whole rounds,
so the share of failed operations is the same in every run.

`check` returns (fault, problems).  `problems` lists outputs that are wrong;
any one of them makes the run incorrect.  `fault` is true when the output is
wrong only in the way of the known tail fault of `weighted_chi2_sf`: a
p-value far from the exact tail where that tail lies below FAULT_REGIME, or a
scan `best` displaced by such p-values.  Those operations count as failed.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

import oracles

# Imhof inversion keeps relative accuracy far better than P_RTOL down to
# p ~ 1e-10; a mismatch above this tail level is a new fault, not the known one.
FAULT_REGIME = 1e-8
P_RTOL = 1e-3

DENS = oracles.Densities(R=5.0, sigma=1.0, src_index=2.0, bkg_index=2.7,
                         e_min=0.1, e_max=10.0)

# Seed of the bright inputs.  Their operations fail every time, so their
# events must not depend on --seed.
BRIGHT_SEED = 20070628


@dataclass
class Op:
    key: str           # names the input; repeats of a key must print the same
    argv: list
    work: float        # units of work done by one operation
    out: str = None    # file the operation writes besides stdout


@dataclass
class Plan:
    setup_config: str  # config the set-up probe loads
    warmup: Op
    round: list
    check: object      # check(op, stdout) -> (fault, problems)
    final_check: object = None  # final_check(run_op, outputs) -> problems


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _seeded(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, tag]))


def _normalized(coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return coeffs / np.linalg.norm(coeffs)


def _p_check(p, q, lam, where, problems):
    """Compare a program p-value with the exact tail.

    Returns (known fault, exact tail)."""
    exact = oracles.exact_sf(q, lam)
    err = oracles.rel_err(p, exact)
    if err <= P_RTOL:
        return False, exact
    if exact < FAULT_REGIME:
        return True, exact
    problems.append("%s: p=%.6g but exact tail %s (rel err %.2g)"
                    % (where, p, oracles.mpmath.nstr(exact, 6), err))
    return False, exact


# ---------------------------------------------------------------------------
# detect: ~1e6-event files, theta by MLE, optimal weights, 4-harmonic template
# ---------------------------------------------------------------------------

DETECT_N = 10**6
DETECT_T = 1e4
DETECT_F = 5.0
DETECT_THETA = 0.1
DETECT_COEFFS = _normalized([1.0, 0.6, 0.35, 0.2])
# pulsed amplitude per file: unpulsed, a few sigma, and far past Imhof's floor
DETECT_FILES = (("null", 0.0), ("moderate", 0.015), ("bright", 0.3))


def detect_plan(workdir, seed):
    amps = np.abs(DETECT_COEFFS) ** 2
    cfg = _write_json(workdir / "detect.json", {
        "phase": {"f": DETECT_F},
        "template": {"amps_sq": amps.tolist()},
        "model": {"mu": DETECT_N / DETECT_T, "theta": DETECT_THETA,
                  "T": DETECT_T},
        "densities": DENS.config(),
        "weight": {"kind": "optimal"},
    })
    ops = []
    events = {}
    for tag, (name, eta) in enumerate(DETECT_FILES, start=1):
        rng = _seeded(BRIGHT_SEED if name == "bright" else seed, tag)
        t, e, phi = oracles.generate_events(
            rng, DETECT_N, DETECT_T, DETECT_THETA, DETECT_F, DETECT_COEFFS,
            eta, DENS)
        path = workdir / ("detect_%s.csv" % name)
        oracles.write_csv(path, (t, e, phi), int_digits=(5, 2, 1))
        events[name] = (t, e, phi)
        ops.append(Op(name, ["detect", "--config", cfg, "--events", str(path)],
                      DETECT_N))

    def check(op, out):
        t, e, phi = events[op.key]
        r = json.loads(out)
        problems = []
        if r["n_events"] != DETECT_N:
            problems.append("n_events %r" % r["n_events"])
        theta = r["theta_used"]
        root, se = oracles.theta_score_root(e, phi, DENS)
        if abs(theta - root) > 1e-6:
            problems.append("theta %.9f but score root %.9f" % (theta, root))
        if abs(theta - DETECT_THETA) > 4.0 * se:
            problems.append("theta %.6f is %.1f Fisher errors from %.3f"
                            % (theta, abs(theta - DETECT_THETA) / se,
                               DETECT_THETA))
        w = oracles.optimal_weights(e, phi, theta, DENS)
        sum_w2 = float(np.sum(w * w))
        if abs(r["sum_w2"] - sum_w2) > 1e-9 * sum_w2:
            problems.append("sum_w2 %.12g, direct %.12g" % (r["sum_w2"], sum_w2))
        an = oracles.direct_an(t, w, amps.size, DETECT_F)
        an_sq = np.abs(an) ** 2
        if np.any(np.abs(np.asarray(r["an_sq"]) - an_sq) > 1e-8 * (an_sq + sum_w2)):
            problems.append("|A_n|^2 %s, direct %s" % (r["an_sq"], an_sq.tolist()))
        qt = oracles.qt_value(an, amps, DETECT_T)
        if abs(r["qt"] - qt) > 1e-8 * (qt + sum_w2 / DETECT_T):
            problems.append("Q_T %.12g, direct %.12g" % (r["qt"], qt))
        lam = amps * r["sum_w2"]
        q = r["qt"] * DETECT_T
        if op.key == "bright" and not oracles.exact_sf(q, lam) < 1e-12:
            problems.append("bright file is not bright: exact p >= 1e-12")
        fault, _ = _p_check(r["p_value"], q, lam, op.key, problems)
        return fault, problems

    return Plan(setup_config=cfg, warmup=ops[0], round=ops, check=check)


# ---------------------------------------------------------------------------
# scan: 1e5-event sets, 10-harmonic template, 13 frequencies x 3 fdot rows
# ---------------------------------------------------------------------------

SCAN_N = 10**5
SCAN_T = 1e3
SCAN_F = 5.0
SCAN_THETA = 0.1
SCAN_COEFFS = _normalized(0.8 ** np.arange(10))
# The moderate amplitude keeps the max-Q_T p-value above ~1e-8 on every seed
# (Imhof is exact there) and is significant beyond the trials on about a
# quarter of seeds; stronger injections reach Imhof's inaccurate tail.
SCAN_SETS = (("null", 0.0), ("moderate", 0.05), ("bright", 0.18))
# a pulsed set's max-Q_T point must lie near the injection when its exact
# p-value is below this (always true of the bright set)
NEAR_P = 1e-4
# a narrow grid keeps an operation near 1 s, so a run times many of them
SCAN_SPEC = {"f_lo": 4.99969, "f_hi": 5.00031, "oversample": 2, "m": 10,
             "fdot": [-2e-6, 2e-6, 3]}
SCAN_SAMPLES = 6  # random grid points checked per set, besides best and max


def scan_grid():
    """(f, fdot) of every grid point, in the program's documented order."""
    spec = SCAN_SPEC
    step = 1.0 / (spec["oversample"] * spec["m"] * SCAN_T)
    n = int(math.floor((spec["f_hi"] - spec["f_lo"]) / step)) + 1
    freqs = spec["f_lo"] + step * np.arange(n)
    lo, hi, rows = spec["fdot"]
    fdots = np.linspace(lo, hi, rows)
    return np.repeat(fdots, n), np.tile(freqs, rows)


def scan_plan(workdir, seed):
    amps = np.abs(SCAN_COEFFS) ** 2
    epoch = SCAN_T / 2.0  # centred epoch decouples f from fdot
    cfg = _write_json(workdir / "scan.json", {
        "phase": {"f": SCAN_F, "epoch": epoch},
        "template": {"amps_sq": amps.tolist()},
        "model": {"mu": SCAN_N / SCAN_T, "theta": SCAN_THETA, "T": SCAN_T},
        "densities": DENS.config(),
        "weight": {"kind": "optimal", "theta": SCAN_THETA},
        "scan": SCAN_SPEC,
    })
    grid_fdot, grid_f = scan_grid()
    ops = []
    sets = {}
    for tag, (name, eta) in enumerate(SCAN_SETS, start=1):
        rng = _seeded(BRIGHT_SEED if name == "bright" else seed, 10 + tag)
        f_inj = SCAN_F + rng.uniform(-0.15, 0.15) / SCAN_T
        t, e, phi = oracles.generate_events(
            rng, SCAN_N, SCAN_T, SCAN_THETA, f_inj, SCAN_COEFFS, eta, DENS,
            epoch=epoch)
        path = workdir / ("scan_%s.csv" % name)
        oracles.write_csv(path, (t, e, phi), int_digits=(4, 2, 1))
        w = oracles.optimal_weights(e, phi, SCAN_THETA, DENS)
        sets[name] = (t, w, f_inj, eta)
        out = workdir / ("scan_%s_grid.csv" % name)
        ops.append(Op(name, ["scan", "--config", cfg, "--events", str(path),
                             "--out", str(out)], grid_f.size, str(out)))
    pick = _seeded(seed, 20)

    def check(op, out):
        t, w, f_inj, eta = sets[op.key]
        best = json.loads(out)
        grid = np.loadtxt(op.out, delimiter=",", skiprows=1, ndmin=2)
        problems = []
        if best["trials"] != grid_f.size or grid.shape[0] != grid_f.size:
            problems.append("trials %r, grid rows %d, expected %d"
                            % (best["trials"], grid.shape[0], grid_f.size))
            return False, problems
        if np.any(np.abs(grid[:, 0] - grid_f) > 1e-12 * SCAN_F) or \
                np.any(grid[:, 1] != grid_fdot):
            problems.append("grid points differ from f_lo + k step")
        sum_w2 = float(np.sum(w * w))
        i_max = int(np.argmax(grid[:, 2]))
        at_best = np.flatnonzero((grid[:, 0] == best["f"])
                                 & (grid[:, 1] == best["fdot"]))
        if at_best.size != 1:
            problems.append("best %r is not one grid point" % best)
            return False, problems
        sample = {i_max, int(at_best[0])}
        sample.update(pick.choice(grid_f.size, SCAN_SAMPLES, replace=False).tolist())
        fault = False
        for i in sorted(sample):
            f, fdot, qt, p = grid[i]
            an = oracles.direct_an(t, w, amps.size, f, fdot, epoch)
            direct = oracles.qt_value(an, amps, SCAN_T)
            if abs(qt - direct) > 1e-6 * (direct + sum_w2 / SCAN_T):
                problems.append("point %d: Q_T %.12g, direct %.12g"
                                % (i, qt, direct))
            known, exact = _p_check(p, qt * SCAN_T, amps * sum_w2,
                                    "%s point %d" % (op.key, i), problems)
            fault |= known
            if i == i_max:
                p_max = exact
        if best["qt"] < grid[i_max, 2] * (1.0 - 1e-9) and not fault:
            problems.append("best Q_T %.6g is not the maximum %.6g"
                            % (best["qt"], grid[i_max, 2]))
        if eta > 0 and p_max < NEAR_P and abs(grid[i_max, 0] - f_inj) > 0.5 / SCAN_T:
            problems.append("max-Q_T frequency %.9f, injected %.9f"
                            % (grid[i_max, 0], f_inj))
        return fault, problems

    return Plan(setup_config=cfg, warmup=ops[0], round=ops, check=check)


# ---------------------------------------------------------------------------
# calibrate: null replicates of 1e4 events, flat Z_4 template, one thread
# ---------------------------------------------------------------------------

CAL_REPLICATES = 100
CAL_M = 4
CAL_MU, CAL_T = 100.0, 100.0
KS_FLOOR = 1e-6


def calibrate_plan(workdir, seed):
    cfg = _write_json(workdir / "calibrate.json", {
        "phase": {"f": 5.0},
        "template": {"kind": "z", "m": CAL_M},
        "model": {"mu": CAL_MU, "theta": 0.1, "T": CAL_T},
        "densities": DENS.config(),
        "weight": {"kind": "optimal", "theta": 0.1},
    })
    cli_seed = int(np.random.SeedSequence([seed % 2**63, 30]).generate_state(1)[0])
    argv = ["calibrate", "--config", cfg, "--replicates", str(CAL_REPLICATES),
            "--seed", str(cli_seed)]
    # work in events (mu T a replicate, on average), the unit of detect
    op = Op("calibrate", argv + ["--threads", "1"], CAL_REPLICATES * CAL_MU * CAL_T)

    def check(_op, out):
        r = json.loads(out)
        problems = []
        if r["replicates"] != CAL_REPLICATES or len(r["per_harmonic"]) != CAL_M:
            problems.append("report shape: %r" % out[:200])
            return False, problems
        se = 2.0 / math.sqrt(CAL_REPLICATES)  # chi-square(2) has sd 2
        for h in r["per_harmonic"]:
            if abs(h["mean"] - 2.0) > 5.0 * se:
                problems.append("harmonic %d mean %.4f, expected 2 +- %.3f"
                                % (h["n"], h["mean"], 5.0 * se))
            if h["ks_p_chi2_2dof"] < KS_FLOOR:
                problems.append("harmonic %d KS p %.3g" % (h["n"], h["ks_p_chi2_2dof"]))
        if r["p_value_ks_uniform_p"] < KS_FLOOR:
            problems.append("p-value KS p %.3g" % r["p_value_ks_uniform_p"])
        return False, problems

    def final_check(run_op, outputs):
        rc, out, err = run_op(argv + ["--threads", "2"])
        if rc != 0:
            return ["--threads 2 exited %d: %s" % (rc, err.strip())]
        if out != outputs[op.key]:
            return ["--threads 2 report differs from --threads 1"]
        return []

    return Plan(setup_config=cfg, warmup=op, round=[op], check=check,
                final_check=final_check)


# ---------------------------------------------------------------------------
# power: weight efficiencies by quadrature; touches no events
# ---------------------------------------------------------------------------

POWER_THETA = 0.1
POWER_MU = 100.0
POWER_T = 1e4
POWER_COEFFS = [0.8, 0.6j]
POWER_ETA = 0.3
POWER_AMPS = [1.0, 0.5, 0.25]
# Quadrature cost grows with the band: on 0.1-10 the round takes ~40 s, too
# long to time more than once a run.  The cut edges are generic, not at the
# dyadic points where the adaptive bisection would split anyway.
POWER_DENS = oracles.Densities(R=5.0, sigma=1.0, src_index=2.0, bkg_index=2.7,
                               e_min=1.0, e_max=5.0)
ANGLE_CUT = {"phi_max": 2.0}
BAND_CUT = {"e_lo": 4.3, "phi_max": 2.0}
POWER_WEIGHTS = (
    ("unit", {"kind": "unit"}),
    ("angle-cut", {"kind": "cut", "cut": ANGLE_CUT}),
    ("energy-angle-cut", {"kind": "cut", "cut": BAND_CUT}),
    ("psf", {"kind": "psf-gaussian"}),
    ("optimal", {"kind": "optimal"}),
)


def power_plan(workdir, seed):
    # The inputs do not depend on the seed: quadrature cost depends on where
    # the cut edges fall, so edges drawn from it would make time vary by seed.
    del seed
    base = {
        "phase": {"f": 5.0},
        "profile": {"eta": POWER_ETA,
                    "coeffs": [[c.real, c.imag] for c in map(complex, POWER_COEFFS)]},
        "template": {"amps_sq": POWER_AMPS},
        "model": {"mu": POWER_MU, "theta": POWER_THETA, "T": POWER_T},
        "densities": POWER_DENS.config(),
    }
    ops = []
    for name, weight in POWER_WEIGHTS:
        cfg = _write_json(workdir / ("power_%s.json" % name),
                          dict(base, weight=weight))
        ops.append(Op(name, ["power", "--config", cfg], 1))
    match = oracles.template_match(POWER_COEFFS, POWER_ETA, POWER_AMPS)
    closed = {
        "unit": 1.0,
        "angle-cut": oracles.cut_efficiency(
            POWER_DENS, POWER_THETA, -np.inf, np.inf, ANGLE_CUT["phi_max"]),
        "energy-angle-cut": oracles.cut_efficiency(
            POWER_DENS, POWER_THETA, BAND_CUT["e_lo"], np.inf, BAND_CUT["phi_max"]),
    }
    effs = {}

    def check(op, out):
        r = json.loads(out)
        problems = []
        eff = r["efficiency_w"]
        effs[op.key] = eff
        if op.key in closed and abs(eff - closed[op.key]) > 1e-6 * closed[op.key]:
            problems.append("%s efficiency %.9g, closed form %.9g"
                            % (op.key, eff, closed[op.key]))
        snr = POWER_THETA ** 2 * POWER_T * POWER_MU * eff * match
        if abs(r["snr"] - snr) > 1e-12 * snr:
            problems.append("%s snr %.12g, formula %.12g" % (op.key, r["snr"], snr))
        if abs(r["template_match"] - match) > 1e-12 * match:
            problems.append("template match %.12g, recomputed %.12g"
                            % (r["template_match"], match))
        if "optimal" in effs:
            worse = [k for k, v in effs.items()
                     if v > effs["optimal"] * (1.0 + 1e-6)]
            if worse:
                problems.append("optimal efficiency %.9g below %s"
                                % (effs["optimal"], worse))
        return False, problems

    # The command short-circuits the unit weight (no quadrature), so it is
    # the warm-up: its output is checked but its 2 ms would only pull the
    # median operation time of the round away from the quadratures.
    return Plan(setup_config=ops[-1].argv[2], warmup=ops[0], round=ops[1:],
                check=check)


# ---------------------------------------------------------------------------
# detect-calibrate: the A_n path, one large-N file at a time and many small
# simulated sets.  One workload, not two, so that each run can be long: the
# host's speed drifts over tens of seconds, and only a long run averages it.
# ---------------------------------------------------------------------------


def detect_calibrate_plan(workdir, seed):
    det, cal = detect_plan(workdir, seed), calibrate_plan(workdir, seed)
    checks = {op.key: plan.check for plan in (det, cal) for op in plan.round}
    return Plan(setup_config=det.setup_config, warmup=det.warmup,
                round=det.round + cal.round,
                check=lambda op, out: checks[op.key](op, out),
                final_check=cal.final_check)


PLANS = {
    "detect-calibrate": detect_calibrate_plan,
    "scan": scan_plan,
    "power": power_plan,
    "detect": detect_plan,
    "calibrate": calibrate_plan,
}
