"""Dev-only calibration sweep for the acceptance experiment defaults."""

import argparse
import itertools
import time
from dataclasses import replace

import numpy as np

from fairfedsim.baselines import train
from fairfedsim.harness import ExperimentConfig, build_data, evaluate_run

REGIMES = ("mfairfl", "fedavg", "fedavg_f", "indfair", "mfairfl_rnd", "mfairfl_rev")


def evaluate_setting(gamma, alpha, label_shift, group_shift, eta, beta, seeds=(1, 2, 3, 4, 5)):
    cfg = ExperimentConfig()
    cfg = replace(cfg, gamma=gamma, alpha=alpha, eta=eta, beta=beta)
    cfg.dataset["synthetic"]["label_shift"] = label_shift
    cfg.dataset["synthetic"]["group_shift"] = group_shift
    rows = {}
    for regime in REGIMES:
        per_seed = []
        for seed in seeds:
            prepared = build_data(cfg, seed)
            result = train(regime, prepared.shards, cfg.train_config(seed))
            rep = evaluate_run(result, regime, prepared)
            per_seed.append(rep)
        rows[regime] = per_seed
    return rows


def summarize(rows):
    out = {}
    for regime, reps in rows.items():
        out[regime] = {
            "acc": np.mean([r.accuracy for r in reps]),
            "dp": np.mean([r.dp["group"] for r in reps]),
            "dp_all": [round(r.dp["group"], 3) for r in reps],
            "cf": None if reps[0].cf is None else np.mean([r.cf for r in reps]),
            "cf_all": None if reps[0].cf is None else [round(r.cf, 3) for r in reps],
        }
    return out


def criteria(s):
    c8 = (
        s["mfairfl"]["dp"] <= 0.05
        and s["mfairfl"]["dp"] < s["fedavg_f"]["dp"]
        and s["mfairfl"]["acc"] >= 0.75
        and s["fedavg_f"]["dp"] >= 0.15
    )
    c9 = all(m < f for m, f in zip(s["mfairfl"]["cf_all"], s["fedavg"]["cf_all"]))
    c10 = (
        s["mfairfl"]["cf"] <= s["mfairfl_rnd"]["cf"] + 0.01
        and s["mfairfl_rnd"]["cf"] <= s["mfairfl_rev"]["cf"] + 0.01
    )
    c11 = s["indfair"]["dp"] - s["mfairfl"]["dp"] >= 0.02
    return c8, c9, c10, c11


if __name__ == "__main__":
    argparse.ArgumentParser(
        description="Run the calibration sweep: each (gamma, alpha) setting trains six regimes "
        "over two seeds (minutes per setting) and prints criteria c8-c11.",
    ).parse_args()
    grid = itertools.product(
        (5.0, 10.0),          # gamma
        (0.01, 0.02),         # alpha
        (2.2,),               # label_shift
        (1.0,),               # group_shift
        (0.05,),              # eta
        (0.6,),               # beta
    )
    for params in grid:
        t0 = time.time()
        s = summarize(evaluate_setting(*params, seeds=(1, 2)))
        c = criteria(s)
        print(f"gamma={params[0]} alpha={params[1]} ls={params[2]} gs={params[3]} "
              f"eta={params[4]} beta={params[5]}  c8={c[0]} c9={c[1]} c10={c[2]} c11={c[3]}  "
              f"({time.time()-t0:.0f}s)")
        for regime in REGIMES:
            print(f"  {regime:12s} acc={s[regime]['acc']:.3f} dp={s[regime]['dp']:.3f} "
                  f"dp_all={s[regime]['dp_all']} cf={s[regime]['cf']} ")
