"""Record the outputs that benchmark runs are checked against.

    python3 perfbench/record_reference.py --seeds 0-99

For each workload and seed: one set-up, one train repeat and one eval
repeat.  Their epoch losses and MRR/P go to ``reference.json`` beside this
file, after every target's rank has been checked against the brute-force
ranking.  The file is written anew, for the given seeds only.  Record on a
commit whose outputs are known to be right: a later run on a recorded seed
counts every difference as failed operations.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-99")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))

    run.pin_threads()
    run.import_package()
    import workloads as wl

    reference = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in run.WORKLOADS:
            for seed in range(first, last + 1):
                inputs = wl.INPUTS[name](seed, Path(tmp))
                prep = wl.SETUPS[name](inputs)
                error = wl.check_split(inputs, prep.split)
                if error is not None:
                    raise SystemExit(f"{name} seed {seed}: {error}")
                fit, _ = wl.train_repeat(prep)
                params = prep.base_params if prep.base_params is not None else fit.params
                report, _ = wl.eval_repeat(prep, params)
                brute_ranks = wl.brute_force_ranks(params, prep)
                brute = wl.mrr_and_p(brute_ranks, prep.eval_k)
                if wl.program_ranks(params, prep) != brute_ranks or not wl.same_floats(
                        [report.mrr_at_k, report.p_at_k], brute, rel=1e-12):
                    raise SystemExit(f"{name} seed {seed}: evaluate gave "
                                     f"{report.mrr_at_k}/{report.p_at_k}, brute force {brute}")
                reference.setdefault(name, {})[str(seed)] = {
                    "losses": fit.epoch_losses, "mrr": report.mrr_at_k, "p": report.p_at_k}
                print(name, seed, reference[name][str(seed)], flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
