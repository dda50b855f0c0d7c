"""One round of a workload in a fresh interpreter; run.py starts it.

    python3 benchmarks/worker.py <workload> --seed N --trace 0|1 [--output F] [--spans F] [--setup-only]

It imports dephasim from the checkout's src/ (run.py sets PYTHONPATH),
builds the workload's inputs, and reports the CLOCK_MONOTONIC time at
which that was done, so run.py can take set-up time from its own spawn
time.  Unless --setup-only, it then runs the study once in-process (for
cli-timeseries: cli.main(argv)), timed, optionally traced, and prints
one JSON object as its last line.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def _inputs(name, output):
    """Import dephasim and build the study call for one workload."""
    import workloads as W

    if name == "cli-timeseries":
        from dephasim import cli

        argv = list(W.CLI_ARGS) + ["--output", output]
        return lambda: {"exit": cli.main(argv)}

    from dephasim import BathConfig, CouplingConfig, EnsembleConfig, SpinInit, experiments

    spin = SpinInit(*W.SPIN)
    bath = BathConfig()
    if name == "scaled-sweep":
        cfg = CouplingConfig(kappa_c=W.SWEEP_KAPPA, N=2)
        ens = EnsembleConfig(spin1=spin, spin2=spin, background_p=W.BACKGROUND_P)
        etas, ns = list(W.SWEEP_ETAS), list(W.SWEEP_NS)
        return lambda: {"rows": experiments.sweep_eta(etas, ns, cfg, ens, bath).rows}
    if name == "corner-grid":
        cfg = CouplingConfig(kappa_c=W.CORNER_KAPPA, N=W.CORNER_N)
        axis = list(W.CORNER_AXIS)
        return lambda: {
            "rows": experiments.grid_pv(
                axis, axis, mode="dynamic-corner", cfg=cfg, ens_background=W.BACKGROUND_P,
                bath=bath, tau_max=W.TAU_WINDOW, steps=W.CORNER_STEPS,
            ).rows
        }
    raise SystemExit("unknown workload %r" % name)


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _gamma_samples(log, seed, count):
    """Seeded (t, Gamma) pairs with t > 0 from everything the program computed."""
    import numpy as np

    t = np.concatenate([c[0] for c in log.calls])
    g = np.concatenate([c[1] for c in log.calls])
    idx = np.flatnonzero(t > 0)
    pick = np.random.default_rng(seed).choice(idx, size=min(count, idx.size), replace=False)
    return [[float(t[i]), float(g[i])] for i in np.sort(pick)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--output", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    study = _inputs(args.workload, args.output)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import dephasim

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(dephasim.__file__), src]) != src:
        raise SystemExit("dephasim was imported from %s, not from %s" % (dephasim.__file__, src))
    report = {"ready": ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        with tracer or contextlib.nullcontext():
            c0, t0 = _cpu(), time.perf_counter()
            out = study()
            t1, c1 = time.perf_counter(), _cpu()
        report.update(out, wall_s=t1 - t0, cpu_s=c1 - c0)
        if tracer is not None:
            import workloads

            layers, traced_wall = tracing.layer_metrics(tracer)
            report["layers"] = layers
            report["absent"] = tracer.absent
            report["gamma_samples"] = _gamma_samples(tracer.gamma, args.seed, 2 * workloads.SAMPLES)
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump({"workload": args.workload, "wall_s": traced_wall, "absent": tracer.absent,
                               "spans": tracing.span_records(tracer)}, fh)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0 if report.get("exit", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
