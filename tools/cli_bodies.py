"""Write the reference CLI outputs of this checkout, one file each.

    python3 tools/cli_bodies.py [--manifest] OUTDIR

Runs `dephasim` with the package imported from this checkout's src/,
in OUTDIR, and writes there:

- twenty-six bodies that cover every subcommand.  Each command but
  the last writes its body with a relative --output, so the path
  recorded in the body's configuration header is the same from any
  checkout; the two fit commands read sweep bodies written before them.
  The last writes to stdout (--output -), which the script saves.  The
  long time series run through several blocks of rows, in CSV and JSON,
  to a file and to stdout, two short ones put times of 1e18 and
  1e-300 through every shape that %.17g gives a number, and one runs
  N = 1e11 spins.  A body command that exits non-zero or writes to
  stderr stops the script;
- the --help text of `dephasim` and of each subcommand, at COLUMNS=80;
- the exit code and stderr of thirteen invalid invocations: a bad value
  for each kind of option that can reject one, fit without --input, an
  unknown key in a --config file, a long body written to /dev/full
  (exit 3), a zero tau_max, a reversed fit range and a fit range no
  finite n can meet.  An invocation that exits 0 or writes to stdout
  stops the script.

To compare two checkouts:

    python3 A/tools/cli_bodies.py /tmp/a && python3 B/tools/cli_bodies.py /tmp/b
    diff -r /tmp/a /tmp/b

With --manifest it also writes tools/cli_bodies.json: the SHA-256 of
every file in OUTDIR, which should start empty, and the fingerprint of
the host they were made on (Python and numpy versions, machine, and
numpy's enabled CPU features, since numpy's SIMD level moves some
bits).  Before it overwrites the manifest it prints each output that
moved, appeared or disappeared against the digests pinned there.
tests/test_bodies.py compares a fresh run with it and names the same
outputs when they differ.
"""

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "tools" / "cli_bodies.json"

# output file name, then the command's arguments
BODIES = (
    ("timeseries.csv", ["timeseries", "--n", "4"]),
    ("timeseries-n40-kappa-l.csv", ["timeseries", "--n", "40", "--kappa-l", "0.3"]),
    ("timeseries.json", ["timeseries", "--n", "4", "--format", "json"]),
    ("timeseries-100000.csv", ["timeseries", "--n", "4", "--kappa-c", "0.05", "--steps", "100000"]),
    ("timeseries-20000.json", ["timeseries", "--steps", "20000", "--format", "json"]),
    ("timeseries-huge-t.csv", ["timeseries", "--n", "4", "--t-max", "1e18", "--steps", "40"]),
    ("timeseries-tiny-t.csv", ["timeseries", "--n", "4", "--t-max", "1e-300", "--steps", "40"]),
    ("timeseries-huge-n.csv", ["timeseries", "--n", "100000000000", "--steps", "40"]),
    ("timeseries-negative-v.csv", ["timeseries", "--n", "6", "--p", "0.3", "--v", "-0.3",
                                   "--background-p", "0.2", "--kappa-l", "0.2"]),
    ("sweep-n.csv", ["sweep-n"]),
    ("fit-sweep-n.csv", ["fit", "--input", "sweep-n.csv", "--y", "tau_c", "--n-min", "10",
                         "--n-max", "150"]),
    ("sweep-n-eta.csv", ["sweep-n", "--eta", "0.3", "--n-max", "40"]),
    ("sweep-kappa.csv", ["sweep-kappa"]),
    ("sweep-kappa-steps50.csv", ["sweep-kappa", "--steps", "50"]),
    ("sweep-eta.csv", ["sweep-eta"]),
    ("sweep-eta.json", ["sweep-eta", "--format", "json"]),
    ("fit-sweep-eta.csv", ["fit", "--input", "sweep-eta.json", "--y", "tau_peak"]),
    ("grid-pv-symmetric.csv", ["grid-pv", "--mode", "symmetric-pv"]),
    ("grid-pv-symmetric-knobs.csv", ["grid-pv", "--mode", "symmetric-pv", "--s-knob", "1.1",
                                     "--gamma-l-knob", "0.2", "--gamma-c-knob", "0.3"]),
    ("grid-pv-corner.csv", ["grid-pv", "--mode", "dynamic-corner"]),
    ("grid-pv-corner-n8.csv", ["grid-pv", "--mode", "dynamic-corner", "--n", "8",
                               "--kappa-l", "0.1", "--eta", "0.2"]),
    ("limits.csv", ["limits"]),
    ("limits-kappa-l.csv", ["limits", "--kappa-l", "0.1"]),
    ("limits-large-eta.csv", ["limits", "--eta", "0.4", "--kappa-l", "0.1",
                              "--background-p", "0.3"]),
    ("limits-negative-v.csv", ["limits", "--p", "0.4", "--v", "-0.3", "--kappa-l", "0.2",
                               "--eta", "0.4", "--background-p", "0.3"]),
)

# the body written to stdout, saved under this name
STDOUT = ("timeseries-stdout.csv", ["timeseries", "--n", "6", "--kappa-l", "0.1", "--steps",
                                    "30000"])

HELPS = ("", "timeseries", "sweep-kappa", "sweep-n", "grid-pv", "sweep-eta", "limits", "fit")

# the --config file of the unknown-key invocation, written into OUTDIR
CONFIG = ("unknown-key.cfg", "steps = 4\nmystery = 1\n")

# output file name, then the arguments of an invocation that must fail
ERRORS = (
    ("error-float.txt", ["timeseries", "--kappa-c", "x"]),
    ("error-int.txt", ["timeseries", "--n", "1.5"]),
    ("error-auto-int.txt", ["timeseries", "--steps", "1.5"]),
    ("error-auto-float.txt", ["timeseries", "--t-max", "x"]),
    ("error-float-list.txt", ["sweep-kappa", "--kappa-values", "0.1,x"]),
    ("error-int-list.txt", ["limits", "--n-values", "100,1.5"]),
    ("error-choice.txt", ["grid-pv", "--mode", "foo"]),
    ("error-fit-input.txt", ["fit"]),
    ("error-config-key.txt", ["timeseries", "--config", CONFIG[0]]),
    ("error-io.txt", ["timeseries", "--steps", "30000", "--output", "/dev/full"]),
    ("error-tau-max.txt", ["timeseries", "--tau-max", "0"]),
    ("error-fit-range.txt", ["fit", "--input", "sweep-n.csv", "--n-min", "10", "--n-max", "5"]),
    ("error-fit-inf.txt", ["fit", "--input", "sweep-n.csv", "--n-min", "inf"]),
)


def fingerprint():
    """What the outputs' bits depend on besides the checkout."""
    import numpy
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_features": " ".join(sorted(name for name, on in __cpu_features__.items() if on)),
    }


def digests(out):
    """The SHA-256 of each file in the directory out, by name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def moved(pinned, fresh):
    """One line per output whose digest moved, appeared or disappeared from pinned to fresh."""
    lines = []
    for name in sorted(pinned.keys() | fresh.keys()):
        if name not in fresh:
            lines.append("disappeared: %s" % name)
        elif name not in pinned:
            lines.append("appeared: %s" % name)
        elif pinned[name] != fresh[name]:
            lines.append("moved: %s" % name)
    return lines


def main(argv):
    manifest = "--manifest" in argv
    argv = [arg for arg in argv if arg != "--manifest"]
    if len(argv) != 1:
        sys.exit("usage: python3 tools/cli_bodies.py [--manifest] OUTDIR")
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")

    def run(args):
        cmd = [sys.executable, "-m", "dephasim.cli"] + args
        return subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)

    def stop(args, done):
        sys.exit("%s exited %d:\n%s%s" % (" ".join(args), done.returncode, done.stdout,
                                          done.stderr))

    for name, args in BODIES + (STDOUT,):
        done = run(args + ["--output", "-" if name == STDOUT[0] else name])
        if done.returncode or done.stderr:
            stop(args, done)
        if name == STDOUT[0]:
            (out / name).write_text(done.stdout)
        print(name)
    for sub in HELPS:
        name = "help-%s.txt" % (sub or "dephasim")
        args = [sub, "--help"] if sub else ["--help"]
        done = run(args)
        if done.returncode or done.stderr:
            stop(args, done)
        (out / name).write_text(done.stdout)
        print(name)
    (out / CONFIG[0]).write_text(CONFIG[1])
    for name, args in ERRORS:
        done = run(args)
        if not done.returncode or done.stdout:
            stop(args, done)
        (out / name).write_text("exit %d\n%s" % (done.returncode, done.stderr))
        print(name)
    if manifest:
        fresh = {"fingerprint": fingerprint(), "sha256": digests(out)}
        if MANIFEST.exists():
            pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
            if pinned["fingerprint"] != fresh["fingerprint"]:
                print("fingerprint: %s -> %s" % (pinned["fingerprint"], fresh["fingerprint"]))
            print("\n".join(moved(pinned["sha256"], fresh["sha256"])) or "no output moved")
        MANIFEST.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(MANIFEST)


if __name__ == "__main__":
    main(sys.argv[1:])
