"""Print one sha256 per program output, for byte-identity checks.

Outputs covered:

* the expansion artifact JSON of every fixture in ``bench/workloads.py``
  at every deformation angle listed there;
* the asym artifact at n_max 0 and 1 at the first of those angles: the
  edges of the construction chain's loop over orders, which the
  fixtures (n_max 2, 3, 4 and 6) never reach;
* the CSV and JSON reports of ``beamwkb validate`` (n = 2, l = 8..40) on
  the asym and the variable artifact at the first three of those angles.
  Asym has constant coefficients; the variable fixture is the one whose
  k1, k2, p and q reach the oracle's assembly;
* the JSON of ``beamwkb oracle`` (at l = 8 and the order-2 truncation as
  target) and, from one ``beamwkb sweep-delta`` call (n = 2), its summary
  and its per-delta JSON report, all on asym at the first of those angles.
  With ``validate`` these cover every command that reads a configuration
  file.  The per-delta report is the one output that holds every row of a
  ``run_convergence`` on an expansion built in the same process, so it
  reads the inner terms as built, where ``validate`` reads them back from
  an artifact file.

That is 49 lines: 34 artifacts, 12 reports, the oracle and two outputs
of the sweep.

Run it once against each tree and compare the output with ``diff``:

    python3 tools/output_digest.py --src path/to/old/src > old.txt
    python3 tools/output_digest.py --src src > new.txt

``--expect FILE`` compares the run with a digest saved that way: it
prints (to stderr) each label whose line differs, or that only one of
the two has, and exits 1 if there is any, so one command checks a tree
against the saved digest of another:

    python3 tools/output_digest.py --src src --expect old.txt

``--keep DIR`` also saves every output it hashes into DIR, named after its
line (``validate_asym_json_delta=0.0.json``), so that the outputs of two
trees can be compared value by value:

    python3 tools/output_digest.py --src path/to/old/src --keep old
    python3 tools/output_digest.py --src src --keep new
    python3 tools/column_moves.py old new

``--src`` is the directory holding the ``beamwkb`` package; the fixture
configurations are always read from the ``bench/`` next to this script,
so both trees are fed the same inputs.  BLAS pools are pinned to one
thread so that no reduction order depends on the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VALIDATE_DELTAS = 3
VALIDATE_FIXTURES = ("asym", "variable")
EDGE_ORDERS = (0, 1)


def _emitter(keep, lines=None):
    """print(sha256, label) for one output file; with ``keep``, also copy
    the file there as label (spaces as underscores) plus its suffix, and
    with ``lines``, append the printed line to it."""
    def emit(path, label):
        path = Path(path)
        line = f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}"
        print(line)
        if lines is not None:
            lines.append(line)
        if keep is not None:
            shutil.copyfile(path, keep / (label.replace(" ", "_") + path.suffix))
    return emit


def _digests(lines):
    """label -> sha256 of digest lines (``sha256  label``)."""
    return {label: sha for sha, label in
            (line.split("  ", 1) for line in lines if line.strip())}


def differing_labels(expected, lines):
    """The labels whose digest differs between the saved digest text
    ``expected`` and the digest ``lines``, or that only one of them has:
    those of ``lines`` first, in their order, then the rest."""
    want, got = _digests(expected.splitlines()), _digests(lines)
    return [label for label in dict.fromkeys([*got, *want])
            if got.get(label) != want.get(label)]


def report_differences(expected, lines):
    """Print each differing label to stderr; the exit code, 1 if any."""
    labels = differing_labels(expected, lines)
    for label in labels:
        print(f"differs: {label}", file=sys.stderr)
    return 1 if labels else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the beamwkb package")
    ap.add_argument("--keep", type=Path, default=None,
                    help="directory to save every hashed output into")
    ap.add_argument("--expect", type=Path, default=None,
                    help="saved digest to compare with; exit 1 on a difference")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "beamwkb" / "__init__.py").is_file():
        print(f"error: no beamwkb package under {src}", file=sys.stderr)
        return 2
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
    emitted = []
    emit = _emitter(args.keep, emitted)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import beamwkb
    if Path(beamwkb.__file__).resolve().parent != src / "beamwkb":
        print(f"error: imported beamwkb from {beamwkb.__file__}", file=sys.stderr)
        return 2
    from beamwkb import cli, harness
    from beamwkb.model import load_config
    from workloads import (DELTAS, FIXTURES, VALIDATE_L, Validate,
                           fixture_config, write_config)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in FIXTURES:
            for delta in DELTAS:
                art = harness.build_expansion(
                    *load_config(write_config(tmp, name, delta)))
                path = tmp / "artifact.json"
                harness.save_artifact(art, path)
                emit(path, f"artifact {name} delta={delta!r}")
        for n_max in EDGE_ORDERS:
            config = tmp / "edge.config.json"
            config.write_text(json.dumps(
                {**fixture_config("asym", DELTAS[0]), "n_max": n_max}) + "\n")
            art = harness.build_expansion(*load_config(config))
            path = tmp / "artifact.json"
            harness.save_artifact(art, path)
            emit(path, f"artifact asym n_max={n_max} delta={DELTAS[0]!r}")
        for name in VALIDATE_FIXTURES:
            for delta in DELTAS[:VALIDATE_DELTAS]:
                art = harness.build_expansion(
                    *load_config(write_config(tmp, name, delta)))
                path = tmp / f"{name}.artifact.json"
                harness.save_artifact(art, path)
                csv, js = tmp / "report.csv", tmp / "report.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([
                        "validate", "--artifact", str(path),
                        "--n", str(Validate.n),
                        "--l", f"{VALIDATE_L[0]}:{VALIDATE_L[1]}",
                        "--csv", str(csv), "--json", str(js)])
                if code != 0:
                    print(f"error: validate exited with {code} on {name} at "
                          f"delta={delta!r}", file=sys.stderr)
                    return 1
                emit(csv, f"validate {name} csv delta={delta!r}")
                emit(js, f"validate {name} json delta={delta!r}")
        config = write_config(tmp, "asym", DELTAS[0])
        art = harness.build_expansion(*load_config(config))
        eps = art.epsilon(VALIDATE_L[0])
        commands = {
            "oracle": ["oracle", "--config", str(config), "--epsilon",
                       repr(eps), "--target",
                       repr(art.lambda_trunc(eps, Validate.n)),
                       "--out", str(tmp / "oracle.json")],
            "sweep-delta": ["sweep-delta", "--config", str(config),
                            "--deltas", repr(DELTAS[0]),
                            "--n", str(Validate.n),
                            "--out-prefix", str(tmp / "sweep")],
        }
        for command, argv in commands.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                print(f"error: {command} exited with {code}", file=sys.stderr)
                return 1
        emit(tmp / "oracle.json", f"oracle asym delta={DELTAS[0]!r}")
        emit(tmp / "sweep_summary.json",
             f"sweep-delta asym summary delta={DELTAS[0]!r}")
        emit(tmp / f"sweep_delta{DELTAS[0]:g}.json",
             f"sweep-delta asym json delta={DELTAS[0]!r}")
    if args.expect is not None:
        return report_differences(args.expect.read_text(), emitted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
