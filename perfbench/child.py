"""One benchmark process: set up, or run one specband command with or without spans.

    python perfbench/child.py setup  RESULT.json -- <specband arguments>
    python perfbench/child.py plain  RESULT.json -- <specband arguments>
    python perfbench/child.py traced RESULT.json -- <specband arguments>

``setup`` imports specband and builds the command's parsed arguments, model,
kernel and (for ``verify``) experiment plan, then exits. ``plain`` and
``traced`` run ``specband.cli.main`` in this process; ``traced`` first patches
the layer functions (see spans.py). RESULT.json receives the import time, the
exit code and the spans. The package must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
import time


def _setup(argv):
    from specband.cli import build_parser
    from specband.kernels import get_kernel
    from specband.mc import ExperimentPlan
    from specband.models import parse_model

    args = build_parser().parse_args(argv)
    parse_model(args.model)
    get_kernel(getattr(args, "kernel", "bartlett"))
    if args.command == "verify":
        plan = ExperimentPlan(
            experiment=args.experiment.replace("-", "_"),
            model_spec=args.model,
            kernel_name=args.kernel,
            t_grid=tuple(int(t) for t in args.t_grid.split(",")),
            b_exponent=args.b_exponent,
            c_const=args.c_const,
            reps=args.reps,
            seed=args.seed,
            workers=args.threads,
        )
        plan.model()
        plan.kernel()


def main() -> int:
    mode, result_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "plain", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    import specband.cli

    import_s = time.perf_counter() - start
    spans = []
    code = 0
    if mode == "setup":
        _setup(argv)
    else:
        cli_main = specband.cli.main
        if mode == "traced":
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
            cli_main = recorder.wrap("cli", cli_main)
            spans = recorder.spans
        code = cli_main(argv)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "import_s": import_s, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
