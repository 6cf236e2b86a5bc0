"""One workload step, run in a fresh interpreter by perfbench/run.py.

    child.py [--trace SPANS.json] [--time BODY.json] setup INPUT
    child.py [--trace SPANS.json] [--time BODY.json] newton INPUT
    child.py [--trace SPANS.json] [--time BODY.json] cli ARGS...

`setup` imports mtfan.cli and loads the input into a Module, printing its
dimension vector.  `newton` prints the Newton polytope document, as
`mtfan newton` would, without building the fan.  `cli` runs `mtfan ARGS`.
`--trace` installs the tracer and writes its spans at exit; `--time` writes
the wall time of the step itself (without interpreter start-up).
"""
from __future__ import annotations

import json
import sys
import time


def _setup(path):
    from mtfan.serialize import module_from_doc

    with open(path, encoding="utf-8") as fh:
        _, module = module_from_doc(json.load(fh))
    print(json.dumps(list(module.dims)))
    return 0


def _newton(path):
    from mtfan.serialize import module_from_doc, polytope_doc
    from mtfan.sublattice import newton_polytope

    with open(path, encoding="utf-8") as fh:
        _, module = module_from_doc(json.load(fh))
    sys.stdout.write(json.dumps(polytope_doc(newton_polytope(module)), indent=2) + "\n")
    return 0


def _cli(args):
    from mtfan.cli import main

    return main(args)


STEPS = {"setup": _setup, "newton": _newton, "cli": _cli}


def main(argv):
    trace_path = time_path = None
    while argv and argv[0] in ("--trace", "--time"):
        if argv[0] == "--trace":
            trace_path = argv[1]
        else:
            time_path = argv[1]
        argv = argv[2:]
    step, args = argv[0], argv[1:]
    if step != "cli":
        (args,) = args

    import mtfan.cli  # noqa: F401  (imports every module a step uses)

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer().install()
    start = time.perf_counter()
    rc = STEPS[step](args)
    body_s = time.perf_counter() - start
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    if time_path is not None:
        with open(time_path, "w", encoding="utf-8") as fh:
            json.dump({"body_s": body_s}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
