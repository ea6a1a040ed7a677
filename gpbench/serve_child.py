"""Run ``repro serve`` as the benchmark's server child.

Usage::

    python3 gpbench/serve_child.py [--probe-out PATH] serve --model-dir M ...

Everything after the optional ``--probe-out PATH`` is handed to the
program's own CLI unchanged.  With ``--probe-out`` the forward-pass
layers are timed (see :mod:`gpbench.probes`) and the totals are written
to ``PATH`` as JSON when the server exits, which it does on SIGTERM.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    probe_out = None
    if argv[:1] == ["--probe-out"]:
        probe_out, argv = argv[1], argv[2:]
    from repro import cli

    if probe_out is None:
        return cli.main(argv)
    from gpbench.probes import Probe, install_forward

    probe = Probe()
    install_forward(probe)
    try:
        return cli.main(argv)
    finally:
        pathlib.Path(probe_out).write_text(json.dumps(probe.to_dict()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
