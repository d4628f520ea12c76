"""One ``rlf-lab`` process, as the benchmark spawns it.

    python3 perfbench/child.py {plain|setup|trace} SIDECAR.json rlf-lab-args...

``plain`` runs ``rlflab.cli.main`` with one hook that stamps the time the
first ``catalog_field`` call returns.  ``setup`` stops the process right
there, so set-up can be timed again without a whole run.  ``trace``
installs every wrapper from ``tracer.py`` as well.  The sidecar JSON gets
the set-up stamp, the exit code, the library versions and, when traced,
the spans and counts.  ``PYTHONPATH`` must name the repository's ``src``.
"""

from __future__ import annotations

import json
import sys
from importlib import metadata

import tracer as tracing


class _SetupDone(BaseException):
    """Unwinds a ``setup`` probe once the first field is built."""


def main(argv) -> int:
    mode, sidecar, cli_args = argv[0], argv[1], argv[2:]
    import numpy
    import rlflab.cli as cli

    tracer = tracing.Tracer()
    if mode == "trace":
        tracing.install(tracer)
    else:
        cli.catalog_field = tracer.mark_setup(cli.catalog_field)
    if mode == "setup":
        built = cli.catalog_field

        def stop_after_setup(*args, **kwargs):
            built(*args, **kwargs)
            raise _SetupDone

        cli.catalog_field = stop_after_setup
    code = 1  # what an uncaught exception exits with
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    finally:
        record = {
            "exit_code": code,
            "setup_at": tracer.setup_at,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": metadata.version("scipy"),
            },
        }
        if mode == "trace":
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        with open(sidecar, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
