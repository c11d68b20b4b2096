"""One benchmark execution in a fresh process.

    python3 child.py --record PATH --spawned-at T [--spans PATH]
                     [--setup-only] -- <nsdarcy arguments>

``T`` is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared between processes, so ``setup_s``
covers interpreter start-up and the import of ``nsdarcy.cli``.  With
``--spans`` the package is traced (see ``tracer.py``) and the spans are
written to that path.  The record holds ``setup_s``, ``wall_s`` (the time
of ``nsdarcy.cli.main`` alone), ``exit_code`` and, when traced, the
per-layer metrics.  The process exits with the command's exit code.
"""

import json
import sys
import time


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def main(argv):
    split = argv.index("--") if "--" in argv else len(argv)
    opts, cli_argv = argv[:split], argv[split + 1:]
    record_path = opts[opts.index("--record") + 1]
    spawned_at = float(opts[opts.index("--spawned-at") + 1])
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    from nsdarcy import cli
    record = {"setup_s": time.monotonic() - spawned_at}
    if "--setup-only" in opts:
        _write_json(record_path, record)
        return 0

    run = cli.main
    if spans_path:
        import tracer
        recorder = tracer.Tracer()
        tracer.install(recorder)
        run = recorder.wrap("cli", cli.main)
    start = time.perf_counter()
    code = run(cli_argv)
    record["wall_s"] = time.perf_counter() - start
    record["exit_code"] = code
    if spans_path:
        record["per_layer"] = recorder.metrics()
        _write_json(spans_path, recorder.span_records())
    _write_json(record_path, record)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
