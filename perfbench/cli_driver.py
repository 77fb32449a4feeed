"""Run one evso CLI command the way the `evso` console script does.

Usage: python3 cli_driver.py REPORT.json [--trace] EVSO-ARGS...

After the command returns, REPORT.json receives the process's peak RSS
(VmHWM, which starts afresh at exec, unlike ru_maxrss, which carries the
parent's peak into a child spawned with vfork) and, with --trace, the spans
recorded around each layer. The exit code is the command's. evso must be
importable (PYTHONPATH pointing at the source tree).
"""

import json
import signal
import sys

import evso
from evso import cli

from tracer import Tracer, peak_rss_mb


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    # A process started in the background inherits SIGINT ignored, and
    # `evso serve` stops only on KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = Tracer()
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        tracer.install(evso)
        code = tracer.call("cli.main", cli.main, argv)
    else:
        code = cli.main(argv)
    with open(report_path, "w") as fh:
        json.dump({"peak_rss_mb": peak_rss_mb(), "spans": tracer.take()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
