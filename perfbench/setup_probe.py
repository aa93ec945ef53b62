"""Time the start-up of the rieszmin CLI: interpreter start, `import
rieszmin.cli` and config parsing, up to where the command body starts.

    python3 perfbench/setup_probe.py <rieszmin cli arguments>

Runs the CLI module as `python3 -m rieszmin.cli` would, but stops right
after the config file is parsed: prints `time.monotonic()` at that moment
and exits without running the command.  The caller subtracts its own
`time.monotonic()` taken just before spawning this process.
"""

import os
import runpy
import sys
import time


def main(argv) -> None:
    import rieszmin.io

    load_json_config = rieszmin.io.load_json_config

    def parse_then_stop(path):
        load_json_config(path)
        print(repr(time.monotonic()), flush=True)
        os._exit(0)

    rieszmin.io.load_json_config = parse_then_stop
    sys.argv = ["rieszmin", *argv]
    runpy.run_module("rieszmin.cli", run_name="__main__", alter_sys=True)
    sys.exit("setup probe: the command ended before parsing its config")


if __name__ == "__main__":
    main(sys.argv[1:])
