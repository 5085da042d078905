"""Set-up probe: start, import the package, write and parse the run config.

Usage: python3 perfbench/probe.py CONFIG_JSON OUT_PATH

Prints `time.monotonic()` at the moment the first command could run, so
the parent, which read the same clock before starting this process, gets
the set-up time without the process exit.
"""

import os
import sys
import time


def main(config_text: str, out_path: str) -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import nesua.cli  # noqa: F401  (what every command imports first)
    from nesua.config import RunConfig, load_config, write_config

    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    write_config(RunConfig.from_dict(load_config(out_path)), out_path + ".merged")
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
