"""Set-up probe: everything a job does before its command work.

Usage: python3 perfbench/setup_probe.py [CONFIG.ini ...] [--examples]

Starts the interpreter, imports ``kummercodes.cli``, parses each config
and builds its field and curve (``--examples`` builds the curves of the
``verify-example`` jobs), then exits.  run.py times this process
from spawn to exit as ``setup_s``.  Exits 3 if ``kummercodes`` was not
imported from this checkout's ``src/``.
"""

import sys
from pathlib import Path

import kummercodes.cli as cli


def main(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"kummercodes imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    for arg in argv:
        if arg == "--examples":
            from kummercodes import verify
            for build in (verify.curve_example_1, verify.curve_example_2,
                          verify.curve_example_4):
                build()
        else:
            cli.build_curve(cli.load_config(arg))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
