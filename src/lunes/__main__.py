"""The `lunes` process entry: the console script and `python -m lunes`.

Importing this module imports nothing else, numpy included, so `main` can
switch the cyclic collector off before the imports that matter.  The
command surface itself is `lunes.cli.main(argv)`, which in-process callers
use and which leaves the collector as it finds it.
"""

import gc
import sys


def main() -> int:
    """Run one command in this process, from sys.argv.

    Importing numpy and the package leaves some 22,000 objects behind, all
    of them alive until exit but about 450 import-time cycles (some 60 kB),
    which are kept.  The collector is off while they are made, and
    gc.freeze() moves them to the permanent generation, so neither the
    collections during the command nor those at exit walk them.
    """
    gc.disable()
    try:
        from . import cli
        gc.freeze()
    finally:
        gc.enable()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
