"""Allow running the CLI as ``python -m minregion``; run() is also the console script."""

import gc
import sys


def run() -> int:
    """Import the CLI with the cyclic GC off, freeze what was imported, then run main().

    The import-time heap (numpy and this package, some 30k tracked objects)
    lives until the process exits and is almost never garbage, so the
    collections that importing triggers, and the one at shutdown, scan it
    for nothing.  gc.freeze() moves it to the permanent generation, which
    the collector skips; the collector is back on before main() runs, so
    memory stays bounded on long campaigns.
    """
    gc.disable()
    try:
        from .cli import main
    finally:
        gc.freeze()
        gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
