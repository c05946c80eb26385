"""`python -m pnsoft`: the command line interface, as the `pnsoft` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
