"""`python -m convertbw`: the same command line as the convertbw script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
