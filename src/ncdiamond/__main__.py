"""Module entry point: ``python -m ncdiamond``."""

from .cli import run

if __name__ == "__main__":
    run()
