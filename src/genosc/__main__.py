"""Run the command-line interface as ``python -m genosc``."""

from .cli import entry

if __name__ == "__main__":
    entry()
