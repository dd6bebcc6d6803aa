"""``python -m nmrqc``: the command-line interface of ``nmrqc.cli``,
exiting with its status."""
import sys

from .cli import main

sys.exit(main())
