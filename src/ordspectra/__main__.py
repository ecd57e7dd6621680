"""``python -m ordspectra``: the command-line interface of ``cli.main``."""

import sys

from .cli import main

sys.exit(main())
