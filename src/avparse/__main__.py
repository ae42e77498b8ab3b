"""``python -m avparse``: the same command-line interface as ``avparse``."""

import sys

from .cli import main

sys.exit(main())
