"""``python -m greenvar``: the greenvar command line."""

import sys

from .cli import main

sys.exit(main())
