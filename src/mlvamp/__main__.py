"""``python -m mlvamp``: the ``mlvamp`` command without installing the package."""
import sys

from .cli import main

sys.exit(main())
