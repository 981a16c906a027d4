"""`python -m gazescreen ...`: the `gazescreen` command without its
console script."""
import sys

from .cli import main

sys.exit(main())
