import sys

from .entry import main

sys.exit(main())
