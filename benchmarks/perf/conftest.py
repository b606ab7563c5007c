"""Make the program (``src/``) and this directory's modules importable
when pytest is pointed here; tier-1 (``testpaths = tests``) never is."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.normpath(os.path.join(HERE, "..", "..", "src"))):
    if path not in sys.path:
        sys.path.insert(0, path)
