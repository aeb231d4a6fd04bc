"""Import the benchmark's modules and the program from this checkout."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from common import use_source_tree  # noqa: E402

use_source_tree()
