"""Make the benchmark's modules importable the way ``run.py`` imports them."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
