"""Child `python -m corrdyn` processes import the same corrdyn as the tests."""

import os
from pathlib import Path

import corrdyn

_SRC = str(Path(corrdyn.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
