import sys
from pathlib import Path

# The benchmark imports minimon from the source tree, as run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
