import sys
from pathlib import Path

# the benchmark's modules import each other as top-level modules, the way
# ``python3 perfbench/run.py`` runs them
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
