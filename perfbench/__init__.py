"""End-to-end benchmark of circlequad; run ``python3 perfbench/run.py``."""
