import importlib
import importlib.util
from pathlib import Path

METRICS = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"


def test_every_benchmark_traced_function_exists():
    # `perfbench/run.py --trace 1` looks each entry up with getattr on
    # flowincentives.<module> and dies on a missing one, so renaming or
    # deleting a traced layer function breaks the traced benchmark
    spec = importlib.util.spec_from_file_location("perfbench_metrics", METRICS)
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    assert metrics.TRACED_FUNCTIONS
    for entry in metrics.TRACED_FUNCTIONS:
        module_name, function = entry.split(".")
        module = importlib.import_module(f"flowincentives.{module_name}")
        assert callable(getattr(module, function, None)), entry
