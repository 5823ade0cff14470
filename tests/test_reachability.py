"""Every function under `src/stacksim` is on a path from a user verb to a
number, and every option of a verb is read by a run of it, or an allowlist
says why not.

The runs (`_runs`) are `stacksim` command lines, each small but for the
datasheet of `validate --measure`: every verb, both shipped configs, and
one refused input for each error class that `cli.main` turns into exit 2.
They run once, in-process, under `sys.setprofile`, which records the code
object of every function called, and each parses its arguments into a
namespace that records which of them the verb reads. The defined functions
are the module-level functions, methods and property getters of every
`stacksim` module, counted once per code object, so a re-export is one
function. Nested closures and methods that `dataclasses` generates are not
counted.

The functions no run reaches must be exactly the allowlist: a new function
that no verb calls fails the test, and so does an allowlisted one that a
verb starts to call, so the list shrinks as the directions that give its
entries callers land. Each entry names the ROADMAP direction, or the
benchmark (`perfbench`) dependency, that keeps it. The options no run of
their verb reads must likewise be exactly `INERT_OPTIONS`.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from importlib import resources
from pathlib import Path

import pytest

import stacksim
from stacksim import cli
from stacksim.workloads import load_kernel

SRC = Path(stacksim.__file__).resolve().parent

ALLOWLIST = {
    "stacksim.orchestrator.roofline_cycles":
        "perfbench's decode check, at the typecheck config (direction 7)",
    "stacksim.workloads.graph_totals":
        "bytes moved against the bytes a model implies (directions 4 and 5)",
    "stacksim.workloads.ModelSpec.params_per_layer":
        "the weight bytes a model implies (directions 4 and 5)",
    "stacksim.workloads.ModelSpec.kv_bytes_per_token":
        "the KV bytes a model implies (directions 4 and 5)",
    "stacksim.partition.split_gemm":
        "FC collectives from their reduction groups (direction 8)",
    "stacksim.thermal.ThermalGrid.step":
        "the transient of a step's per-operator power, or a stated reason to "
        "keep it unused (direction 6)",
    "stacksim.arch.serialize":
        "the config hash in a report's provenance (direction 5)",
    "stacksim.dramsim.Request.bytes":
        "perfbench's micro check of total_bytes against the bytes of its "
        "traces (direction 7)",
    "stacksim.nocsim.zero_load_latency":
        "the independent NoC reference of the datasheet and of the collective "
        "algorithm choice (directions 1 and 8)",
}


INERT_OPTIONS = {
    ("sweep", "thermal_resolution"):
        "perfbench/scenarios.py passes it; deleting it changes the benchmark "
        "(direction 7)",
}


def _config(name: str) -> str:
    return str(resources.files("stacksim").joinpath(f"configs/{name}.yaml"))


def _runs(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every run, in order."""
    (tmp / "noc5.yaml").write_text("dram: {}\ncore: {}\nnoc: 5\n")
    (tmp / "bad.kl").write_text("kernel k(N):\n    x = 1\n")
    (tmp / "deep.kl").write_text(
        "kernel k(N):\n    x = alloc((" + "-" * 3000 + "N,), fp16)\n")
    sweep_csv = str(tmp / "sweep.csv")
    mm = ["--kernel", "matmul", "--bind", "M=64", "K=256", "N=64"]
    return [
        (["validate", "--config", _config("default"), "--measure",
          "--out", str(tmp / "datasheet.txt")], 0),
        (["validate", "--config", _config("edge")], 0),
        (["parse", *mm, "tM=64", "tN=64", "tK=256"], 0),
        (["parse", "--kernel", "matmul", "--dump-ast", "--out", str(tmp / "ast.json")], 0),
        (["tune", *mm, "tM=64", "tK=256", "--limit", "8", "--out", str(tmp / "tune.yaml")], 0),
        (["simulate", "--kernel", "fused_attention",
          "--bind", "B=4", "D=64", "L=256", "tL=64"], 0),
        (["simulate", "--model", "llama3.2-1b", "--layers", "1",
          "--out", str(tmp / "dense.csv")], 0),
        (["simulate", "--model", "mixtral-8x22b", "--layers", "1", "--tp", "2", "--ep", "2"], 0),
        (["simulate", "--model", "llama3.2-1b", "--layers", "1", "--regulate"], 0),
        (["sweep", "interleave_x", "3", "5", "--out", sweep_csv], 0),
        (["report", sweep_csv], 0),
        # Refusals: ArchError, KernelSyntaxError (a statement outside the
        # subset, and an expression too deep for Python's parser),
        # TypecheckError, TilerError, WorkloadError, and a SweepError, which
        # the sweep writes as an `invalid:` row.
        (["validate", "--config", str(tmp / "noc5.yaml")], 2),
        (["parse", "--kernel", str(tmp / "bad.kl")], 2),
        (["parse", "--kernel", str(tmp / "deep.kl")], 2),
        (["parse", *mm, "tM=64", "tN=64", "K=1048576", "tK=1048576"], 2),
        (["tune", *mm, "--limit", "0"], 2),
        (["simulate", "--model", "llama3.2-1b", "--layers", "0"], 2),
        (["sweep", "interleave_x", "1.5", "--out", str(tmp / "invalid.csv")], 0),
    ]


class _ReadLog(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_read", set())

    def __getattribute__(self, name):
        object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def _called(runs, monkeypatch) -> tuple[set, list[int], list[set]]:
    """Code objects of every function the runs call, their exit codes, and
    the names each run's verb read from its parsed arguments."""
    called, reads = set(), []
    load_kernel.cache_clear()  # so the runs parse the shipped kernels again
    build_parser = cli.build_parser

    def recording_parser():
        parser = build_parser()
        parse_args = parser.parse_args

        def parse(argv):
            args = parse_args(argv, namespace=_ReadLog())
            read = object.__getattribute__(args, "_read")
            read.clear()  # argparse's own reads while it parsed
            reads.append(read)
            return args

        parser.parse_args = parse
        return parser

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    return called, codes, reads


@pytest.fixture(scope="module")
def verb_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    runs = _runs(tmp)
    with pytest.MonkeyPatch.context() as monkeypatch:
        called, codes, reads = _called(runs, monkeypatch)
    return tmp, runs, called, codes, reads


def _functions(obj):
    """The functions `obj` defines: itself, or a class's methods and
    property getters."""
    if inspect.isclass(obj):
        for attr in vars(obj).values():
            if isinstance(attr, (staticmethod, classmethod)):
                yield attr.__func__
            elif isinstance(attr, property):
                yield attr.fget
            elif inspect.isfunction(attr):
                yield attr
    elif callable(obj):
        fn = inspect.unwrap(obj)  # e.g. through functools.cache
        if inspect.isfunction(fn):
            yield fn


def _defined() -> dict:
    """Code object -> qualified name of every function under src/stacksim."""
    for info in pkgutil.walk_packages(stacksim.__path__, "stacksim."):
        importlib.import_module(info.name)
    defined = {}
    for name, module in list(sys.modules.items()):
        if name != "stacksim" and not name.startswith("stacksim."):
            continue
        for obj in vars(module).values():
            for fn in _functions(obj):
                code = fn.__code__
                # Generated methods (dataclasses, NamedTuple) have no file here.
                if SRC in Path(code.co_filename).resolve().parents:
                    defined[code] = f"{fn.__module__}.{fn.__qualname__}"
    return defined


def test_every_function_is_reached_by_a_verb_or_allowlisted(verb_runs):
    tmp, runs, called, codes, _ = verb_runs
    assert codes == [rc for _, rc in runs]
    assert "invalid: " in (tmp / "invalid.csv").read_text()
    assert "paged kv" in (tmp / "datasheet.txt").read_text()
    unreached = {name for code, name in _defined().items() if code not in called}
    dead = sorted(unreached - ALLOWLIST.keys())
    assert not dead, f"defined, but no verb reaches them: {dead}"
    stale = sorted(ALLOWLIST.keys() - unreached)
    assert not stale, f"allowlisted, but reached or gone: {stale}"
    assert all("direction" in why or "perfbench" in why for why in ALLOWLIST.values())


def test_every_option_is_read_by_a_run_of_its_verb(verb_runs):
    _, runs, _, _, reads = verb_runs
    (verbs,) = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    read = {(argv[0], name) for (argv, _), names in zip(runs, reads, strict=True)
            for name in names}
    options = {(verb, a.dest) for verb, parser in verbs.choices.items()
               for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    inert = sorted(options - read - INERT_OPTIONS.keys())
    assert not inert, f"options no run of their verb reads: {inert}"
    stale = sorted(INERT_OPTIONS.keys() - (options - read))
    assert not stale, f"allowlisted as inert, but read or gone: {stale}"
