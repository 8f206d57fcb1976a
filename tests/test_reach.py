"""Every public function of the package is reached from the command line.

An AST walk over src/cachecast: each module-level function, class and
assigned name is a node, and it reaches every name its definition mentions,
as a bare name or as an attribute (`analysis.psi`, `self.table.phi`). Names
are matched by their bare text across modules, which can only over-count
what is reached. From `cli.main` this reaches the `ANALYTICS` registry and
the `FIGURE_PRESETS` data, and through them every function they name.
The only public functions it may miss are those the benchmark reaches,
as `test_benchmark_surface.BENCHMARK_SURFACE` lists them.
"""

import ast
from pathlib import Path

from test_benchmark_surface import BENCHMARK_SURFACE

SRC = Path(__file__).resolve().parents[1] / "src" / "cachecast"


def module_nodes():
    """(bare name -> names its definitions mention, public function names)."""
    mentions, public = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    public.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            mentioned = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            mentioned |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            for name in names:
                mentions.setdefault(name, set()).update(mentioned)
    return mentions, public


def reached_from(start, mentions):
    reached, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(mentions.get(name, ()))
    return reached


def test_the_cli_reaches_every_public_function_but_the_listed_ones():
    mentions, public = module_nodes()
    assert {"main", "ANALYTICS", "FIGURE_PRESETS"} <= set(mentions)
    reached = reached_from("main", mentions)
    unreached = public - reached
    # numerics.integrate.quad is scipy's, so only the package's names count
    benchmark_only = {dotted.rsplit(".", 1)[-1] for dotted in BENCHMARK_SURFACE} & public
    assert unreached == benchmark_only - reached, (
        f"reached neither from cli.main nor by the benchmark: "
        f"{sorted(unreached - benchmark_only)}")
    assert unreached == {"capacity_sum_cdf", "full_session_delay", "mn_stage_delay",
                         "log_char_moment", "mc_average_rate"}


def test_the_walk_counts_registry_entries_as_reached():
    # psi is called from the ANALYTICS entries and from validate, large-B
    # forms only through ANALYTICS and FIGURE_PRESETS
    mentions, _ = module_nodes()
    reached = reached_from("main", mentions)
    assert {"ANALYTICS", "FIGURE_PRESETS", "acc_rate_large_b", "h_order_stat",
            "acc_over_mn_large_b", "psi"} <= reached
    # and a name mentioned nowhere is not
    assert "capacity_sum_cdf" not in reached
