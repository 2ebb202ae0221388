"""Tests for the command-line front end and interactive shell."""

import io

import pytest

from repro.cli import Shell, format_table, main
from repro.util.errors import ReproError
from repro.wsmed.results import QueryResult
from repro.wsmed.system import WSMED


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_shell(wsmed, script, **kwargs):
    out = io.StringIO()
    shell = Shell(wsmed, out, **kwargs)
    shell.repl(io.StringIO(script))
    return out.getvalue()


# -- formatting -----------------------------------------------------------------


def test_format_table_alignment_and_footer() -> None:
    result = QueryResult(
        columns=("city", "state"),
        rows=[("Atlanta", "GA"), ("X", "TX")],
        elapsed=1.5,
        mode="central",
        total_calls=3,
    )
    text = format_table(result)
    lines = text.splitlines()
    assert lines[0].startswith("city")
    assert "Atlanta | GA" in text
    assert "(2 rows, 1.50 model s, 3 web service calls, central mode)" in text


def test_format_table_truncation() -> None:
    result = QueryResult(
        columns=("n",),
        rows=[(i,) for i in range(30)],
        elapsed=0.0,
        mode="central",
        total_calls=0,
    )
    assert "(10 more rows)" in format_table(result, max_rows=20)


# -- one-shot CLI ------------------------------------------------------------------


def test_cli_one_shot_query() -> None:
    code, output = run_cli(
        ["--profile", "fast", "--query",
         "SELECT gs.Name FROM GetAllStates gs WHERE gs.State = 'Ohio'"]
    )
    assert code == 0
    assert "Ohio" in output
    assert "1 rows" in output


def test_cli_parallel_with_tree() -> None:
    code, output = run_cli(
        ["--profile", "fast", "--mode", "parallel", "--fanouts", "3,2",
         "--tree", "--summary", "--query",
         "SELECT gl.placename FROM GetAllStates gs, GetPlacesWithin gp, "
         "GetPlaceList gl WHERE gs.State = gp.state AND gp.distance = 15.0 "
         "AND gp.placeTypeToFind = 'City' AND gp.place = 'Atlanta' "
         "AND gl.placeName = gp.ToCity + ', ' + gp.ToState "
         "AND gl.MaxItems = 100 AND gl.imagePresence = 'true'"]
    )
    assert code == 0
    assert "q0 (coordinator)" in output
    assert "[PF1]" in output
    assert "process tree" in output


def test_cli_explain() -> None:
    code, output = run_cli(
        ["--profile", "fast", "--explain", "--query",
         "SELECT gs.Name FROM GetAllStates gs"]
    )
    assert code == 0
    assert "-- calculus --" in output
    assert "-- plan --" in output


def test_cli_error_reports_and_fails() -> None:
    code, output = run_cli(["--profile", "fast", "--query", "SELECT FROM"])
    assert code == 1
    assert "error:" in output


def test_cli_bad_fanouts() -> None:
    with pytest.raises(ReproError):
        run_cli(["--fanouts", "5,x", "--query", "SELECT 1 FROM t"])


# -- interactive shell ------------------------------------------------------------------


def test_shell_runs_sql_and_meta_commands(wsmed) -> None:
    output = run_shell(
        wsmed,
        "\\mode parallel\n"
        "\\fanouts 3\n"
        "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp\n"
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta'\n"
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City';\n"
        "\\tree\n"
        "\\summary\n"
        "\\quit\n",
    )
    assert "mode = parallel" in output
    assert "fanouts = [3]" in output
    assert "260 rows" in output
    assert "q0 (coordinator)" in output
    assert "web service calls" in output


def test_shell_multiline_statement(wsmed) -> None:
    output = run_shell(
        wsmed,
        "SELECT gs.Name FROM GetAllStates gs\nWHERE gs.State = 'Utah';\n\\quit\n",
    )
    assert "Utah" in output
    assert "  ...>" in output  # continuation prompt appeared


def test_shell_reports_sql_errors_and_continues(wsmed) -> None:
    output = run_shell(
        wsmed,
        "SELECT broken FROM nowhere;\n"
        "SELECT gs.Name FROM GetAllStates gs WHERE gs.State = 'Iowa';\n"
        "\\quit\n",
    )
    assert "error:" in output
    assert "Iowa" in output


def test_shell_owf_and_views(wsmed) -> None:
    output = run_shell(wsmed, "\\owf GetAllStates\n\\views\n\\quit\n")
    assert "create function GetAllStates()" in output
    assert "CREATE VIEW GetPlacesInside" in output


def test_shell_unknown_command(wsmed) -> None:
    output = run_shell(wsmed, "\\frobnicate\n\\quit\n")
    assert "unknown command" in output


def test_shell_tree_before_query_errors(wsmed) -> None:
    output = run_shell(wsmed, "\\tree\n\\quit\n")
    assert "no query has been executed" in output


def test_shell_help(wsmed) -> None:
    output = run_shell(wsmed, "\\help\n\\quit\n")
    assert "\\explain SQL;" in output


def test_shell_gantt_and_util(wsmed) -> None:
    output = run_shell(
        wsmed,
        "SELECT gs.Name FROM GetAllStates gs WHERE gs.State = 'Maine';\n"
        "\\gantt\n\\util\n\\quit\n",
    )
    assert "#" in output  # the gantt bar of the single GetAllStates call
    assert "util" in output.splitlines()[0] or "process" in output


def test_shell_explain_meta(wsmed) -> None:
    output = run_shell(
        wsmed, "\\explain SELECT gs.Name FROM GetAllStates gs;\n\\quit\n"
    )
    assert "-- calculus --" in output


def test_shell_eof_exits(wsmed) -> None:
    output = run_shell(wsmed, "")  # immediate EOF
    assert "WSMED shell" in output


# -- call cache ------------------------------------------------------------------


def test_shell_cache_toggle_and_report(wsmed) -> None:
    output = run_shell(
        wsmed,
        "\\cache\n"
        "\\cache on\n"
        "SELECT gs.Name FROM GetAllStates gs LIMIT 3;\n"
        "\\stats cache\n"
        "\\cache\n"
        "\\cache off\n"
        "\\quit\n",
    )
    assert "call cache: off\n" in output
    assert "cache = on" in output
    assert "call cache: 0 hits, 1 misses" in output
    assert "call cache: on\n" in output
    assert "cache = off" in output


def test_shell_cache_on_with_ttl(wsmed) -> None:
    output = run_shell(wsmed, "\\cache on 30\n\\quit\n")
    assert "cache = on (ttl 30 model s)" in output


def test_shell_cache_bad_argument(wsmed) -> None:
    output = run_shell(wsmed, "\\cache maybe\n\\quit\n")
    assert "usage: \\cache [on [TTL] | off]" in output


def test_cli_cache_flag_reports_in_summary() -> None:
    code, output = run_cli(
        [
            "--profile",
            "fast",
            "--cache",
            "--summary",
            "--query",
            "SELECT gs.Name FROM GetAllStates gs LIMIT 3",
        ]
    )
    assert code == 0
    assert "call cache:" in output


def test_shell_faults_policy_and_injection_toggles(wsmed) -> None:
    script = (
        "\\faults\n"
        "\\faults retry\n"
        "\\faults inject 0.1 0.01\n"
        "\\faults off\n"
        "\\faults maybe\n"
        "\\quit\n"
    )
    output = run_shell(wsmed, script)
    assert "on_error = fail; injection = none\n" in output
    assert "on_error = retry" in output
    assert "fault injection: call failure 0.1, crash 0.01" in output
    assert "faults = off (policy fail, no injection)" in output
    assert "usage: \\faults [fail|retry|skip | inject P [C] | off]" in output


def test_shell_faults_reports_after_execution(wsmed) -> None:
    script = (
        "\\mode parallel\n"
        "\\fanouts 4\n"
        "\\faults retry\n"
        "\\faults inject 0.05\n"
        "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
        "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
        "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City';\n"
        "\\stats faults\n"
        "\\faults\n"
        "\\quit\n"
    )
    output = run_shell(wsmed, script)
    assert "faults:" in output
    assert "failed calls" in output
    # Without an argument \\faults shows the setting, not the report.
    assert "on_error = retry; injection = call failure 0.05, crash 0\n" in output


def test_cli_on_error_flag_accepted() -> None:
    code, output = run_cli(
        [
            "--profile",
            "fast",
            "--mode",
            "parallel",
            "--fanouts",
            "3",
            "--on-error",
            "retry",
            "--query",
            "SELECT gp.ToCity FROM GetAllStates gs, GetPlacesWithin gp "
            "WHERE gp.state = gs.State AND gp.place = 'Atlanta' "
            "AND gp.distance = 15.0 AND gp.placeTypeToFind = 'City'",
        ]
    )
    assert code == 0
    assert "Atlanta" in output


# -- the unified \stats command and tracing flags --------------------------------


QUERY1_ONELINE = (
    "Select gl.placename, gl.state "
    "From GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl "
    "Where gs.State = gp.state and gp.distance = 15.0 "
    "and gp.placeTypeToFind = 'City' and gp.place = 'Atlanta' "
    "and gl.placeName = gp.ToCity + ', ' + gp.ToState "
    "and gl.MaxItems = 100 and gl.imagePresence = 'true'"
)


def test_shell_stats_shows_all_sections(wsmed) -> None:
    output = run_shell(
        wsmed,
        f"{QUERY1_ONELINE};\n\\stats\n\\quit\n",
        mode="parallel",
        fanouts=[5, 4],
    )
    assert "calls: 311 web service calls" in output
    assert "process tree: 25 spawned" in output
    assert "call cache: off" in output
    assert "messages:" in output
    assert "faults: none" in output


def test_shell_stats_engine_section(wsmed) -> None:
    output = run_shell(wsmed, "\\stats engine\n\\quit\n")
    assert "resident engine: off" in output


def test_shell_stats_unknown_section(wsmed) -> None:
    output = run_shell(wsmed, "\\stats bogus\n\\quit\n")
    assert "unknown stats section" in output


def test_shell_stats_before_query_errors(wsmed) -> None:
    output = run_shell(wsmed, "\\stats\n\\quit\n")
    assert "no query has been executed yet" in output


def test_shell_stats_critical_path_requires_tracing(wsmed) -> None:
    script = f"{QUERY1_ONELINE};\n\\stats critical_path\n\\quit\n"
    output = run_shell(wsmed, script, mode="parallel", fanouts=[5, 4])
    assert "was not traced" in output


def test_cli_stats_flag_prints_report() -> None:
    code, output = run_cli(
        [
            "--query",
            "SELECT gs.Name FROM GetAllStates gs LIMIT 2",
            "--profile",
            "fast",
            "--stats",
        ]
    )
    assert code == 0
    assert "calls:" in output and "faults: none" in output


def test_cli_trace_out_writes_valid_chrome_trace(tmp_path) -> None:
    import json

    from repro.obs.validate import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    code, output = run_cli(
        [
            "--query",
            "SELECT gs.Name FROM GetAllStates gs LIMIT 2",
            "--profile",
            "fast",
            "--trace-out",
            str(trace_path),
        ]
    )
    assert code == 0
    assert f"trace written to {trace_path}" in output
    payload = json.loads(trace_path.read_text())
    assert validate_chrome_trace(payload) == []


def test_shell_traced_stats_include_critical_path(wsmed, tmp_path) -> None:
    trace_path = tmp_path / "shell_trace.json"
    script = f"{QUERY1_ONELINE};\n\\stats critical_path\n\\quit\n"
    output = run_shell(
        wsmed,
        script,
        mode="parallel",
        fanouts=[5, 4],
        trace_out=str(trace_path),
    )
    assert "bottleneck: GetPlaceList at level 2" in output
    assert trace_path.exists()


def test_shell_help_mentions_stats(wsmed) -> None:
    output = run_shell(wsmed, "\\help\n\\quit\n")
    assert "\\stats SECTION" in output
    assert "\\cache            current call-cache setting" in output
    assert "alias for" not in output
    assert "\\engine" not in output and "\\share" not in output


def test_shell_engine_and_share_commands_are_gone(wsmed) -> None:
    output = run_shell(wsmed, "\\engine\n\\share\n\\quit\n")
    assert "unknown command \\engine" in output
    assert "unknown command \\share" in output
