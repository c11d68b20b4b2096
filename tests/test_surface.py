"""The production surface: ``tools/census.py`` lists the defaulted
parameters that no call in ``src`` sets and the definitions that no code in
``src`` reads, and each entry on either list is one kept on purpose, with
its reason.  A keyword or function that only tests use fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SMOOTH_CASE = ("the balance property in test_analysis.py draws this "
               "parameter of the smooth case")
TRACED = ("perfbench/tracer.py times this function by name; it goes when "
          "a benchmark change drops it from the tracer's list")

NO_CALL_SETS = {
    "main(argv)": "perfbench/child.py and the CLI tests pass the arguments",
    "smooth_case(G)": SMOOTH_CASE,
    "smooth_case(K)": SMOOTH_CASE,
    "smooth_case(amplitude)": SMOOTH_CASE,
    "smooth_case(head_amplitude)": SMOOTH_CASE,
    "smooth_case(nu)": SMOOTH_CASE,
    "smooth_case(pressure_amplitude)": SMOOTH_CASE,
}

NO_READER = {
    "analysis.dual_norm_fluid": TRACED,
    "analysis.dual_norm_porous": TRACED,
    "assembly.bjs_matrix": TRACED,
    "assembly.divergence_value": TRACED,
    "assembly.interface_coupling_matrix": TRACED,
    "assembly.interface_head_flux": TRACED,
    "assembly.load_value": TRACED,
    "assembly.newton_convection_matrix": TRACED,
}


def census():
    """The census of ``src/nsdarcy``: {section header: entries}."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "census.py"),
         str(ROOT / "src" / "nsdarcy")],
        capture_output=True, text=True, check=True).stdout
    sections = {}
    for line in out.splitlines():
        if line.startswith("  "):
            sections[header].append(line.strip())
        else:
            header = line.split(":")[0]
            sections[header] = []
    return sections


def test_census_lists_only_the_allowlisted_entries():
    sections = census()
    assert sections["defaulted parameters no call sets"] == sorted(NO_CALL_SETS)
    assert sections["definitions no code reads"] == sorted(NO_READER)
