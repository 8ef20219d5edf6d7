"""Which outputs depend on how the platform's ``libm`` rounds.

``wetting`` and ``gradient`` call ``math.cos``, ``math.sin`` and
``math.acos``, which not every ``libm`` rounds correctly.  Here each of them
returns one ulp above its result, and every output is compared with an
unperturbed run in the same process.  The lattice, the mask writers and the
Monte Carlo kernel use none of them, and the text stdouts below round to 6
or 9 decimals, so the GDSII, the SVG and those stdouts stay the same.  The
droplet trace CSV and ``report --json`` print each angle and force as its
shortest round-trip float: they are the outputs bound to ``libm``,
byte-identical on one platform.
"""

import math

from lotuskit.cli import run

_RAMP = ["--length-nm", "10000000", "--f-start", "0.19", "--f-end", "0.4375"]

#: Commands whose stdout is compared.
STDOUTS = {
    "angle": ["angle", "--f", "0.19", "--theta", "81"],
    "fraction": ["fraction", "--wall", "400", "--mc-samples", "100000"],
    "design gradient": ["design", "gradient", *_RAMP, "--width-nm", "200000"],
    "report": ["report"],
    "report --json": ["report", "--json"],
    "check": ["check", "--reference"],
}

#: Commands whose artifact is compared, by the flag that names its path.
ARTIFACTS = {
    "reference.gds": ["export", "--reference", "--out"],
    "gradient.gds": ["export", "--gradient", *_RAMP, "--width-nm", "200000", "--out"],
    "reference.svg": ["export", "--reference", "--format", "svg", "--crop-um", "300", "--out"],
}

#: The benchmark ramp's trace.
TRACE = ["simulate", *_RAMP, "--step-nm", "1000", "--csv"]

#: The outputs that print shortest round-trip floats, and so move.
LIBM_BOUND = ("report --json", "trace.csv")


def outputs(directory, capsys):
    """Each command's stdout, then each artifact's bytes and the trace's."""
    directory.mkdir()
    result = {}
    for name, argv in STDOUTS.items():
        assert run(argv) == 0
        result[name] = capsys.readouterr().out
    for name, argv in {**ARTIFACTS, "trace.csv": TRACE}.items():
        assert run([*argv, str(directory / name)]) == 0
        capsys.readouterr()
        result[name] = (directory / name).read_bytes()
    return result


def test_only_the_trace_csv_and_json_report_depend_on_libm(tmp_path, monkeypatch, capsys):
    exact = outputs(tmp_path / "exact", capsys)
    for name in ("cos", "sin", "acos"):
        function = getattr(math, name)
        monkeypatch.setattr(
            math, name, lambda x, function=function: math.nextafter(function(x), math.inf)
        )
    perturbed = outputs(tmp_path / "perturbed", capsys)
    for name in LIBM_BOUND:
        assert perturbed.pop(name) != exact.pop(name), name
    assert perturbed == exact
