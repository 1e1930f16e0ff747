import os
import subprocess
import sys

import numpy as np

import flowhazard
from flowhazard.survival import SurvivalTable, km_fit
from flowhazard.svgplot import km_svg


def small_curve():
    return km_fit(SurvivalTable(np.array([1.0, 2.0, 3.0]),
                                np.array([1, 0, 1]), np.zeros((3, 1))))


def test_title_escapes_only_markup_characters():
    svg = km_svg(small_curve(), title="""a & b < c > d " e ' f""")
    title_line = svg.splitlines()[2]
    assert title_line == (
        '<text x="320" y="22" text-anchor="middle" font-size="14">'
        """a &amp; b &lt; c &gt; d " e ' f</text>"""
    )


def test_censor_marks_sit_on_the_curve_after_tied_events():
    # S = 4/5 after t=1 and 3/5 after t=2; the censorings at 2 (twice,
    # one mark) and 3 take the value after the event at their time, and
    # y = 36 + 336 * (1 - 3/5) = 170.4
    curve = km_fit(SurvivalTable(np.array([1.0, 2.0, 2.0, 2.0, 3.0]),
                                 np.array([1, 1, 0, 0, 0]),
                                 np.zeros((5, 1))))
    marks = [line for line in km_svg(curve).splitlines()[-2].split("/>")
             if line]
    assert marks == [
        '<line x1="433.33" y1="165.40" x2="433.33" y2="175.40" '
        'stroke="#444" stroke-width="1"',
        '<line x1="620.00" y1="165.40" x2="620.00" y2="175.40" '
        'stroke="#444" stroke-width="1"',
    ]


def test_cli_import_leaves_xml_and_urllib_unloaded():
    # the child imports the same flowhazard package as this process; each
    # command imports what it runs, so the entry point loads only errors
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(flowhazard.__file__))
    probe = (
        "import sys, flowhazard.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request', "
        "'http.client', 'numpy') if m in sys.modules)); "
        "print(sorted(m for m in sys.modules if m.startswith('flowhazard')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "[]", "['flowhazard', 'flowhazard.cli', 'flowhazard.errors']",
    ]


def test_km_output_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call; the KM writers do not
    # call it, so `km --svg` does not pay for that import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(flowhazard.__file__))
    probe = (
        "import io, sys; import numpy as np; import flowhazard.cli; "
        "from flowhazard.survival import SurvivalTable, km_fit, km_to_csv; "
        "from flowhazard.svgplot import km_svg; "
        "curve = km_fit(SurvivalTable(np.array([1.0, 2.0, 2.0, 3.0, 5.0]), "
        "np.array([1, 0, 0, 1, 0]), np.zeros((5, 1)))); "
        "km_to_csv(curve, io.StringIO()); svg = km_svg(curve); "
        "print(svg.count('stroke=\"#444\"'), 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["2", "False"]
