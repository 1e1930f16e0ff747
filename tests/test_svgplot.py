import os
import subprocess
import sys

import numpy as np

import flowhazard
from flowhazard import SurvivalTable, km_fit
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


def test_cli_import_leaves_xml_and_urllib_unloaded():
    # the child imports the same flowhazard package as this process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(flowhazard.__file__))
    probe = (
        "import sys, flowhazard.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request', "
        "'http.client') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
