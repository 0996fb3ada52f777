"""The benchmark tracer's wrapped bindings against the classified set.

``bench/test_trace.py`` lists every public engine function the tracer wraps,
each with the workload that reaches it or the reason none does, and checks
the list only in its traced self-test, which takes about 15 seconds.  This
test installs the tracer in a fresh interpreter, since it rewraps the engine
modules in place, and compares the bindings at once, so a refactor that
adds, removes or moves a public function fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROGRAM = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from test_trace import EXPECTED, UNREACHED
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps({"wrapped": sorted(tracer.bindings()),
                  "classified": sorted(set(EXPECTED) | set(UNREACHED))}))
"""


def test_wrapped_bindings_match_the_classified_set():
    done = subprocess.run(
        [sys.executable, "-c", _PROGRAM, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    wrapped, classified = set(result["wrapped"]), set(result["classified"])
    assert wrapped == classified, {
        "wrapped, not classified": sorted(wrapped - classified),
        "classified, not wrapped": sorted(classified - wrapped),
    }
