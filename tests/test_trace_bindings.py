"""The benchmark tracer's wrapped bindings against the classified set.

``bench/test_trace.py`` lists every public engine function the tracer wraps,
each with the workload that reaches it or the reason none does, and checks
the list only in its traced self-test, which takes about 15 seconds.  These
tests install the tracer in a fresh interpreter, since it rewraps the engine
modules in place: one compares the bindings at once, so a refactor that
adds, removes or moves a public function fails here; the other runs one
traced round of each workload, so a refactor that moves a call away from
the binding that counts it, or onto one listed as unreached, fails here too.
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


_FIRING = """
import json, sys
sys.path.insert(0, sys.argv[1])
from run import client
from test_trace import EXPECTED, SEED, UNREACHED
from workloads import WORKLOADS
fired = {w: client(w, SEED, rounds=1, trace=True)["bindings"] for w in WORKLOADS}
print(json.dumps({"fired": fired, "expected": EXPECTED, "unreached": sorted(UNREACHED)}))
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


def test_bindings_fire_where_classified():
    done = subprocess.run(
        [sys.executable, "-c", _FIRING, str(ROOT / "bench")],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    fired = result["fired"]
    silent = {b: w for b, w in result["expected"].items() if not fired[w][b]}
    assert not silent, {"expected to fire, silent on its workload": silent}
    woken = {b: {w: n[b] for w, n in fired.items() if n[b]} for b in result["unreached"]}
    assert not any(woken.values()), {"listed as unreached, fired": woken}
