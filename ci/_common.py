"""What the CI checks share: the import path, iaa in a child process and the children's
peak RSS, and the inputs that two checks read. Every check runs from the checkout root.
Importing this loads no numpy: a memory check starts its child before it imports numpy
or holds the input, because a forked child's peak counts our pages."""
import atexit, os, resource, subprocess, sys, tempfile
sys.path[:0] = ["src", "tests", "perfbench"]
IAA, ENV = [sys.executable, "-m", "intervalagreement"], {**os.environ, "PYTHONPATH": "src"}

def iaa(*args, stdin=None):
    """The stdout of ``iaa *args`` in a child process, which must exit 0."""
    return subprocess.run([*IAA, *args], input=stdin, env=ENV, capture_output=True, check=True).stdout

def iaa_popen(*args):
    """``iaa *args`` started in a child process, its stdin and stdout piped."""
    return subprocess.Popen([*IAA, *args], env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

def children_peak_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KB on Linux

def written(text):
    """A temporary file holding ``text``'s characters as they are, removed at exit."""
    with tempfile.NamedTemporaryFile("w", suffix=".txt", newline="", delete=False) as f:
        f.write(text)
    atexit.register(os.unlink, f.name)
    return f.name

def interval_list(lines):
    """perfbench's seed-1 interval list of ``lines`` lines."""
    import inputs
    return inputs.interval_lines(inputs.interval_pairs(1, lines))

def survey_csv(participants, stream):
    """A 20-group x 5-term survey, ``participants`` in each cell, from seed stream [1, stream]."""
    import numpy as np
    from intervalagreement.survey import TERM_ORDER
    rng = np.random.default_rng(np.random.SeedSequence([1, stream]))
    lo = rng.uniform(0.0, 9.0, size=(20, 5, participants))
    hi = np.minimum(lo + rng.uniform(0.05, 3.0, size=lo.shape), 10.0)
    width = len(str(participants))
    return "group,participant_id,term,l,r\n" + "".join(
        f"G{g + 1:02d},P{p + 1:0{width}d},{term},{lo[g, t, p]:.2f},{hi[g, t, p]:.2f}\n"
        for g in range(20) for t, term in enumerate(TERM_ORDER) for p in range(participants))

def noisy_sampled():
    """Two Gaussian bumps with seeded noise on a 100,001-point grid over [0, 20]."""
    import numpy as np
    import intervalagreement as ia
    gx = np.linspace(0.0, 20.0, 100_001)
    bumps = np.exp(-((gx - 7.0) ** 2) / 4.0) + 0.6 * np.exp(-((gx - 13.0) ** 2) / 2.0)
    return ia.Sampled(gx, np.clip(bumps + np.random.default_rng(1).normal(0.0, 0.03, gx.size), 0.0, 1.0))
