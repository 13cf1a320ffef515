"""Self-test of the benchmark's output checks.

Runs real outputs of each workload through their checks, then perturbs each
output slightly (one phase shifted by 1e-3, one block entry moved by 1e-6,
one decision changed, ...) and requires the check to reject it.  Run from
the root of a checkout:

    python3 perfbench/selftest.py

It prints one line per case and exits non-zero if a correct output is
rejected or a perturbed one passes.  It takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

problems = []


def expect(label: str, check, outcome, perturbed):
    """check(outcome) must pass and check(perturbed) must raise CheckFailed."""
    try:
        check(outcome)
    except checks.CheckFailed as exc:
        problems.append(f"{label}: correct output rejected: {exc}")
        print(f"FAIL {label}: correct output rejected: {exc}")
        return
    try:
        check(perturbed)
    except checks.CheckFailed as exc:
        print(f"ok   {label}: perturbed output rejected ({exc})")
        return
    problems.append(f"{label}: perturbed output passed")
    print(f"FAIL {label}: perturbed output passed")


def synth_cases():
    synth = workloads.Synth(0, "")
    for op in synth.ops():
        if op.label not in ("sign_d19", "inv_d103", "interior_d48"):
            continue
        coeffs, phases = op.run()
        shifted = phases.copy()
        shifted[len(shifted) // 2] += 1e-3
        expect(f"synth {op.label}, one phase + 1e-3", op.check, (coeffs, phases), (coeffs, shifted))
        wrong = coeffs.copy()
        wrong[1] += 0.05
        expect(f"synth {op.label}, target T1 coefficient + 0.05", op.check, (coeffs, phases),
               (wrong, phases))


def transform_cases():
    transform = workloads.Transform(0, "")
    op = transform.ops()[0]
    block = op.run()
    bumped = block.copy()
    bumped[3, 5] += 1e-6
    expect(f"transform {op.label}, one entry + 1e-6", op.check, block, bumped)


class FileOutcome:
    """Runs a CLI op, then rewrites one of its files for the perturbed case."""

    def __init__(self, cli, op):
        self.cli, self.op = cli, op
        self.outcome = op.run()
        self.saved = {name: cli._read(name) for name in op.meta["files"]}

    def restore(self):
        for name, text in self.saved.items():
            with open(self.cli._out(name), "w") as fh:
                fh.write(text)

    def case(self, label: str, name: str, edit, record: bool = False, stdout_edit=None):
        """Check the op as written, then with file `name` replaced by edit(text).

        For record files the stdout copy is edited the same way, so only the
        reference check can notice.
        """
        def check(outcome):
            if outcome is self.outcome:
                self.restore()
            else:
                with open(self.cli._out(name), "w") as fh:
                    fh.write(outcome["edited"])
            self.op.check(dict(outcome))

        new_text = edit(self.saved[name])
        perturbed = dict(self.outcome, edited=new_text)
        if record:
            perturbed["stdout"] = self.outcome["stdout"].replace(self.saved[name], new_text)
        if stdout_edit:
            perturbed["stdout"] = stdout_edit(perturbed["stdout"])
        expect(f"cli {self.op.label}, {label}", check, self.outcome, perturbed)
        self.restore()


def edit_json(fn):
    def edit(text):
        payload = json.loads(text)
        fn(payload)
        return json.dumps(payload, sort_keys=True) + "\n"
    return edit


def cli_cases():
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.dirname(os.path.abspath(__file__)))
    try:
        cli = workloads.Cli(0, workdir)
        ops = {op.label: op for op in cli.ops()}
        runs = {}
        for label in ("phases_sign11", "phases_sign61", "response", "search_q6", "threshold_exact",
                      "threshold_sampled", "qpe_exact", "qpe_sampled", "factor_15", "hamsim_h16",
                      "invert_8", "qsvt_h16_sign11"):
            runs[label] = FileOutcome(cli, ops[label])

        def phase_shift(p):
            p["phases"][1] += 1e-3

        runs["phases_sign11"].case("one phase + 1e-3", "sign11.json", edit_json(phase_shift),
                                   record=True)

        def csv_shift(text):
            lines = text.split("\n")
            a, re, im, abs2 = lines[7].split(",")
            lines[7] = ",".join([a, repr(float(re) + 1e-9), im, abs2])
            return "\n".join(lines)

        runs["response"].case("one CSV value + 1e-9", "resp61.csv", csv_shift)
        runs["response"].case("one SVG point added", "resp61.svg",
                              lambda t: t.replace('points="', 'points="0,0 ', 1))

        def other_decision(p):
            p["decision"] = (p["decision"] + 1) % 64

        runs["search_q6"].case("decision changed", "search6.json", edit_json(other_decision),
                               record=True)

        def flip(p):
            p["decision"] = not p["decision"]

        runs["threshold_exact"].case("decision flipped", "threshold_exact.json", edit_json(flip),
                                     record=True)

        def p0_between(p):
            p["params"]["p0"] = 0.5 * (p["params"]["low_mean"] + p["params"]["high_mean"])

        runs["threshold_sampled"].case("p0 moved between the means", "threshold_sampled.json",
                                       edit_json(p0_between), record=True)

        def theta_step(p):
            p["decision"]["value"] += 2.0 ** -p["params"]["n"]

        def theta_line(stdout):
            head, rest = stdout.split("\n", 1)
            return f"theta={float(head[6:]) + 2.0 ** -cli.qpe['exact'][1]:.10g}\n" + rest

        runs["qpe_exact"].case("theta + one bit", "qpe_exact.json", edit_json(theta_step),
                               record=True, stdout_edit=theta_line)

        def ambiguous_bit(p):
            p["trace"][0]["p1"] = 0.5

        runs["qpe_exact"].case("one bit probability 0.5", "qpe_exact.json",
                               edit_json(ambiguous_bit), record=True)

        def other_shot(p):
            p["shots"][0] = 1 - p["shots"][0]

        runs["qpe_sampled"].case("one shot flipped", "qpe_sampled.json", edit_json(other_shot),
                                 record=True)

        def order_plus(p):
            p["decision"] += 1

        runs["factor_15"].case("order + 1", "factor15.json", edit_json(order_plus), record=True)

        def unitary_entry(delta):
            def edit(p):
                p["unitary"]["re"][0] += delta
            return edit_json(edit)

        runs["hamsim_h16"].case("one block entry + 4e-3 (eps 2e-3)", "hamsim_h16.json",
                                unitary_entry(4e-3))
        runs["invert_8"].case("one block entry + 0.02 (bound 0.0506 / 6)", "invert8.json",
                              unitary_entry(0.02))

        def block_entry(p):
            p["re"][0] += 1e-6

        runs["qsvt_h16_sign11"].case("one entry + 1e-6", "qsvt_h16.json", edit_json(block_entry),
                                     record=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def table_cases():
    """The traced run's metric names follow the workloads and BENCHMARK.json."""
    import tracing

    labels = tuple(spec[0] for spec in workloads.SYNTH_TARGETS)
    sizes = tuple(sorted({n for _, n, _ in workloads.TRANSFORM_CASES}))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    for what, ok in (("synth labels", labels == tracing.SYNTH_TARGET_LABELS),
                     ("transform sizes", sizes == tracing.TRANSFORM_SIZES),
                     ("BENCHMARK.json per_layer", listed == list(tracing.PER_LAYER))):
        print(f"{'ok  ' if ok else 'FAIL'} {what} match the traced metrics")
        if not ok:
            problems.append(f"{what} differ from tracing.py")


def reference_cases():
    """The plain references behind the algorithm checks."""
    def qpe(theta):
        checks.check_qpe(theta, 0.3, 4)

    expect("qpe nearest rounding", qpe, 0.3125, 0.375)

    def order(r):
        checks.require(checks.multiplicative_order(2, 35) == r, "order")

    expect("order of 2 mod 35", order, 12, 6)


def main() -> int:
    synth_cases()
    transform_cases()
    cli_cases()
    reference_cases()
    table_cases()
    if problems:
        print(f"{len(problems)} problem(s)")
        return 1
    print("all checks reject their perturbed outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
