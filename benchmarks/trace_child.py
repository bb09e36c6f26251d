"""Run one hubbard-lax CLI job with timing spans around each layer's calls.

Usage: python3 trace_child.py SPANS_JSON JOB_ID CLI_ARGS...

The wrappers are installed from here, not from the package: every
``hubbard_lax.*`` module attribute bound to a traced function is replaced,
because ``cli``, ``observables`` and ``ness_engine`` import names directly.
Spans stay in memory and are written to SPANS_JSON when the job ends, as
``[name, start, end, parent_index, raised, key]`` rows; ``key`` identifies the
input of the calls whose waste is measured (``distinct_ratio``).
"""

import functools
import hashlib
import json
import sys
import time

# Every traced function, by span name, with the statistics reported for it
# beyond `errors`, which every span reports. A span is named
# "<module>.<function>", except the cli commands: "cli.<command>" is
# cli.cmd_<command>.
SPANS = {
    "ness_engine.check_telescoping": ("self_s",),
    "ness_engine.double_contract": ("calls", "self_s"),
    "ness_engine.build_double_lax": ("self_s",),
    "ness_engine.check_boundary_conditions": ("self_s",),
    "ness_engine.contract_omega": ("calls", "self_s"),
    "ness_engine.build_ness": ("self_s", "eigvalsh_s"),
    "ness_engine.mpo_expectation": ("calls", "self_s"),
    "ness_engine.pair_transfer": ("calls", "self_s", "distinct_ratio"),
    "lax_builder.assemble_family": ("calls", "self_s", "distinct_ratio"),
    "lindblad_oracle.fixed_point_oracle": ("self_s",),
    "lindblad_oracle.superoperator": ("self_s",),
    "lindblad_oracle.make_spec": ("self_s",),
    "lindblad_oracle.apply_lindbladian": ("self_s",),
    "observables.profile_and_currents": ("self_s",),
    "observables.profile_and_currents_mpo": ("self_s",),
    "observables.current_series": ("self_s",),
    "hubbard_model.site_operator": ("calls", "self_s"),
    "hubbard_model.build_hamiltonian": ("self_s",),
    "algebra_verifier.verify_family": ("calls", "self_s"),
    "algebra_verifier.check_xk_structure": ("self_s",),
    "transfer_commutativity.check_commutativity": ("self_s",),
    "cli.verify": ("self_s",),
    "cli.ness": ("self_s",),
    "cli.oracle": ("self_s",),
    "cli.observe": ("self_s",),
    "cli.commute": ("self_s",),
    "cli.sweep": ("self_s",),
}

# numpy.linalg.eigvalsh is timed so that the positivity diagnostic can be
# reported apart from the rest of build_ness.
EIGVALSH = "numpy.linalg.eigvalsh"


def _family_key(space_or_K, params):
    return f"{getattr(space_or_K, 'cutoff_K', space_or_K)}|{params!r}"


def _pair_key(fam, w):
    digest = hashlib.sha1(w.tobytes()).hexdigest()
    return f"{fam.space.cutoff_K}|{fam.params!r}|{digest}"


KEYS = {
    "lax_builder.assemble_family": _family_key,
    "ness_engine.pair_transfer": _pair_key,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        key_of = KEYS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = key_of(*args, **kwargs) if key_of else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            raised = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, raised, key]

        return traced


def install(tracer):
    """Wrap every traced function wherever a hubbard_lax module binds it."""
    import numpy.linalg

    modules = [m for n, m in sys.modules.items()
               if n == "hubbard_lax" or n.startswith("hubbard_lax.")]
    for span in SPANS:
        module, name = span.split(".")
        if module == "cli":
            name = "cmd_" + name
        fn = getattr(sys.modules["hubbard_lax." + module], name)
        wrapped = tracer.wrap(span, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
    numpy.linalg.eigvalsh = tracer.wrap(EIGVALSH, numpy.linalg.eigvalsh)


def main():
    spans_path, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import hubbard_lax.cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    try:
        rc = hubbard_lax.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"job": job_id, "import_s": import_s,
                       "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
