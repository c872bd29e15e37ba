"""Outside-in layer trace: wrappers installed at run time around the public
functions of each layer module of `shintani_forge`.

Every binding a function is reached through is patched, including names
other modules imported (`figures._segment_logs`, `scenario.curve_sample`,
`units.phi`, ...). Per function the tracer keeps calls, inclusive seconds
and self seconds (inclusive minus the time of traced callees) plus one
tally a metric needs, so millions of calls cost no memory. Counts depend
only on the work done, so two traced runs at one seed give equal counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

TARGETS = {
    "field": (
        "FieldSpec.__init__",
        "FieldElement.__add__",
        "FieldElement.__sub__",
        "FieldElement.__neg__",
        "FieldElement.__mul__",
        "FieldElement.scalar_mul",
        "FieldElement.mul_matrix",
        "FieldElement.inverse",
        "FieldElement.__pow__",
        "FieldElement.norm",
        "FieldElement.trace",
        "sturm_chain",
        "count_real_roots",
        "det3",
        "solve3",
    ),
    "embedding": (
        "RealEmbeddings.__init__",
        "RealEmbeddings.refine_roots",
        "RealEmbeddings.embed",
        "RealEmbeddings.is_totally_positive",
        "RealEmbeddings.sign_det",
        "RealEmbeddings.delta_bracket",
        "RealEmbeddings.e1_coordinate_signs",
        "RealEmbeddings.e1_outside_span",
        "RealEmbeddings.embed_positive",
        "RealEmbeddings.log_embed",
        "RealEmbeddings.project_H",
        "interval_det3",
        "iv_fraction",
        "iv_log_fraction",
        "iv_mid_err",
        "iv_sign",
    ),
    "cones": (
        "primitive_vector",
        "Cone.from_rays",
        "Cone.contains_vec",
        "Cone.translate",
        "cones_fast_disjoint",
        "ShintaniSet.contains_vec",
        "split_cell",
        "decompose_rays",
        "intersect_cells",
        "diff_cell",
        "Geometry.cone",
        "Geometry.shintani_set",
        "Geometry.find_overlap",
        "Geometry.member",
        "Geometry.scale",
        "Geometry.intersect",
        "Geometry.difference",
        "Geometry.union",
        "Geometry.subset",
        "Geometry.set_equal",
        "Geometry.overlap",
        "Geometry.perturbed_closure",
        "Geometry.bracket",
        "Geometry.colmez_domain",
        "Geometry.explicit_B",
        "Geometry.explicit_B1",
        "Geometry.explicit_B2",
        "Geometry.error_support",
        "Geometry.translation_cover",
        "Geometry.fundamental_domain_check",
        "Geometry.prop4_union",
        "Geometry.classify_case",
        "Geometry.verify_identity",
        "Geometry.case2extra_reference",
    ),
    "plane": (
        "PhiBasis.__init__",
        "PhiBasis.project_logs",
        "phi",
        "_segment_logs",
        "curve_sample",
        "endpoint_derivative",
        "fixgi_margins",
        "fixgi_holds",
        "limit_derivative",
        "check_direction_bounds",
    ),
    "units": (
        "check_fixgi",
        "check_sign_suite",
        "choose_power",
        "lattice_points_in_ball",
        "triangle_search",
        "build_construction",
        "classify_case",
    ),
    "figures": (
        "set_boundary_faces",
        "sample_face_curve",
        "ray_point",
        "materialize_scene",
        "render_svg_csv",
    ),
    "scenario": (
        "load_config",
        "parse_element",
        "Runtime.__init__",
        "Runtime.domain",
        "Runtime.normalized_pi",
        "run_scenario",
        "write_report",
    ),
}

# per-function record: [calls, inclusive s, self s, active depth, tally]
CALLS, TOTAL, SELF, DEPTH, TALLY = range(5)


def _count_true(tracer, stat, args, result):
    stat[TALLY] += bool(result)


def _count_cells(tracer, stat, args, result):
    stat[TALLY] += sum(len(part) for part in result)


def _max_bits(tracer, stat, args, result):
    stat[TALLY] = max(stat[TALLY], args[2])


def _positivity_input(tracer, stat, args, result):
    tracer.sign_inputs.add(("tp", args[1].coords))


def _det_input(tracer, stat, args, result):
    tracer.sign_inputs.add(("det",) + tuple(x.coords for x in args[1:4]))


OBSERVERS = {
    "cones.Cone.contains_vec": _count_true,
    "cones.cones_fast_disjoint": _count_true,
    "cones.intersect_cells": _count_true,
    "cones.split_cell": _count_cells,
    "embedding.RealEmbeddings.embed": _max_bits,
    "embedding.RealEmbeddings.is_totally_positive": _positivity_input,
    "embedding.RealEmbeddings.sign_det": _det_input,
}


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    every patched binding on exit."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.sign_inputs: set = set()
        self._stack: list[float] = []
        self._patches: list = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self):
        # cli re-binds scenario functions; import it so those bindings are patched too
        importlib.import_module("shintani_forge.cli")
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if n == "shintani_forge" or n.startswith("shintani_forge.")
        ]
        for layer, names in TARGETS.items():
            mod = importlib.import_module(f"shintani_forge.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(key, raw.__func__))
                    else:
                        wrapped = self._wrap(key, raw)
                    self._patch(cls, attr, wrapped)
                    continue
                fn = getattr(mod, name)
                wrapped = self._wrap(key, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
        stack = self._stack
        observe = OBSERVERS.get(key)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[DEPTH] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[SELF] += dt - stack.pop()
                stat[DEPTH] -= 1
                stat[CALLS] += 1
                if not stat[DEPTH]:
                    stat[TOTAL] += dt
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(tracer, stat, args, result)
            return result

        return wrapper

    # -- aggregates ------------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.stats[k][CALLS] for k in keys)

    def seconds(self, *keys) -> float:
        return sum(self.stats[k][TOTAL] for k in keys)

    def tally(self, key):
        return self.stats[key][TALLY]

    def layer_self(self, layer: str) -> float:
        return sum(v[SELF] for k, v in self.stats.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(v[CALLS] for k, v in self.stats.items() if k.startswith(layer + "."))

    def layers(self) -> dict:
        """Per layer: calls into its traced functions and its self seconds."""
        return {
            layer: {"calls": self.layer_calls(layer), "self_s": self.layer_self(layer)}
            for layer in TARGETS
        }

    def functions(self) -> dict:
        """Per traced function: calls, inclusive and self seconds."""
        return {
            k: {"calls": v[CALLS], "total_s": v[TOTAL], "self_s": v[SELF]}
            for k, v in sorted(self.stats.items())
            if v[CALLS]
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    contains = "cones.Cone.contains_vec"
    disjoint = "cones.cones_fast_disjoint"
    intersect = "cones.intersect_cells"
    split = "cones.split_cell"
    signs = ("embedding.RealEmbeddings.is_totally_positive", "embedding.RealEmbeddings.sign_det")
    decisions = t.calls(*signs)
    m = {
        "cones.contains_vec_calls": (t.calls(contains), "count"),
        "cones.contains_vec_s": (t.seconds(contains), "s"),
        "cones.contains_vec_hit_ratio": (_ratio(t.tally(contains), t.calls(contains)), "ratio"),
        "cones.fd_check_s": (t.seconds("cones.Geometry.fundamental_domain_check"), "s"),
        "cones.cover_s": (
            t.seconds("cones.Geometry.translation_cover", "cones.Geometry.error_support"),
            "s",
        ),
        "cones.split_cell_calls": (t.calls(split), "count"),
        "cones.split_cells_made": (t.tally(split), "count"),
        "cones.intersect_cells_calls": (t.calls(intersect), "count"),
        "cones.intersect_nonempty_ratio": (
            _ratio(t.tally(intersect), t.calls(intersect)),
            "ratio",
        ),
        "cones.fast_disjoint_calls": (t.calls(disjoint), "count"),
        "cones.fast_disjoint_hit_ratio": (_ratio(t.tally(disjoint), t.calls(disjoint)), "ratio"),
        "cones.translate_calls": (t.calls("cones.Cone.translate"), "count"),
        "cones.set_equal_s": (t.seconds("cones.Geometry.set_equal"), "s"),
        "cones.domain_builds": (
            t.calls(
                "cones.Geometry.colmez_domain",
                "cones.Geometry.explicit_B",
                "cones.Geometry.explicit_B1",
                "cones.Geometry.explicit_B2",
            ),
            "count",
        ),
        "cones.classify_case_calls": (t.calls("cones.Geometry.classify_case"), "count"),
        "cones.self_s": (t.layer_self("cones"), "s"),
        "embedding.iv_fraction_calls": (t.calls("embedding.iv_fraction"), "count"),
        "embedding.iv_fraction_s": (t.seconds("embedding.iv_fraction"), "s"),
        "embedding.log_embed_calls": (t.calls("embedding.RealEmbeddings.log_embed"), "count"),
        "embedding.sign_decisions": (decisions, "count"),
        "embedding.sign_distinct_ratio": (_ratio(len(t.sign_inputs), decisions), "ratio"),
        "embedding.sign_s": (t.seconds(*signs), "s"),
        "embedding.embed_calls": (t.calls("embedding.RealEmbeddings.embed"), "count"),
        "embedding.embed_max_bits": (t.tally("embedding.RealEmbeddings.embed"), "bits"),
        "embedding.refine_roots_s": (t.seconds("embedding.RealEmbeddings.refine_roots"), "s"),
        "embedding.self_s": (t.layer_self("embedding"), "s"),
        "plane.curve_sample_s": (t.seconds("plane.curve_sample"), "s"),
        "plane.direction_s": (t.seconds("plane.check_direction_bounds"), "s"),
        "plane.project_logs_calls": (t.calls("plane.PhiBasis.project_logs"), "count"),
        "plane.self_s": (t.layer_self("plane"), "s"),
        "figures.face_curves": (t.calls("figures.sample_face_curve"), "count"),
        "figures.face_curve_s": (t.seconds("figures.sample_face_curve"), "s"),
        "figures.materialize_s": (t.seconds("figures.materialize_scene"), "s"),
        "figures.render_s": (t.seconds("figures.render_svg_csv"), "s"),
        "figures.self_s": (t.layer_self("figures"), "s"),
        "units.triangle_search_calls": (t.calls("units.triangle_search"), "count"),
        "units.triangle_search_s": (t.seconds("units.triangle_search"), "s"),
        "units.sign_suite_calls": (t.calls("units.check_sign_suite"), "count"),
        "units.choose_power_s": (t.seconds("units.choose_power"), "s"),
        "units.self_s": (t.layer_self("units"), "s"),
        "field.mul_calls": (t.calls("field.FieldElement.__mul__"), "count"),
        "field.mul_s": (t.seconds("field.FieldElement.__mul__"), "s"),
        "field.inverse_calls": (t.calls("field.FieldElement.inverse"), "count"),
        "field.pow_calls": (t.calls("field.FieldElement.__pow__"), "count"),
        "field.self_s": (t.layer_self("field"), "s"),
        "scenario.normalized_pi_calls": (t.calls("scenario.Runtime.normalized_pi"), "count"),
        "scenario.write_report_s": (t.seconds("scenario.write_report"), "s"),
        "scenario.self_s": (t.layer_self("scenario"), "s"),
    }
    return m
