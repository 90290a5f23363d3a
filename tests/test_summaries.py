from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statsynth import errors
from statsynth.schema import Continuous, Dataset, Discrete, Variable, VariableSchema
from statsynth.summaries import (
    SUB_BINS,
    BinSpec,
    Codes,
    StructuralComponent,
    compute_summaries,
    encode,
    evaluation_summaries,
    fit_all_bins,
    fit_bins,
    joint_counts,
    marginal_counts,
    refine_all_bins,
    sub_detail,
    summary_payload,
    unit_labels,
)

NUM = VariableSchema((Variable("x", Continuous(0.0, 100.0)),))


def _num_data(values) -> Dataset:
    return Dataset.from_records(NUM, [(float(v),) for v in values])


def _marginal(data: Dataset, name: str, specs, refined=None) -> np.ndarray:
    """Proportions of one marginal table of data."""
    counts = marginal_counts(encode(data, specs), specs, name, refined)
    return counts / len(data)


def test_fit_bins_quantile_edges():
    data = _num_data(np.linspace(0.0, 100.0, 1201))
    spec = fit_bins(data, "x", 6)
    assert spec.n_main == 6
    assert spec.edges[0] == 0.0 and spec.edges[-1] == 100.0
    # quantiles of an even grid sit on the grid
    assert np.allclose(spec.edges, np.linspace(0.0, 100.0, 7))


def test_fit_bins_equal_occupancy_2000():
    rng = np.random.default_rng(5)
    data = _num_data(rng.uniform(0.0, 100.0, 2000) ** 1.3 / 100 ** 0.3)
    spec = fit_bins(data, "x", 6)
    counts = _marginal(data, "x", {"x": spec}) * 2000
    assert counts.sum() == pytest.approx(2000)
    assert set(np.round(counts).astype(int)) <= {333, 334}


def test_fit_bins_errors():
    with pytest.raises(errors.EmptyDataset):
        fit_bins(Dataset.empty(NUM), "x")
    with pytest.raises(errors.DegenerateBins):
        fit_bins(_num_data([7.0] * 50), "x")
    schema = VariableSchema((Variable("c", Discrete(("a", "b"))),))
    data = Dataset.from_records(schema, [("a",)])
    with pytest.raises(errors.NotContinuous):
        fit_bins(data, "c")


def test_fit_bins_merges_ties():
    # heavy atom at 10 collapses several quantile edges
    data = _num_data([10.0] * 900 + list(np.linspace(20, 90, 100)))
    spec = fit_bins(data, "x", 6)
    assert spec.n_main < 6


def test_edge_rule_half_open_final_closed():
    spec = BinSpec("x", (0.0, 10.0, 20.0, 30.0))
    vals = np.array([0.0, 9.999, 10.0, 29.999, 30.0, -5.0, 99.0])
    idx = spec.fine_codes(vals) // SUB_BINS
    # exact internal edge belongs to the right bin; max stays in the last bin;
    # out-of-range values clip inward
    assert list(idx) == [0, 0, 1, 2, 2, 0, 2]


TWO_BINS = {"x": BinSpec("x", (0.0, 10.0, 20.0))}


def _two_bin_codes(low: int, high: int):
    """low records in [0, 10) and high records in [10, 20], on TWO_BINS."""
    return encode(_num_data([5.0] * low + [15.0] * high), TWO_BINS)


def test_refine_bins_picks_largest_positive_gap():
    refined = refine_all_bins(TWO_BINS, _two_bin_codes(5, 5), _two_bin_codes(2, 8))
    assert refined == {"x": 0}
    assert tuple(TWO_BINS["x"].sub_edges(0)) == tuple(np.linspace(0.0, 10.0, 9))
    codes = _two_bin_codes(5, 5)
    assert len(marginal_counts(codes, TWO_BINS, "x", refined["x"])) == 9


def test_refine_bins_no_positive_gap_returns_unchanged():
    assert refine_all_bins(TWO_BINS, _two_bin_codes(5, 5), _two_bin_codes(5, 5)) == {}


def test_refine_bins_unit_checks():
    codes = _two_bin_codes(5, 5)
    with pytest.raises(errors.UnitMismatch):
        refine_all_bins({"x": BinSpec("y", (0.0, 10.0, 20.0))}, codes, codes)


def test_sub_bins_sum_to_parent():
    rng = np.random.default_rng(17)
    data = _num_data(rng.beta(2, 5, 5000) * 100)
    specs = {"x": fit_bins(data, "x", 6)}
    main_table = _marginal(data, "x", specs)
    r = refine_all_bins(specs, encode(data, specs), encode(Dataset.empty(NUM), specs))["x"]
    table = _marginal(data, "x", specs, r)
    assert len(table) == 6 + SUB_BINS - 1
    sub_sum = table[r:r + SUB_BINS].sum()
    assert sub_sum == pytest.approx(main_table[r], abs=1e-9)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_summarize_marginal_discrete_keeps_zero_categories():
    schema = VariableSchema((Variable("c", Discrete(("a", "b", "c"))),))
    data = Dataset.from_records(schema, [("a",), ("a",), ("b",)])
    summaries = compute_summaries(data, {})
    assert unit_labels(summaries, schema, {})["c"] == ["a", "b", "c"]
    assert tuple(_marginal(data, "c", {})) == (2 / 3, 1 / 3, 0.0)


def test_summarize_marginal_empty_flagged(tiny_schema):
    data = Dataset.empty(tiny_schema)
    summaries = compute_summaries(data, {"size": BinSpec("size", (0.0, 5.0, 10.0))})
    assert summaries.n == 0
    assert set(summaries.marginals["color"]) == {0}
    assert set(summaries.marginals["size"]) == {0}
    payload = summary_payload(summaries, unit_labels(summaries, tiny_schema, {
        "size": BinSpec("size", (0.0, 5.0, 10.0))}))
    assert all(m["empty"] for m in payload["marginals"])


def test_summarize_marginal_missing_spec(tiny_schema):
    data = Dataset.from_records(tiny_schema, [("red", 1.0)])
    with pytest.raises(errors.MissingBinSpec):
        encode(data, {"size": None})
    with pytest.raises(errors.UnitMismatch):
        encode(data, {"size": BinSpec("other", (0.0, 1.0))})


def test_component_validation():
    with pytest.raises(errors.SchemaError):
        StructuralComponent(("a",))
    with pytest.raises(errors.SchemaError):
        StructuralComponent(("a", "b", "c", "d", "e"))
    with pytest.raises(errors.SchemaError):
        StructuralComponent(("a", "a"))
    assert StructuralComponent(("a", "b")).id == "a+b"


def test_summarize_joint_known_cell(ref_100k):
    schema = ref_100k.schema
    specs = fit_all_bins(ref_100k)
    table = joint_counts(encode(ref_100k, specs), specs, ("location_tier", "payment_method"))
    developed = schema.kind("location_tier").categories.index("Developed")
    online = schema.kind("payment_method").categories.index("Online Payment")
    assert abs(table[developed, online] / len(ref_100k) - 0.28) < 0.01
    assert (table / len(ref_100k)).sum() == pytest.approx(1.0, abs=1e-12)


def test_summarize_joint_uses_main_bins_only(ref_2k):
    specs = fit_all_bins(ref_2k)
    codes = encode(ref_2k, specs)
    refined = refine_all_bins(specs, codes, encode(Dataset.empty(ref_2k.schema), specs))
    assert "price" in refined
    comp = StructuralComponent(("product_category", "price"))
    summaries = compute_summaries(codes, specs, [comp], refined)
    assert summaries.joints[comp].shape == (4, specs["price"].n_main)
    labels = unit_labels(summaries, ref_2k.schema, specs)[comp.id]
    assert [key[1] for key in labels[:specs["price"].n_main]] == \
        unit_labels(compute_summaries(codes, specs), ref_2k.schema, specs)["price"]


def test_marginalize_matches_marginal_table(ref_2k):
    specs = fit_all_bins(ref_2k)
    codes = encode(ref_2k, specs)
    joint = joint_counts(codes, specs, ("product_category", "price")) / len(ref_2k)
    via_joint = joint.sum(axis=0)
    direct = _marginal(ref_2k, "price", specs)
    assert via_joint.shape == direct.shape
    assert np.abs(via_joint - direct).max() < 1e-9
    via_joint_cat = joint.sum(axis=1)
    direct_cat = _marginal(ref_2k, "product_category", specs)
    assert np.abs(via_joint_cat - direct_cat).max() < 1e-9


@given(st.lists(st.tuples(
    st.sampled_from(["a", "b"]),
    st.floats(0.0, 1.0, allow_nan=False),
    st.sampled_from(["u", "v", "w"]),
), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_marginalization_property(rows):
    schema = VariableSchema((
        Variable("d1", Discrete(("a", "b"))),
        Variable("x", Continuous(0.0, 1.0)),
        Variable("d2", Discrete(("u", "v", "w"))),
    ))
    data = Dataset.from_records(schema, rows)
    try:
        spec = fit_bins(data, "x", 4)
    except errors.DegenerateBins:
        return
    comp = StructuralComponent(("d1", "x", "d2"))
    specs = {"x": spec}
    joint = joint_counts(encode(data, specs), specs, comp.variables) / len(data)
    for axis, var in enumerate(comp.variables):
        via = joint.sum(axis=tuple(a for a in range(3) if a != axis))
        direct = _marginal(data, var, specs)
        assert via.shape == direct.shape
        assert np.abs(via - direct).max() < 1e-9


def test_sub_detail_rows_normalized(ref_2k):
    spec = fit_bins(ref_2k, "user_age", 6)
    grid = sub_detail(encode(ref_2k, fit_all_bins(ref_2k)), spec)
    assert grid.shape == (6, 8)
    assert np.allclose(grid.sum(axis=1), 1.0)


def test_payloads(ref_2k):
    specs = fit_all_bins(ref_2k)
    comp = StructuralComponent(("gender", "payment_method"))
    summaries = compute_summaries(ref_2k, specs, [comp])
    payload = summary_payload(summaries, unit_labels(summaries, ref_2k.schema, specs))
    assert {m["unit"] for m in payload["marginals"]} == set(ref_2k.schema.names)
    assert payload["joints"][0]["unit"] == "gender+payment_method"
    age = next(m for m in payload["marginals"] if m["unit"] == "user_age")
    assert sum(c["proportion"] for c in age["cells"]) == pytest.approx(1.0)
    # detail rows are marked and can be excluded
    codes = encode(ref_2k, specs)
    refined = refine_all_bins(specs, codes, encode(Dataset.empty(ref_2k.schema), specs))
    table = compute_summaries(codes, specs, (), {"user_age": refined["user_age"]})
    labels = unit_labels(table, ref_2k.schema, specs)

    def age_payload(include_detail):
        return next(m for m in summary_payload(table, labels, include_detail)["marginals"]
                    if m["unit"] == "user_age")

    with_detail = age_payload(True)
    without = age_payload(False)
    assert any(c.get("detail") for c in with_detail["cells"])
    assert not any(c.get("detail") for c in without["cells"])
    assert len(without["cells"]) < len(with_detail["cells"])


def test_evaluation_summaries_shared_pipeline(ref_2k):
    from statsynth.reference import EcommerceParams, generate
    synth = generate(EcommerceParams(), 500, seed=77)
    comps = [StructuralComponent(("gender", "product_category"))]
    specs = fit_all_bins(ref_2k)
    real_sum, synth_sum = evaluation_summaries(
        encode(ref_2k, specs), encode(synth, specs), specs, comps)
    assert set(real_sum.marginals) == set(ref_2k.schema.names)
    assert comps[0] in real_sum.joints
    assert real_sum.refined == synth_sum.refined
    for name, spec in specs.items():
        if spec is not None:
            assert real_sum.marginals[name].shape == synth_sum.marginals[name].shape


def _brute_main(edges, v):
    """Main bin of v by scanning the half-open intervals, last one closed."""
    n = len(edges) - 1
    for i in range(n):
        if edges[i] <= v < edges[i + 1] or (i == n - 1 and v == edges[n]):
            return i
    return 0 if v < edges[0] else n - 1


def _brute_sub(edges, i, v):
    """Sub-bin of v among main bin i's eight equal-width sub-intervals."""
    se = np.linspace(edges[i], edges[i + 1], 9)
    for j in range(8):
        if se[j] <= v < se[j + 1]:
            return j
    return 0 if v < se[0] else 7


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=7),
    st.lists(st.floats(-2e6, 2e6, allow_nan=False), max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_fine_codes_match_interval_lookup(raw_edges, extra):
    edges = tuple(sorted(set(raw_edges)))
    if len(edges) < 2:
        return
    spec = BinSpec("x", edges)
    grid = np.concatenate([np.linspace(edges[i], edges[i + 1], 9) for i in range(spec.n_main)])
    # edges, sub-edges and their float neighbours, plus values beyond both ends
    values = np.concatenate([
        np.asarray(extra, dtype=float), grid, np.nextafter(grid, -np.inf),
        np.nextafter(grid, np.inf), [edges[0] - 1.0, edges[-1] + 1.0]])
    fine = spec.fine_codes(values)
    main = [_brute_main(edges, v) for v in values]
    assert (fine // SUB_BINS).tolist() == main
    assert (fine % SUB_BINS).tolist() == [_brute_sub(edges, m, v) for v, m in zip(values, main)]
    # every possible refined bin: main cells before it, its eight sub-cells, main cells after
    codes = Codes(NUM, (fine,))
    for r in range(spec.n_main):
        cells = [m if m < r else m + SUB_BINS - 1 if m > r else r + _brute_sub(edges, r, v)
                 for v, m in zip(values, main)]
        want = np.bincount(cells, minlength=spec.n_main + SUB_BINS - 1)
        assert marginal_counts(codes, {"x": spec}, "x", r).tolist() == want.tolist()


@st.composite
def tight_or_wide_edges(draw) -> tuple[float, ...]:
    """Strictly increasing main edges, some a few ulps apart, magnitudes up to 1e303."""
    edge = draw(st.floats(-1e300, 1e300))
    edges = [edge]
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            for _ in range(draw(st.integers(1, 4))):
                edge = float(np.nextafter(edge, np.inf))
        else:
            # at least 1e-12 of max(1, |edge|), far above one ulp; at most a doubling
            edge = edge + draw(st.floats(1e-12, 1.0)) * max(1.0, abs(edge))
        edges.append(edge)
    return tuple(edges)


@given(tight_or_wide_edges())
@settings(max_examples=300, deadline=None)
def test_fine_edges_are_the_sub_edges_bit_for_bit(edges):
    spec = BinSpec("x", edges)
    grid = spec.fine_edges()
    assert grid.shape == (SUB_BINS * spec.n_main + 1,)
    for i in range(spec.n_main):
        sub = spec.sub_edges(i)
        for j in range(SUB_BINS):
            pair = grid[SUB_BINS * i + j:SUB_BINS * i + j + 2]
            assert pair.tobytes() == sub[j:j + 2].tobytes()
