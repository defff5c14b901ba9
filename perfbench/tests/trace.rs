//! Span bookkeeping: nesting, self time, and the completeness of the
//! flow_16k attribution.

use perfbench::flow::{flow_config, macro_output, traced_flow};
use perfbench::trace::{check_nesting, self_times, span, SpanRec, Tracer};

fn rec(name: &str, op: u64, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
    SpanRec {
        name: name.into(),
        op,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn nested_spans_pass_the_nesting_check() {
    let tracer = Tracer::new();
    span(Some(&tracer), "root", 7, None, |root| {
        span(Some(&tracer), "child", 7, root, |child| {
            span(Some(&tracer), "grandchild", 7, child, |_| ());
        });
        span(Some(&tracer), "sibling", 7, root, |_| ());
    });
    let spans = tracer.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[3].parent, Some(0));
    check_nesting(&spans).unwrap();
}

#[test]
fn nesting_check_rejects_escaping_or_foreign_children() {
    let outside = [
        rec("root", 0, None, 10, 20),
        rec("child", 0, Some(0), 15, 25),
    ];
    assert!(check_nesting(&outside).is_err());
    let foreign = [
        rec("root", 0, None, 10, 20),
        rec("child", 1, Some(0), 12, 18),
    ];
    assert!(check_nesting(&foreign).is_err());
    let forward = [
        rec("child", 0, Some(1), 12, 18),
        rec("root", 0, None, 10, 20),
    ];
    assert!(check_nesting(&forward).is_err());
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Children [100, 400) and [300, 600) overlap; their union is 500 ns.
    let spans = [
        rec("root", 0, None, 0, 1000),
        rec("a", 0, Some(0), 100, 400),
        rec("b", 0, Some(0), 300, 600),
    ];
    let selfs = self_times(&spans);
    assert!((selfs[0] - 500e-9).abs() < 1e-15);
    assert!((selfs[1] - 300e-9).abs() < 1e-15);
    assert!((selfs[2] - 300e-9).abs() < 1e-15);
}

/// One traced flow at 16 Ki with a small exploration, so the test stays
/// quick in a debug build; netlist and layout work are those of the real
/// workload.
fn small_flow() -> (easyacim::TopFlowController, Tracer) {
    let mut config = flow_config(42, 0);
    config.dse.population_size = 16;
    config.dse.generations = 6;
    config.max_layouts = 1;
    (
        easyacim::TopFlowController::new(config).unwrap(),
        Tracer::new(),
    )
}

/// The layer self times of a flow_16k op add up to the op's wall time:
/// exactly up to one nanosecond per span, and the time outside every
/// layer span stays under 2 % of the op.
#[test]
fn flow_layer_self_times_sum_to_the_op_wall_time() {
    let (controller, tracer) = small_flow();
    traced_flow(&controller, 0, &tracer).unwrap();
    let spans = tracer.spans();
    check_nesting(&spans).unwrap();
    let wall = spans[0].seconds();
    assert_eq!(spans[0].name, "flow");
    let selfs = self_times(&spans);
    let total: f64 = selfs.iter().sum();
    let epsilon = 1e-9 * spans.len() as f64;
    assert!(
        (total - wall).abs() <= epsilon,
        "self times sum to {total} s, op took {wall} s"
    );
    let layers: f64 = selfs[1..].iter().sum();
    assert!(
        layers >= 0.98 * wall,
        "layers cover {layers} s of a {wall} s op"
    );
    for name in [
        "dse.explore",
        "dse.distill",
        "netlist.generate",
        "netlist.stats",
        "netlist.spice",
        "layout.generate",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no {name} span in the flow"
        );
    }
}

#[test]
fn traced_flow_reproduces_the_untraced_flow() {
    let (controller, tracer) = small_flow();
    let untraced = controller.run().unwrap();
    let (frontier, distilled, designs, _) = traced_flow(&controller, 0, &tracer).unwrap();
    let traced = macro_output(&frontier, &distilled, &designs);
    let reference = macro_output(&untraced.frontier, &untraced.distilled, &untraced.designs);
    assert_eq!(traced.digest, reference.digest);
    traced.check.unwrap();
}
