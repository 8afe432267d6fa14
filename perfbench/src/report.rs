//! Metric definitions and the arithmetic that turns rung measurements
//! into them.
//!
//! The per-layer split is outside-in: each rung enters the program one
//! layer further in, and a layer's self time is the per-frame
//! difference between adjacent rungs (signed, never clamped):
//!
//! * `tcp`     = wire − handle
//! * `service` = handle − core
//! * `shard`   = core − `Session::step` − parse − render
//! * `session` = `Session::step` − its shadow children
//!
//! The wire figure is the traced windows' client span (write of the
//! window to the read of its last reply) per frame. The residual is the
//! wire *period* (write of one window to the write of the next) per
//! frame minus the sum of every layer's self time: the client's own
//! time between windows, which no layer owns.

use cr_core::SchemeKind;

use crate::check::{kind_index, KindCost};
use crate::ladder::{CallsStats, CoreStats, HandleStats, Trace};
use crate::stats::Metric;
use crate::wire::ConnReport;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("steps_per_sec", "1/s", "higher"),
        def("rtt_p50_us", "us", "lower"),
        def("rtt_p99_us", "us", "lower"),
        def("setup_s", "s", "lower"),
        def("cpu_us_per_step", "us", "lower"),
        def("peak_rss_mib", "MiB", "lower"),
    ]
}

/// Scheme kinds `small-frames` and `large-steps` run.
const FLAT: [SchemeKind; 4] = [
    SchemeKind::UwMpc,
    SchemeKind::HpDmmpc,
    SchemeKind::Hashed,
    SchemeKind::Ida,
];
/// The 2DMOT scheme kinds, whose accesses route through `mot`.
const ROUTED: [SchemeKind; 2] = [SchemeKind::Hp2dmotLeaves, SchemeKind::Lpp2dmot];

fn copy_based(k: SchemeKind) -> bool {
    !matches!(k, SchemeKind::Hashed | SchemeKind::Ida)
}

/// The per-layer metrics of a traced run: the same names on every
/// workload (a layer the workload does not run reads 0).
pub fn per_layer() -> Vec<Def> {
    let mut v = vec![
        def("loadgen.busy_frac", "frac", "lower"),
        def("loadgen.frames", "count", "higher"),
        def("tcp.self_us_per_frame", "us", "lower"),
        def("tcp.reads_per_window", "count", "lower"),
        def("tcp.bytes_per_frame", "B", "lower"),
        def("protocol.parse_ns_per_frame", "ns", "lower"),
        def("protocol.render_ns_per_frame", "ns", "lower"),
        def("protocol.allocs_per_frame", "count", "lower"),
        def("service.dispatch_us_per_frame", "us", "lower"),
        def("service.queue_depth_mean", "count", "lower"),
        def("service.queue_full", "count", "lower"),
        def("shard.self_us_per_frame", "us", "lower"),
    ];
    let all: Vec<SchemeKind> = FLAT.iter().chain(&ROUTED).copied().collect();
    for k in &all {
        v.push(def(format!("shard.{k}.open_us"), "us", "lower"));
    }
    v.extend([
        def("shard.close_us", "us", "lower"),
        def("session.step_ns_per_step", "ns", "lower"),
        def("session.self_ns_per_step", "ns", "lower"),
        def("session.allocs_per_step", "count", "lower"),
        def("workloads.uniform_ns_per_step", "ns", "lower"),
        def("workloads.hotspot_ns_per_step", "ns", "lower"),
    ]);
    for k in &all {
        v.push(def(format!("scheme.{k}.access_ns_per_step"), "ns", "lower"));
        v.push(def(format!("scheme.{k}.allocs_per_step"), "count", "lower"));
        if copy_based(*k) {
            v.push(def(format!("scheme.{k}.useful_frac"), "frac", "higher"));
        }
        v.push(def(format!("scheme.{k}.cycles_per_step"), "count", "lower"));
        v.push(def(
            format!("scheme.{k}.messages_per_step"),
            "count",
            "lower",
        ));
    }
    for k in &ROUTED {
        v.push(def(format!("mot.{k}.ns_per_message"), "ns", "lower"));
    }
    for k in &FLAT {
        v.push(def(format!("faults.{k}.access_ns_per_step"), "ns", "lower"));
        v.push(def(format!("faults.{k}.overhead_x"), "x", "lower"));
        v.push(def(format!("faults.{k}.allocs_per_step"), "count", "lower"));
    }
    v.extend([
        def("faults.failed_requests_per_step", "count", "lower"),
        def("verify.ns_per_step", "ns", "lower"),
        def("verify.ops_per_step", "count", "lower"),
        def("trace_hash.ns_per_step", "ns", "lower"),
        def("trace.overhead_frac", "frac", "lower"),
        def("trace.residual_frac", "frac", "lower"),
    ]);
    v
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything the traced run measured.
pub struct Traced<'a> {
    pub wire: &'a [ConnReport],
    pub trace: &'a Trace,
    pub handle: &'a HandleStats,
    pub core: &'a CoreStats,
    pub calls: &'a CallsStats,
    pub cost: &'a [KindCost; 6],
    pub queue_full_wire: u64,
}

/// Client busy share: wall time not spent blocked in socket calls.
pub fn busy_frac(wire: &[ConnReport]) -> f64 {
    let fracs: Vec<f64> = wire
        .iter()
        .map(|r| 1.0 - ratio(r.blocked_ns as f64, (r.end - r.start) as f64))
        .collect();
    fracs.iter().sum::<f64>() / fracs.len() as f64
}

/// The per-layer metrics, in [`per_layer`] order.
pub fn layers(t: &Traced<'_>) -> Vec<Metric> {
    let rows = t.trace.rows.iter().flatten();
    let frames = t.trace.frames() as f64;
    let sum =
        |f: fn(&crate::ladder::Row) -> u64| -> f64 { rows.clone().map(f).sum::<u64>() as f64 };
    let steps = sum(|r| r.steps);
    let spans = t.wire.iter().flat_map(|r| &r.window_spans);
    let wire_span = spans.clone().map(|w| w.t_last - w.t_write).sum::<u64>() as f64 / frames;
    let period = spans.clone().map(|w| w.t_done - w.t_write).sum::<u64>() as f64 / frames;
    let handle = sum(|r| r.handle_ns) / frames;
    let core = sum(|r| r.core_ns) / frames;
    let parse = sum(|r| r.parse_ns) / frames;
    let step = sum(|r| r.step_ns) / frames;
    let render = sum(|r| r.render_ns) / frames;
    let children = [
        sum(|r| r.workload_ns),
        sum(|r| r.access_ns),
        sum(|r| r.verify_ns),
        sum(|r| r.hash_ns),
    ];
    let children_pf: f64 = children.iter().sum::<f64>() / frames;
    let tcp = wire_span - handle;
    let service = handle - core;
    let shard = core - step - parse - render;
    let session = step - children_pf;
    let attributed = tcp + service + shard + session + parse + render + children_pf;

    let traced_pf = spans
        .clone()
        .map(|w| (w.t_last - w.t_write) as f64 / w.frames as f64)
        .sum::<f64>()
        / spans.clone().count() as f64;
    let untraced: Vec<f64> = t
        .wire
        .iter()
        .flat_map(|r| r.untraced_ns_per_frame.iter().copied())
        .collect();
    let untraced_pf = untraced.iter().sum::<f64>() / untraced.len() as f64;

    let wire_frames: u64 = t.wire.iter().map(|r| r.frames).sum();
    let c = t.calls;
    let mut out = vec![
        ("loadgen.busy_frac", busy_frac(t.wire)),
        ("loadgen.frames", wire_frames as f64),
        ("tcp.self_us_per_frame", tcp / 1e3),
        (
            "tcp.reads_per_window",
            ratio(
                t.wire.iter().map(|r| r.reads).sum::<u64>() as f64,
                t.wire.iter().map(|r| r.windows).sum::<u64>() as f64,
            ),
        ),
        (
            "tcp.bytes_per_frame",
            ratio(
                t.wire.iter().map(|r| r.bytes).sum::<u64>() as f64,
                wire_frames as f64,
            ),
        ),
        ("protocol.parse_ns_per_frame", parse),
        ("protocol.render_ns_per_frame", render),
        (
            "protocol.allocs_per_frame",
            (t.core.parse_allocs + c.render_allocs) as f64 / frames,
        ),
        ("service.dispatch_us_per_frame", service / 1e3),
        (
            "service.queue_depth_mean",
            ratio(t.handle.depth_sum as f64, t.handle.depth_samples as f64),
        ),
        (
            "service.queue_full",
            (t.handle.queue_full + t.queue_full_wire) as f64,
        ),
        ("shard.self_us_per_frame", shard / 1e3),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect::<Vec<_>>();
    let all: Vec<SchemeKind> = FLAT.iter().chain(&ROUTED).copied().collect();
    for k in &all {
        let (count, total) = t.core.opens[kind_index(*k)];
        out.push((
            format!("shard.{k}.open_us"),
            ratio(total as f64, count as f64) / 1e3,
        ));
    }
    out.push((
        "shard.close_us".into(),
        ratio(t.core.closes.1 as f64, t.core.closes.0 as f64) / 1e3,
    ));
    out.push((
        "session.step_ns_per_step".into(),
        ratio(step * frames, steps),
    ));
    out.push((
        "session.self_ns_per_step".into(),
        ratio(session * frames, steps),
    ));
    out.push((
        "session.allocs_per_step".into(),
        ratio(c.step_allocs as f64, steps),
    ));
    out.push((
        "workloads.uniform_ns_per_step".into(),
        ratio(c.uniform.1 as f64, c.uniform.0 as f64),
    ));
    out.push((
        "workloads.hotspot_ns_per_step".into(),
        ratio(c.hotspot.1 as f64, c.hotspot.0 as f64),
    ));
    for k in &all {
        let ks = &c.kinds[kind_index(*k)];
        let cost = &t.cost[kind_index(*k)];
        out.push((
            format!("scheme.{k}.access_ns_per_step"),
            ratio(ks.access_ns as f64, ks.steps as f64),
        ));
        out.push((
            format!("scheme.{k}.allocs_per_step"),
            ratio(ks.allocs as f64, ks.steps as f64),
        ));
        if copy_based(*k) {
            out.push((
                format!("scheme.{k}.useful_frac"),
                ratio(ks.copies as f64, ks.attempts as f64),
            ));
        }
        out.push((
            format!("scheme.{k}.cycles_per_step"),
            ratio(cost.cycles as f64, cost.steps as f64),
        ));
        out.push((
            format!("scheme.{k}.messages_per_step"),
            ratio(cost.messages as f64, cost.steps as f64),
        ));
    }
    for k in &ROUTED {
        let ks = &c.kinds[kind_index(*k)];
        out.push((
            format!("mot.{k}.ns_per_message"),
            ratio(ks.access_ns as f64, ks.messages as f64),
        ));
    }
    let mut failed_requests = 0;
    let mut faulted_steps = 0;
    for k in &FLAT {
        let ks = &c.kinds[kind_index(*k)];
        failed_requests += ks.failed_requests;
        faulted_steps += ks.faulted_steps;
        out.push((
            format!("faults.{k}.access_ns_per_step"),
            ratio(ks.faulted_ns as f64, ks.faulted_steps as f64),
        ));
        out.push((
            format!("faults.{k}.overhead_x"),
            ratio(ks.faulted_ns as f64, ks.healthy_twin_ns as f64),
        ));
        out.push((
            format!("faults.{k}.allocs_per_step"),
            ratio(ks.faulted_allocs as f64, ks.faulted_steps as f64),
        ));
    }
    out.push((
        "faults.failed_requests_per_step".into(),
        ratio(failed_requests as f64, faulted_steps as f64),
    ));
    out.push(("verify.ns_per_step".into(), ratio(children[2], steps)));
    out.push((
        "verify.ops_per_step".into(),
        ratio(c.verify_ops as f64, steps),
    ));
    out.push(("trace_hash.ns_per_step".into(), ratio(children[3], steps)));
    out.push((
        "trace.overhead_frac".into(),
        ratio(traced_pf, untraced_pf) - 1.0,
    ));
    out.push((
        "trace.residual_frac".into(),
        ratio(period - attributed, period),
    ));

    let defs = per_layer();
    assert_eq!(defs.len(), out.len(), "every per-layer metric is computed");
    defs.into_iter()
        .zip(out)
        .map(|(d, (name, value))| {
            assert_eq!(d.name, name, "per-layer metrics are computed in order");
            Metric {
                name,
                unit: d.unit,
                value,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
        assert!(total <= 16 + 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str| -> Vec<Def> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("array end")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let get = |k: &str| -> String {
                        let at = obj.find(&format!("\"{k}\"")).expect(k);
                        obj[at..]
                            .split('"')
                            .nth(3)
                            .expect("string value")
                            .to_string()
                    };
                    Def {
                        name: get("name"),
                        unit: Box::leak(get("unit").into_boxed_str()),
                        better: Box::leak(get("better").into_boxed_str()),
                    }
                })
                .collect()
        };
        assert_eq!(section("end_to_end"), end_to_end());
        assert_eq!(section("per_layer"), per_layer());
    }
}
