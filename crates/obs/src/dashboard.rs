//! Self-contained HTML operator dashboard.
//!
//! [`render`] produces one static page — no JavaScript, no external assets
//! — from the TSDB, the SLO engine, the tail reservoir, and the audit ring:
//! alert states up top, an inline-SVG sparkline per series (counters as
//! rates, gauges raw, histograms as per-interval means with windowed
//! p50/p99 stats), registry swap/quarantine events annotated as vertical
//! timeline markers on every sparkline, and the most recent audit events
//! and kept traces tabulated below. A `<meta http-equiv="refresh">` keeps
//! it live-ish; anything fancier belongs in a real Grafana in front of
//! `/metrics`.

use crate::audit;
use crate::slo::SloEngine;
use crate::tail::TailSampler;
use crate::tsdb::{SeriesKind, Tsdb, WINDOWS};

const SPARK_W: f64 = 240.0;
const SPARK_H: f64 = 48.0;
/// Newest points drawn per sparkline.
const SPARK_POINTS: usize = 120;

/// Escapes `&<>"` for safe embedding in HTML text and attributes.
fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders the `GET /dashboard` page.
pub fn render(
    title: &str,
    tsdb: &Tsdb,
    engine: Option<&SloEngine>,
    tail: Option<&TailSampler>,
    now_ms: u64,
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html><html><head><meta charset=\"utf-8\">");
    out.push_str("<meta http-equiv=\"refresh\" content=\"5\">");
    out.push_str(&format!("<title>{}</title>", html_escape(title)));
    out.push_str(
        "<style>
body{font:13px/1.4 monospace;background:#111;color:#ddd;margin:16px}
h1{font-size:16px}h2{font-size:14px;margin:18px 0 6px;border-bottom:1px solid #333}
table{border-collapse:collapse}td,th{padding:2px 10px 2px 0;text-align:left}
.grid{display:flex;flex-wrap:wrap;gap:10px}
.card{background:#1a1a1a;border:1px solid #2a2a2a;border-radius:4px;padding:6px 8px}
.name{color:#9cf}.labels{color:#777}.val{color:#fd9}
.firing{color:#f66;font-weight:bold}.ok{color:#6d6}
svg{display:block;margin-top:4px}
.warnrow{color:#f96}
</style></head><body>",
    );
    out.push_str(&format!(
        "<h1>{} <span class=\"labels\">· tsdb interval {} ms · retained {} s</span></h1>",
        html_escape(title),
        tsdb.interval_ms(),
        tsdb.retain_ms() / 1000
    ));

    // Alerts.
    out.push_str("<h2>SLO alerts</h2>");
    match engine {
        Some(engine) if !engine.specs().is_empty() => {
            out.push_str(
                "<table><tr><th>slo</th><th>severity</th><th>state</th>\
                 <th>burn (short)</th><th>burn (long)</th><th>factor</th></tr>",
            );
            for a in engine.alerts() {
                out.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td class=\"{}\">{}</td>\
                     <td>{:.2}</td><td>{:.2}</td><td>{}</td></tr>",
                    html_escape(&a.slo),
                    html_escape(&a.severity),
                    if a.firing { "firing" } else { "ok" },
                    if a.firing { "FIRING" } else { "ok" },
                    a.burn_short,
                    a.burn_long,
                    a.factor
                ));
            }
            out.push_str("</table>");
        }
        _ => out.push_str("<p class=\"labels\">no SLOs configured (set DFP_SLO_FILE)</p>"),
    }

    // Sparklines with event annotations.
    let events = audit::recent(64);
    out.push_str("<h2>Series</h2><div class=\"grid\">");
    for series in tsdb.plot_series(SPARK_POINTS) {
        if series.points.is_empty() {
            continue;
        }
        let last = series.points.last().expect("non-empty").1;
        out.push_str("<div class=\"card\">");
        out.push_str(&format!(
            "<span class=\"name\">{}</span> <span class=\"labels\">{}</span><br>\
             <span class=\"val\">{:.6}</span> <span class=\"labels\">{}</span>",
            html_escape(&series.name),
            html_escape(&series.labels),
            last,
            series.unit
        ));
        if series.kind == SeriesKind::Histogram {
            // Windowed percentiles under the sparkline.
            let mut stats = String::new();
            for (label, width) in WINDOWS {
                if let Some(q) = tsdb.window_quantiles(&series.name, &series.labels, width, now_ms)
                {
                    stats.push_str(&format!(" {label}: p50 {:.4}s p99 {:.4}s", q.p50, q.p99));
                }
            }
            if !stats.is_empty() {
                out.push_str(&format!(
                    "<br><span class=\"labels\">{}</span>",
                    html_escape(&stats)
                ));
            }
        }
        out.push_str(&sparkline(&series.points, &events));
        out.push_str("</div>");
    }
    out.push_str("</div>");

    // Audit timeline.
    out.push_str("<h2>Registry events</h2>");
    if events.is_empty() {
        out.push_str("<p class=\"labels\">none</p>");
    } else {
        out.push_str(
            "<table><tr><th>t</th><th>kind</th><th>model</th><th>version</th>\
             <th>outcome</th><th>ms</th><th>detail</th></tr>",
        );
        for e in events.iter().rev().take(20) {
            let bad = matches!(e.outcome.as_str(), "rejected" | "quarantined" | "io_error");
            out.push_str(&format!(
                "<tr{}><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.1}</td><td>{}</td></tr>",
                if bad { " class=\"warnrow\"" } else { "" },
                e.unix_ms,
                html_escape(&e.kind),
                html_escape(&e.model),
                e.version.map(|v| v.to_string()).unwrap_or_default(),
                html_escape(&e.outcome),
                e.duration_ms,
                html_escape(&e.detail)
            ));
        }
        out.push_str("</table>");
    }

    // Tail-sampled traces.
    if let Some(tail) = tail {
        let (offered, kept) = tail.stats();
        out.push_str(&format!(
            "<h2>Tail-sampled traces <span class=\"labels\">· kept {kept} of {offered} · threshold {} ns</span></h2>",
            tail.slow_threshold_ns()
        ));
        let traces = tail.traces();
        if traces.is_empty() {
            out.push_str("<p class=\"labels\">none kept</p>");
        } else {
            out.push_str(
                "<table><tr><th>request id</th><th>method</th><th>path</th>\
                 <th>status</th><th>dur ms</th><th>reason</th></tr>",
            );
            for t in traces.iter().rev().take(20) {
                out.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.3}</td><td>{}</td></tr>",
                    html_escape(&t.request_id),
                    html_escape(&t.method),
                    html_escape(&t.path),
                    t.status,
                    t.duration_ns as f64 / 1e6,
                    t.reason
                ));
            }
            out.push_str("</table>");
        }
    }

    out.push_str("</body></html>");
    out
}

/// One inline-SVG sparkline with audit events as vertical markers.
fn sparkline(points: &[(u64, f64)], events: &[audit::AuditEvent]) -> String {
    let t0 = points.first().expect("caller checks non-empty").0;
    let t1 = points
        .last()
        .expect("caller checks non-empty")
        .0
        .max(t0 + 1);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, v) in points {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        return String::new();
    }
    if hi - lo < 1e-12 {
        hi = lo + 1.0;
    }
    let x = |ts: u64| (ts.saturating_sub(t0)) as f64 / (t1 - t0) as f64 * SPARK_W;
    let y = |v: f64| SPARK_H - (v - lo) / (hi - lo) * (SPARK_H - 4.0) - 2.0;
    let mut path = String::new();
    for (i, &(ts, v)) in points.iter().enumerate() {
        path.push_str(&format!(
            "{}{:.1},{:.1}",
            if i == 0 { "" } else { " " },
            x(ts),
            y(v)
        ));
    }
    let mut svg = format!(
        "<svg width=\"{SPARK_W}\" height=\"{SPARK_H}\" viewBox=\"0 0 {SPARK_W} {SPARK_H}\">\
         <polyline fill=\"none\" stroke=\"#6af\" stroke-width=\"1\" points=\"{path}\"/>"
    );
    for e in events {
        if e.unix_ms < t0 || e.unix_ms > t1 {
            continue;
        }
        let bad = matches!(e.outcome.as_str(), "rejected" | "quarantined" | "io_error");
        svg.push_str(&format!(
            "<line x1=\"{0:.1}\" x2=\"{0:.1}\" y1=\"0\" y2=\"{SPARK_H}\" stroke=\"{1}\" \
             stroke-dasharray=\"2,2\"><title>{2} {3} {4}</title></line>",
            x(e.unix_ms),
            if bad { "#f66" } else { "#6d6" },
            html_escape(&e.kind),
            html_escape(&e.model),
            html_escape(&e.outcome),
        ));
    }
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::slo::SloSpec;
    use crate::tsdb::TsdbConfig;

    #[test]
    fn dashboard_renders_svg_and_sections() {
        let r = Registry::new();
        let c = r.counter("dash_total", "d");
        let h = r.histogram("dash_lat_seconds", "d", &[0.01, 0.1]);
        let tsdb = Tsdb::new(&TsdbConfig::default());
        for i in 0..5u64 {
            c.add(10);
            h.observe_nanos(20_000_000);
            tsdb.ingest(1_000 * (i + 1), r.snapshot());
        }
        let engine = SloEngine::new(
            vec![SloSpec::new("avail", 0.99, "dash_total", "dash_err_total")],
            &r,
        );
        let tail = TailSampler::new(4);
        let html = render("dfp-serve", &tsdb, Some(&engine), Some(&tail), 5_000);
        assert!(html.contains("<svg"), "sparkline missing");
        assert!(html.contains("dash_total"));
        assert!(html.contains("SLO alerts"));
        assert!(html.contains("Tail-sampled traces"));
        // Histogram card shows windowed percentiles.
        assert!(html.contains("p99"), "{html}");
    }

    #[test]
    fn html_escaping_is_applied() {
        assert_eq!(html_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }
}
