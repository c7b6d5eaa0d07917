//! Prometheus text exposition (format version 0.0.4), hand-rolled.
//!
//! [`PromWriter`] builds one exposition document: `# HELP` / `# TYPE`
//! headers once per family, then sample lines. [`percentile`] is the
//! shared nearest-rank helper used for `{quantile="..."}` summaries.

use crate::hist::Histogram;
use std::fmt::Write as _;

/// Builds one Prometheus text-exposition document.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label *value* per the exposition format: backslash, double
/// quote, and newline. Public because the ssimd metrics federator needs
/// the same escaping when it stamps `instance="worker:<k>"` onto
/// relayed worker samples.
#[must_use]
pub fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Rewrites one exposition document so every sample line carries an
/// extra `label="value"` pair — the metrics-federation primitive: a
/// coordinator relays each worker's scrape under
/// `instance="worker:<k>"`. Comment (`# HELP`/`# TYPE`) lines are
/// dropped, because the coordinator already emitted headers for its own
/// families and duplicate headers are invalid exposition text; blank
/// lines are dropped too. The metric name never contains `{`, `"` or a
/// space, so splitting at the first `{` or space is exact even when
/// existing label values contain braces or escaped quotes.
#[must_use]
pub fn inject_label(doc: &str, label: &str, value: &str) -> String {
    let escaped = escape_label(value);
    let mut out = String::with_capacity(doc.len() + 32);
    for line in doc.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cut = line.find(['{', ' ']).unwrap_or(line.len());
        let (name, rest) = line.split_at(cut);
        if let Some(labels) = rest.strip_prefix('{') {
            let _ = writeln!(out, "{name}{{{label}=\"{escaped}\",{labels}");
        } else {
            let _ = writeln!(out, "{name}{{{label}=\"{escaped}\"}}{rest}");
        }
    }
    out
}

impl PromWriter {
    /// An empty document.
    #[must_use]
    pub fn new() -> Self {
        PromWriter::default()
    }

    fn header(&mut self, name: &str, help: &str, ty: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {ty}");
    }

    /// One unlabelled counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// A counter family with one label dimension, e.g.
    /// `jobs_total{kind="simulate"} 3`.
    pub fn counter_family(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, u64)]) {
        self.header(name, help, "counter");
        for (label_value, value) in samples {
            let _ = writeln!(
                self.out,
                "{name}{{{label}=\"{}\"}} {value}",
                escape_label(label_value)
            );
        }
    }

    /// A gauge family with one label dimension, e.g.
    /// `worker_healthy{worker="host:42014"} 1`.
    pub fn gauge_family(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, i64)]) {
        self.header(name, help, "gauge");
        for (label_value, value) in samples {
            let _ = writeln!(
                self.out,
                "{name}{{{label}=\"{}\"}} {value}",
                escape_label(label_value)
            );
        }
    }

    /// One unlabelled gauge (integer).
    pub fn gauge_i64(&mut self, name: &str, help: &str, value: i64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One unlabelled gauge (float).
    pub fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// One sample line with an arbitrary label set (no header — pair
    /// with [`PromWriter::header_only`] or a preceding family call).
    /// Every label value is escaped.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {value}");
            return;
        }
        let _ = write!(self.out, "{name}{{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
        }
        let _ = writeln!(self.out, "}} {value}");
    }

    /// Just the `# HELP`/`# TYPE` header for a family whose samples are
    /// emitted via [`PromWriter::sample`].
    pub fn header_only(&mut self, name: &str, help: &str, ty: &str) {
        self.header(name, help, ty);
    }

    /// An info-style gauge: constant value `1`, identity in the labels
    /// (the `ssimd_build_info{version=...}` idiom).
    pub fn info(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) {
        self.header(name, help, "gauge");
        self.sample(name, labels, 1);
    }

    /// A summary: quantile sample lines plus `_count`. `quantiles` pairs
    /// a quantile (e.g. `0.99`) with its value.
    pub fn summary(&mut self, name: &str, help: &str, quantiles: &[(f64, u64)], count: u64) {
        self.header(name, help, "summary");
        for (q, v) in quantiles {
            let _ = writeln!(self.out, "{name}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(self.out, "{name}_count {count}");
    }

    /// A histogram: cumulative `_bucket{le="..."}` lines (Prometheus
    /// buckets are cumulative; [`Histogram`] counts are per-bucket, so
    /// the running sum happens here), the `+Inf` bucket, `_sum`, and
    /// `_count`. `_count` equals the `+Inf` bucket by construction,
    /// as the exposition format requires.
    pub fn histogram(&mut self, name: &str, help: &str, hist: &Histogram) {
        self.header(name, help, "histogram");
        let counts = hist.bucket_counts();
        let mut cumulative = 0u64;
        for (bound, count) in hist.bounds().iter().zip(&counts) {
            cumulative += count;
            let _ = writeln!(self.out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        cumulative += counts.last().copied().unwrap_or(0);
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(self.out, "{name}_sum {}", hist.sum());
        let _ = writeln!(self.out, "{name}_count {cumulative}");
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// Nearest-rank percentile over an already **sorted** slice; returns 0
/// for an empty slice. `p` is in `[0, 1]`.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_help_type_and_samples() {
        let mut w = PromWriter::new();
        w.counter("jobs_total", "total jobs", 7);
        w.gauge_f64("utilization", "busy fraction", 0.5);
        w.counter_family(
            "jobs_by_kind_total",
            "per-kind jobs",
            "kind",
            &[("simulate", 3), ("dc", 4)],
        );
        w.gauge_family(
            "worker_healthy",
            "per-worker health",
            "worker",
            &[("a:1", 1), ("b:2", 0)],
        );
        w.summary("latency_us", "latency", &[(0.5, 10), (0.99, 90)], 100);
        let text = w.finish();
        assert!(text.contains("# HELP jobs_total total jobs\n"));
        assert!(text.contains("# TYPE jobs_total counter\n"));
        assert!(text.contains("jobs_total 7\n"));
        assert!(text.contains("utilization 0.5\n"));
        assert!(text.contains("jobs_by_kind_total{kind=\"simulate\"} 3\n"));
        assert!(text.contains("# TYPE worker_healthy gauge\n"));
        assert!(text.contains("worker_healthy{worker=\"a:1\"} 1\n"));
        assert!(text.contains("worker_healthy{worker=\"b:2\"} 0\n"));
        assert!(text.contains("latency_us{quantile=\"0.5\"} 10\n"));
        assert!(text.contains("latency_us{quantile=\"0.99\"} 90\n"));
        assert!(text.contains("latency_us_count 100\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.counter_family("m_total", "m", "k", &[("a\"b", 1)]);
        assert!(w.finish().contains("m_total{k=\"a\\\"b\"} 1"));
    }

    #[test]
    fn backslash_quote_and_newline_all_escape_in_label_values() {
        // The full hostile triple in one value: a raw backslash, a
        // quote, and a newline (think a worker "addr" pasted from a
        // config with a path in it). Exposition text is line-oriented,
        // so an unescaped newline or quote corrupts the document.
        let hostile = "C:\\host\"A\nB";
        assert_eq!(escape_label(hostile), "C:\\\\host\\\"A\\nB");
        let mut w = PromWriter::new();
        w.gauge_family("worker_up", "h", "worker", &[(hostile, 1)]);
        let text = w.finish();
        assert!(
            text.contains("worker_up{worker=\"C:\\\\host\\\"A\\nB\"} 1"),
            "{text}"
        );
        // The document still has exactly one sample line per sample.
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 1);
    }

    #[test]
    fn multi_label_sample_and_info_escape_every_value() {
        let mut w = PromWriter::new();
        w.info(
            "build_info",
            "build identity",
            &[("version", "1.2.3"), ("features", "obs\"x")],
        );
        w.header_only("jobs_total", "relayed", "counter");
        w.sample(
            "jobs_total",
            &[("instance", "worker:0"), ("kind", "run")],
            9,
        );
        w.sample("plain_total", &[], 4);
        let text = w.finish();
        assert!(text.contains("# TYPE build_info gauge\n"));
        assert!(text.contains("build_info{version=\"1.2.3\",features=\"obs\\\"x\"} 1\n"));
        assert!(text.contains("jobs_total{instance=\"worker:0\",kind=\"run\"} 9\n"));
        assert!(text.contains("plain_total 4\n"));
    }

    #[test]
    fn inject_label_stamps_every_sample_and_drops_comments() {
        let doc = "# HELP jobs_total j\n# TYPE jobs_total counter\njobs_total 7\n\
                   jobs_by_kind_total{kind=\"a\\\"b\"} 3\nlatency_us_bucket{le=\"+Inf\"} 12\n";
        let out = inject_label(doc, "instance", "worker:1");
        assert_eq!(
            out,
            "jobs_total{instance=\"worker:1\"} 7\n\
             jobs_by_kind_total{instance=\"worker:1\",kind=\"a\\\"b\"} 3\n\
             latency_us_bucket{instance=\"worker:1\",le=\"+Inf\"} 12\n"
        );
        // Hostile instance values are escaped on the way in.
        let out = inject_label("m 1\n", "instance", "w\"0");
        assert_eq!(out, "m{instance=\"w\\\"0\"} 1\n");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_count_matches_inf() {
        let h = Histogram::with_bounds(vec![10, 100]);
        h.observe(5);
        h.observe(7);
        h.observe(50);
        h.observe(5000); // overflow
        let mut w = PromWriter::new();
        w.histogram("latency_us", "latency", &h);
        let text = w.finish();
        assert!(text.contains("# TYPE latency_us histogram\n"));
        assert!(text.contains("latency_us_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("latency_us_bucket{le=\"100\"} 3\n"));
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("latency_us_sum 5062\n"));
        assert!(text.contains("latency_us_count 4\n"));
    }

    #[test]
    fn percentile_matches_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 100);
        let p50 = percentile(&v, 0.5);
        assert!((49..=51).contains(&p50));
        let p99 = percentile(&v, 0.99);
        assert!((98..=100).contains(&p99));
    }
}
