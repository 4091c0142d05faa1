//! Order statistics, and parsers for the two text surfaces the benchmark
//! reads from outside the server: `STATS` bodies and `TRACE` bodies.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 when
/// the sample is empty, so a class that never ran reports 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the even-count midpoint (what `statistics.median` gives).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) — the driver judges spread with it, so
/// `repeat` must compute the same thing. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One parsed `STATS` body: `key value` lines. Non-numeric values
/// (`exec_mode row`, `health healthy`) are kept out of `num`.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    num: BTreeMap<String, f64>,
}

impl Stats {
    pub fn parse(body: &str) -> Stats {
        let mut num = BTreeMap::new();
        for line in body.lines() {
            if let Some((key, value)) = line.split_once(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    num.insert(key.to_string(), v);
                }
            }
        }
        Stats { num }
    }

    /// The value under `key`; 0 for a key this server does not report
    /// (`shard1.commands` on a one-shard server).
    pub fn get(&self, key: &str) -> f64 {
        self.num.get(key).copied().unwrap_or(0.0)
    }

    #[cfg(test)]
    pub fn has(&self, key: &str) -> bool {
        self.num.contains_key(key)
    }

    /// `after[key] - self[key]`.
    pub fn delta(&self, after: &Stats, key: &str) -> f64 {
        after.get(key) - self.get(key)
    }
}

/// One `span …` line of a `TRACE` body.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpan {
    /// Indentation level inside a `TRACE q<id>` tree (0 in listings).
    pub depth: usize,
    pub qid: u64,
    pub kind: String,
    pub shard: u64,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub us: u64,
    pub ok: bool,
}

/// Parse every `span` line of a `TRACE [n]` listing or a `TRACE q<id>` tree;
/// header and footer lines (`trace q7 spans=9`, `shard_us …`) are skipped.
pub fn parse_spans(body: &str) -> Vec<ServerSpan> {
    body.lines().filter_map(parse_span_line).collect()
}

fn parse_span_line(line: &str) -> Option<ServerSpan> {
    let trimmed = line.trim_start();
    let depth = (line.len() - trimmed.len()) / 2;
    let rest = trimmed.strip_prefix("span ")?;
    // `detail=` is free text and always last; cut it off before splitting.
    let head = rest.split(" detail=").next()?;
    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
    for token in head.split(' ') {
        if let Some((k, v)) = token.split_once('=') {
            fields.insert(k, v);
        }
    }
    let num = |k: &str| fields.get(k)?.parse::<u64>().ok();
    Some(ServerSpan {
        depth,
        qid: fields.get("qid")?.strip_prefix('q')?.parse().ok()?,
        kind: fields.get("kind")?.to_string(),
        shard: num("shard")?,
        id: num("id")?,
        parent: num("parent")?,
        name: fields.get("name")?.to_string(),
        us: num("us")?,
        ok: *fields.get("ok")? == "1",
    })
}

/// Value of `key=<n>` in a one-line reply such as
/// `checkpoint tables=3 rows=1002 snapshot_bytes=55572 wal_truncated=102`.
pub fn reply_field(reply: &str, key: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            (15.0, 30.0, 45.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    /// Lines copied from a real two-shard server.
    const STATS_FIXTURE: &str = "uptime_s 1\nbuild_version 0.1.0\ncommands_served 4\n\
        plan_cache_hit_rate 0.0000\nphase_execute_total_us 73413\nexec_mode row\n\
        health healthy\nwal_bytes 8\nshard0.commands 1\nshard1.commands 3\n\
        wal_commits_per_fsync 1.00\n";

    #[test]
    fn stats_keys_parse_and_diff() {
        let s = Stats::parse(STATS_FIXTURE);
        assert_eq!(s.get("commands_served"), 4.0);
        assert_eq!(s.get("phase_execute_total_us"), 73413.0);
        assert_eq!(s.get("shard1.commands"), 3.0);
        assert_eq!(s.get("wal_commits_per_fsync"), 1.0);
        assert!(!s.has("exec_mode"), "text values are not numbers");
        assert!(!s.has("build_version"));
        assert_eq!(s.get("shard7.commands"), 0.0);
        let later = Stats::parse("commands_served 10\n");
        assert_eq!(s.delta(&later, "commands_served"), 6.0);
    }

    /// `TRACE q2` of a durable two-shard server, verbatim.
    const TREE_FIXTURE: &str = "trace q2 spans=8\n\
span seq=16 qid=q2 kind=command shard=1 id=9 parent=0 name=QUERY us=587 ok=1 detail=INSERT INTO t VALUES (1,'x'),(2,'y')\n\
\x20 span seq=9 qid=q2 kind=router shard=1 id=10 parent=9 name=route us=34 ok=1 detail=single shard=1\n\
\x20 span seq=11 qid=q2 kind=shard-exec shard=1 id=11 parent=9 name=QUERY us=114 ok=1 detail=INSERT INTO t VALUES (1,'x'),(2,'y')\n\
\x20   span seq=12 qid=q2 kind=engine-phase shard=1 id=13 parent=11 name=lex us=8 ok=1 detail=\n\
\x20   span seq=13 qid=q2 kind=engine-phase shard=1 id=14 parent=11 name=parse us=9 ok=1 detail=\n\
\x20   span seq=14 qid=q2 kind=engine-phase shard=1 id=15 parent=11 name=wal_append us=34 ok=1 detail=\n\
\x20 span seq=10 qid=q2 kind=queue-wait shard=1 id=12 parent=9 name=queue-wait us=52 ok=1 detail=\n\
\x20 span seq=15 qid=q2 kind=wal-group-fsync shard=1 id=16 parent=9 name=group-fsync us=333 ok=1 detail=shared group-commit window\n\
shard_us shard1=447\ntotal_us 587";

    #[test]
    fn trace_tree_parses() {
        let spans = parse_spans(TREE_FIXTURE);
        assert_eq!(spans.len(), 8);
        assert_eq!(
            spans[0],
            ServerSpan {
                depth: 0,
                qid: 2,
                kind: "command".into(),
                shard: 1,
                id: 9,
                parent: 0,
                name: "QUERY".into(),
                us: 587,
                ok: true,
            }
        );
        assert_eq!(spans[3].depth, 2);
        assert_eq!(spans[3].name, "lex");
        let fsync = spans.iter().find(|s| s.kind == "wal-group-fsync").unwrap();
        assert_eq!((fsync.us, fsync.parent, fsync.depth), (333, 9, 1));
    }

    #[test]
    fn trace_listing_parses_and_empty_is_empty() {
        let listing = "span seq=71 qid=q5 kind=command shard=0 id=94 parent=0 name=CHECKPOINT us=3167 ok=1 detail=\n\
span seq=68 qid=q0 kind=command shard=0 id=93 parent=0 name=STATS us=72 ok=1 detail=";
        let roots = parse_spans(listing);
        assert_eq!(roots.len(), 2);
        assert_eq!((roots[0].qid, roots[0].name.as_str()), (5, "CHECKPOINT"));
        assert!(parse_spans("no spans recorded").is_empty());
    }

    #[test]
    fn reply_fields_parse() {
        let r = "checkpoint tables=3 rows=1002 snapshot_bytes=55572 wal_truncated=102";
        assert_eq!(reply_field(r, "rows"), Some(1002));
        assert_eq!(reply_field(r, "snapshot_bytes"), Some(55572));
        assert_eq!(reply_field(r, "wal_truncated"), Some(102));
        assert_eq!(reply_field(r, "absent"), None);
    }
}
