//! Exposition parity: the `/metrics` listener and the `STATS` verb render
//! the SAME collected samples, declared once in `metrics::DECLS`. So every
//! sample on `/metrics` is a `STATS` line with the identical value (the
//! declaration gives the key), every engine-scoped `shard="k"` sample is the
//! `shard{k}.<key>` line, the bare `<key>` line is the declared fold of the
//! shard series, and `STATS` prints nothing else. The scrape runs FIRST and
//! `STATS` counts itself only after rendering, so the two snapshots are
//! directly comparable on a quiesced server.
//!
//! Also covers exposition well-formedness (families contiguous under one
//! `# TYPE` each), per-shard labels on a 4-shard server, and the tiny HTTP
//! surface (404 / 405 / scrape counter).

use elephant_server::metrics::{ratio, Decl, Fold, Kind, Scope, DECLS, HEALTHY};
use elephant_server::{shard_of, start, ElephantClient, PipelineClient, ServerConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

/// Plain HTTP/1.1 GET; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nAccept: */*\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status = head.lines().next().unwrap().to_string();
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or("")
        .to_string();
    (status, content_type, body.to_string())
}

/// One parsed exposition sample.
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: String,
}

/// Parse `k="v",k2="v2"` (the inside of the braces), honouring `\"`.
fn parse_labels(raw: &str) -> BTreeMap<String, String> {
    let mut labels = BTreeMap::new();
    let mut rest = raw;
    while let Some((key, after)) = rest.split_once("=\"") {
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next().expect("unterminated label value") {
                (_, '\\') => value.push(match chars.next().expect("dangling escape").1 {
                    'n' => '\n',
                    c => c,
                }),
                (i, '"') => break i,
                (_, c) => value.push(c),
            }
        };
        labels.insert(key.trim_start_matches(',').to_string(), value);
        rest = &after[end + 1..];
    }
    labels
}

fn parse_exposition(body: &str) -> Vec<Sample> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (ident, value) = l
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("bad line: {l}"));
            let (name, labels) = match ident.split_once('{') {
                Some((n, rest)) => (n, parse_labels(rest.trim_end_matches('}'))),
                None => (ident, BTreeMap::new()),
            };
            Sample {
                name: name.to_string(),
                labels,
                value: value.to_string(),
            }
        })
        .collect()
}

/// Fill the `{label}` slots of a declared key or name from a sample's labels.
fn fill(template: &str, labels: &BTreeMap<String, String>) -> String {
    labels.iter().fold(template.to_string(), |out, (k, v)| {
        out.replace(&format!("{{{k}}}"), v)
    })
}

/// The `STATS` line one exposition sample stands for, by its declaration:
/// `(declaration, key, value, STATS may omit it while the histogram is
/// empty)`. `None` for samples `STATS` has no line for (`_bucket` series,
/// the `_sum` of a histogram declared without a total).
fn stats_line(sample: &Sample) -> Option<(&'static Decl, String, String, bool)> {
    let name = sample.name.strip_prefix("elephant_").expect("prefixed");
    let value = sample.value.clone();
    for d in DECLS {
        let family = fill(d.name, &sample.labels);
        let key = fill(d.key, &sample.labels);
        match d.kind {
            Kind::Text if name == format!("{family}_info") => {
                return Some((d, key, sample.labels["value"].clone(), false));
            }
            Kind::Histogram(render) => {
                let skip = render.skip_if_empty;
                if name == format!("{family}_bucket") {
                    return None;
                } else if name == format!("{family}_count") {
                    return Some((d, format!("{key}_count"), value, skip));
                } else if name == format!("{family}_sum") {
                    return render
                        .total
                        .then(|| (d, format!("{key}_total_us"), value, skip));
                }
                for (suffix, _) in render.percentiles {
                    if name == format!("{family}_{suffix}") {
                        return Some((d, format!("{key}_{suffix}"), value, skip));
                    }
                }
            }
            _ if name == family => return Some((d, key, value, false)),
            _ => {}
        }
    }
    panic!("sample {name} has no declaration in metrics::DECLS");
}

#[test]
fn every_stats_key_is_on_the_metrics_endpoint_with_the_same_value() {
    const SHARDS: usize = 4;
    let dir: PathBuf =
        std::env::temp_dir().join(format!("elephant-metrics-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        shards: SHARDS,
        data_dir: Some(dir.clone()),
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = handle.metrics_addr().expect("metrics listener bound");
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();

    // A workload that lights up most families: DDL/DML on two shards, a
    // scatter-gather join, plan cache traffic with an invalidation, a mode
    // switch, an error, and a TRACE.
    let names: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
    let a = names[0].clone();
    let b = names
        .iter()
        .find(|n| shard_of(n, SHARDS) != shard_of(&a, SHARDS))
        .unwrap()
        .clone();
    c.query_raw(&format!("CREATE TABLE {a} (x int)")).unwrap();
    c.query_raw(&format!("CREATE TABLE {b} (x int)")).unwrap();
    c.query_raw(&format!("INSERT INTO {a} VALUES (1), (2)"))
        .unwrap();
    c.query_raw(&format!("INSERT INTO {b} VALUES (2), (3)"))
        .unwrap();
    c.query_raw(&format!(
        "SELECT count(*) AS n FROM {a} INNER JOIN {b} ON {a}.x = {b}.x"
    ))
    .unwrap();
    c.prepare("p", &format!("SELECT sum(x) AS s FROM {a}"))
        .unwrap();
    c.execute("p").unwrap();
    // An EXECUTE after DROP finds the prepared plan stale and drives the
    // per-table plan-cache invalidation counter, on whichever shard owns
    // the scratch table.
    let scratch = names.iter().find(|n| **n != a && **n != b).unwrap().clone();
    c.query_raw(&format!("CREATE TABLE {scratch} (y int)"))
        .unwrap();
    c.prepare("stale", &format!("SELECT count(*) AS n FROM {scratch}"))
        .unwrap();
    c.query_raw(&format!("DROP TABLE {scratch}")).unwrap();
    let err = c.execute("stale").unwrap_err();
    assert!(err.to_string().contains("unknown relation"), "{err:?}");
    c.query_raw(&format!("SELECT x FROM {a} ORDER BY x"))
        .unwrap();
    let _ = c.query_raw("SELECT nope FROM missing_table").unwrap_err();
    c.trace(Some(5)).unwrap();

    // v2 traffic on the same 4-shard server: a pipelined burst, a BATCH,
    // and a parameterized EXECUTE, so the protocol-v2 counter families
    // export live values, not just zeros.
    let mut p = PipelineClient::connect(handle.local_addr()).unwrap();
    for r in p
        .pipeline(&[
            format!("QUERY SELECT x FROM {a} ORDER BY x"),
            format!("QUERY SELECT count(*) AS n FROM {b}"),
            format!("BATCH INSERT INTO {a} VALUES (7)\u{1e}SELECT count(*) AS n FROM {a}"),
        ])
        .unwrap()
    {
        r.unwrap();
    }
    p.send(&format!("PREPARE byx AS SELECT x FROM {b} WHERE x = $1"))
        .unwrap();
    p.send("EXECUTE byx (2)").unwrap();
    drop(p);
    // The pipelined session closes asynchronously: wait for the session
    // gauge to settle so the two snapshots below read the same value.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !c.stats().unwrap().lines().any(|l| l == "sessions_open 1") {
        assert!(
            std::time::Instant::now() < deadline,
            "a session never closed"
        );
    }

    // Scrape FIRST (the scrape counter increments before collection, the
    // STATS render counts itself after rendering: both snapshots agree).
    let (status, content_type, prom) = http_get(metrics_addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(content_type.contains("version=0.0.4"), "{content_type}");
    let stats = c.stats().unwrap();

    let samples = parse_exposition(&prom);
    let mut lines: BTreeMap<&str, &str> = BTreeMap::new();
    for line in stats.lines() {
        let (key, value) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("bad STATS line: {line}"));
        assert!(
            lines.insert(key, value).is_none(),
            "STATS prints {key} twice"
        );
    }
    let context = format!("\n--- STATS ---\n{stats}\n--- /metrics ---\n{prom}");
    let number = |v: &str| -> u64 { v.parse().unwrap_or_else(|_| panic!("not a count: {v}")) };

    // Every sample is a STATS line with the same value: engine-scoped ones
    // under `shard{k}.<key>`, the rest under the bare key.
    let mut covered: BTreeSet<String> = BTreeSet::new();
    let mut series: BTreeMap<String, (&Decl, bool, Vec<String>)> = BTreeMap::new();
    for sample in &samples {
        let Some((decl, key, value, may_skip)) = stats_line(sample) else {
            continue;
        };
        let key = match (decl.scope, sample.labels.get("shard")) {
            (Scope::Engine(_), Some(k)) => {
                let entry = series.entry(key.clone());
                entry
                    .or_insert((decl, may_skip, Vec::new()))
                    .2
                    .push(value.clone());
                format!("shard{k}.{key}")
            }
            (Scope::Engine(_), None) => panic!("{key}: engine-scoped but unlabelled{context}"),
            (_, Some(_)) => panic!("{key}: one per server but labelled by shard{context}"),
            (_, None) => key,
        };
        match lines.get(key.as_str()) {
            // Wall-clock seconds tick between the two renders.
            Some(_) if key == "uptime_s" => {}
            Some(got) => assert_eq!(*got, value, "{key} differs{context}"),
            None => assert!(may_skip, "{key} {value} is not in STATS{context}"),
        }
        covered.insert(key);
    }

    // The bare key of an engine-scoped metric is the declared fold of its
    // shard series.
    for (key, (decl, may_skip, values)) in &series {
        let Scope::Engine(fold) = decl.scope else {
            unreachable!("series holds engine-scoped samples only");
        };
        let sum_of = |key: &str| number(lines[key]);
        let is_percentile = matches!(decl.kind, Kind::Histogram(_))
            && !key.ends_with("_count")
            && !key.ends_with("_total_us");
        let want = match fold {
            Fold::PerShard => continue,
            // A merged histogram's percentile is not a function of the
            // shards' percentiles; its count and total are their sums.
            Fold::Sum if is_percentile => {
                covered.insert(key.clone());
                continue;
            }
            Fold::Sum => values.iter().map(|v| number(v)).sum::<u64>().to_string(),
            Fold::Ratio { num, den } => {
                let Kind::Float(decimals) = decl.kind else {
                    panic!("{key}: a ratio is a float");
                };
                let ratio = ratio(sum_of(num), den.iter().map(|k| sum_of(k)).sum());
                format!("{ratio:.decimals$}")
            }
            Fold::AllEqual if values.iter().all(|v| *v == values[0]) => values[0].clone(),
            Fold::AllEqual => "mixed".to_string(),
            Fold::Worst => values
                .iter()
                .find(|v| *v != HEALTHY)
                .unwrap_or(&values[0])
                .clone(),
        };
        match lines.get(key.as_str()) {
            Some(got) => assert_eq!(*got, want, "{key} is not the fold of {values:?}{context}"),
            None => assert!(*may_skip && want == "0", "{key} has no total{context}"),
        }
        covered.insert(key.clone());
    }

    // And STATS prints nothing the collector did not sample.
    let extra: Vec<&&str> = lines.keys().filter(|k| !covered.contains(**k)).collect();
    assert!(extra.is_empty(), "STATS-only keys: {extra:?}{context}");
    // The fold is not vacuous here: the workload wrote on two shards, and
    // the process-global failpoint counter is reported once, not per shard.
    let busy = series["wal_records_appended"]
        .2
        .iter()
        .filter(|v| *v != "0");
    assert!(busy.count() >= 2, "{context}");
    assert!(lines.contains_key("faults_injected"), "{context}");
    assert!(!lines.contains_key("shard0.faults_injected"), "{context}");

    // The workload's counters really are live on the exposition (guards
    // against a parity pass on an all-zero registry).
    let sample = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name} in:\n{prom}"))
    };
    assert!(
        sample("elephant_commands_served")
            .value
            .parse::<u64>()
            .unwrap()
            >= 12
    );
    assert_eq!(sample("elephant_shard_scatter_gather").value, "1");
    assert!(sample("elephant_exec_errors").value.parse::<u64>().unwrap() >= 1);
    assert!(prom.contains("elephant_latency_bucket{le=\""), "{prom}");
    assert!(
        prom.contains("elephant_plan_cache_table_invalidations{"),
        "{prom}"
    );
    // The v2 wire counters export, and the ones the workload drove are
    // non-zero; the result-buffer gauge is back to zero on a quiesced
    // server (its peak stays whatever streaming reached, here 0).
    assert!(
        sample("elephant_pipelined_frames")
            .value
            .parse::<u64>()
            .unwrap()
            >= 1,
        "{prom}"
    );
    assert_eq!(sample("elephant_batch_statements").value, "2");
    assert_eq!(sample("elephant_params_bound").value, "1");
    sample("elephant_chunks_streamed");
    assert_eq!(sample("elephant_result_buffer_bytes").value, "0");
    sample("elephant_result_buffer_peak_bytes");

    // 4-shard labels: every shard reports its gauges.
    for k in 0..SHARDS {
        assert!(
            samples.iter().any(|s| s.name == "elephant_shard_commands"
                && s.labels.get("shard") == Some(&k.to_string())),
            "missing shard_commands for shard {k}:\n{prom}"
        );
    }

    // Well-formedness: one `# TYPE` per family, all family samples
    // contiguous directly under it, every sample prefixed `elephant_`.
    let mut seen_types: HashSet<&str> = HashSet::new();
    let mut current: Option<(&str, &str)> = None; // (family, kind)
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').unwrap();
            assert!(seen_types.insert(family), "duplicate # TYPE for {family}");
            current = Some((family, kind));
        } else if !line.is_empty() {
            let (family, kind) = current.expect("sample before any # TYPE");
            assert!(line.starts_with("elephant_"), "unprefixed sample: {line}");
            let ident = line.split([' ', '{']).next().unwrap();
            let member = match kind {
                "histogram" => {
                    ident == format!("{family}_bucket")
                        || ident == format!("{family}_sum")
                        || ident == format!("{family}_count")
                }
                _ => ident == family,
            };
            assert!(member, "sample {ident} not in family {family} ({kind})");
        }
    }
    // Histogram buckets are cumulative and capped by their _count.
    let mut last_cumulative: HashMap<String, u64> = HashMap::new();
    for s in &samples {
        if s.name == "elephant_latency_bucket" {
            let v: u64 = s.value.parse().unwrap();
            let prev = last_cumulative.entry(s.name.clone()).or_insert(0);
            assert!(v >= *prev, "bucket series not cumulative:\n{prom}");
            *prev = v;
        }
    }
    assert_eq!(
        last_cumulative["elephant_latency_bucket"],
        sample("elephant_latency_count")
            .value
            .parse::<u64>()
            .unwrap(),
        "+Inf bucket must equal _count"
    );

    // The tiny HTTP surface.
    let (status, _, body) = http_get(metrics_addr, "/nope");
    assert!(status.contains("404"), "{status}");
    assert!(body.contains("/metrics"), "{body}");

    // Scrapes count themselves: the next exposition reports both scrapes
    // that came before it (parity scrape + 404 probe hits /nope, so just
    // the one) plus itself.
    let (_, _, prom2) = http_get(metrics_addr, "/metrics");
    let scrapes: u64 = parse_exposition(&prom2)
        .iter()
        .find(|s| s.name == "elephant_metrics_scrapes")
        .unwrap()
        .value
        .parse()
        .unwrap();
    assert_eq!(scrapes, 2, "{prom2}");

    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Non-GET requests are refused without crashing the listener.
#[test]
fn metrics_listener_rejects_non_get_and_survives() {
    let handle = start(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .unwrap();
    let metrics_addr = handle.metrics_addr().unwrap();

    let mut s = TcpStream::connect(metrics_addr).unwrap();
    write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");

    // The listener still serves after the bad request.
    let (status, _, body) = http_get(metrics_addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("elephant_uptime_s"), "{body}");

    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    c.shutdown().unwrap();
    drop(c);
    handle.join();
}
