//! End-to-end distributed tracing acceptance: a cross-shard scatter-gather
//! query on a 4-shard durable server must leave behind ONE correlated span
//! tree — router decision, per-shard export, coordinator install/execute,
//! group-commit fsync — retrievable over the wire with `TRACE q<id>`, with
//! per-shard time attribution that reconciles with the root total.

use elephant_server::{shard_of, start, ElephantClient, ServerConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Extract `<key>=<value>` from a rendered span line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("missing '{key}=' in span line: {line}"))
}

/// The newest root span line whose detail mentions `needle`; returns the
/// parsed query id.
fn find_query_id(listing: &str, needle: &str) -> u64 {
    let line = listing
        .lines()
        .find(|l| l.contains("kind=command") && l.contains(needle))
        .unwrap_or_else(|| panic!("no root span mentioning '{needle}' in:\n{listing}"));
    field(line, "qid")
        .strip_prefix('q')
        .expect("qid renders as q<id>")
        .parse()
        .expect("query id is numeric")
}

#[test]
fn scatter_gather_query_yields_one_correlated_span_tree() {
    const SHARDS: usize = 4;
    let dir: PathBuf =
        std::env::temp_dir().join(format!("elephant-trace-tree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        shards: SHARDS,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();

    // Two tables the router provably places on different shards, so the
    // join below must scatter-gather.
    let names: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
    let a = names[0].clone();
    let b = names
        .iter()
        .find(|n| shard_of(n, SHARDS) != shard_of(&a, SHARDS))
        .expect("32 names must hit at least two of four shards")
        .clone();
    c.query_raw(&format!("CREATE TABLE {a} (x int)")).unwrap();
    c.query_raw(&format!("CREATE TABLE {b} (x int)")).unwrap();
    c.query_raw(&format!("INSERT INTO {a} VALUES (1), (2)"))
        .unwrap();
    c.query_raw(&format!("INSERT INTO {b} VALUES (2), (10)"))
        .unwrap();

    let rows = c
        .query_raw(&format!(
            "SELECT count(*) AS n FROM {a} INNER JOIN {b} ON {a}.x = {b}.x"
        ))
        .unwrap();
    assert_eq!(rows, "n\n1\n");

    // The TRACE listing spans all shard rings; the join's root is on the
    // coordinator's ring, the inserts' roots on their home shards.
    let listing = c.trace(Some(16)).unwrap();
    let join_qid = find_query_id(&listing, "INNER JOIN");
    let insert_qid = find_query_id(&listing, &format!("INSERT INTO {a}"));

    // --- The scatter-gather tree -----------------------------------------
    let tree = c.trace_tree(join_qid).unwrap();
    assert!(
        tree.starts_with(&format!("trace q{join_qid} spans=")),
        "{tree}"
    );

    // Every span in the tree belongs to this one query: correlation held
    // across the router, the exporting shards, and the coordinator.
    let span_lines: Vec<&str> = tree.lines().filter(|l| l.contains("span seq=")).collect();
    assert!(span_lines.len() >= 5, "thin tree:\n{tree}");
    for line in &span_lines {
        assert_eq!(field(line, "qid"), format!("q{join_qid}"), "{line}");
    }

    // The phases the issue demands, all under one root.
    for kind in ["command", "router", "sg-export", "sg-install", "sg-gather"] {
        assert!(
            span_lines.iter().any(|l| field(l, "kind") == kind),
            "missing kind={kind} in tree:\n{tree}"
        );
    }
    // The gather exec waited in the coordinator's queue like any command.
    assert!(
        span_lines.iter().any(|l| field(l, "kind") == "queue-wait"),
        "missing queue-wait span:\n{tree}"
    );

    // Exports must come from a different shard than the coordinator runs
    // the gathered plan on — that is what makes the trace *distributed*.
    let export_shards: BTreeSet<&str> = span_lines
        .iter()
        .filter(|l| field(l, "kind") == "sg-export")
        .map(|l| field(l, "shard"))
        .collect();
    let gather_shard = span_lines
        .iter()
        .find(|l| field(l, "kind") == "sg-gather")
        .map(|l| field(l, "shard"))
        .unwrap();
    assert!(
        export_shards.iter().any(|s| *s != gather_shard),
        "exports all landed on the coordinator:\n{tree}"
    );

    // Hierarchy: the root is the only top-level line; children indent.
    assert!(
        span_lines[0].starts_with("span seq=") && span_lines[0].contains("kind=command"),
        "{tree}"
    );
    assert!(
        span_lines[1..].iter().all(|l| !l.starts_with("span seq=")),
        "children must be indented under the root:\n{tree}"
    );

    // Per-shard attribution reconciles with the root total: executor-side
    // work on any one shard cannot exceed the root's wall clock (±1µs per
    // span for truncation).
    let total_line = tree
        .lines()
        .find(|l| l.starts_with("total_us "))
        .unwrap_or_else(|| panic!("missing total_us line:\n{tree}"));
    let total_us: u64 = total_line
        .strip_prefix("total_us ")
        .unwrap()
        .parse()
        .unwrap();
    let shard_line = tree
        .lines()
        .find(|l| l.starts_with("shard_us "))
        .unwrap_or_else(|| panic!("missing shard_us line:\n{tree}"));
    let attributions: Vec<(u16, u64)> = shard_line
        .split_whitespace()
        .skip(1)
        .map(|tok| {
            let (shard, us) = tok
                .strip_prefix("shard")
                .and_then(|t| t.split_once('='))
                .unwrap_or_else(|| panic!("bad shard_us token '{tok}'"));
            (shard.parse().unwrap(), us.parse().unwrap())
        })
        .collect();
    assert!(
        attributions.len() >= 2,
        "cross-shard query must attribute time to at least two shards:\n{tree}"
    );
    let slack = span_lines.len() as u64;
    for (shard, us) in &attributions {
        assert!(
            *us <= total_us + slack,
            "shard{shard} attribution {us}µs exceeds root total {total_us}µs:\n{tree}"
        );
    }

    // --- The durable write's tree ----------------------------------------
    // An acknowledged INSERT under `--fsync always` carries the group-
    // commit fsync as a span of its own.
    let insert_tree = c.trace_tree(insert_qid).unwrap();
    let insert_lines: Vec<&str> = insert_tree
        .lines()
        .filter(|l| l.contains("span seq="))
        .collect();
    for kind in [
        "command",
        "router",
        "queue-wait",
        "shard-exec",
        "wal-group-fsync",
    ] {
        assert!(
            insert_lines.iter().any(|l| field(l, "kind") == kind),
            "missing kind={kind} in durable write tree:\n{insert_tree}"
        );
    }

    // Unknown query ids answer gracefully rather than erroring.
    let missing = c.trace_tree(9_999_999).unwrap();
    assert_eq!(missing, "no spans recorded for q9999999");

    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The slow-query log carries the query id so an operator can jump from a
/// log line straight to `TRACE q<id>`. With the threshold at zero every
/// statement logs; we only assert the plumbing (stderr is captured by the
/// test harness), i.e. the trace listing and STATS agree on ids/counters.
#[test]
fn trace_listing_is_cross_shard_and_newest_first() {
    const SHARDS: usize = 4;
    let handle = start(ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();

    // Fresh server: no spans yet (TRACE itself is answered at the router
    // and never creates spans).
    assert_eq!(c.trace(None).unwrap(), "no spans recorded");

    // Commands landing on different shards must interleave into one
    // globally-ordered listing.
    let names: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
    let a = names[0].clone();
    let b = names
        .iter()
        .find(|n| shard_of(n, SHARDS) != shard_of(&a, SHARDS))
        .unwrap()
        .clone();
    c.query_raw(&format!("CREATE TABLE {a} (x int)")).unwrap();
    c.query_raw(&format!("CREATE TABLE {b} (x int)")).unwrap();
    c.query_raw(&format!("INSERT INTO {a} VALUES (1)")).unwrap();
    c.query_raw(&format!("INSERT INTO {b} VALUES (2)")).unwrap();

    let listing = c.trace(Some(10)).unwrap();
    let roots: Vec<&str> = listing.lines().collect();
    assert_eq!(roots.len(), 4, "{listing}");
    assert!(
        roots.iter().all(|l| l.contains("kind=command")),
        "{listing}"
    );
    // Newest first: the INSERT into b precedes the CREATEs.
    assert!(roots[0].contains(&format!("INSERT INTO {b}")), "{listing}");
    assert!(roots[3].contains(&format!("CREATE TABLE {a}")), "{listing}");
    // Both shards' rings contributed.
    let shards_seen: BTreeSet<&str> = roots.iter().map(|l| field(l, "shard")).collect();
    assert!(shards_seen.len() >= 2, "{listing}");
    // Query ids are unique across shards (allocated at the router).
    let qids: BTreeSet<&str> = roots.iter().map(|l| field(l, "qid")).collect();
    assert_eq!(qids.len(), roots.len(), "{listing}");

    // `TRACE 2` truncates to the newest two.
    let clipped = c.trace(Some(2)).unwrap();
    assert_eq!(clipped.lines().count(), 2, "{clipped}");
    assert_eq!(clipped.lines().next(), roots.first().copied());

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

/// A query's CSV encoding is an engine phase of its own: an
/// `engine-phase name=encode` child of the `shard-exec` span, after
/// `execute`, and a `phase_encode_*` family in `STATS`.
#[test]
fn result_encoding_hangs_under_shard_exec() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    c.query_raw("CREATE TABLE t (a int, s text)").unwrap();
    let rows: Vec<String> = (0..3000).map(|i| format!("({i}, 'r{i}')")).collect();
    c.query_raw(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    let body = c.query_raw("SELECT a, s FROM t WHERE a >= 0").unwrap();
    assert_eq!(body.lines().count(), 3001);

    let listing = c.trace(Some(4)).unwrap();
    let tree = c
        .trace_tree(find_query_id(&listing, "SELECT a, s FROM t"))
        .unwrap();
    let spans: Vec<&str> = tree.lines().filter(|l| l.contains("span seq=")).collect();
    let exec = spans
        .iter()
        .find(|l| field(l, "kind") == "shard-exec")
        .unwrap_or_else(|| panic!("no shard-exec span:\n{tree}"));
    let phases: Vec<&str> = spans
        .iter()
        .filter(|l| field(l, "kind") == "engine-phase")
        .inspect(|l| assert_eq!(field(l, "parent"), field(exec, "id"), "{l}"))
        .map(|l| field(l, "name"))
        .collect();
    assert_eq!(
        phases,
        ["lex", "parse", "bind", "optimize", "execute", "encode"],
        "{tree}"
    );

    let stats = c.stats().unwrap();
    for key in ["phase_encode_count", "phase_encode_total_us"] {
        assert!(
            stats.lines().any(|l| l.starts_with(&format!("{key} "))),
            "missing {key}:\n{stats}"
        );
    }

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

/// An `INSPECT`'s own stages — capturing the pipeline, one span per
/// pipeline line, dropping the scratch relations — hang under the command's
/// `shard-exec` span, so the time between the engine phases is attributed
/// too.
#[test]
fn inspect_stages_hang_under_shard_exec() {
    let handle = start(ServerConfig::default().with_standard_pipeline_data(60, 3)).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    let report = c
        .inspect(&["race", "age_group"], 0.3, "@healthcare")
        .unwrap();

    let listing = c.trace(Some(4)).unwrap();
    let tree = c
        .trace_tree(find_query_id(&listing, "columns=race,age_group"))
        .unwrap();
    let spans: Vec<&str> = tree.lines().filter(|l| l.contains("span seq=")).collect();
    let exec = spans
        .iter()
        .find(|l| field(l, "kind") == "shard-exec")
        .unwrap_or_else(|| panic!("no shard-exec span:\n{tree}"));
    let stages: Vec<&&str> = spans
        .iter()
        .filter(|l| field(l, "kind") == "inspect-stage")
        .collect();

    // Every stage is a direct child of the exec span, and together they
    // fit inside it.
    for stage in &stages {
        assert_eq!(field(stage, "parent"), field(exec, "id"), "{stage}");
    }
    let stage_us: u64 = stages
        .iter()
        .map(|l| field(l, "us").parse::<u64>().unwrap())
        .sum();
    let exec_us: u64 = field(exec, "us").parse().unwrap();
    assert!(
        stage_us <= exec_us,
        "stages {stage_us}µs > exec {exec_us}µs"
    );

    // `capture` first, `scratch-drop` last, and in between one span per
    // `line` entry of the report, named `<line>:<operator>`.
    let names: Vec<&str> = stages.iter().map(|l| field(l, "name")).collect();
    let expected: Vec<String> = std::iter::once("capture".to_string())
        .chain(
            report
                .lines()
                .filter(|l| l.starts_with("line no="))
                .map(|l| format!("{}:{}", field(l, "no"), field(l, "op"))),
        )
        .chain(["scratch-drop".to_string()])
        .collect();
    assert_eq!(names, expected, "{tree}");
    assert!(names.contains(&"14:merge"), "{tree}");

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}
